"""Fixture: P08 violations — overlay registrations nobody can undo."""


class ClingyOperator:
    def start(self):
        self.context.overlay.new_data(self.namespace, self._on_data, batched=True)
        overlay = self.context.overlay
        overlay.upcall(self.namespace, self._on_upcall)

    def restart(self):
        self.overlay.new_data(self.namespace, self._on_data)
