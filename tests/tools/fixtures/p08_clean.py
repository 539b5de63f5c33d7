"""Fixture: P08 clean twin — registrations through the tracked helpers."""


class PoliteOperator:
    def start(self):
        self.listen(self.namespace, self._on_data, batched=True)
        self.intercept(self.namespace, self._on_upcall)
        # reading the overlay is fine; only registering is tracked
        self.context.overlay.local_scan(self.namespace, self._on_stored)


def start_service(overlay, on_result):
    # a long-lived component outside any operator class registers directly
    return overlay.new_data("__results__", on_result)
