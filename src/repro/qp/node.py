"""PIERNode: the full per-node software stack.

One PIERNode combines the overlay network (router + object manager +
wrapper), the distribution tree, the query disseminator, the query
executor, and the proxy service — everything Figure 3/4 places above the
Virtual Runtime Interface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.overlay.distribution_tree import DistributionTree
from repro.overlay.naming import random_suffix
from repro.overlay.router import BootstrapDirectory, ChordRouter, NodeContact, Router
from repro.overlay.wrapper import OverlayNode
from repro.qp.completion import ProgressReporter, graphs_stream
from repro.qp.dissemination import QueryDisseminator, TemplateCache
from repro.qp.executor import QueryExecutor
from repro.qp.operators.exchange import STRAGGLER_FLUSH_INTERVAL
from repro.qp.opgraph import QueryEnvelope, QueryPlan
from repro.qp.proxy import ProxyService, QueryHandle
from repro.qp.tuples import Tuple
from repro.runtime.vri import VirtualRuntime

# Takes one pane burst: a list of partials blocks (repro.cq.panes.pane_blocks).
PaneListener = Callable[[List[Dict[str, Any]]], None]


class PIERNode:
    """One participant in a PIER deployment."""

    def __init__(
        self,
        runtime: VirtualRuntime,
        directory: BootstrapDirectory,
        router_factory: Callable[[NodeContact], Router] = ChordRouter,
        exchange_defaults: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.runtime = runtime
        self.overlay = OverlayNode(runtime, directory, router_factory=router_factory)
        self.tree = DistributionTree(self.overlay)
        self.executor = QueryExecutor(self.overlay, exchange_defaults=exchange_defaults)
        # The opgraph templates this node received down the tree, by digest.
        self.templates = TemplateCache(runtime.get_current_time)
        self.overlay.on_stabilize(self._sweep_templates)
        self.disseminator = QueryDisseminator(
            self.overlay, self.tree, self._install_envelope, self.templates
        )
        self.proxy = ProxyService(self.overlay, self.executor, self.disseminator)
        # Shared-plan epoch fan-out (repro.cq.sharing): subscribers attached
        # through this node register here for pane bursts broadcast over
        # the distribution tree, keyed by the shared plan's query id.
        self._pane_listeners: Dict[str, List[PaneListener]] = {}
        self._started = False

    # -- lifecycle ------------------------------------------------------------ #
    def start(self) -> None:
        """Join the overlay and bring up every per-node service."""
        if self._started:
            return
        self._started = True
        self.overlay.join()
        self.tree.start()
        self.disseminator.start()
        self.proxy.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.tree.stop()
        self.overlay.leave()

    @property
    def address(self) -> Any:
        return self.overlay.address

    @property
    def identifier(self) -> int:
        return self.overlay.identifier

    # -- publishing (primary indexes) -------------------------------------------- #
    def publish(
        self,
        namespace: str,
        partitioning_columns: List[str],
        tup: Tuple,
        lifetime: float = 600.0,
        use_send: bool = False,
    ) -> None:
        """Publish a tuple into the DHT, creating/extending the table's
        primary index on ``partitioning_columns`` (paper Section 3.3.3)."""
        key = tup.key(partitioning_columns)
        partition_key = key[0] if len(key) == 1 else key
        if use_send:
            self.overlay.send(namespace, partition_key, random_suffix(), tup.to_wire(), lifetime)
        else:
            self.overlay.put(namespace, partition_key, random_suffix(), tup.to_wire(), lifetime)

    def publish_secondary_index(
        self,
        index_namespace: str,
        index_columns: List[str],
        base_namespace: str,
        base_key: Any,
        tup: Tuple,
        lifetime: float = 600.0,
    ) -> None:
        """Publish a (index-key, tupleID) entry: a secondary index the query
        can dereference with a Fetch Matches join (Section 3.3.3)."""
        key = tup.key(index_columns)
        index_key = key[0] if len(key) == 1 else key
        pointer = Tuple(
            index_namespace,
            {"index_key": index_key, "base_namespace": base_namespace, "base_key": base_key},
        )
        self.overlay.put(index_namespace, index_key, random_suffix(), pointer.to_wire(), lifetime)

    # -- node-local data -------------------------------------------------------------#
    def register_local_table(self, name: str, rows: List[Tuple]) -> None:
        self.executor.register_local_table(name, rows)

    def append_local_rows(self, name: str, rows: Iterable[Tuple]) -> None:
        self.executor.append_local_rows(name, list(rows))

    def register_stream(self, name: str, producer: Callable[[float], List[Tuple]]) -> None:
        self.executor.register_stream(name, producer)

    # -- query submission (this node acts as the client's proxy) ----------------------#
    def submit(
        self,
        plan: QueryPlan,
        result_callback: Optional[Callable[[Tuple], None]] = None,
        done_callback: Optional[Callable[[QueryHandle], None]] = None,
        client: Optional[str] = None,
    ) -> QueryHandle:
        return self.proxy.submit(plan, result_callback, done_callback, client=client)

    def cancel(self, query_id: str) -> bool:
        """Cancel a query this node proxies and abort its local opgraphs."""
        cancelled = self.proxy.cancel(query_id)
        self.executor.cancel_query(query_id)
        return cancelled

    # -- shared-plan pane fan-out ------------------------------------------------ #
    def add_pane_listener(self, query_id: str, callback: PaneListener) -> None:
        self._pane_listeners.setdefault(query_id, []).append(callback)

    def remove_pane_listener(self, query_id: str, callback: PaneListener) -> None:
        listeners = self._pane_listeners.get(query_id)
        if not listeners:
            return
        try:
            listeners.remove(callback)
        except ValueError:
            return
        if not listeners:
            del self._pane_listeners[query_id]

    # -- dissemination sink ---------------------------------------------------------- #
    def _install_envelope(
        self, envelope: Union[QueryEnvelope, Dict[str, Any]], broadcast: bool = False
    ) -> None:
        """Install the opgraphs of a query envelope that arrived via
        dissemination, or apply a control message or pane burst.

        Every graph runs until the proxy's deadline, the same moment on
        every node however deep in the tree this one is; an envelope that
        arrives after it installs nothing.  A renew control moves that
        deadline — to now, when the proxy saw the query's data done.

        An envelope that came down the distribution tree (``broadcast``,
        or a proxy's answer standing in for it) is a template this node
        files, or a header it resolves from its templates — one it cannot
        resolve, it asks the proxy for.  Such an envelope, if it streams,
        gets a progress reporter: its end can come from its data
        (repro.qp.completion)."""
        if not isinstance(envelope, QueryEnvelope):
            panes = envelope.get("panes")
            if panes is not None:
                for callback in list(self._pane_listeners.get(envelope["query_id"], ())):
                    callback(panes)
                return
            control = envelope.get("control")
            if control is not None and control.get("action") == "renew":
                self.executor.extend_query(
                    envelope["query_id"],
                    control["deadline"] - self.runtime.get_current_time(),
                )
            return
        remaining = envelope.deadline - self.runtime.get_current_time()
        if remaining <= 0:
            return
        if not broadcast:
            decoded = envelope.decoded()
        elif envelope.by_reference:
            decoded = self.templates.resolve(envelope.digest)
            if decoded is None:
                self.disseminator.request_template(envelope)
                return
        else:
            decoded = self.templates.file(envelope)
        query_id = envelope.query_id
        proxy_address = envelope.proxy
        local = proxy_address == self.overlay.address
        deliver = None
        if local:
            deliver = lambda tup, qid=query_id: self.proxy.deliver_local_result(qid, tup)
        progress = None
        if broadcast and graphs_stream(decoded, envelope.metadata):
            progress = ProgressReporter(
                self.overlay,
                query_id,
                proxy_address,
                # The exchanges' straggler interval: a quiet node has
                # shipped what its batches held.
                self.executor.setting(envelope.metadata, "exchange_flush_interval")
                or STRAGGLER_FLUSH_INTERVAL,
                self.proxy.note_progress if local else None,
            )
        records = [
            self.executor.install(
                query_id=query_id,
                graph=entry,
                timeout=remaining,
                proxy_address=proxy_address,
                deliver_result=deliver,
                metadata=envelope.metadata,
                progress=progress,
            )
            for entry in decoded
        ]
        if progress is not None and any(records):
            progress.touch()  # installed and probed: the quiet clock starts

    def _sweep_templates(self) -> None:
        """Drop the templates unused for the retention, on the
        stabilization tick; the release ledger audits what stays."""
        expired = self.templates.sweep()
        sanitizer = getattr(self.runtime, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.check_templates(self.templates, expired, self.address)
