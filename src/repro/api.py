"""High-level facade: build a simulated PIER deployment and run queries.

:class:`PIERNetwork` wires the full stack together — simulation
environment, DHT overlay, distribution trees, executors, and proxies — so
applications, examples, tests, and benchmarks can publish data and execute
queries with a few calls.  It corresponds to operating a PIER deployment
under the paper's "native simulation" harness.

Unlike the paper's system, the deployment owns a :class:`~repro.catalog.Catalog`:
declare a table once with :meth:`PIERNetwork.create_table` and every later
step — publishing, planning, execution — consults the same metadata, so the
one-call SQL path works end to end::

    network = PIERNetwork(30)
    network.create_table("machines", partitioning=["node"])
    network.publish("machines", rows)
    result = network.query(
        "SELECT site, COUNT(*) AS n FROM machines GROUP BY site "
        "ORDER BY n DESC LIMIT 3 TIMEOUT 8"
    )

``stream(sql)`` returns a :class:`~repro.session.StreamingQuery` for
incremental consumption, and ``explain(sql)`` renders the compiled plan
with the planner's strategy choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.churn import ChurnProcess

from repro.catalog import Catalog, TableDescriptor
from repro.overlay.router import BootstrapDirectory, ChordRouter, NodeContact, Router
from repro.overlay.bamboo import BambooRouter
from repro.qp.node import PIERNode
from repro.qp.integrity import (
    INTEGRITY_METADATA_KEY,
    IntegrityPolicy,
    IntegrityReport,
    apply_integrity,
    resolve_integrity,
)
from repro.qp.operators.access import coerce_tuple
from repro.qp.opgraph import QueryPlan
from repro.qp.proxy import QueryHandle
from repro.qp.resilience import ResiliencePolicy, resolve_resilience
from repro.security.rate_limiter import QueryRejected
from repro.qp.stats import Statistics
from repro.qp.tuples import Tuple
from repro.runtime.congestion import CongestionModel
from repro.runtime.endpoint import NetworkEndpoint
from repro.runtime.physical import PhysicalEnvironment
from repro.runtime.simulation import SimulationEnvironment
from repro.runtime.topology import Topology

ROUTER_FACTORIES: Dict[str, Callable[[NodeContact], Router]] = {
    "chord": ChordRouter,
    "bamboo": BambooRouter,
}


@dataclass
class QueryResult:
    """What a client gets back from :meth:`PIERNetwork.query` / ``execute``.

    ``sql`` is the originating statement (when the query came in as SQL),
    ``explain`` the rendered plan report, and ``messages_sent`` /
    ``bytes_sent`` the network traffic attributable to this query (the
    simulator-wide counters sampled around its execution window).

    ``coverage`` makes the paper's relaxed semantics visible instead of
    silently returning partial answers: it is the fraction of the query's
    participants (the proxy's membership view at submission) still
    believed live when the query finished, with ``down_nodes`` naming the
    participants believed down and ``redisseminations`` counting rejoin
    re-installations performed for this query.
    """

    query_id: str
    tuples: List[Tuple] = field(default_factory=list)
    first_result_latency: Optional[float] = None
    completed: bool = False
    # How it ended: "data", "deadline" or "cancel" (QueryHandle.completed_by).
    completed_by: Optional[str] = None
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    sql: Optional[str] = None
    explain: Optional[str] = None
    messages_sent: Optional[int] = None
    bytes_sent: Optional[int] = None
    coverage: float = 1.0
    down_nodes: List[Any] = field(default_factory=list)
    redisseminations: int = 0
    # Integrity-verified execution (repro.qp.integrity): present when the
    # query ran under an active IntegrityPolicy — suspected nodes, per-
    # origin verification failures and repairs, replica disagreement.
    integrity: Optional[IntegrityReport] = None

    def __len__(self) -> int:
        return len(self.tuples)

    def rows(self) -> List[Dict[str, Any]]:
        """Results as plain dictionaries, convenient for assertions/printing."""
        return [tup.as_mapping() for tup in self.tuples]

    def column(self, name: str) -> List[Any]:
        return [tup.get(name) for tup in self.tuples]

    @classmethod
    def from_handle(
        cls,
        handle: QueryHandle,
        plan: QueryPlan,
        stats: Any,
        messages_before: int,
        bytes_before: int,
    ) -> "QueryResult":
        """Package a finished (or cancelled) proxy handle.

        The single construction site shared by ``PIERNetwork.execute`` and
        ``StreamingQuery.result``, so the two paths cannot diverge.
        """
        return cls(
            query_id=handle.query_id,
            tuples=list(handle.results),
            first_result_latency=handle.first_result_latency,
            completed=handle.finished and not handle.cancelled,
            completed_by=handle.completed_by,
            submitted_at=handle.submitted_at,
            finished_at=handle.finished_at,
            sql=plan.metadata.get("sql"),
            messages_sent=stats.messages_sent - messages_before,
            bytes_sent=stats.bytes_sent - bytes_before,
            coverage=handle.coverage,
            down_nodes=sorted(handle.down_nodes),
            redisseminations=handle.redisseminations,
            integrity=getattr(handle, "integrity_report", None),
        )

    def finalize_sql(self, plan: QueryPlan, include_explain: bool = True) -> "QueryResult":
        """The statement-level tail shared by ``PIERNetwork.query`` and
        ``StreamingQuery.result``: apply ORDER BY / LIMIT and attach the
        rendered explain report."""
        from repro.sql.explain import render_explain
        from repro.sql.planner import apply_result_clauses_to_tuples

        self.tuples = apply_result_clauses_to_tuples(plan.metadata, self.tuples)
        if include_explain:
            self.explain = render_explain(plan)
        return self


class PIERNetwork:
    """A PIER deployment of ``node_count`` nodes — simulated or physical.

    Parameters
    ----------
    node_count:
        Number of PIER nodes.
    mode:
        ``"simulated"`` (default) runs every node under the discrete-event
        simulator in virtual time; ``"physical"`` boots each node on a real
        loopback UDP socket (binary codec wire format, receiver-acked
        delivery) driven by one selector loop in wall-clock time.  The
        whole session surface — ``query``/``stream``/``subscribe``/
        ``explain`` — works unchanged in either mode.
    host:
        Bind address for ``mode="physical"`` sockets.
    topology, congestion_model:
        Network model for the simulator (defaults: star topology, no
        congestion), see :mod:`repro.runtime.topology` and
        :mod:`repro.runtime.congestion`.  Simulated mode only.
    router:
        ``"chord"`` (default) or ``"bamboo"`` — PIER is agnostic to the DHT
        routing algorithm.
    settle_time:
        Seconds to run after start-up so distribution-tree advertisements
        propagate before the first query (virtual seconds when simulated,
        wall seconds when physical).  Defaults to 2.0 simulated / 1.0
        physical.
    exchange_batch_size, exchange_flush_interval:
        Deployment-wide defaults for the batching exchange (``put``
        operators): same-destination tuples are coalesced into one DHT
        message once ``exchange_batch_size`` of them accumulate, with a
        periodic flush every ``exchange_flush_interval`` virtual seconds.
        A batch size of 1 (the default) keeps the paper's one-message-per-
        tuple behaviour.  Individual plans can override both knobs through
        ``plan.metadata``.
    catalog:
        The deployment's system catalog; a fresh :class:`Catalog` (with its
        own statistics) by default.
    """

    def __init__(
        self,
        node_count: int,
        topology: Optional[Topology] = None,
        congestion_model: Optional[CongestionModel] = None,
        router: str = "chord",
        seed: int = 0,
        settle_time: Optional[float] = None,
        auto_start: bool = True,
        exchange_batch_size: int = 1,
        exchange_flush_interval: float = 0.25,
        catalog: Optional[Catalog] = None,
        mode: str = "simulated",
        host: str = "127.0.0.1",
    ) -> None:
        if router not in ROUTER_FACTORIES:
            raise ValueError(f"unknown router {router!r}; options: {sorted(ROUTER_FACTORIES)}")
        if mode not in ("simulated", "physical"):
            raise ValueError(f"unknown mode {mode!r}; options: ['physical', 'simulated']")
        self.mode = mode
        if mode == "physical":
            if topology is not None or congestion_model is not None:
                raise ValueError(
                    "topology/congestion_model describe the simulator's network "
                    "model; mode='physical' uses the real loopback network"
                )
            self.environment: NetworkEndpoint = PhysicalEnvironment(
                node_count, host=host, seed=seed
            )
            if settle_time is None:
                settle_time = 1.0
        else:
            self.environment = SimulationEnvironment(
                node_count, topology=topology, congestion_model=congestion_model, seed=seed
            )
            if settle_time is None:
                settle_time = 2.0
        self.directory = BootstrapDirectory()
        router_factory = ROUTER_FACTORIES[router]
        exchange_defaults = {
            "exchange_batch_size": exchange_batch_size,
            "exchange_flush_interval": exchange_flush_interval,
        }
        self.nodes: List[PIERNode] = [
            PIERNode(
                self.environment.runtime(address),
                self.directory,
                router_factory,
                exchange_defaults=exchange_defaults,
            )
            for address in range(node_count)
        ]
        self.settle_time = settle_time
        # The deployment-owned catalog: placement metadata plus the
        # planner's statistics, fed by publish()/local tables.
        self.catalog = catalog if catalog is not None else Catalog()
        # Deployment-wide resilience default (None = off); attach_churn()
        # turns it on, and query()/execute()/stream() accept per-query
        # overrides.
        self.default_resilience: Optional[ResiliencePolicy] = None
        # Deployment-wide integrity default (None = off): spot-check
        # verified aggregation and redundant sub-tree evaluation for every
        # query, with per-query overrides on query()/execute()/stream().
        self.default_integrity: Optional[IntegrityPolicy] = None
        # The deployment-owned multi-query sharing registry (created
        # lazily — see the ``sharing`` property): maps plan fingerprints
        # to shared standing-query installs with per-subscriber refcounts.
        self._sharing = None
        # Failure/recovery notifications: the stand-in for the failure
        # detection a stabilization layer performs.  Failures reach the
        # proxies' coverage tracking; recoveries additionally restart the
        # recovered node's overlay timers and purge its orphaned opgraphs
        # so rejoin re-dissemination can reinstall them.
        self.environment.on_failure(self._on_node_failure)
        self.environment.on_recovery(self._on_node_recovery)
        self._started = False
        if auto_start:
            self.start()

    # -- lifecycle ------------------------------------------------------------- #
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        # Join every node's overlay first and refresh routing tables once the
        # whole membership is known (what stabilization would converge to),
        # so that the distribution-tree advertisements sent by node.start()
        # route consistently toward the tree root.
        for node in self.nodes:
            node.overlay.join()
        for node in self.nodes:
            node.overlay.router.sync(self.directory)
        for node in self.nodes:
            node.start()
        # Let tree advertisements and initial maintenance traffic settle.
        self.run(self.settle_time)

    def close(self) -> None:
        """Release the environment's OS resources (sockets, selector).

        A no-op for simulated deployments; physical deployments should be
        closed (or used as a context manager) so loopback sockets are
        returned promptly.
        """
        self.environment.close()

    def __enter__(self) -> "PIERNetwork":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- access ----------------------------------------------------------------- #
    def node(self, address: int) -> PIERNode:
        return self.nodes[address]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def now(self) -> float:
        return self.environment.now

    @property
    def statistics(self) -> Statistics:
        """The planner's statistics catalog (lives on :attr:`catalog`)."""
        return self.catalog.statistics

    @property
    def sharing(self):
        """The deployment's multi-query sharing registry (see
        :class:`~repro.cq.sharing.SharingRegistry`)."""
        if self._sharing is None:
            from repro.cq.sharing import SharingRegistry

            self._sharing = SharingRegistry(self)
        return self._sharing

    def run(self, duration: float) -> int:
        """Advance the simulation by ``duration`` virtual seconds."""
        return self.environment.run(duration)

    # -- catalog ---------------------------------------------------------------- #
    def create_table(
        self,
        name: str,
        source: str = "dht",
        partitioning: Optional[Sequence[str]] = None,
        schema: Optional[Sequence[str]] = None,
        lifetime: float = 600.0,
        replace: bool = False,
    ) -> TableDescriptor:
        """Declare a table in the deployment catalog.

        Once declared, ``publish(name, rows)`` / ``query(sql)`` need no
        placement metadata from the caller — publisher and planner both
        read the catalog.
        """
        return self.catalog.create_table(
            name,
            source=source,
            partitioning=partitioning,
            schema=schema,
            lifetime=lifetime,
            replace=replace,
        )

    # -- data placement -------------------------------------------------------------#
    def publish(
        self,
        namespace: str,
        rows: Iterable[Tuple],
        publisher: int = 0,
        lifetime: Optional[float] = None,
        spread: bool = True,
    ) -> int:
        """Publish tuples into the DHT (the table's primary index).

        The table's partitioning columns and tuple lifetime come from the
        catalog: declare the table with :meth:`create_table` first.  An
        undeclared or local table raises :class:`~repro.catalog.CatalogError`
        before any row is sent.

        With ``spread=True`` rows are published round-robin from every node,
        modelling data that originates all over the network.
        """
        descriptor = self.catalog.require(namespace, "dht")
        columns = list(descriptor.partitioning)
        effective_lifetime = lifetime if lifetime is not None else descriptor.lifetime
        # A row is a Tuple or a mapping of column values — what a scan
        # accepts from the DHT — and a bad one fails before any is sent.
        given = list(rows)
        rows = [coerce_tuple(namespace, row) for row in given]
        if None in rows:
            raise TypeError(
                f"publish() rows are Tuples or dicts of column values; table "
                f"{namespace!r} got a {type(given[rows.index(None)]).__name__}"
            )
        for index, tup in enumerate(rows):
            origin = self.nodes[(publisher + index) % len(self.nodes)] if spread else self.nodes[publisher]
            origin.publish(namespace, columns, tup, lifetime=effective_lifetime)
            self.catalog.record(namespace, tup.as_mapping())
        return len(rows)

    def register_local_table(self, address: int, name: str, rows: Iterable[Tuple]) -> None:
        """Attach node-local rows (e.g. this node's firewall log) to a table
        declared with ``create_table(name, source="local")``, replacing
        any rows the node held for it."""
        self.catalog.require(name, "local")
        rows = list(rows)
        replaced = name in self.nodes[address].executor.local_tables
        self.nodes[address].register_local_table(name, rows)
        if replaced:
            # The replaced rows were counted: rebuild the table's
            # statistics from what every node now holds.
            self.statistics.forget(name)
            for node in self.nodes:
                held = node.executor.local_tables.get(name, ())
                self.catalog.record_rows(name, (tup.as_mapping() for tup in held))
        else:
            self.catalog.record_rows(name, (tup.as_mapping() for tup in rows))

    def append_local_rows(self, address: int, name: str, rows: Iterable[Tuple]) -> int:
        """Append rows to one node's local table *live*: running queries
        that scan the table (including standing windowed queries) see them
        immediately, the local-table analogue of publishing into the DHT
        mid-query."""
        self.catalog.require(name, "local")
        rows = list(rows)
        self.nodes[address].append_local_rows(name, rows)
        self.catalog.record_rows(name, (tup.as_mapping() for tup in rows))
        return len(rows)

    def distribute_local_table(self, name: str, rows_by_node: Sequence[Iterable[Tuple]]) -> None:
        """Attach per-node rows for every node at once."""
        if len(rows_by_node) != len(self.nodes):
            raise ValueError("rows_by_node must provide one row list per node")
        for address, rows in enumerate(rows_by_node):
            self.register_local_table(address, name, rows)

    # -- planning --------------------------------------------------------------------#
    def make_planner(self, **kwargs):
        """A SQL planner that reads this deployment's catalog and its
        statistics."""
        from repro.sql.planner import NaivePlanner

        return NaivePlanner(self.catalog, **kwargs)

    def plan_sql(self, sql: str, **planner_opts: Any) -> QueryPlan:
        """Compile SQL text against the deployment catalog."""
        return self.make_planner(**planner_opts).plan_sql(sql)

    # -- query execution ----------------------------------------------------------------#
    def _apply_resilience(self, plan: QueryPlan, resilience: Any) -> None:
        """Stamp the effective resilience policy into ``plan.metadata`` so
        it travels to every executing node in the dissemination envelope.

        An explicit ``resilience`` argument is always stamped — including
        an all-off policy (``resilience=False``), so an opt-out survives
        the later ``submit()`` call instead of being re-resolved back to
        the deployment default."""
        if resilience is None:
            if "resilience" in plan.metadata:
                return  # an earlier call already stamped a per-query policy
            policy = self.default_resilience
            if policy is None or not policy.active:
                return
        else:
            policy = resolve_resilience(resilience)
        plan.metadata["resilience"] = policy.to_metadata()

    def _apply_integrity(self, plan: QueryPlan, integrity: Any) -> None:
        """Stamp the effective integrity policy and build the redundant
        replica trees (see :func:`repro.qp.integrity.apply_integrity`).

        Mirrors :meth:`_apply_resilience`: an inactive effective policy
        leaves the plan untouched, so integrity-off execution is bit-for-bit
        the pre-integrity hot path."""
        if integrity is None:
            if INTEGRITY_METADATA_KEY in plan.metadata:
                return  # an earlier call already stamped a per-query policy
            policy = self.default_integrity
            if policy is None or not policy.active:
                return
        else:
            policy = resolve_integrity(integrity, default=None)
            if policy is None or not policy.active:
                # Stamp the opt-out: a later submit() on the same plan must
                # not re-resolve back to the deployment default.
                plan.metadata[INTEGRITY_METADATA_KEY] = IntegrityPolicy().to_metadata()
                return
        apply_integrity(plan, policy)

    def enable_rate_limiting(
        self, window: float = 60.0, threshold: float = 100.0
    ) -> None:
        """Install per-client query admission control on every proxy.

        Each submission charges one unit against the submitting client's
        sliding window at its proxy node; clients over the threshold get
        :class:`~repro.security.rate_limiter.QueryRejected`."""
        for node in self.nodes:
            node.proxy.enable_rate_limiting(window=window, threshold=threshold)

    def submit(
        self,
        plan: QueryPlan,
        proxy: int = 0,
        result_callback: Optional[Callable[[Tuple], None]] = None,
        done_callback: Optional[Callable[[QueryHandle], None]] = None,
        resilience: Any = None,
        integrity: Any = None,
        client: Optional[str] = None,
    ) -> QueryHandle:
        """Submit a plan at the given proxy node without advancing time."""
        self._apply_resilience(plan, resilience)
        self._apply_integrity(plan, integrity)
        return self.nodes[proxy].submit(
            plan, result_callback, done_callback, client=client
        )

    def execute(
        self,
        plan: QueryPlan,
        proxy: int = 0,
        extra_time: float = 3.0,
        resilience: Any = None,
        integrity: Any = None,
        client: Optional[str] = None,
    ) -> QueryResult:
        """Submit a plan and run the simulation until it completes.

        The simulator stops stepping as soon as the proxy reports the query
        finished (instead of always burning ``plan.timeout + extra_time``
        virtual seconds); ``extra_time`` only bounds how long to wait past
        the timeout for the completion event.
        """
        stats = self.environment.stats
        messages_before = stats.messages_sent
        bytes_before = stats.bytes_sent
        handle = self.submit(
            plan, proxy=proxy, resilience=resilience, integrity=integrity, client=client
        )
        self.environment.run(
            plan.timeout + extra_time, stop_condition=lambda: handle.finished
        )
        return QueryResult.from_handle(handle, plan, stats, messages_before, bytes_before)

    def query(
        self,
        sql: str,
        proxy: int = 0,
        extra_time: float = 3.0,
        include_explain: bool = True,
        resilience: Any = None,
        integrity: Any = None,
        client: Optional[str] = None,
        analyze: bool = False,
        **planner_opts: Any,
    ) -> QueryResult:
        """The one-call SQL path: parse -> plan (catalog + statistics) ->
        disseminate -> execute -> ORDER BY / LIMIT.

        ``planner_opts`` are forwarded to the planner (e.g.
        ``aggregation_strategy="hierarchical"``).  ``resilience`` selects
        the churn behaviour for this query — ``True`` for the everything-on
        :class:`~repro.qp.resilience.ResiliencePolicy`, a policy/dict for
        fine-grained knobs; the default is the deployment's
        ``default_resilience`` (set by :meth:`attach_churn`).  The returned
        :class:`QueryResult` carries the originating SQL, the rendered
        ``explain`` report, per-query message counts, and the ``coverage``
        metric.

        ``analyze=True`` is EXPLAIN ANALYZE: tracing is enabled for the
        run and ``result.explain`` becomes the plan tree annotated with
        per-operator actuals (rows, messages, bytes, busy time) and the
        per-join-edge estimation error (see :meth:`explain_analyze`).
        """
        plan = self.plan_sql(sql, **planner_opts)
        if analyze:
            self.enable_tracing()
        result = self.execute(
            plan,
            proxy=proxy,
            extra_time=extra_time,
            resilience=resilience,
            integrity=integrity,
            client=client,
        )
        result = result.finalize_sql(plan, include_explain=include_explain and not analyze)
        if analyze:
            result.explain = self.explain_analyze(result.query_id, plan=plan)
        return result

    def stream(
        self,
        sql: Union[str, QueryPlan],
        proxy: int = 0,
        extra_time: float = 3.0,
        resilience: Any = None,
        integrity: Any = None,
        client: Optional[str] = None,
        **planner_opts: Any,
    ):
        """Submit a query and return a :class:`~repro.session.StreamingQuery`.

        Accepts SQL text (planned against the catalog) or a pre-built
        :class:`QueryPlan`.  The stream delivers tuples incrementally via
        callbacks or iteration, supports ``cancel()``, and exposes the live
        ``coverage`` / ``down_nodes`` view while the query runs.
        """
        from repro.session import StreamingQuery

        plan = sql if isinstance(sql, QueryPlan) else self.plan_sql(sql, **planner_opts)
        self._apply_resilience(plan, resilience)
        self._apply_integrity(plan, integrity)
        return StreamingQuery(
            self, plan, proxy=proxy, extra_time=extra_time, client=client
        )

    def subscribe(
        self,
        sql: Union[str, QueryPlan],
        proxy: int = 0,
        epoch_grace: Optional[float] = None,
        resilience: Any = None,
        shared: Optional[bool] = None,
        **planner_opts: Any,
    ):
        """Submit a *continuous* (windowed) query and return a
        :class:`~repro.cq.continuous.ContinuousQuery` handle.

        The statement must carry a window clause (``WINDOW 30 SLIDE 10
        LIFETIME 300``); the handle delivers one
        :class:`~repro.cq.continuous.WindowEpoch` per closed window (with
        per-epoch ORDER BY / LIMIT applied), supports ``pause``/``resume``,
        lifetime ``renew``, and tears down cleanly when the lifetime
        expires.  Tuples published after submission — ``publish()`` for
        DHT tables, :meth:`append_local_rows` for local tables — flow into
        the standing query.

        Subscriptions route through the deployment's :attr:`sharing`
        registry: queries computing the same aggregation (same plan
        fingerprint) share one installed opgraph, with epochs re-assembled
        per subscriber from broadcast window panes.  ``shared=False``
        forces a private install (the PR 4 per-client path).
        """
        plan = sql if isinstance(sql, QueryPlan) else self.plan_sql(sql, **planner_opts)
        if not plan.metadata.get("cq"):
            raise ValueError(
                "subscribe() requires a windowed continuous query — add a "
                "WINDOW clause (e.g. 'WINDOW 30 SLIDE 10 LIFETIME 300') or "
                "use stream()/query() for one-shot statements"
            )
        self._apply_resilience(plan, resilience)
        return self.sharing.subscribe(
            plan, proxy=proxy, epoch_grace=epoch_grace, shared=shared
        )

    def renew_lifetime(self, query: Union[str, QueryHandle], proxy: int = 0) -> bool:
        """Propagate a standing query's extended lifetime deployment-wide.

        The caller grows ``plan.timeout`` first (see
        ``ContinuousQuery.renew``); this re-arms the proxy's completion
        timer and broadcasts a renew control message so every node pushes
        out its opgraph teardown to the query's new deadline.
        """
        node = self.nodes[proxy]
        query_id = query if isinstance(query, str) else query.query_id
        handle = node.proxy.query(query_id)
        if handle is None or handle.finished or handle.deadline <= self.now:
            return False
        node.proxy.renew(query_id)
        node.disseminator.broadcast_control(
            query_id, {"action": "renew", "deadline": handle.deadline}
        )
        return True

    def explain(self, sql: str, **planner_opts: Any) -> str:
        """Compile ``sql`` and render the plan — opgraph trees plus the
        planner's strategy choices (fetch/rehash/bloom, pushdown) — without
        executing anything.  Windowed statements additionally get a
        sharing line: the plan fingerprint, what ``subscribe()`` would do
        right now (attach vs fresh install), and the current subscriber
        count."""
        from repro.sql.explain import render_explain

        plan = self.plan_sql(sql, **planner_opts)
        if plan.metadata.get("cq"):
            plan.metadata["sharing"] = self.sharing.describe(plan)
        return render_explain(plan)

    def cancel(self, query: Union[str, QueryHandle]) -> bool:
        """Cancel a running query everywhere in the deployment.

        Finishes the proxy handle (its done callback fires) and aborts the
        query's opgraphs on every node without flushing, so the query stops
        producing traffic immediately.
        """
        query_id = query if isinstance(query, str) else query.query_id
        cancelled = False
        for node in self.nodes:
            cancelled = node.cancel(query_id) or cancelled
        return cancelled

    def _node_for(self, address: Any) -> PIERNode:
        """The node owning ``address`` — a creation index (simulated mode)
        or the runtime's own address (socket pairs in physical mode)."""
        if isinstance(address, int) and address < len(self.nodes):
            node = self.nodes[address]
            if node.address == address or self.mode == "simulated":
                return node
        for node in self.nodes:
            if node.address == address:
                return node
        raise KeyError(f"no node with address {address!r}")

    # -- fault injection / churn integration --------------------------------------------#
    def fail_node(self, address: int) -> None:
        self.environment.fail_node(address)

    def recover_node(self, address: int) -> None:
        self.environment.recover_node(address)

    def _on_node_failure(self, address: int) -> None:
        """Propagate a node failure to every live proxy's coverage view,
        and repair the distribution tree: survivors re-advertise so any
        node whose tree parent was the casualty re-attaches immediately
        (broadcast fan-out — e.g. shared-plan panes — resumes within a
        routing round-trip instead of a soft-state refresh interval)."""
        for node in self.nodes:
            if node.address != address and self.environment.is_alive(node.address):
                node.proxy.note_failure(address)
                node.tree.refresh()

    def _on_node_recovery(self, address: int) -> None:
        """Bring a recovered node back into running queries.

        Order matters: first the node's own timers and orphaned opgraphs
        are reset (its in-flight state died with it), then its overlay
        rejoins (clearing the peers' suspicion), and only then do the
        proxies learn about the recovery — their rejoin re-dissemination
        lands on a node that is ready to install fresh opgraphs.
        """
        recovered = self._node_for(address)
        recovered.executor.on_node_recovered()
        recovered.overlay.rejoin()
        # The periodic tree-advert timer was dropped while the node was
        # down: restart the chain so the node re-attaches to the broadcast
        # tree (and keeps re-advertising) instead of silently falling out.
        recovered.tree.restart()
        for node in self.nodes:
            if self.environment.is_alive(node.address):
                node.proxy.note_recovery(address)

    def attach_churn(self, churn: "ChurnProcess", protect_proxies: bool = True):
        """Wire a :class:`~repro.runtime.churn.ChurnProcess` into this
        deployment.

        Failure/recovery propagation to the proxies is always on (it hooks
        the simulation environment, so direct ``fail_node`` calls are seen
        too); attaching additionally (a) shields the proxy nodes of
        currently-running queries from being churned away (the paper's
        experiments likewise never kill the client's proxy), and (b) turns
        on ``default_resilience`` so queries submitted under churn get
        failure-aware execution unless they opt out.  Returns ``churn`` for
        chaining.
        """
        if churn.environment is not self.environment:
            raise ValueError("churn process drives a different simulation environment")
        if protect_proxies:
            churn.register_protected_provider(self._active_proxy_addresses)
        if self.default_resilience is None:
            self.default_resilience = ResiliencePolicy.enabled()
        return churn

    def _active_proxy_addresses(self) -> List[int]:
        return [
            node.address for node in self.nodes if node.proxy.active_query_count() > 0
        ]

    # -- telemetry ---------------------------------------------------------------------------#
    def network_stats(self):
        return self.environment.stats

    def dht_stats(self):
        return [node.overlay.stats for node in self.nodes]

    # -- observability (repro.obs) ----------------------------------------------------------#
    def enable_tracing(self, sample_rate: float = 1.0):
        """Install (or re-rate) the deployment's causal tracer.

        Spans are recorded in virtual seconds under the simulator and wall
        seconds in physical mode; the span *topology* is identical.
        ``sample_rate`` below 1.0 keeps a deterministic subset of traces
        (hashed by trace id, so every node agrees without coordination).
        Returns the :class:`~repro.obs.trace.Tracer`.
        """
        return self.environment.enable_tracing(sample_rate)

    def disable_tracing(self) -> None:
        """Remove the tracer; every hook site reverts to its one-branch
        disabled cost."""
        self.environment.disable_tracing()

    @property
    def tracer(self):
        """The installed tracer, or None when tracing is off."""
        return self.environment.tracer

    def metrics(self) -> Dict[str, Any]:
        """One flat deployment-wide metrics snapshot (see
        :func:`repro.obs.metrics.collect_deployment_metrics`)."""
        from repro.obs.metrics import collect_deployment_metrics

        return collect_deployment_metrics(self)

    def write_metrics_snapshot(self, path: Any) -> Dict[str, Any]:
        """Collect :meth:`metrics` and dump them to ``path`` as JSON;
        returns the snapshot."""
        from repro.obs.metrics import collect_deployment_metrics, write_snapshot

        metrics = collect_deployment_metrics(self)
        write_snapshot(metrics, path)
        return metrics

    def explain_analyze(self, query: Union[str, QueryHandle, QueryResult], plan: Optional[QueryPlan] = None) -> str:
        """EXPLAIN ANALYZE for a query that already ran: the explain tree
        annotated with per-operator actuals (rows in/out, messages, bytes,
        busy time, node count) and per-join-edge actual rows next to the
        planner's estimates.

        ``query`` is a query id, :class:`~repro.qp.proxy.QueryHandle`, or
        :class:`QueryResult`.  Works identically in simulated and physical
        mode — teardown keeps the install records for
        :data:`~repro.qp.executor.FINISHED_RETENTION` seconds, so the sweep
        runs post hoc; later than that the nodes have dropped them, and the
        report says so instead of showing a plan that seemingly did
        nothing.  Busy times require the query to have run with tracing
        enabled (``network.query(sql, analyze=True)`` does both, and
        collects at completion).
        """
        from repro.obs.analyze import collect_actuals, render_explain_analyze
        from repro.qp.executor import FINISHED_RETENTION

        query_id = query if isinstance(query, str) else query.query_id
        if plan is None:
            plan = getattr(query, "plan", None)
        if plan is None:
            for node in self.nodes:
                handle = node.proxy.query(query_id)
                if handle is not None:
                    plan = handle.plan
                    break
        if plan is None:
            raise ValueError(
                f"no proxy in this deployment knows query {query_id!r} (a proxy forgets "
                f"a query {FINISHED_RETENTION:g} s after it finished)"
            )
        report = render_explain_analyze(plan, collect_actuals(self, query_id))
        if any(node.executor.released(query_id) for node in self.nodes):
            report += (
                f"\nactuals released: query finished more than {FINISHED_RETENTION:g} s ago"
            )
        return report
