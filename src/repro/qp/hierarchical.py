"""Hierarchical (in-network) operators (paper Section 3.3.4).

*Hierarchical aggregation* spreads the in-bandwidth of an aggregate over an
aggregation tree: each node sends its local partial aggregate toward a root
identifier with the DHT ``send`` call; the first hop intercepts it via an
upcall, merges it with its own pending partial state, waits briefly for
more children, then forwards one combined partial aggregate a hop closer to
the root.  Distributive and algebraic aggregates need only constant state
per group at every step.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple as PyTuple

from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import random_suffix
from repro.qp.integrity import INTEGRITY_NAMESPACE, replica_sampled
from repro.qp.ledger import Groups, OriginLedger, Pairs, partial_keys, partial_pairs, wire_partials
from repro.qp.operators.base import register_operator
from repro.qp.operators.groupby import _BaseGroupBy, merge_partials
from repro.security.spot_check import commit_to_states


@register_operator
class HierarchicalAggregate(_BaseGroupBy):
    """Aggregate over an aggregation tree rooted at a query-specific identifier.

    Every node in the query runs this operator (broadcast dissemination).
    Local input tuples are folded into per-group partial states; the states
    are shipped toward the root after ``local_wait`` seconds.  Intercepted
    partial states from other nodes are merged and held for ``hold``
    seconds before being forwarded onward.  The node that owns the root
    identifier merges everything it receives and emits final result tuples
    downstream (typically into a ``result_handler``) when the query is
    flushed.

    Root handoff (churn resilience).  With a ``root_monitor_interval``
    (armed by the query's resilience policy), every node periodically
    re-resolves the root owner through a DHT lookup — the same routing that
    discovers dead hops — and the operator switches to *origin-accounted*
    shipping so the aggregate stays exact while ownership moves:

    * Each shipment is a batch tagged ``(origin, incarnation, seq)``.
      Intermediate hops still coalesce traffic (several batches ride one
      message up the tree) but do not merge states across origins, so the
      root can deduplicate per origin in its :class:`OriginLedger`:
      replayed batches are dropped by sequence number, and a *newer
      incarnation* (the node's opgraph was re-installed after a
      failure/rejoin) replaces the origin's earlier contribution wholesale
      instead of double-counting it.
    * On an observed ownership change, every node re-ships its cumulative
      local contribution as a ``cumulative`` batch (replace-on-receipt),
      and a root that loses ownership relays its per-origin folds as
      synthetic cumulative batches — so an aggregate completes with
      correct merges across a root failure or rejoin.

    Without the monitor the operator keeps the paper-pure behaviour:
    intermediate hops merge partial states across origins (constant state
    per group at every step) and the captured root emits.

    Params: ``aggregates``, ``group_columns``, ``output_table``,
    ``local_wait`` (default 2.0 s), ``hold`` (default 1.0 s),
    ``root_monitor_interval`` (seconds; default comes from the resilience
    policy in the dissemination envelope, 0 disables the monitor).
    """

    op_type = "hierarchical_aggregate"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.local_wait = float(self.param("local_wait", 2.0))
        self.hold = float(self.param("hold", 1.0))
        # Redundant sub-tree evaluation (repro.qp.integrity): replica r > 0
        # salts the namespace, giving each replica tree an independently
        # placed root identifier — k independently-rooted aggregations of
        # the same scan, reconciled at the proxy.
        self.replica = int(self.param("replica", 0))
        replica_salt = f"r{self.replica}" if self.replica else ""
        self.namespace = context.scoped_namespace(
            f"__hierarchical_aggregate__{replica_salt}"
        )
        self.root_identifier = object_identifier(self.namespace, "root")
        # Root ownership is captured once at start (and updated only by the
        # ownership monitor, when enabled): evaluating is_responsible() per
        # enqueue let partials split across two "roots" when ownership moved
        # mid-query, and some groups were never emitted.
        self._is_root_owner = False
        # Cumulative local contribution (everything this node's scan fed
        # in), kept mergeable so the node can re-ship it wholesale when the
        # aggregation-tree root changes.
        self._local_cum: Groups = {}
        # Paper-pure combining state: partial states intercepted from (or
        # terminating at) other nodes.
        self._held: Groups = {}
        self._hold_scheduled = False
        self._root_states: Groups = {}
        # Resilient (origin-accounted) state.
        resilience = context.extras.get("resilience") or {}
        default_monitor = (
            float(resilience.get("root_monitor_interval", 1.0))
            if resilience.get("handoff")
            else 0.0
        )
        self.monitor_interval = float(self.param("root_monitor_interval", default_monitor))
        # Integrity accounting (spot-check commitments + proxy-side
        # reconciliation).  Riding the origin-accounted wire format is a
        # requirement, not a choice: commitments and claims describe
        # per-origin batches, so an active policy forces the monitor on.
        integrity = context.extras.get("integrity") or {}
        self._integrity_active = bool(
            integrity.get("spot_check") or int(integrity.get("redundancy") or 1) > 1
        )
        self._spot_sample = (
            float(integrity.get("spot_check_sample", 1.0))
            if integrity.get("spot_check")
            else 0.0
        )
        if self._integrity_active and self.monitor_interval <= 0:
            self.monitor_interval = 1.0
        # Byzantine role (repro.runtime.churn.Attacker): None on an honest
        # node, so every hook site is one attribute check.
        adversary = getattr(context.overlay.runtime, "adversary", None)
        self._attacker = (
            adversary.attacker(context.overlay.address, self.replica) if adversary else None
        )
        self._root_owner_address: Any = None
        self._origin_id = str(context.overlay.identifier)
        self._incarnation = random_suffix()
        self._incarnation_ts = 0.0
        self._delta_seq = 0
        self._held_batches: Dict[PyTuple[Any, ...], Dict[str, Any]] = {}
        # Re-forward attempts per stale-delivered batch, with the newest
        # epoch the batch names (None for one-shot queries).
        self._reforwards: Dict[PyTuple[Any, ...], PyTuple[int, Optional[int]]] = {}
        # The ledger merges with the functions, not with a method of this
        # operator: the two must not hold each other.
        self.ledger = OriginLedger(partial(merge_partials, self._merge_functions))
        self.epoch_entries_evicted = 0
        self.partials_sent = 0
        self.partials_intercepted = 0
        self.cumulatives_sent = 0
        self.ownership_changes = 0

    # -- lifecycle --------------------------------------------------------- #
    def start(self) -> None:
        super().start()  # arms the pane clock when a window spec is present
        self._is_root_owner = self._is_root()
        self._incarnation_ts = self.context.now
        self.intercept(self.namespace, self._on_upcall)
        self.listen(self.namespace, self._on_root_arrival)
        # Catch up on partial aggregates that reached this node before the
        # opgraph was installed here (loose synchronization).
        self.context.overlay.local_scan(
            self.namespace, lambda _ns, _key, value: self._on_root_arrival(_ns, _key, value)
        )
        if self.window_spec is None:
            self.arm_timer(self.local_wait, self._ship_local)
        if self._monitoring:
            self.context.overlay.lookup(self.root_identifier, self._on_owner_resolved)
            self.arm_timer(self.monitor_interval, self._monitor_root)
            if self._attacker is not None and self._attacker.forges and self.window_spec is None:
                # Forgers wait until genuine traffic is underway so the forged
                # incarnation supersedes the victims' real batches at the root.
                self.arm_timer(self.local_wait + self.hold, self._inject_forgeries)

    @property
    def _monitoring(self) -> bool:
        return self.monitor_interval > 0

    # -- local contribution -------------------------------------------------- #
    def _drain_groups(self) -> Groups:
        """Move accumulated group states out of ``_groups`` and fold them
        into the cumulative local contribution."""
        drained, self._groups = self._groups, {}
        self._merge_all(self._local_cum, drained.items())
        return drained

    def _ship(self, partials: Groups) -> None:
        """Send one shipment of this node's states toward the root: an
        origin-accounted batch under the monitor, combinable partials
        without.  The root's own contribution stays in ``_local_cum`` and
        is merged when it emits, so a later handoff cannot double-count it."""
        if not partials or self._is_root_owner:
            return
        if self._monitoring:
            self._pack_batch(self._make_batch(partials, cumulative=False))
        else:
            self._hold_partials(partials.items())

    def _ship_local(self, _data: object) -> None:
        if not self._stopped:
            self._ship(self._drain_groups())

    # -- windowed (continuous-query) mode ----------------------------------- #
    def _on_pane_close(self, _data: object) -> None:
        super()._on_pane_close(_data)
        # Evict on every pane tick, not only when this node contributed
        # local data: a quiet node still folds other origins' partials and
        # must shed its expired ledger entries too.
        if not self._stopped:
            self._evict_expired_epochs()

    def _emit_window(self, epoch: int, states: Groups) -> None:
        """Pane-close hook: ship this node's window contribution rootward.

        Group keys are *epoch-prefixed* — ``(epoch, *group_key)`` — so the
        whole origin/incarnation/seq ledger (dedup, cumulative-replace on
        re-ship, handoff relays) applies per window unchanged, and per-
        window totals stay exact across a root failure or rejoin.
        """
        prefixed = {(epoch, *key): list(st) for key, st in states.items()}
        self._merge_all(self._local_cum, prefixed.items())
        self._ship(prefixed)
        if self._is_root_owner:
            self._arm_epoch_timer(epoch)

    def _note_partial_keys(self, keys: Iterable[Any]) -> None:
        """Arm a watermark timer for each epoch a message's
        (epoch-prefixed) group keys name, in order of first appearance."""
        if self.window_spec is None or not self._is_root_owner:
            return
        for epoch in dict.fromkeys(key[0] for key in keys if key):
            if isinstance(epoch, int):
                self._arm_epoch_timer(epoch)

    def _evict_expired_epochs(self) -> None:
        """Drop what this node holds for epochs whose watermark passed more
        than the retention ago, bounding per-node state (and the size of
        ``_send_cumulative`` re-ships) for long-lived standing queries."""
        floor = self._advance_floor()

        def expired(key: PyTuple[Any, ...]) -> bool:
            return bool(key) and isinstance(key[0], int) and key[0] < floor

        for buffer in (self._local_cum, self._root_states):
            for key in [key for key in buffer if expired(key)]:
                del buffer[key]
                self.epoch_entries_evicted += 1
        self.epoch_entries_evicted += self.ledger.evict(expired)
        # _pack_batch no longer re-forwards a batch of expired epochs only.
        self._reforwards = {
            key: entry
            for key, entry in self._reforwards.items()
            if entry[1] is None or entry[1] >= floor
        }

    def _contributions(self, reported: bool = False) -> Iterator[PyTuple[Any, Groups]]:
        """Every store a root answers from, as ``(origin, states)`` in
        merge order: combined partials (no origin), each foreign origin's
        ledger fold, and — on the root owner — this node's own cumulative
        contribution, which is why its own ledger entry is skipped.  (A
        salvage root already shipped its local data down the delta path
        and self-delivered it into ``_root_states``.)

        ``reported`` yields the foreign folds *as this root reports them*:
        verbatim when honest, while a root-owner attacker corrupts what it
        passes on — consistently for the final merge and the integrity
        claims, since both read them here — which is the strongest
        position in the tree: without the integrity layer every origin's
        contribution is in its hands.
        """
        yield None, self._root_states
        for origin, states in self.ledger.folds(skip=self._origin_id):
            if reported and self._attacker is not None:
                states = self._attacker.tamper(states, origin) or {}
            yield origin, states
        if self._is_root_owner:
            yield self._origin_id, self._local_cum

    def _held_epochs(self) -> List[int]:
        """Every epoch some contribution holds states for, oldest first."""
        return sorted(
            {
                key[0]
                for _origin, states in self._contributions()
                for key in states
                if key and isinstance(key[0], int)
            }
        )

    def _epoch_result(self, epoch: int) -> PyTuple[Groups, int]:
        """Merge every contribution to one epoch.  Shared plans re-slice
        the emitted states per subscriber slide, and a handoff root
        re-emitting from a thinner catch-up ledger must not degrade their
        buffers, so each emission carries its contributor count."""
        if self._monitoring and not self._is_root_owner:
            return {}, 0  # lost the root while the timer was armed: not ours to emit
        final: Groups = {}
        contributors = 0
        for _origin, states in self._contributions():
            matched = [(key[1:], st) for key, st in states.items() if key and key[0] == epoch]
            if matched:
                self._merge_all(final, matched)
                contributors += 1
        return final, contributors

    def _hold_partials(self, partials: Pairs) -> None:
        """Paper-pure combining: fold one shipment's ``(key, states)``
        pairs into the held buffer (or the root's merged state) in one pass
        and arm the hold timer once.  Callers pass at least one pair."""
        if self._is_root_owner:
            self._merge_all(self._root_states, partials)
            return
        self._merge_all(self._held, partials)
        self._arm_hold_timer()

    def _arm_hold_timer(self) -> None:
        if not self._hold_scheduled:
            self._hold_scheduled = True
            self.arm_timer(self.hold, self._forward_held)

    # -- origin-accounted batches (resilient mode) ----------------------------- #
    def _make_batch(self, partials: Groups, cumulative: bool) -> Dict[str, Any]:
        self._delta_seq += 1
        return {
            "origin": self._origin_id,
            "inc": self._incarnation,
            "inc_ts": self._incarnation_ts,
            "seq": self._delta_seq,
            "cumulative": cumulative,
            "partials": wire_partials(partials),
        }

    # A batch stored at a stale non-owner is re-forwarded toward the root,
    # but only this many times: routing views converge quickly (marking the
    # dead hop triggers a refresh), and the cap keeps two nodes with
    # mutually stale views from ping-ponging a batch forever.
    MAX_REFORWARDS = 3

    def _pack_batch(self, batch: Dict[str, Any], reforward: bool = False) -> None:
        """Coalesce a batch into the next uphill message.  This node's own
        batches are numbered as they are made, so each passes here once;
        ``reforward`` marks somebody else's (stale-delivered, relayed at a
        handoff), which is retried up to the cap."""
        key = (batch.get("origin"), batch.get("inc"), batch.get("seq"))
        if key in self._held_batches:
            return
        if reforward:
            attempts, newest = self._reforwards.get(key) or (0, self._newest_epoch(batch))
            if attempts >= self.MAX_REFORWARDS or (
                newest is not None and newest < self._emitted_floor
            ):
                return
            self._reforwards[key] = (attempts + 1, newest)
        self._held_batches[key] = batch
        self._arm_hold_timer()

    def _newest_epoch(self, batch: Dict[str, Any]) -> Optional[int]:
        """The newest epoch a standing query's batch names, if any."""
        if self.window_spec is None:
            return None
        keys = partial_keys(batch.get("partials", []))
        return max((key[0] for key in keys if key and isinstance(key[0], int)), default=None)

    def _send_cumulative(self) -> None:
        """Re-ship this node's full cumulative contribution toward the root.

        ``cumulative`` batches replace the origin's fold at the root, so
        re-delivery — and anything the new root missed — is idempotent.
        """
        if self._stopped or not self._local_cum:
            return
        self.cumulatives_sent += 1
        self._pack_batch(self._make_batch(self._local_cum, cumulative=True))

    def _forward_held(self, _data: object) -> None:
        self._hold_scheduled = False
        if self._stopped:
            return
        if self._held:
            held, self._held = self._held, {}
            self._send_uphill({"partials": wire_partials(held)})
        if self._held_batches:
            batches, self._held_batches = self._held_batches, {}
            self._send_uphill({"batches": list(batches.values())})

    def _send_uphill(self, value: Dict[str, Any]) -> None:
        self.partials_sent += 1
        self.context.overlay.send(
            self.namespace,
            key="root",
            suffix=random_suffix(),
            value=value,
            lifetime=self.context.lifetime,
            target=self.root_identifier,
        )

    def _fold_batches(self, batches: List[Dict[str, Any]]) -> None:
        """Fold arriving batches into the ledger, exactly once each."""
        for batch in batches:
            self.ledger.fold(batch)
            self._note_partial_keys(partial_keys(batch.get("partials", [])))

    def _inject_forgeries(self, _data: object) -> None:
        """Byzantine hook (``forge_origin``): send what the attacker
        fabricates the way this node sends anything else."""
        if self._stopped:
            return
        candidates = [
            str(contact.identifier)
            for contact in self.context.overlay.directory.members()
            if str(contact.identifier) != self._origin_id
        ]
        for forged in self._attacker.forgeries(candidates, self.context.now):
            if self._is_root_owner:
                self.ledger.fold(forged)
            else:
                self._pack_batch(forged)

    # -- upcall (intermediate hop) ------------------------------------------- #
    def _on_upcall(self, _namespace: str, _key: object, value: object) -> bool:
        if self._stopped or not isinstance(value, dict):
            # Stopped from inside the delivery loop that is calling us: let
            # the message travel on to the live handlers behind this one.
            return True
        if "batches" in value:
            if self._is_root_owner:
                self.partials_intercepted += 1
                self._fold_batches(value["batches"])
                return False  # terminated at the root: folded, not stored
            # Origin-accounted batches stay in the routing layer's custody
            # end to end (True): it reroutes around dead hops with delivery
            # acks, while an intermediate that absorbed the batch could drop
            # a re-delivered copy during convergence.  Only an attacker
            # absorbs them (False: routing considers them delivered).
            repacked = None if self._attacker is None else self._attacker.relay(value["batches"])
            if repacked is None:
                return True
            for batch in repacked:
                self._pack_batch(batch, reforward=True)
            return False
        if "partials" not in value:
            return True
        self.partials_intercepted += 1
        entries = value["partials"]
        if self._attacker is not None:
            entries = self._attacker.tamper(entries)
        if entries:
            self._hold_partials(partial_pairs(entries))
            self._note_partial_keys(partial_keys(entries))
        return False  # hold; a combined partial will be forwarded later

    # -- ownership monitor ------------------------------------------------------ #
    def _monitor_root(self, _data: object) -> None:
        if self._stopped:
            return
        self.context.overlay.lookup(self.root_identifier, self._on_owner_resolved)
        self.arm_timer(self.monitor_interval, self._monitor_root)

    def _on_owner_resolved(self, owner: Any, _hops: int) -> None:
        if self._stopped or owner is None:
            return
        address = owner.address
        previous = self._root_owner_address
        if previous is None:
            # First resolution: the lookup is authoritative over the local
            # is_responsible() guess (a settled network agrees anyway).
            self._root_owner_address = address
            self._is_root_owner = address == self.context.overlay.address
            return
        if address == previous:
            return
        self._root_owner_address = address
        self._on_ownership_change(address)

    def _on_ownership_change(self, new_owner_address: Any) -> None:
        self.ownership_changes += 1
        was_root = self._is_root_owner
        self._is_root_owner = new_owner_address == self.context.overlay.address
        if was_root and not self._is_root_owner:
            # Rejoin handoff: relay what this node merged as root; origins
            # also re-ship their own cumulative state, and the per-origin
            # dedup at the new root makes the overlap harmless.
            for batch in self.ledger.relay_batches(skip=self._origin_id):
                self._pack_batch(batch, reforward=True)
        if not self._is_root_owner:
            self._send_cumulative()
        elif self.window_spec is not None:
            # A node that just became root catches up on every epoch the
            # failed root never emitted: origins re-ship their cumulative
            # contributions, and these timers emit once watermarks pass.
            for epoch in self._held_epochs():
                self._arm_epoch_timer(epoch)

    # -- root ------------------------------------------------------------------ #
    def _is_root(self) -> bool:
        return self.context.overlay.router.is_responsible(self.root_identifier)

    def _on_root_arrival(self, _namespace: str, _key: object, value: object) -> None:
        if self._stopped or not isinstance(value, dict):
            return
        if "batches" in value:
            self._fold_batches(value["batches"])
            if not self._is_root_owner:
                # Stored here by stale routing: keep a folded copy (in case
                # ownership lands on this node) and re-forward a bounded
                # number of times toward the believed root, stamping this
                # hop into the custody trail.
                for batch in value["batches"]:
                    relays = [*batch.get("relays", []), self.context.overlay.address]
                    self._pack_batch({**batch, "relays": relays}, reforward=True)
        elif "partials" in value:
            entries = value["partials"]
            self._merge_all(self._root_states, partial_pairs(entries))
            self._note_partial_keys(partial_keys(entries))

    def flush(self) -> None:
        # Any local groups not yet shipped travel now (e.g. snapshot query
        # whose timeout fires before the next window).  A standing query's
        # in-progress pane is not among them: it is dropped by design, only
        # complete windows are reported.
        self._ship(self._drain_groups())
        if self._held or self._held_batches:
            self._forward_held(None)
        self._send_integrity_report()
        # The captured/monitored owner emits; with the monitor off, a node
        # that *became* responsible after the captured root failed (routing
        # re-delivered partials here) also emits what it accumulated, so
        # those groups are not silently lost.
        salvage_root = not self._monitoring and not self._is_root_owner and self._is_root()
        if not (self._is_root_owner or salvage_root):
            return
        if self.window_spec is not None:
            # Lifetime expiry: every complete epoch still waiting on its
            # watermark is emitted now.
            for epoch in self._held_epochs():
                self._close_epoch(epoch)
        elif self._integrity_active:
            # Verified mode: the root ships per-origin claims to the proxy
            # instead of emitting merged rows.  The proxy checks each claim
            # against the origin's own commitment, repairs what fails, and
            # recomputes the totals itself — so a corrupted fold can change
            # a claim but not the verified result.
            self._send_root_claims()
        else:
            final: Groups = {}
            for _origin, states in self._contributions(reported=True):
                self._merge_all(final, states.items())
            self.emit(self._result_rows(final))

    # -- integrity (spot-check commitments and proxy-side reconciliation) ------- #
    def _send_integrity_report(self) -> None:
        """Every origin pushes a self-report straight to the proxy: a
        commitment over its cumulative local contribution, plus the full
        states when this (query, replica, origin) falls in the spot-check
        sample.  Direct messaging bypasses the aggregation tree entirely,
        so no attacker on the tree can tamper with the reference."""
        if not self._integrity_active or self._stopped or not self._local_cum:
            return
        payload: Dict[str, Any] = {
            "kind": "origin",
            "replica": self.replica,
            "origin": self._origin_id,
            "node": self.context.overlay.address,
            "inc_ts": self._incarnation_ts,
            "commitment": commit_to_states(self._origin_id, self._local_cum),
        }
        if replica_sampled(
            self.context.query_id, self.replica, self._origin_id, self._spot_sample
        ):
            payload["partials"] = wire_partials(self._local_cum)
        self._send_to_collector(payload)

    def _send_root_claims(self) -> None:
        """The root's side of verified aggregation: per-origin claims (the
        folded states plus the custody trail) instead of merged rows."""
        origins: Dict[str, Dict[str, Any]] = {}
        # The root's own contribution (and any pre-monitor combined
        # partials) travels as its self-claim, verified like everyone's.
        own: Groups = {}
        for origin, states in self._contributions(reported=True):
            if origin is None or origin == self._origin_id:
                self._merge_all(own, states.items())
            else:
                origins[origin] = {
                    "partials": wire_partials(states),
                    "relays": sorted(self.ledger.relays(origin), key=repr),
                }
        if own:
            origins[self._origin_id] = {"partials": wire_partials(own), "relays": []}
        self._send_to_collector(
            {
                "kind": "root",
                "replica": self.replica,
                "node": self.context.overlay.address,
                "origins": origins,
            }
        )

    def _send_to_collector(self, payload: Dict[str, Any]) -> None:
        self.context.overlay.direct_message(
            self.context.proxy_address, INTEGRITY_NAMESPACE, self.context.query_id, payload
        )

