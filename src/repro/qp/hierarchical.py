"""Hierarchical (in-network) operators (paper Section 3.3.4).

*Hierarchical aggregation* spreads the in-bandwidth of an aggregate over an
aggregation tree: each node sends its local partial aggregate toward a root
identifier with the DHT ``send`` call; the first hop intercepts it via an
upcall, merges it with its own pending partial state, waits briefly for
more children, then forwards one combined partial aggregate a hop closer to
the root.  Distributive and algebraic aggregates need only constant state
per group at every step.

*Hierarchical joins* reduce the out-bandwidth of the node owning a hot hash
bucket: while tuples are being rehashed (``send``) toward their bucket,
every intermediate node caches passing tuples, joins freshly cached pairs
whose forwarding paths have not met before, and emits those "early" results
straight to the proxy.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple as PyTuple

from repro.cq.windows import LATE_EPOCH_SETTLE, epoch_stamp
from repro.overlay.identifiers import object_identifier
from repro.overlay.naming import random_suffix
from repro.qp.integrity import INTEGRITY_NAMESPACE, replica_sampled
from repro.qp.operators.base import PhysicalOperator, register_operator
from repro.qp.operators.groupby import _BaseGroupBy
from repro.qp.tuples import Tuple
from repro.runtime.churn import corrupt_states, suppression_victim
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
      root can deduplicate per origin: replayed batches are dropped by
      sequence number, and a *newer incarnation* (the node's opgraph was
      re-installed after a failure/rejoin) replaces the origin's earlier
      contribution wholesale instead of double-counting it.
    * On an observed ownership change, every node re-ships its cumulative
      local contribution as a ``cumulative`` batch (replace-on-receipt),
      and a root that loses ownership relays its per-origin folds as
      synthetic cumulative batches — so an aggregate completes with
      correct merges across a root failure or rejoin.

    Without the monitor the operator keeps the paper-pure behaviour:
    intermediate hops merge partial states across origins (constant state
    per group at every step) and the captured root emits.

    Params: ``aggregates``, ``group_columns``, ``output_table``,
    ``local_wait`` (default 2.0 s), ``hold`` (default 1.0 s), ``window``
    (optional, re-ship local partials periodically for continuous
    queries), ``root_monitor_interval`` (seconds; default comes from the
    resilience policy in the dissemination envelope, 0 disables the
    monitor).
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
        self._local_cum: Dict[PyTuple[Any, ...], List[Any]] = {}
        # Legacy (paper-pure) combining state: partial states intercepted
        # from (or terminating at) other nodes.
        self._held: Dict[PyTuple[Any, ...], List[Any]] = {}
        self._hold_scheduled = False
        self._root_states: Dict[PyTuple[Any, ...], List[Any]] = {}
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
        # Byzantine role (repro.runtime.churn.ByzantineProcess): honest
        # deployments resolve None here and every attack branch is one
        # attribute check.
        adversary = getattr(context.overlay.runtime, "adversary", None)
        self._adversary = adversary
        self._attacker = adversary.role(context.overlay.address) if adversary else None
        self._root_owner_address: Any = None
        self._origin_id = str(context.overlay.identifier)
        self._incarnation = random_suffix()
        self._incarnation_ts = 0.0
        self._delta_seq = 0
        self._held_batches: Dict[PyTuple[Any, ...], Dict[str, Any]] = {}
        self._forwarded: Set[PyTuple[Any, ...]] = set()
        self._reforwards: Dict[PyTuple[Any, ...], int] = {}
        self._origin_folds: Dict[str, Dict[str, Any]] = {}
        # Windowed (continuous-query) root state: which epochs this node —
        # while owning the root — has already emitted, and which have a
        # pending watermark timer.
        self._epoch_timers: Set[int] = set()
        self._emitted_epochs: Set[int] = set()
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
        self.context.overlay.upcall(self.namespace, self._on_upcall)
        self.context.overlay.new_data(self.namespace, self._on_root_arrival)
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
        if (
            self._attacker is not None
            and self._attacker.attack == "forge_origin"
            and self._monitoring
            and self.window_spec is None
        ):
            # Forgers wait until genuine traffic is underway so the forged
            # incarnation supersedes the victims' real batches at the root.
            self.arm_timer(self.local_wait + self.hold, self._forge_origins)

    @property
    def _monitoring(self) -> bool:
        return self.monitor_interval > 0

    # -- local contribution -------------------------------------------------- #
    def _drain_groups(self) -> Dict[PyTuple[Any, ...], List[Any]]:
        """Move accumulated group states out of ``_groups`` and fold them
        into the cumulative local contribution."""
        drained, self._groups = self._groups, {}
        self._merge_all(self._local_cum, drained.items())
        return drained

    def _ship_local(self, _data: object) -> None:
        if self._stopped:
            return
        drained = self._drain_groups()
        # The root's own contribution stays in _local_cum and is merged at
        # flush, so a later handoff cannot double-count it.
        if drained and not self._is_root_owner:
            if self._monitoring:
                self._pack_batch(self._make_batch(drained, cumulative=False))
            else:
                self._hold_partials(drained.items())
        if self.window:
            self.arm_timer(self.window, self._ship_local)

    # -- windowed (continuous-query) mode ----------------------------------- #
    def _on_pane_close(self, _data: object) -> None:
        super()._on_pane_close(_data)
        # Evict on every pane tick, not only when this node contributed
        # local data: a quiet node still folds other origins' partials and
        # must shed its expired ledger entries too.
        if not self._stopped:
            self._evict_expired_epochs()

    def _emit_window(
        self, epoch: int, states: Dict[PyTuple[Any, ...], List[Any]]
    ) -> None:
        """Pane-close hook: ship this node's window contribution rootward.

        Group keys are *epoch-prefixed* — ``(epoch, *group_key)`` — so the
        whole origin/incarnation/seq ledger (dedup, cumulative-replace on
        re-ship, handoff relays) applies per window unchanged, and per-
        window totals stay exact across a root failure or rejoin.
        """
        prefixed = {(epoch, *key): list(st) for key, st in states.items()}
        self._merge_all(self._local_cum, prefixed.items())
        if not self._is_root_owner:
            if self._monitoring:
                self._pack_batch(self._make_batch(prefixed, cumulative=False))
            else:
                self._hold_partials(prefixed.items())
        self._note_epoch(epoch)

    def _note_epoch(self, epoch: Any) -> None:
        """The root owner arms one watermark timer per observed epoch.

        An epoch first noted after its watermark already passed (slow
        partials, or a fresh root catching up post-handoff) waits the
        shared settle time so batches in flight alongside the first
        arrival get folded too, instead of emitting from one origin alone.
        """
        if self.window_spec is None or not isinstance(epoch, int):
            return
        if not self._is_root_owner:
            return
        if epoch in self._emitted_epochs or epoch in self._epoch_timers:
            return
        self._epoch_timers.add(epoch)
        delay = self.window_spec.watermark(epoch) - self.context.now
        if delay <= 0:
            delay = LATE_EPOCH_SETTLE
        self.arm_timer(delay, self._on_epoch_watermark, data=epoch)

    def _note_partial_keys(self, keys: Iterable[Any]) -> None:
        """Note the epochs a message's (epoch-prefixed) group keys name,
        each once, in order of first appearance."""
        if self.window_spec is None or not self._is_root_owner:
            return
        for epoch in dict.fromkeys(
            key[0] for key in keys if isinstance(key, (list, tuple)) and key
        ):
            self._note_epoch(epoch)

    def _epoch_retention(self) -> float:
        """How long after an epoch's watermark its ledger entries are kept.

        The retention must outlive a root handoff: the monitor notices the
        ownership change within ``root_monitor_interval`` and origins then
        re-ship their retained cumulative state, so a few graces plus a
        couple of slides of slack is plenty — while keeping standing-query
        state bounded by the window, not the lifetime."""
        spec = self.window_spec
        return max(15.0, 4.0 * spec.grace + 2.0 * spec.slide)

    def _evict_expired_epochs(self) -> None:
        """Drop ledger entries of epochs whose watermark passed more than
        the retention ago, bounding per-node state (and the size of
        ``_send_cumulative`` re-ships) for long-lived standing queries."""
        spec = self.window_spec
        horizon = self.context.now - self._epoch_retention()

        def expired(key: Any) -> bool:
            return (
                isinstance(key, tuple)
                and bool(key)
                and isinstance(key[0], int)
                and spec.watermark(key[0]) < horizon
            )

        for buffer in (self._local_cum, self._root_states):
            for key in [key for key in buffer if expired(key)]:
                del buffer[key]
                self.epoch_entries_evicted += 1
        for entry in self._origin_folds.values():
            if entry["base"]:
                for key in [key for key in entry["base"] if expired(key)]:
                    del entry["base"][key]
                    self.epoch_entries_evicted += 1
            # Delta dicts stay registered by seq (replay dedup) but shed
            # their expired keys.
            for partials in entry["deltas"].values():
                for key in [key for key in partials if expired(key)]:
                    del partials[key]
                    self.epoch_entries_evicted += 1

    def _note_ledger_epochs(self) -> None:
        """Arm watermark timers for every epoch already present in the
        ledgers — how a node that just *became* root (handoff) catches up
        on epochs the failed root never emitted."""
        self._note_partial_keys(self._root_states)
        self._note_partial_keys(self._local_cum)
        for entry in self._origin_folds.values():
            if entry["base"]:
                self._note_partial_keys(entry["base"])
            for partials in entry["deltas"].values():
                self._note_partial_keys(partials)

    def _on_epoch_watermark(self, epoch: int) -> None:
        self._epoch_timers.discard(epoch)
        if self._stopped or not self._is_root_owner:
            return
        self._emit_epoch(epoch)

    def _emit_epoch(self, epoch: int) -> None:
        """Merge and emit every contribution for one epoch, exactly once."""
        if epoch in self._emitted_epochs:
            return
        final: Dict[PyTuple[Any, ...], List[Any]] = {}
        contributors = 0

        def take(buffer: Dict[PyTuple[Any, ...], List[Any]]) -> None:
            nonlocal contributors
            matched = False
            for key, states in buffer.items():
                if isinstance(key, tuple) and key and key[0] == epoch:
                    self._merge_into(final, tuple(key[1:]), states)
                    matched = True
            if matched:
                contributors += 1

        take(self._root_states)
        for origin, entry in self._origin_folds.items():
            if origin == self._origin_id:
                continue  # own contribution comes from _local_cum below
            take(self._fold_states(entry))
        if self._is_root_owner:
            take(self._local_cum)
        if not final:
            # Nothing folded yet (e.g. every batch still in flight): leave
            # the epoch unemitted so a later arrival can re-arm the timer.
            return
        self._emitted_epochs.add(epoch)
        if self.emit_states:
            # Shared plans want mergeable states at the root too, so the
            # fan-out layer can re-slice epochs per subscriber slide.  A
            # handoff root re-emitting from a thinner catch-up ledger must
            # not degrade subscriber buffers, so each emission carries its
            # contributor count.
            self._emit_window_states(epoch, final, contributors=contributors)
            return
        self.emit(self._result_rows(final, epoch_stamp(self.window_spec, epoch)))
        self.epochs_emitted += 1

    def _hold_partials(
        self, partials: Iterable[PyTuple[PyTuple[Any, ...], List[Any]]]
    ) -> None:
        """Legacy combining: fold one shipment's ``(key, states)`` pairs
        into the held buffer (or the root's merged state) in one pass and
        arm the hold timer once.  Callers pass at least one pair."""
        if self._is_root_owner:
            self._merge_all(self._root_states, partials)
            return
        self._merge_all(self._held, partials)
        self._arm_hold_timer()

    @staticmethod
    def _entry_pairs(
        entries: List[Dict[str, Any]]
    ) -> Iterable[PyTuple[PyTuple[Any, ...], List[Any]]]:
        """A message's ``partials`` list as ``(key, states)`` pairs."""
        return ((tuple(entry["key"]), entry["states"]) for entry in entries)

    def _arm_hold_timer(self) -> None:
        if not self._hold_scheduled:
            self._hold_scheduled = True
            self.arm_timer(self.hold, self._forward_held)

    # -- origin-accounted batches (resilient mode) ----------------------------- #
    def _make_batch(
        self, partials: Dict[PyTuple[Any, ...], List[Any]], cumulative: bool
    ) -> Dict[str, Any]:
        self._delta_seq += 1
        return {
            "origin": self._origin_id,
            "inc": self._incarnation,
            "inc_ts": self._incarnation_ts,
            "seq": self._delta_seq,
            "cumulative": cumulative,
            "partials": [
                {"key": list(key), "states": states} for key, states in partials.items()
            ],
        }

    @staticmethod
    def _batch_key(batch: Dict[str, Any]) -> PyTuple[Any, ...]:
        return (batch.get("origin"), batch.get("inc"), batch.get("seq"))

    # A batch stored at a stale non-owner is re-forwarded toward the root,
    # but only this many times: routing views converge quickly (marking the
    # dead hop triggers a refresh), and the cap keeps two nodes with
    # mutually stale views from ping-ponging a batch forever.
    MAX_REFORWARDS = 3

    def _pack_batch(self, batch: Dict[str, Any], reforward: bool = False) -> None:
        """Coalesce a batch into the next uphill message (forwarded once;
        ``reforward`` retries a stale-delivered batch up to the cap)."""
        key = self._batch_key(batch)
        if key in self._held_batches:
            return
        if reforward:
            attempts = self._reforwards.get(key, 0)
            if attempts >= self.MAX_REFORWARDS:
                return
            self._reforwards[key] = attempts + 1
        elif key in self._forwarded:
            return
        self._held_batches[key] = batch
        self._arm_hold_timer()

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
            self.partials_sent += 1
            self.context.overlay.send(
                self.namespace,
                key="root",
                suffix=random_suffix(),
                value={
                    "partials": [
                        {"key": list(key), "states": states} for key, states in held.items()
                    ]
                },
                lifetime=self.context.lifetime,
                target=self.root_identifier,
            )
        if self._held_batches:
            batches, self._held_batches = self._held_batches, {}
            self._forwarded.update(batches.keys())
            self.partials_sent += 1
            self.context.overlay.send(
                self.namespace,
                key="root",
                suffix=random_suffix(),
                value={"batches": list(batches.values())},
                lifetime=self.context.lifetime,
                target=self.root_identifier,
            )

    # -- per-origin folds (the root's dedup ledger) ----------------------------- #
    def _fold_batch(self, batch: Dict[str, Any]) -> None:
        """Fold one origin batch into the per-origin ledger, exactly once.

        Replays are dropped by ``seq``; a newer incarnation (the origin's
        opgraph was re-installed) resets the origin's entry so a rejoining
        node's full re-scan replaces — never adds to — what it contributed
        before failing; a ``cumulative`` batch supersedes every delta with
        ``seq`` at or below its own.
        """
        origin = batch.get("origin")
        if origin is None:
            return
        entry = self._origin_folds.get(origin)
        if entry is None or batch["inc_ts"] > entry["inc_ts"] or (
            batch["inc_ts"] == entry["inc_ts"] and batch["inc"] > entry["inc"]
        ):
            entry = {
                "inc": batch["inc"],
                "inc_ts": batch["inc_ts"],
                "base": None,
                "base_seq": 0,
                "deltas": {},
            }
            self._origin_folds[origin] = entry
        elif batch["inc"] != entry["inc"]:
            return  # stale incarnation: superseded by a re-install
        # Custody trail: every node that re-packed this origin's batches.
        # Reported alongside the root's claims so a verification failure
        # can name the nodes that handled the corrupted data.
        entry.setdefault("relays", set()).update(
            tuple(relay) if isinstance(relay, list) else relay
            for relay in batch.get("relays", [])
        )
        seq = int(batch["seq"])
        partials = {
            tuple(item["key"]): list(item["states"]) for item in batch.get("partials", [])
        }
        if batch.get("cumulative"):
            if seq <= entry["base_seq"]:
                return
            entry["base"] = partials
            entry["base_seq"] = seq
            entry["deltas"] = {
                delta_seq: states
                for delta_seq, states in entry["deltas"].items()
                if delta_seq > seq
            }
            return
        if seq <= entry["base_seq"] or seq in entry["deltas"]:
            return
        entry["deltas"][seq] = partials

    def _fold_states(self, entry: Dict[str, Any]) -> Dict[PyTuple[Any, ...], List[Any]]:
        merged: Dict[PyTuple[Any, ...], List[Any]] = {}
        if entry["base"]:
            self._merge_all(merged, entry["base"].items())
        for _seq, partials in sorted(entry["deltas"].items()):
            self._merge_all(merged, partials.items())
        return merged

    def _relay_folds(self) -> None:
        """Hand the per-origin ledger to the new root as synthetic
        cumulative batches (covers origins that can no longer re-ship)."""
        for origin, entry in self._origin_folds.items():
            if origin == self._origin_id:
                continue
            states = self._fold_states(entry)
            if not states:
                continue
            seq = max([entry["base_seq"], *entry["deltas"].keys()])
            self._pack_batch(
                {
                    "origin": origin,
                    "inc": entry["inc"],
                    "inc_ts": entry["inc_ts"],
                    "seq": seq,
                    "cumulative": True,
                    "partials": [
                        {"key": list(key), "states": s} for key, s in states.items()
                    ],
                },
                reforward=True,
            )

    # -- byzantine behaviors (adversarial aggregator role) ---------------------- #
    # Attackers misbehave only while *aggregating* — their own scan data is
    # shipped honestly, matching the SIA threat model the paper cites (a
    # node lying about its own readings is a bounded-influence residual no
    # aggregation protocol can detect).  Every observable act is recorded
    # into the adversary's ledger so benchmarks can compute detection rates
    # against ground truth.
    def _record_attack(self, origin: Any = None) -> None:
        if self._adversary is not None and self._attacker is not None:
            self._adversary.record(
                self._attacker.address,
                self._attacker.attack,
                origin=origin,
                replica=self.replica,
            )

    def _forge_origins(self, _data: object) -> None:
        """The ``forge_origin`` attack: inject cumulative batches spoofing
        other origins under a fresher incarnation, zeroing their folds.

        ``~forged`` sorts above every ``random_suffix`` incarnation and the
        current time wins the ``inc_ts`` tie-break, so the forged (empty)
        batch replaces the victim's genuine contribution wholesale — the
        same replacement machinery an honest rejoin uses, turned hostile.
        """
        if self._stopped or self._attacker is None:
            return
        candidates = [
            str(contact.identifier)
            for contact in self.context.overlay.directory.members()
            if str(contact.identifier) != self._origin_id
        ]
        for victim in self._adversary.forge_victims(self._attacker.address, candidates):
            forged = {
                "origin": victim,
                "inc": "~forged",
                "inc_ts": self.context.now,
                "seq": 1,
                "cumulative": True,
                "partials": [],
                "relays": [self.context.overlay.address],
            }
            self._record_attack(origin=victim)
            if self._is_root_owner:
                self._fold_batch(forged)
            else:
                self._pack_batch(forged)

    def _attack_passing_batches(self, batches: List[Dict[str, Any]]) -> bool:
        """An attacker on the forwarding path violates routing custody.

        Honest intermediates leave origin-accounted batches in the routing
        layer's custody (upcall returns True).  An attacker absorbs them
        (returns False, so the routing layer considers them delivered) and
        then discards, censors, or re-packs corrupted copies stamped with
        its own relay mark — exactly the misbehavior the spot-check
        commitments are designed to surface.  Attacks are recorded only
        when the batch carried data: tampering with an empty batch is
        unobservable and must not count against the detector.
        """
        attack = self._attacker.attack
        if attack == "forge_origin":
            return True  # forgers relay honestly; their damage is injected
        my_address = self.context.overlay.address
        for batch in batches:
            partials = batch.get("partials", [])
            origin = batch.get("origin")
            if attack == "drop_partials":
                if partials:
                    self._record_attack(origin=origin)
                continue  # absorbed and discarded
            if attack == "suppress_sources" and suppression_victim(origin):
                if partials:
                    self._record_attack(origin=origin)
                continue  # censored source
            relays = list(batch.get("relays", [])) + [my_address]
            if attack == "inflate_partials" and partials:
                partials = [
                    {
                        "key": item["key"],
                        "states": corrupt_states(
                            item["states"], self._attacker.inflation_factor
                        ),
                    }
                    for item in partials
                ]
                self._record_attack(origin=origin)
            self._pack_batch(
                {**batch, "partials": partials, "relays": relays}, reforward=True
            )
        return False

    def _attack_legacy_partials(
        self, entries: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Attack hook for the paper-pure combining path, where partials
        carry no origin accounting: drops and censorship discard the
        shipment outright, inflation corrupts it in place (on a copy —
        the wire value itself is never mutated)."""
        attack = self._attacker.attack
        if attack == "forge_origin" or not entries:
            return entries
        self._record_attack()
        if attack in ("drop_partials", "suppress_sources"):
            return []
        return [
            {
                "key": entry["key"],
                "states": corrupt_states(
                    entry["states"], self._attacker.inflation_factor
                ),
            }
            for entry in entries
        ]

    # -- upcall (intermediate hop) ------------------------------------------- #
    def _on_upcall(self, _namespace: str, _key: object, value: object) -> bool:
        if self._stopped:
            # A purged incarnation's overlay registration outlives the
            # operator (rejoin re-installs a fresh one); consuming here
            # would starve the live incarnation's handler behind it.
            return True
        if not isinstance(value, dict):
            return True
        if "batches" in value:
            if not self._is_root_owner:
                if self._attacker is not None:
                    return self._attack_passing_batches(value["batches"])
                # Origin-accounted batches stay in the routing layer's
                # custody end to end: it reroutes around dead hops with
                # delivery acks, while an intermediate that absorbed the
                # batch could drop a re-delivered copy during convergence.
                return True
            self.partials_intercepted += 1
            for batch in value["batches"]:
                self._fold_batch(batch)
                self._note_partial_keys(
                    item["key"] for item in batch.get("partials", [])
                )
            return False  # terminated at the root: folded, not stored
        if "partials" not in value:
            return True
        self.partials_intercepted += 1
        entries = value["partials"]
        if self._attacker is not None:
            entries = self._attack_legacy_partials(entries)
        if entries:
            self._hold_partials(self._entry_pairs(entries))
            self._note_partial_keys(entry["key"] for entry in entries)
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
            self._relay_folds()
        if not self._is_root_owner:
            self._send_cumulative()
        elif self.window_spec is not None:
            # A node that just became root catches up on every epoch the
            # failed root never emitted: origins re-ship their cumulative
            # contributions, and these timers emit once watermarks pass.
            self._note_ledger_epochs()

    # -- root ------------------------------------------------------------------ #
    def _is_root(self) -> bool:
        return self.context.overlay.router.is_responsible(self.root_identifier)

    def _on_root_arrival(self, _namespace: str, _key: object, value: object) -> None:
        if self._stopped or not isinstance(value, dict):
            return
        if "batches" in value:
            for batch in value["batches"]:
                self._fold_batch(batch)
                self._note_partial_keys(
                    item["key"] for item in batch.get("partials", [])
                )
                if not self._is_root_owner:
                    # Stored here by stale routing: keep a folded copy (in
                    # case ownership lands on this node) and re-forward a
                    # bounded number of times toward the believed root,
                    # stamping this hop into the custody trail.
                    self._pack_batch(
                        {
                            **batch,
                            "relays": list(batch.get("relays", []))
                            + [self.context.overlay.address],
                        },
                        reforward=True,
                    )
            return
        if "partials" not in value:
            return
        entries = value["partials"]
        self._merge_all(self._root_states, self._entry_pairs(entries))
        self._note_partial_keys(entry["key"] for entry in entries)

    def flush(self) -> None:
        if self.window_spec is not None:
            self._flush_windowed()
            return
        # Any local groups not yet shipped travel now (e.g. snapshot query
        # whose timeout fires before the next window).
        drained = self._drain_groups()
        if drained and not self._is_root_owner:
            if self._monitoring:
                self._pack_batch(self._make_batch(drained, cumulative=False))
            else:
                self._hold_partials(drained.items())
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
        if self._integrity_active:
            # Verified mode: the root ships per-origin claims to the proxy
            # instead of emitting merged rows.  The proxy checks each claim
            # against the origin's own commitment, repairs what fails, and
            # recomputes the totals itself — so a corrupted fold can change
            # a claim but not the verified result.
            self._send_root_claims()
            return
        final: Dict[PyTuple[Any, ...], List[Any]] = {}
        self._merge_all(final, self._root_states.items())
        for origin, entry in self._origin_folds.items():
            if origin == self._origin_id:
                continue  # own contribution is merged from _local_cum below
            self._merge_all(final, self._root_fold_states(origin, entry).items())
        if self._is_root_owner:
            # A salvage root already shipped its local data down the delta
            # path (it self-delivered into _root_states); only the true
            # owner contributes _local_cum directly.
            self._merge_all(final, self._local_cum.items())
        self.emit(self._result_rows(final))

    # -- integrity (spot-check commitments and proxy-side reconciliation) ------- #
    def _root_fold_states(
        self, origin: str, entry: Dict[str, Any]
    ) -> Dict[PyTuple[Any, ...], List[Any]]:
        """One origin's folded states as *this root reports them*.

        An honest root returns the fold verbatim.  A root-owner attacker
        corrupts the foreign folds it passes on — consistently for the
        final merge and the integrity claims, since both call through here
        — which is the strongest position in the tree: without the
        integrity layer every origin's contribution is in its hands.
        """
        states = self._fold_states(entry)
        if self._attacker is None or origin == self._origin_id or not states:
            return states
        attack = self._attacker.attack
        if attack == "drop_partials":
            self._record_attack(origin=origin)
            return {}
        if attack == "suppress_sources":
            if not suppression_victim(origin):
                return states
            self._record_attack(origin=origin)
            return {}
        if attack == "inflate_partials":
            self._record_attack(origin=origin)
            return {
                key: corrupt_states(st, self._attacker.inflation_factor)
                for key, st in states.items()
            }
        return states

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
            payload["partials"] = [
                {"key": list(key), "states": states}
                for key, states in self._local_cum.items()
            ]
        self.context.overlay.direct_message(
            self.context.proxy_address,
            INTEGRITY_NAMESPACE,
            self.context.query_id,
            payload,
        )

    def _send_root_claims(self) -> None:
        """The root's side of verified aggregation: per-origin claims (the
        folded states plus the custody trail) instead of merged rows."""
        origins: Dict[str, Dict[str, Any]] = {}
        for origin, entry in self._origin_folds.items():
            if origin == self._origin_id:
                continue
            states = self._root_fold_states(origin, entry)
            origins[origin] = {
                "partials": [
                    {"key": list(key), "states": st} for key, st in states.items()
                ],
                "relays": sorted(entry.get("relays", ()), key=repr),
            }
        # The root's own contribution (and any pre-monitor legacy partials)
        # travels as its self-claim, verified like everyone else's.
        own: Dict[PyTuple[Any, ...], List[Any]] = {}
        self._merge_all(own, self._root_states.items())
        self._merge_all(own, self._local_cum.items())
        if own:
            origins[self._origin_id] = {
                "partials": [
                    {"key": list(key), "states": st} for key, st in own.items()
                ],
                "relays": [],
            }
        self.context.overlay.direct_message(
            self.context.proxy_address,
            INTEGRITY_NAMESPACE,
            self.context.query_id,
            {
                "kind": "root",
                "replica": self.replica,
                "node": self.context.overlay.address,
                "origins": origins,
            },
        )

    def _flush_windowed(self) -> None:
        """Lifetime expiry for a standing query: the in-progress partial
        pane is dropped by design (only complete windows are reported),
        held traffic is forwarded, and the root emits every complete epoch
        still waiting on its watermark."""
        if self._held or self._held_batches:
            self._forward_held(None)
        salvage_root = (
            not self._monitoring and not self._is_root_owner and self._is_root()
        )
        if not (self._is_root_owner or salvage_root):
            return
        epochs: Set[int] = set()

        def collect(keys: Iterable[Any]) -> None:
            for key in keys:
                if isinstance(key, (list, tuple)) and key and isinstance(key[0], int):
                    epochs.add(key[0])

        collect(self._root_states)
        if self._is_root_owner:
            collect(self._local_cum)
        for origin, entry in self._origin_folds.items():
            if origin == self._origin_id:
                continue
            if entry["base"]:
                collect(entry["base"])
            for partials in entry["deltas"].values():
                collect(partials)
        for epoch in sorted(epochs - self._emitted_epochs):
            self._emit_epoch(epoch)


@register_operator
class HierarchicalJoinExchange(PhysicalOperator):
    """Rehash phase of a parallel hash join with in-path ("early") joins.

    Both join inputs are pushed into this operator (slots 0 and 1).  Each
    tuple is routed toward the DHT bucket for its join key with ``send``;
    every node it passes through caches a copy annotated with the list of
    node identifiers visited so far.  When a passing tuple joins with a
    cached tuple of the other side whose path it has never shared, the
    result is emitted immediately (and shipped by the downstream
    result_handler), off-loading out-bandwidth from the bucket owner.  The
    bucket owner still receives every tuple and performs the complete join,
    skipping pairs whose paths met earlier.

    Params: ``namespace`` (rehash rendezvous), ``left_columns``,
    ``right_columns``, optional ``output_table``, ``lifetime``.
    """

    op_type = "hierarchical_join"

    def __init__(self, spec, context) -> None:  # noqa: ANN001
        super().__init__(spec, context)
        self.namespace = context.scoped_namespace(self.require_param("namespace"))
        self.left_columns: List[str] = list(self.require_param("left_columns"))
        self.right_columns: List[str] = list(self.require_param("right_columns"))
        self.output_table: Optional[str] = self.param("output_table")
        self.lifetime = float(self.param("lifetime", context.lifetime))
        # Cache of tuples seen at this node, per join key and side.
        self._cache: Dict[Any, PyTuple[List[Dict[str, Any]], List[Dict[str, Any]]]] = {}
        # Envelope ids already cached/joined at this node: a tuple can reach
        # the same node more than once (e.g. as an upcall and again as the
        # stored bucket copy) and must be processed exactly once.
        self._processed: Set[str] = set()
        self.early_results = 0
        self.final_results = 0

    def start(self) -> None:
        self.context.overlay.upcall(self.namespace, self._on_upcall)
        self.context.overlay.new_data(self.namespace, self._on_bucket_arrival)
        # Nodes are only loosely synchronised: envelopes rehashed by nodes
        # that started earlier may already be stored here.  Catch up on them
        # (Section 3.3.4, "No Global Synchronization").
        self.context.overlay.local_scan(
            self.namespace, lambda _ns, _key, value: self._on_bucket_arrival(_ns, _key, value)
        )

    # -- local input ---------------------------------------------------------- #
    def on_receive(self, tup: Tuple, slot: int, tag: str) -> None:
        columns = self.left_columns if slot == 0 else self.right_columns
        key = tup.key(columns)
        partition_key = key[0] if len(key) == 1 else key
        envelope = {
            "envelope_id": random_suffix(),
            "side": slot,
            "key": list(key),
            "tuple": tup.to_wire(),
            "path": [self.context.overlay.identifier],
        }
        self._process(envelope, emit_early=True)
        self.context.overlay.send(
            self.namespace,
            key=partition_key,
            suffix=envelope["envelope_id"],
            value=envelope,
            lifetime=self.lifetime,
        )

    # -- in-path interception ---------------------------------------------------- #
    def _on_upcall(self, _namespace: str, _key: object, value: object) -> bool:
        if not isinstance(value, dict) or "side" not in value:
            return True
        # Routed-envelope exception: "path" is per-hop routing state that the
        # envelope accumulates as it travels (like the wrapper's hop count),
        # mutated only by the node that currently owns the message.
        value["path"] = list(value.get("path", [])) + [  # pierlint: disable=P02
            self.context.overlay.identifier
        ]
        self._process(value, emit_early=True)
        return True  # keep routing toward the bucket owner

    def _on_bucket_arrival(self, _namespace: str, _key: object, value: object) -> None:
        if not isinstance(value, dict) or "side" not in value:
            return
        self._process(value, emit_early=False)

    def _process(self, envelope: Dict[str, Any], emit_early: bool) -> None:
        envelope_id = envelope.get("envelope_id")
        if envelope_id in self._processed:
            return
        self._processed.add(envelope_id)
        # Cache a snapshot: the in-flight message keeps accumulating path
        # entries as it travels, but this node saw it with the path as-is.
        snapshot = dict(envelope)
        snapshot["path"] = list(envelope.get("path", []))
        self._join_against_cache(snapshot, emit_early=emit_early)
        self._cache_envelope(snapshot)

    # -- join machinery -------------------------------------------------------------#
    def _cache_envelope(self, envelope: Dict[str, Any]) -> None:
        key = tuple(envelope["key"])
        sides = self._cache.setdefault(key, ([], []))
        sides[envelope["side"]].append(envelope)

    def _join_against_cache(self, envelope: Dict[str, Any], emit_early: bool) -> None:
        key = tuple(envelope["key"])
        sides = self._cache.get(key)
        if sides is None:
            return
        other_side = 1 - envelope["side"]
        own_identifier = self.context.overlay.identifier
        for cached in sides[other_side]:
            met_before = (
                set(cached.get("path", [])) & set(envelope.get("path", []))
            ) - {own_identifier}
            if met_before:
                # The two tuples already met at an earlier node, which
                # produced this result there ("annotated with a matching
                # node identifier"): skip to avoid duplicates.
                continue
            left_env, right_env = (
                (envelope, cached) if envelope["side"] == 0 else (cached, envelope)
            )
            left = Tuple.from_wire(left_env["tuple"])
            right = Tuple.from_wire(right_env["tuple"])
            if emit_early:
                self.early_results += 1
            else:
                self.final_results += 1
            self.emit([left.join(right, table=self.output_table)])
