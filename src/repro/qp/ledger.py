"""The origin ledger: exactly-once accounting of per-origin partial states.

Origin-accounted aggregation (:mod:`repro.qp.hierarchical`, resilient and
verified modes) ships every contribution as a *batch* tagged ``(origin,
incarnation, seq)``.  Whoever terminates those batches — the aggregation
tree's root, or a node routing briefly believed was the root — folds them
here, so that whatever the network replays, reorders or re-ships counts
once:

* a batch whose ``seq`` was already folded is a replay and is dropped;
* a ``cumulative`` batch *replaces* the origin's contribution and
  supersedes every delta at or below its ``seq``;
* a newer incarnation (the origin's opgraph was re-installed after a
  failure/rejoin) resets the origin's entry, so a full re-scan replaces —
  never adds to — what the origin contributed before failing; an older
  incarnation is ignored.

The ledger is a plain data structure over the wire form of a batch.  It
knows nothing of the overlay, the clock or the aggregate functions: how two
state lists merge is the one thing its owner passes in.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Set, Tuple as PyTuple

# Group key -> one partial state per aggregate.
Groups = Dict[PyTuple[Any, ...], List[Any]]
Pairs = Iterable[PyTuple[PyTuple[Any, ...], List[Any]]]


def wire_partials(groups: Groups) -> List[Dict[str, Any]]:
    """Group states in the form they travel in: one column-wise block per
    key width, ``{"count": groups, "keys": [one list per key column],
    "states": [one list per aggregate]}``, groups in table order within a
    block.  Every group of a table carries one state per aggregate."""
    widths: Dict[int, List[PyTuple[Any, ...]]] = {}
    for key in groups:
        widths.setdefault(len(key), []).append(key)
    return [
        {
            "count": len(keys),
            "keys": [list(column) for column in zip(*keys)],
            "states": [list(column) for column in zip(*map(groups.__getitem__, keys))],
        }
        for keys in widths.values()
    ]


def _rows(columns: List[List[Any]], count: int) -> Iterator[PyTuple[Any, ...]]:
    """A block's columns read back row by row (``count`` empty rows when
    there are no columns: the global aggregate's key)."""
    return zip(*columns) if columns else repeat((), count)


def partial_pairs(blocks: Iterable[Dict[str, Any]]) -> Pairs:
    """A message's ``partials`` as ``(key, states)`` pairs; each state list
    is new, so a fold never shares one with the message."""
    for block in blocks:
        count = block["count"]
        yield from zip(_rows(block["keys"], count), map(list, _rows(block["states"], count)))


def partial_keys(blocks: Iterable[Dict[str, Any]]) -> Iterator[PyTuple[Any, ...]]:
    """The group keys of a message's ``partials``, in order."""
    for block in blocks:
        yield from _rows(block["keys"], block["count"])


class _OriginEntry:
    """What one origin's live incarnation has contributed so far."""

    __slots__ = ("inc", "inc_ts", "base", "floor", "deltas", "relays")

    def __init__(self, inc: Any, inc_ts: float) -> None:
        self.inc = inc
        self.inc_ts = inc_ts
        # The latest cumulative batch, and the deltas above it by seq.
        self.base: Groups = {}
        self.deltas: Dict[int, Groups] = {}
        # Every seq at or below the floor is accounted for: superseded by
        # the base, or folded and since evicted.
        self.floor = 0
        # Custody trail: every node that re-packed this origin's batches.
        self.relays: Set[Any] = set()

    def parts(self) -> List[Groups]:
        """The contribution in merge order: base, then deltas by seq."""
        return [self.base, *(self.deltas[seq] for seq in sorted(self.deltas))]


class OriginLedger:
    """Per-origin folds of origin-accounted batches.  ``merge_all(buffer,
    pairs)`` merges ``(key, states)`` pairs into a group table without
    sharing state lists with its input."""

    def __init__(self, merge_all: Callable[[Groups, Pairs], None]) -> None:
        self._merge_all = merge_all
        self._entries: Dict[Any, _OriginEntry] = {}
        self.replays_dropped = 0

    def fold(self, batch: Dict[str, Any]) -> bool:
        """Fold one batch, exactly once; False when it changed nothing
        (no origin, a stale incarnation, or a replay)."""
        origin = batch.get("origin")
        if origin is None:
            return False
        entry = self._entries.get(origin)
        if entry is None or (batch["inc_ts"], batch["inc"]) > (entry.inc_ts, entry.inc):
            entry = self._entries[origin] = _OriginEntry(batch["inc"], batch["inc_ts"])
        elif batch["inc"] != entry.inc:
            return False  # stale incarnation: superseded by a re-install
        # Reported alongside the root's claims so a verification failure
        # can name the nodes that handled the corrupted data.
        entry.relays.update(
            tuple(relay) if isinstance(relay, list) else relay
            for relay in batch.get("relays", [])
        )
        seq = int(batch["seq"])
        if seq <= entry.floor or (seq in entry.deltas and not batch.get("cumulative")):
            self.replays_dropped += 1
            return False
        partials = dict(partial_pairs(batch.get("partials", [])))
        if batch.get("cumulative"):
            entry.base = partials
            entry.floor = seq
            entry.deltas = {s: states for s, states in entry.deltas.items() if s > seq}
        else:
            entry.deltas[seq] = partials
        return True

    def states(self, origin: Any) -> Groups:
        """One origin's contribution, merged."""
        merged: Groups = {}
        for part in self._entries[origin].parts():
            self._merge_all(merged, part.items())
        return merged

    def folds(self, skip: Any = None) -> Iterator[PyTuple[Any, Groups]]:
        """``(origin, merged states)`` for every origin but ``skip``."""
        return ((origin, self.states(origin)) for origin in list(self._entries) if origin != skip)

    def relays(self, origin: Any) -> Set[Any]:
        return self._entries[origin].relays

    def relay_batches(self, skip: Any = None) -> Iterator[Dict[str, Any]]:
        """Every origin's fold (but ``skip``'s) as one synthetic cumulative
        batch — how a root that loses ownership hands the ledger on, which
        covers origins that can no longer re-ship for themselves."""
        for origin, states in self.folds(skip):
            if states:
                entry = self._entries[origin]
                yield {
                    "origin": origin,
                    "inc": entry.inc,
                    "inc_ts": entry.inc_ts,
                    "seq": max([entry.floor, *entry.deltas]),
                    "cumulative": True,
                    "partials": wire_partials(states),
                }

    def evict(self, expired: Callable[[PyTuple[Any, ...]], bool]) -> int:
        """Drop every group key ``expired`` selects; returns how many.

        A leading delta this empties is forgotten and its ``seq`` joins the
        origin's floor, so a replay of it is still dropped while the ledger
        holds nothing for it.  (An emptied delta behind a live one stays
        registered: the floor cannot pass the live one.)
        """
        evicted = 0
        for entry in self._entries.values():
            for part in entry.parts():
                for key in [key for key in part if expired(key)]:
                    del part[key]
                    evicted += 1
            for seq in sorted(entry.deltas):
                if entry.deltas[seq]:
                    break
                del entry.deltas[seq]
                entry.floor = seq
        return evicted
