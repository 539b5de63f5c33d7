"""A Pastry/Bamboo-style prefix router (paper Section 3.2.4).

PIER's deployed DHT was Bamboo, whose routing state is a Pastry-style
prefix routing table plus a leaf set of the numerically nearest neighbors.
Responsibility is defined by numeric closeness in the identifier space
(ties broken toward the clockwise side), and each hop fixes at least one
more prefix digit, giving O(log N) hops.

This router is interchangeable with :class:`~repro.overlay.router.
ChordRouter`; the overlay wrapper and the query processor only rely on the
abstract :class:`~repro.overlay.router.Router` interface — exactly the
"PIER is agnostic to the actual algorithm" property the paper claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.overlay.identifiers import ID_BITS, IdentifierSpace
from repro.overlay.router import NodeContact, Router

_BITS_PER_DIGIT = 4
_DIGITS = ID_BITS // _BITS_PER_DIGIT
_DIGIT_VALUES = 1 << _BITS_PER_DIGIT


def _circular_distance(a: int, b: int) -> int:
    """Minimum of clockwise and counter-clockwise distance."""
    forward = IdentifierSpace.distance(a, b)
    return min(forward, IdentifierSpace.size - forward)


class BambooRouter(Router):
    """Prefix routing table + leaf set, numeric-closeness responsibility."""

    def __init__(self, contact: NodeContact, leaf_set_size: int = 8) -> None:
        super().__init__(contact)
        self.leaf_set_size = leaf_set_size
        self.leaf_set: List[NodeContact] = []
        # routing_table[row][digit] = contact sharing `row` prefix digits with
        # us and having `digit` as its next digit.
        self.routing_table: List[List[Optional[NodeContact]]] = [
            [None] * _DIGIT_VALUES for _ in range(_DIGITS)
        ]
        self._contacts: Dict[int, NodeContact] = {}

    # -- maintenance --------------------------------------------------------- #
    def _rebuild(self, members: Sequence[NodeContact]) -> None:
        usable = [
            member
            for member in members
            if member.identifier != self.identifier
            and member.identifier not in self._suspected_dead
        ]
        self._contacts = {member.identifier: member for member in usable}
        self.leaf_set = sorted(
            usable, key=lambda m: _circular_distance(self.identifier, m.identifier)
        )[: self.leaf_set_size]
        self.routing_table = [[None] * _DIGIT_VALUES for _ in range(_DIGITS)]
        for member in usable:
            shared_bits = IdentifierSpace.shared_prefix_bits(self.identifier, member.identifier)
            row = min(shared_bits // _BITS_PER_DIGIT, _DIGITS - 1)
            digit = IdentifierSpace.digit(member.identifier, row, _BITS_PER_DIGIT)
            existing = self.routing_table[row][digit]
            if existing is None or _circular_distance(
                self.identifier, member.identifier
            ) < _circular_distance(self.identifier, existing.identifier):
                self.routing_table[row][digit] = member

    def remove_contact(self, identifier: int) -> None:
        self.mark_dead(identifier)
        self._contacts.pop(identifier, None)
        self.leaf_set = [c for c in self.leaf_set if c.identifier != identifier]
        for row in self.routing_table:
            for digit, contact in enumerate(row):
                if contact is not None and contact.identifier == identifier:
                    row[digit] = None

    # -- routing --------------------------------------------------------------- #
    def is_responsible(self, target: int) -> bool:
        if not self._contacts:
            return True
        own = _circular_distance(self.identifier, target)
        nearest = min(
            _circular_distance(contact.identifier, target)
            for contact in self._contacts.values()
            if contact.identifier not in self._suspected_dead
        ) if any(
            contact.identifier not in self._suspected_dead
            for contact in self._contacts.values()
        ) else None
        if nearest is None:
            return True
        if own < nearest:
            return True
        if own > nearest:
            return False
        # Tie: the node with the smaller identifier wins, deterministically.
        tied = [
            contact.identifier
            for contact in self._contacts.values()
            if _circular_distance(contact.identifier, target) == own
        ]
        return self.identifier < min(tied)

    def owned_interval(self) -> Optional[Tuple[int, int]]:
        """The identifiers strictly nearer to this node than to its nearest
        live contact on either side.  An exact midpoint is left out: the
        tie-break may give it to this node, and an interval that is too
        small only costs the requester a routed lookup."""
        live = [i for i in self._contacts if i not in self._suspected_dead]
        if not live:
            return None
        size = IdentifierSpace.size
        gap_before = min((self.identifier - i) % size for i in live)
        gap_after = min((i - self.identifier) % size for i in live)
        return (
            (self.identifier - (gap_before - 1) // 2 - 1) % size,
            (self.identifier + (gap_after - 1) // 2) % size,
        )

    def next_hop(self, target: int, exclude: Optional[Set[int]] = None) -> Optional[NodeContact]:
        exclude = exclude or set()
        if self.is_responsible(target):
            return None

        def usable(contact: Optional[NodeContact]) -> bool:
            return (
                contact is not None
                and contact.identifier not in exclude
                and not self.is_suspected_dead(contact.identifier)
            )

        # 1. Prefix routing: pick the table entry with a longer shared prefix.
        shared_bits = IdentifierSpace.shared_prefix_bits(self.identifier, target)
        row = min(shared_bits // _BITS_PER_DIGIT, _DIGITS - 1)
        digit = IdentifierSpace.digit(target, row, _BITS_PER_DIGIT)
        entry = self.routing_table[row][digit]
        if usable(entry):
            return entry
        # 2. Leaf set / any contact that is numerically closer than we are.
        own_distance = _circular_distance(self.identifier, target)
        best: Optional[NodeContact] = None
        best_distance = own_distance
        for contact in list(self.leaf_set) + list(self._contacts.values()):
            if not usable(contact):
                continue
            distance = _circular_distance(contact.identifier, target)
            if distance < best_distance:
                best = contact
                best_distance = distance
        return best

    def neighbors(self) -> List[NodeContact]:
        seen: Dict[int, NodeContact] = {c.identifier: c for c in self.leaf_set}
        for row in self.routing_table:
            for contact in row:
                if contact is not None:
                    seen[contact.identifier] = contact
        return list(seen.values())
