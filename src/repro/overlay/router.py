"""DHT routing (paper Section 3.2.2).

Each node keeps a small neighbor table and forwards messages hop by hop,
making "forward progress" in the identifier space at every hop.  PIER is
agnostic to the concrete DHT algorithm; this module provides a Chord-style
router (successor lists + finger table) and a shared membership/bootstrap
directory.  A Pastry/Bamboo-style prefix router lives in
:mod:`repro.overlay.bamboo`.

Neighbor acquisition.  Real deployments learn neighbors through join and
stabilization message exchanges.  In this reproduction, neighbor tables are
(re)built from a :class:`BootstrapDirectory` that records which nodes have
joined the overlay — the same information a stabilization protocol
converges to — while *liveness* is still discovered locally: a node only
learns that a neighbor is dead when a message to it fails, and then routes
around it using its remaining neighbors.  This keeps the architectural
property the paper relies on (multi-hop routing over local state, O(log N)
hops, resilience to churn) without simulating every stabilization message.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.overlay.identifiers import ID_BITS, ID_SPACE as _ID_SPACE, IdentifierSpace, node_identifier


@dataclass
class NodeContact:
    """Address book entry for a remote node."""

    identifier: int
    address: object

    def __hash__(self) -> int:
        return hash((self.identifier, repr(self.address)))


class BootstrapDirectory:
    """Registry of nodes that have joined the overlay.

    This stands in for the knowledge a stabilization protocol spreads: the
    set of member identifiers.  It deliberately does *not* expose liveness;
    routers discover failures themselves.

    ``version`` counts membership changes, so a router can tell "nothing
    joined or left since I last looked" from one integer instead of
    comparing (or copying) the membership.
    """

    def __init__(self) -> None:
        self._members: Dict[int, NodeContact] = {}
        self._sorted: Optional[List[NodeContact]] = None
        self.version = 0

    def register(self, contact: NodeContact) -> None:
        self._members[contact.identifier] = contact
        self._changed()

    def deregister(self, identifier: int) -> None:
        self._members.pop(identifier, None)
        self._changed()

    def _changed(self) -> None:
        self._sorted = None
        self.version += 1

    def members(self) -> List[NodeContact]:
        """Every member, by identifier (a fresh list; the sort is cached)."""
        if self._sorted is None:
            self._sorted = sorted(self._members.values(), key=lambda c: c.identifier)
        return list(self._sorted)

    def contact(self, identifier: int) -> Optional[NodeContact]:
        return self._members.get(identifier)

    def __len__(self) -> int:
        return len(self._members)


class Router:
    """Base class for DHT routers: local neighbor state + next-hop choice."""

    def __init__(self, contact: NodeContact) -> None:
        self.contact = contact
        self.identifier = contact.identifier
        self._suspected_dead: Set[int] = set()
        # Counts the changes to what this node's view depends on besides
        # the directory: the suspicion set, a contact dropped in place, a
        # caller-supplied membership.
        self._local_changes = 0
        # The view_key() the neighbor tables were last built at.
        self._synced_key: Optional[int] = None

    # -- membership / maintenance ----------------------------------------- #
    def view_key(self, directory: BootstrapDirectory) -> int:
        """One integer that moves whenever the directory's membership or
        this router's own view of it does.  Both terms only grow, so the
        sum changes exactly when either does; anything derived from the
        two (the neighbor tables, the wrapper's owner cache) is current
        while the key it was built at still matches."""
        return directory.version + self._local_changes

    def refresh(self, members: Sequence[NodeContact]) -> None:
        """Rebuild neighbor tables from the known membership."""
        self._local_changes += 1
        self._rebuild(members)

    def sync(self, directory: BootstrapDirectory) -> None:
        """:meth:`refresh` from the directory, unless neither its
        membership nor this router's suspicion set changed since the last
        sync — the tables are a pure function of the two, and periodic
        stabilization mostly finds both unchanged."""
        key = self.view_key(directory)
        if key != self._synced_key:
            self._rebuild(directory.members())
            self._synced_key = key

    def _rebuild(self, members: Sequence[NodeContact]) -> None:
        raise NotImplementedError

    def mark_dead(self, identifier: int) -> None:
        """Locally note that a neighbor did not acknowledge a message."""
        if identifier not in self._suspected_dead:
            self._suspected_dead.add(identifier)
            self._local_changes += 1

    def mark_alive(self, identifier: int) -> None:
        if identifier in self._suspected_dead:
            self._suspected_dead.discard(identifier)
            self._local_changes += 1

    def remove_contact(self, identifier: int) -> None:
        """A message to ``identifier`` went unacknowledged: suspect it and
        stop routing through it.  Routers that can also drop it from
        their tables in place, ahead of the next :meth:`sync`, override."""
        self.mark_dead(identifier)

    def is_suspected_dead(self, identifier: int) -> bool:
        return identifier in self._suspected_dead

    def live_members(self, members: Sequence[NodeContact]) -> List[NodeContact]:
        """This node's membership view: ``members`` minus suspected-dead.

        Failure-aware components (the query proxies' coverage tracking)
        read liveness through this, rather than asking the simulator — the
        router is the one place a real node learns who is reachable.
        """
        return [
            member
            for member in members
            if member.identifier == self.identifier
            or member.identifier not in self._suspected_dead
        ]

    # -- routing ------------------------------------------------------------ #
    def is_responsible(self, target: int) -> bool:
        """Does this node own ``target`` given its current neighbor view?"""
        raise NotImplementedError

    def owned_interval(self) -> Optional[Tuple[int, int]]:
        """The clockwise interval ``(start, end]`` of identifiers for which
        :meth:`is_responsible` holds, or ``None`` when this router cannot
        state one."""
        return None

    def owned_answer(self, directory: BootstrapDirectory) -> Optional[Tuple[int, int, int]]:
        """What a lookup answer says about this node's range, so that the
        requester can resolve its other identifiers without routing again:
        ``(start, end, directory.version)``, or ``None`` when there is no
        :meth:`owned_interval` — or when the tables it comes from were
        built under an older view than the present one.  A node that has
        not yet stabilized on a join still counts the newcomer's
        identifiers as its own; a requester that kept that interval would
        go on sending them here after everyone else had moved on."""
        if self._synced_key != self.view_key(directory):
            return None
        interval = self.owned_interval()
        return interval and (*interval, directory.version)

    def next_hop(self, target: int, exclude: Optional[Set[int]] = None) -> Optional[NodeContact]:
        """The neighbor to forward a message for ``target`` to.

        Returns ``None`` when this node believes it is itself responsible
        (routing terminates here) or when no usable neighbor remains.
        """
        raise NotImplementedError

    def route_choice(
        self, target: int, exclude: Optional[Set[int]] = None
    ) -> Tuple[Optional[NodeContact], bool]:
        """Next hop plus whether that hop is, in this node's view, the owner.

        When the flag is True the message should be delivered at the next
        hop even if that node's own (possibly stale) neighbor view says
        otherwise — this is how Chord's "ask the predecessor for its
        successor" lookup terminates correctly while the owner has not yet
        noticed that its old predecessor is dead.
        """
        return self.next_hop(target, exclude), False

    def neighbors(self) -> List[NodeContact]:
        """All contacts currently in the neighbor table."""
        raise NotImplementedError


class ChordRouter(Router):
    """Chord-style ring routing: responsibility = successor of the identifier.

    The finger table holds, for each power-of-two distance, the first known
    member at or past ``self + 2**i``; the successor list provides
    resilience when immediate successors fail.
    """

    def __init__(self, contact: NodeContact, successor_count: int = 8) -> None:
        super().__init__(contact)
        self.successor_count = successor_count
        self.successors: List[NodeContact] = []
        self.predecessor: Optional[NodeContact] = None
        self.fingers: List[Optional[NodeContact]] = [None] * ID_BITS
        self._contacts: Dict[int, NodeContact] = {}
        # The finger table has ID_BITS entries but only O(log N) *distinct*
        # contacts; routing walks this deduplicated view so each candidate
        # is evaluated once per hop instead of once per table slot.
        self._unique_fingers: List[NodeContact] = []

    # -- maintenance ------------------------------------------------------- #
    def _rebuild(self, members: Sequence[NodeContact]) -> None:
        usable = [
            member
            for member in members
            if member.identifier == self.identifier
            or member.identifier not in self._suspected_dead
        ]
        identifiers = sorted(member.identifier for member in usable)
        by_id = {member.identifier: member for member in usable}
        self._contacts = by_id
        if len(identifiers) <= 1:
            self.successors = []
            self.predecessor = None
            self.fingers = [None] * ID_BITS
            self._unique_fingers = []
            return
        index = bisect.bisect_right(identifiers, self.identifier)
        ordered = identifiers[index:] + identifiers[:index]
        ordered = [i for i in ordered if i != self.identifier]
        self.successors = [by_id[i] for i in ordered[: self.successor_count]]
        predecessor_id = identifiers[index - 1] if index > 0 else identifiers[-1]
        if predecessor_id == self.identifier:
            predecessor_id = identifiers[index - 2] if len(identifiers) > 1 else None
        self.predecessor = by_id.get(predecessor_id) if predecessor_id is not None else None
        self.fingers = []
        for bit in range(ID_BITS):
            start = (self.identifier + (1 << bit)) % IdentifierSpace.size
            finger_index = bisect.bisect_left(identifiers, start)
            if finger_index == len(identifiers):
                finger_index = 0
            finger_id = identifiers[finger_index]
            self.fingers.append(by_id[finger_id] if finger_id != self.identifier else None)
        self._rebuild_unique_fingers()

    def _rebuild_unique_fingers(self) -> None:
        seen: Set[int] = set()
        unique: List[NodeContact] = []
        for finger in self.fingers:
            if finger is not None and finger.identifier not in seen:
                seen.add(finger.identifier)
                unique.append(finger)
        self._unique_fingers = unique

    def remove_contact(self, identifier: int) -> None:
        """Drop a (dead) contact from all tables immediately."""
        self.mark_dead(identifier)
        self._contacts.pop(identifier, None)
        self.successors = [c for c in self.successors if c.identifier != identifier]
        if self.predecessor is not None and self.predecessor.identifier == identifier:
            self.predecessor = None
        self.fingers = [
            None if finger is not None and finger.identifier == identifier else finger
            for finger in self.fingers
        ]
        self._rebuild_unique_fingers()

    # -- routing --------------------------------------------------------------#
    def is_responsible(self, target: int) -> bool:
        if not self.successors:
            return True
        if self.predecessor is None:
            # Without a predecessor we can only say "yes" when no successor
            # is a better owner, i.e. target is not strictly between us and
            # any successor going clockwise from target.
            return not IdentifierSpace.in_interval(
                target, self.identifier, self.successors[0].identifier, inclusive_end=False
            ) and self._closest_member(target) == self.identifier
        return IdentifierSpace.in_interval(
            target, self.predecessor.identifier, self.identifier, inclusive_end=True
        )

    def owned_interval(self) -> Optional[Tuple[int, int]]:
        if self.predecessor is None:
            return None
        return self.predecessor.identifier, self.identifier

    def _closest_member(self, target: int) -> int:
        candidates = [self.identifier] + [c.identifier for c in self._contacts.values()]
        return IdentifierSpace.successor_of(target, candidates)

    def next_hop(self, target: int, exclude: Optional[Set[int]] = None) -> Optional[NodeContact]:
        return self.route_choice(target, exclude)[0]

    def route_choice(
        self, target: int, exclude: Optional[Set[int]] = None
    ) -> Tuple[Optional[NodeContact], bool]:
        exclude = exclude or set()
        if self.is_responsible(target):
            return None, True
        # If the target falls between us and our first usable successor, the
        # successor is the owner: forward directly to it, flagged as final.
        for successor in self.successors:
            if successor.identifier in exclude or self.is_suspected_dead(successor.identifier):
                continue
            if IdentifierSpace.in_interval(
                target, self.identifier, successor.identifier, inclusive_end=True
            ):
                return successor, True
            break
        # Otherwise pick the closest preceding finger that makes forward
        # progress.  Each *distinct* finger contact is considered once; the
        # winner (minimum clockwise distance to the target) is the same one
        # the full table walk would find, since duplicates can't change a
        # minimum.
        best: Optional[NodeContact] = None
        best_distance = (target - self.identifier) % _ID_SPACE
        suspected = self._suspected_dead
        for finger in self._unique_fingers:
            identifier = finger.identifier
            if identifier in exclude or identifier in suspected:
                continue
            distance = (target - identifier) % _ID_SPACE
            if 0 < distance < best_distance:
                best = finger
                best_distance = distance
        if best is not None:
            return best, False
        # Fall back to any usable successor (still forward progress on the ring).
        for successor in self.successors:
            if successor.identifier in exclude or self.is_suspected_dead(successor.identifier):
                continue
            return successor, False
        # Last resort: any known contact that is not excluded.
        for contact in self._contacts.values():
            if contact.identifier == self.identifier:
                continue
            if contact.identifier in exclude or self.is_suspected_dead(contact.identifier):
                continue
            return contact, False
        return None, False

    def neighbors(self) -> List[NodeContact]:
        seen: Dict[int, NodeContact] = {}
        for contact in self.successors:
            seen[contact.identifier] = contact
        for finger in self.fingers:
            if finger is not None:
                seen[finger.identifier] = finger
        if self.predecessor is not None:
            seen[self.predecessor.identifier] = self.predecessor
        return list(seen.values())


def make_contact(address: object) -> NodeContact:
    """Build the :class:`NodeContact` for a node address."""
    return NodeContact(identifier=node_identifier(address), address=address)
