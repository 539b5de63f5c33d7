"""Churn and adversary generation: failures, rejoins, and byzantine roles.

The paper stresses that DHTs (and therefore PIER) must operate under churn
— the steady arrival and departure of participating machines.  The
simulator supports complete node failures; :class:`ChurnProcess` drives
them on a schedule so experiments (soft-state availability, routing
resilience) can sweep churn rates.

Section 4.1.2 goes further: an Internet-scale query processor must also
survive *malicious* participants.  :class:`ByzantineProcess` flips a seeded
fraction of nodes into attacker roles; the aggregation operators
(:mod:`repro.qp.hierarchical`, ``PartialAggregate``) on such a node hold an
:class:`Attacker` and hand it what passes through their send/intercept
paths — so attacks ride the real wire format in both the simulated and the
physical runtime, and the defenses in :mod:`repro.qp.integrity` are
exercised against genuine protocol traffic rather than synthetic inputs.
What an attack *does* is written here, once; the operators only know where
they are exposed to it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.qp.ledger import partial_pairs, wire_partials
from repro.runtime.rand import derive_rng
from repro.runtime.simulation import SimulationEnvironment


@dataclass
class ChurnEvent:
    """A record of one churn action for post-hoc analysis."""

    time: float
    address: int
    action: str  # "fail" or "recover"


class ChurnProcess:
    """Poisson-ish churn: every ``interval`` seconds, fail a random live
    node and (optionally) recover a random failed node.

    ``session_time`` controls how long a failed node stays down before it
    becomes eligible for recovery.  The process never fails nodes listed in
    ``protected`` (e.g. the proxy node of a running query).  Components
    whose protection needs change over time — a deployment shielding the
    proxies of whatever queries are running *right now* — register a
    provider with :meth:`register_protected_provider`; providers are
    re-evaluated at every failure decision.
    """

    def __init__(
        self,
        environment: SimulationEnvironment,
        interval: float,
        session_time: float = 30.0,
        protected: Optional[List[int]] = None,
        seed: int = 0,
        recover: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.environment = environment
        self.interval = interval
        self.session_time = session_time
        self.protected = set(protected or [])
        self.recover = recover
        self.rng = derive_rng(seed)
        self.history: List[ChurnEvent] = []
        self._failed: List[int] = []
        self._running = False
        self._on_fail: List[Callable[[int], None]] = []
        self._on_recover: List[Callable[[int], None]] = []
        self._protected_providers: List[Callable[[], Iterable[int]]] = []

    def on_fail(self, callback: Callable[[int], None]) -> None:
        self._on_fail.append(callback)

    def on_recover(self, callback: Callable[[int], None]) -> None:
        self._on_recover.append(callback)

    def register_protected_provider(self, provider: Callable[[], Iterable[int]]) -> None:
        """Add a callable yielding addresses that must not be failed *now*.

        Unlike the static ``protected`` list, providers are consulted at
        each failure decision, so protection can track running queries.
        """
        self._protected_providers.append(provider)

    def _protected_now(self) -> Set[int]:
        protected = set(self.protected)
        for provider in self._protected_providers:
            protected.update(provider())
        return protected

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.environment.scheduler.schedule_callback(self.interval, self._tick, None)

    def stop(self) -> None:
        self._running = False

    # -- internals ------------------------------------------------------- #
    def _tick(self, _data: object) -> None:
        if not self._running:
            return
        self._fail_one()
        if self.recover:
            self._recover_due()
        self.environment.scheduler.schedule_callback(self.interval, self._tick, None)

    def _fail_one(self) -> None:
        protected = self._protected_now()
        candidates = [
            address
            for address in range(self.environment.node_count)
            if self.environment.is_alive(address) and address not in protected
        ]
        if not candidates:
            return
        address = self.rng.choice(candidates)
        self.environment.fail_node(address)
        self._failed.append(address)
        self.history.append(
            ChurnEvent(time=self.environment.now, address=address, action="fail")
        )
        for callback in self._on_fail:
            callback(address)

    def _recover_due(self) -> None:
        now = self.environment.now
        due = {
            event.address
            for event in self.history
            if event.action == "fail"
            and now - event.time >= self.session_time
            and event.address in self._failed
        }
        for address in due:
            self._failed.remove(address)
            self.environment.recover_node(address)
            self.history.append(ChurnEvent(time=now, address=address, action="recover"))
            for callback in self._on_recover:
                callback(address)

    @property
    def failed_nodes(self) -> List[int]:
        return list(self._failed)


# --------------------------------------------------------------------------- #
# Byzantine fault injection
# --------------------------------------------------------------------------- #

#: The attack repertoire.  Each attacker is assigned exactly one of these
#: (chosen by seeded rng from the enabled set) so experiments can attribute
#: every result deviation to a known behavior.
BYZANTINE_ATTACKS: Tuple[str, ...] = (
    "drop_partials",
    "inflate_partials",
    "forge_origin",
    "suppress_sources",
)


def corrupt_states(states: Sequence[Any], factor: float) -> List[Any]:
    """Multiply every numeric component of a list of aggregate states.

    Aggregate states are ints (Count), floats (Sum) or tuples like
    (sum, count) for Average; the corruption recurses through containers,
    keeps ints int so the wire codec round-trips, and leaves bools and
    non-numerics alone.
    """

    def corrupt(value: Any) -> Any:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return int(value * factor)
        if isinstance(value, float):
            return value * factor
        if isinstance(value, (list, tuple)):
            corrupted = [corrupt(item) for item in value]
            return type(value)(corrupted) if isinstance(value, tuple) else corrupted
        return value

    return [corrupt(state) for state in states]


def suppression_victim(origin: Any) -> bool:
    """Deterministic victim predicate for the ``suppress_sources`` attack.

    Every suppressing attacker censors the same half of the origin space
    (even crc32), so the attack is reproducible across replicas and runs
    without any shared rng state.
    """
    return zlib.crc32(repr(origin).encode()) % 2 == 0


@dataclass(frozen=True)
class AttackerRole:
    """The behavior assignment for one adversarial node."""

    address: int
    attack: str
    inflation_factor: float = 10.0
    forge_count: int = 2


@dataclass
class AttackEvent:
    """One recorded act of misbehavior, for ground-truth evaluation."""

    time: float
    attacker: int
    attack: str
    replica: int = 0
    origin: Optional[Any] = None


class ByzantineProcess:
    """Flip a seeded fraction of nodes into adversarial aggregator roles.

    Mirrors :class:`ChurnProcess` in spirit — an environment-level process
    that perturbs the deployment — but byzantine roles are assigned once,
    up front, rather than scheduled over time: a node is either honest or
    an attacker for the whole experiment, matching the paper's threat
    discussion (malicious *participants*, not transient faults).

    Installing the process publishes it as ``environment.adversary``; the
    aggregation operators look the adversary up through their runtime (the
    same delegation path as the tracer) and ask :meth:`attacker` for their
    node's behaviour, which is ``None`` on honest nodes.  Attackers
    misbehave only in their *aggregator* role — they ship their own scan
    data honestly, consistent with the SIA model the paper cites (a node
    lying about its own local readings is a bounded-influence residual no
    aggregation protocol can detect).

    Every act of misbehavior is recorded through :meth:`record`, giving
    benchmarks a ground-truth ledger to compute detection rates against.
    """

    def __init__(
        self,
        environment: Any,
        fraction: float,
        attacks: Sequence[str] = BYZANTINE_ATTACKS,
        seed: int = 0,
        inflation_factor: float = 10.0,
        forge_count: int = 2,
        protected: Optional[Iterable[int]] = None,
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        unknown = set(attacks) - set(BYZANTINE_ATTACKS)
        if unknown:
            raise ValueError(f"unknown attacks: {sorted(unknown)}")
        if fraction > 0 and not attacks:
            raise ValueError("at least one attack must be enabled")
        self.environment = environment
        self.fraction = fraction
        self.attacks = tuple(attacks)
        self.seed = seed
        self.inflation_factor = inflation_factor
        self.forge_count = forge_count
        self.protected = set(protected or [])
        self.history: List[AttackEvent] = []
        self._roles: Dict[int, AttackerRole] = {}
        self._forge_victims: Dict[int, List[Any]] = {}
        self._attacked: Set[Tuple[int, Any]] = set()
        rng = derive_rng(seed, "byzantine")
        candidates = [
            address
            for address in range(environment.node_count)
            if address not in self.protected
        ]
        count = min(len(candidates), round(fraction * environment.node_count))
        for address in sorted(rng.sample(candidates, count)):
            self._roles[address] = AttackerRole(
                address=address,
                attack=rng.choice(list(self.attacks)),
                inflation_factor=inflation_factor,
                forge_count=forge_count,
            )
        environment.adversary = self

    @property
    def attacker_addresses(self) -> List[int]:
        return sorted(self._roles)

    def role(self, address: int) -> Optional[AttackerRole]:
        """The attacker role for ``address``, or None for honest nodes."""
        return self._roles.get(address)

    def attacker(self, address: int, replica: int = 0) -> Optional["Attacker"]:
        """The behaviour of ``address``'s operators in one replica tree, or
        None for honest nodes."""
        role = self._roles.get(address)
        return Attacker(self, role, replica) if role is not None else None

    def forge_victims(self, attacker: int, candidates: Sequence[Any]) -> List[Any]:
        """The origins whose contributions ``attacker`` forges.

        Memoised per attacker on first call so the same victims are hit in
        every redundant replica tree — forged entries that disagreed across
        replicas would be out-voted trivially and understate the attack.
        """
        cached = self._forge_victims.get(attacker)
        if cached is not None:
            return list(cached)
        role = self._roles.get(attacker)
        pool = sorted((c for c in candidates), key=repr)
        if role is None or not pool:
            return []
        rng = derive_rng(self.seed, f"forge:{attacker}")
        victims = rng.sample(pool, min(role.forge_count, len(pool)))
        self._forge_victims[attacker] = list(victims)
        return list(victims)

    def record(
        self,
        attacker: int,
        attack: str,
        origin: Optional[Any] = None,
        replica: int = 0,
    ) -> None:
        """Log one act of misbehavior into the ground-truth ledger."""
        now = getattr(self.environment, "now", 0.0)
        self.history.append(
            AttackEvent(
                time=now, attacker=attacker, attack=attack, replica=replica, origin=origin
            )
        )
        if origin is not None:
            self._attacked.add((replica, origin))

    def attacked_pairs(self) -> Set[Tuple[int, Any]]:
        """The ground truth: every (replica, origin) whose contribution some
        attacker observably tampered with."""
        return set(self._attacked)

    def attack_counts(self) -> Dict[str, int]:
        """Events per attack type, for the metrics snapshot."""
        counts: Dict[str, int] = {}
        for event in self.history:
            counts[event.attack] = counts.get(event.attack, 0) + 1
        return counts


class Attacker:
    """One adversarial node's behaviour in one aggregation tree.

    The aggregation operators hold one of these in place of ``None`` and
    hand it what passes through their hands as aggregators.  Every method
    is a function of wire data (testable without a network) that records
    each observable act into the process's ground-truth ledger.
    """

    def __init__(self, process: ByzantineProcess, role: AttackerRole, replica: int = 0) -> None:
        self.process = process
        self.role = role
        self.replica = replica

    @property
    def forges(self) -> bool:
        return self.role.attack == "forge_origin"

    def record(self, origin: Optional[Any] = None) -> None:
        self.process.record(
            self.role.address, self.role.attack, origin=origin, replica=self.replica
        )

    def tamper(self, states: Any, origin: Optional[Any] = None, own: bool = False) -> Any:
        """What this attacker passes on in place of ``states``.

        ``states`` is a group table (key -> states) or a wire ``partials``
        list, and comes back in the same form: the input itself where this
        attack leaves it alone, a corrupted *copy* where it inflates (the
        wire value is never mutated), ``None`` where the contribution is
        absorbed and discarded — empty ones too.  Combined partials carry
        no ``origin``, so censorship discards the lot; on the node's
        ``own`` output only dropping and inflating act.  An act is
        recorded only when the input carried data: tampering with nothing
        is unobservable and must not count against the detector.
        """
        attack = self.role.attack
        if attack == "forge_origin":
            return states  # forgers relay honestly; their damage is injected
        if attack == "suppress_sources" and (
            own or (origin is not None and not suppression_victim(origin))
        ):
            return states
        if states:
            self.record(origin)
        if attack != "inflate_partials":
            return None
        factor = self.role.inflation_factor
        if isinstance(states, dict):
            return {key: corrupt_states(st, factor) for key, st in states.items()}
        return wire_partials({key: corrupt_states(st, factor) for key, st in partial_pairs(states)})

    def relay(self, batches: Sequence[Dict[str, Any]]) -> Optional[List[Dict[str, Any]]]:
        """An attacker on the forwarding path violates routing custody.

        Honest intermediates leave origin-accounted batches in the routing
        layer's custody.  An attacker absorbs them and then discards,
        censors, or re-packs corrupted copies stamped with its own relay
        mark — exactly the misbehavior the spot-check commitments are
        designed to surface.  Returns the batches to send on in place of
        the absorbed ones, or ``None`` to relay honestly.
        """
        if self.forges:
            return None
        repacked = []
        for batch in batches:
            partials = self.tamper(batch.get("partials", []), batch.get("origin"))
            if partials is not None:
                relays = [*batch.get("relays", []), self.role.address]
                repacked.append({**batch, "partials": partials, "relays": relays})
        return repacked

    def forgeries(self, candidates: Sequence[Any], now: float) -> List[Dict[str, Any]]:
        """The ``forge_origin`` attack: cumulative batches spoofing other
        origins under a fresher incarnation, zeroing their folds.

        ``~forged`` sorts above every ``random_suffix`` incarnation and the
        current time wins the ``inc_ts`` tie-break, so the forged (empty)
        batch replaces the victim's genuine contribution wholesale — the
        same replacement machinery an honest rejoin uses, turned hostile.
        """
        forged = []
        for victim in self.process.forge_victims(self.role.address, candidates):
            self.record(victim)
            forged.append(
                {
                    "origin": victim,
                    "inc": "~forged",
                    "inc_ts": now,
                    "seq": 1,
                    "cumulative": True,
                    "partials": wire_partials({}),
                    "relays": [self.role.address],
                }
            )
        return forged
