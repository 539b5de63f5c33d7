"""The Simulation Environment (paper Section 3.1.4, Figure 4).

One :class:`MainScheduler` and its priority queue drive all virtual nodes.
Events are annotated with the virtual node identifier and demultiplexed to
the right node's program.  Outbound messages are handed to the network
model (topology + congestion model), which computes the time at which the
corresponding :class:`NetworkEvent` fires at the destination.

The simulator works at message-level granularity (each simulated "packet"
carries a whole application message), does not model loss, and supports
complete node failures — all as described in the paper.  Payloads travel
by reference, but each message is charged the bytes of the datagram the
physical runtime would send for it (:func:`repro.runtime.sizing.wire_size`),
and an acknowledgement the bytes of a bare codec envelope.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.codec import ENVELOPE_BYTES
from repro.runtime.congestion import CongestionModel, NetworkStats, NoCongestionModel
from repro.runtime.endpoint import NetworkEndpoint
from repro.runtime.events import Event, NetworkEvent
from repro.runtime.rand import derive_rng
from repro.runtime.sanitizer import SimSanitizer
from repro.runtime.scheduler import MainScheduler
from repro.runtime.sizing import wire_size
from repro.runtime.topology import StarTopology, Topology
from repro.runtime.vri import (
    PortRegistry,
    TCPConnection,
    TCPListener,
    UDPListener,
    VirtualRuntime,
)


@dataclass(slots=True)
class _PendingAck:
    callback_client: Optional[UDPListener]
    callback_data: Any


class SimulatedNodeRuntime(VirtualRuntime):
    """The VRI binding for one virtual node inside the simulator."""

    def __init__(self, environment: "SimulationEnvironment", address: int) -> None:
        self._environment = environment
        self._address = address
        self._ports = PortRegistry()
        self.alive = True
        self._next_connection_id = 0

    # -- identity ------------------------------------------------------- #
    @property
    def address(self) -> int:
        return self._address

    # -- clock / scheduler ---------------------------------------------- #
    def get_current_time(self) -> float:
        return self._environment.scheduler.now

    def schedule_event(
        self,
        delay: float,
        callback_data: Any,
        callback_client: Callable[[Any], None],
    ) -> Event:
        # One bound method + argument pair instead of a fresh closure per
        # timer: nodes arm timers constantly, and the liveness gate is the
        # same for all of them.
        return self._environment.scheduler.schedule_callback(
            delay, self._dispatch_timer, (callback_client, callback_data),
            node_id=self._address,
        )

    def _dispatch_timer(self, bound: Tuple[Callable[[Any], None], Any]) -> None:
        if self.alive:
            bound[0](bound[1])

    # -- sanitizer ------------------------------------------------------- #
    @property
    def sanitizer(self) -> Optional[SimSanitizer]:
        """The environment's SimSanitizer, or ``None`` when not sanitizing."""
        return self._environment.sanitizer

    # -- tracer ----------------------------------------------------------- #
    @property
    def tracer(self) -> Optional[Any]:
        """The environment's causal tracer, or ``None`` when not tracing."""
        return self._environment.tracer

    # -- adversary -------------------------------------------------------- #
    @property
    def adversary(self) -> Optional[Any]:
        """The environment's byzantine adversary, or ``None`` when honest."""
        return self._environment.adversary

    # -- UDP -------------------------------------------------------------#
    def listen(self, port: int, callback_client: UDPListener) -> None:
        self._ports.bind_udp(port, callback_client)

    def release(self, port: int) -> None:
        self._ports.release_udp(port)

    def send(
        self,
        source_port: int,
        destination: Tuple[int, int],
        payload: Any,
        callback_data: Any = None,
        callback_client: Optional[UDPListener] = None,
    ) -> None:
        # Fire-and-forget sends (the common case) skip the ack bookkeeping
        # entirely; an unacknowledged _PendingAck was dead weight per message.
        ack = None if callback_client is None else _PendingAck(callback_client, callback_data)
        self._environment.transmit(
            source=self._address,
            source_port=source_port,
            destination=destination,
            payload=payload,
            ack=ack,
        )

    def udp_listener(self, port: int) -> Optional[UDPListener]:
        return self._ports.udp_listener(port)

    # -- TCP (modelled as reliable in-order message pipes) ----------------#
    def tcp_listen(self, port: int, callback_client: TCPListener) -> None:
        self._ports.bind_tcp(port, callback_client)

    def tcp_release(self, port: int) -> None:
        self._ports.release_tcp(port)

    def tcp_connect(
        self, source_port: int, destination: Tuple[int, int], callback_client: TCPListener
    ) -> TCPConnection:
        return self._environment.tcp_open(
            source=self._address,
            source_port=source_port,
            destination=destination,
            client=callback_client,
        )

    def tcp_write(self, connection: TCPConnection, data: bytes) -> int:
        self._environment.tcp_send(connection, data)
        return len(data)

    def tcp_disconnect(self, connection: TCPConnection) -> None:
        self._environment.tcp_close(connection)

    def tcp_listener(self, port: int) -> Optional[TCPListener]:
        return self._ports.tcp_listener(port)


@dataclass
class _TCPPipe:
    """Both ends of a simulated TCP connection."""

    client_end: TCPConnection
    server_end: TCPConnection
    client_listener: TCPListener
    server_listener: TCPListener
    client_address: int
    server_address: int


class SimulationEnvironment(NetworkEndpoint):
    """Discrete-event simulation of many PIER nodes in one process.

    One of the two :class:`~repro.runtime.endpoint.NetworkEndpoint`
    bindings (the other is
    :class:`repro.runtime.physical.PhysicalEnvironment`); deployment code
    selects between them with ``PIERNetwork(mode=...)``.
    """

    def __init__(
        self,
        node_count: int,
        topology: Optional[Topology] = None,
        congestion_model: Optional[CongestionModel] = None,
        seed: int = 0,
        sanitize: Optional[bool] = None,
    ) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        self.scheduler = MainScheduler()
        # SimSanitizer (see repro.runtime.sanitizer): ``sanitize=True``
        # opts in explicitly; the default consults PIER_SANITIZE so a whole
        # test-suite run can be sanitized without touching call sites.
        if sanitize is None:
            sanitize = os.environ.get("PIER_SANITIZE", "") not in ("", "0")
        self.sanitizer: Optional[SimSanitizer] = SimSanitizer() if sanitize else None
        if self.sanitizer is not None:
            self.scheduler.dispatch_observer = self.sanitizer.observe_dispatch
        self.topology = topology or StarTopology(node_count, seed=seed)
        if self.topology.node_count < node_count:
            raise ValueError("topology smaller than node_count")
        self.congestion_model = congestion_model or NoCongestionModel()
        self.stats = NetworkStats()
        # Per-node traffic accounting (bytes), used by the bandwidth-focused
        # experiments (hierarchical aggregation / joins).
        self.bytes_sent_by_node: Dict[int, int] = defaultdict(int)
        self.bytes_received_by_node: Dict[int, int] = defaultdict(int)
        self.seed = seed
        self.node_count = node_count
        self._runtimes: Dict[int, SimulatedNodeRuntime] = {
            address: SimulatedNodeRuntime(self, address) for address in range(node_count)
        }
        self._tcp_pipes: List[_TCPPipe] = []
        self._next_tcp_id = 0
        # Deployment-level observers of complete node failures/recoveries
        # (e.g. PIERNetwork's failure-aware proxies).  They model the
        # knowledge a failure-detection/stabilization layer spreads, the
        # same stance BootstrapDirectory takes for membership.
        self._failure_listeners: List[Callable[[int], None]] = []
        self._recovery_listeners: List[Callable[[int], None]] = []

    # -- node access ------------------------------------------------------#
    def runtime(self, address: int) -> SimulatedNodeRuntime:
        return self._runtimes[address]

    def runtimes(self) -> List[SimulatedNodeRuntime]:
        return [self._runtimes[address] for address in range(self.node_count)]

    def add_node(self) -> SimulatedNodeRuntime:
        """Grow the simulation by one node (used by churn experiments).

        The topology must already be large enough to describe the new
        address; the default constructors size the topology to the initial
        node count, so callers who plan to add nodes should construct the
        topology with head-room.
        """
        address = self.node_count
        self.topology.validate_address(address)
        runtime = SimulatedNodeRuntime(self, address)
        self._runtimes[address] = runtime
        self.node_count += 1
        return runtime

    def on_failure(self, callback: Callable[[int], None]) -> None:
        """Observe node failures (called with the failed address)."""
        self._failure_listeners.append(callback)

    def on_recovery(self, callback: Callable[[int], None]) -> None:
        """Observe node recoveries (called with the recovered address)."""
        self._recovery_listeners.append(callback)

    def fail_node(self, address: int) -> None:
        """Simulate a complete node failure: the node stops receiving
        events and its timers are suppressed."""
        runtime = self._runtimes[address]
        if not runtime.alive:
            return
        runtime.alive = False
        for listener in list(self._failure_listeners):
            listener(address)

    def recover_node(self, address: int) -> None:
        runtime = self._runtimes[address]
        if runtime.alive:
            return
        runtime.alive = True
        for listener in list(self._recovery_listeners):
            listener(address)

    def is_alive(self, address: int) -> bool:
        return self._runtimes[address].alive

    # -- UDP transmission --------------------------------------------------#
    def transmit(
        self,
        source: int,
        source_port: int,
        destination: Tuple[int, int],
        payload: Any,
        ack: Optional[_PendingAck],
    ) -> None:
        destination_address, destination_port = destination
        size = wire_size(payload)
        self.stats.record_send(size)
        self.bytes_sent_by_node[source] += size
        tracer = self.tracer
        if tracer is not None and isinstance(payload, dict):
            trace_id = payload.get("trace")
            if trace_id is not None:
                tracer.event(
                    "transport.send",
                    trace_id,
                    node=source,
                    destination=destination_address,
                    bytes=size,
                )
        source_runtime = self._runtimes[source]
        if not source_runtime.alive:
            return
        if destination_address not in self._runtimes:
            self._complete_ack(source, ack, success=False)
            return
        link = self.topology.link(source, destination_address)
        arrival = self.congestion_model.arrival_time(
            self.scheduler.now, source, destination_address, size, link
        )
        sanitizer = self.sanitizer
        record = (
            sanitizer.note_send(source, destination_address, payload, self.scheduler.now)
            if sanitizer is not None
            else None
        )

        def deliver(_src: Any, _payload: Any) -> None:
            target = self._runtimes[destination_address]
            if not target.alive:
                self.stats.record_drop()
                self._complete_ack(source, ack, success=False)
                return
            listener = target.udp_listener(destination_port)
            if listener is None:
                self.stats.record_drop()
                self._complete_ack(source, ack, success=False)
                return
            if record is not None:
                # Verify the freeze-on-send fingerprint *before* the
                # receiver runs (its own mutations are checked later, from
                # the retained-delivery window).
                sanitizer.verify_delivery(record, self.scheduler.now)
            self.stats.record_delivery()
            self.bytes_received_by_node[destination_address] += size
            listener.handle_udp((source, source_port), payload)
            self._complete_ack(source, ack, success=True, acker=destination_address)

        event = NetworkEvent(
            time=arrival,
            node_id=destination_address,
            callback=deliver,
            source=(source, source_port),
            destination=destination,
            payload=payload,
            size_bytes=size,
        )
        self.scheduler.schedule(event)

    def _complete_ack(
        self,
        source: int,
        ack: Optional[_PendingAck],
        success: bool,
        acker: Optional[int] = None,
    ) -> None:
        """Deliver the UdpCC-style acknowledgement back to the sender."""
        if ack is None or ack.callback_client is None:
            return
        source_runtime = self._runtimes.get(source)
        if source_runtime is None or not source_runtime.alive:
            return
        # An ack is the physical runtime's ACK frame: the envelope alone.
        self.stats.bytes_sent += ENVELOPE_BYTES
        # Per-node accounting parity: a delivered message's ack is traffic
        # the *receiver* sends, so charge it to that node too.  Failure-path
        # acks are synthesized by the environment (no node transmitted
        # anything), so only the global counter moves there — under drops,
        # sum(bytes_sent_by_node) is less than stats.bytes_sent by design.
        if success and acker is not None:
            self.bytes_sent_by_node[acker] += ENVELOPE_BYTES
        # The ack travels back over the network, so charge one RTT-ish delay.
        self.scheduler.schedule_callback(
            0.0, self._notify_ack, (ack, success), node_id=source
        )

    def _notify_ack(self, bound: Tuple[_PendingAck, bool]) -> None:
        ack, success = bound
        ack.callback_client.handle_udp_ack(ack.callback_data, success)

    # -- TCP ----------------------------------------------------------------#
    def tcp_open(
        self,
        source: int,
        source_port: int,
        destination: Tuple[int, int],
        client: TCPListener,
    ) -> TCPConnection:
        destination_address, destination_port = destination
        server_runtime = self._runtimes.get(destination_address)
        if server_runtime is None or not server_runtime.alive:
            raise ConnectionError(f"node {destination_address} is not reachable")
        server_listener = server_runtime.tcp_listener(destination_port)
        if server_listener is None:
            raise ConnectionError(
                f"no TCP listener on node {destination_address} port {destination_port}"
            )
        self._next_tcp_id += 1
        client_end = TCPConnection(
            connection_id=self._next_tcp_id,
            local=(source, source_port),
            remote=destination,
        )
        server_end = TCPConnection(
            connection_id=self._next_tcp_id,
            local=destination,
            remote=(source, source_port),
        )
        pipe = _TCPPipe(
            client_end=client_end,
            server_end=server_end,
            client_listener=client,
            server_listener=server_listener,
            client_address=source,
            server_address=destination_address,
        )
        self._tcp_pipes.append(pipe)
        latency = self.topology.latency(source, destination_address)
        self.scheduler.schedule_callback(
            latency,
            lambda _d: server_listener.handle_tcp_new(server_end),
            None,
            node_id=destination_address,
        )
        return client_end

    def _pipe_for(self, connection: TCPConnection) -> Optional[_TCPPipe]:
        for pipe in self._tcp_pipes:
            if connection is pipe.client_end or connection is pipe.server_end:
                return pipe
        return None

    def tcp_send(self, connection: TCPConnection, data: bytes) -> None:
        pipe = self._pipe_for(connection)
        if pipe is None or connection.closed:
            raise ConnectionError("write on closed or unknown connection")
        if connection is pipe.client_end:
            peer, listener, peer_address, self_address = (
                pipe.server_end,
                pipe.server_listener,
                pipe.server_address,
                pipe.client_address,
            )
        else:
            peer, listener, peer_address, self_address = (
                pipe.client_end,
                pipe.client_listener,
                pipe.client_address,
                pipe.server_address,
            )
        size = len(data)
        self.stats.record_send(size)
        latency = self.topology.latency(self_address, peer_address)

        def deliver(_data: Any) -> None:
            if peer.closed:
                return
            peer.deliver(data)
            self.stats.record_delivery()
            listener.handle_tcp_data(peer)

        self.scheduler.schedule_callback(latency, deliver, None, node_id=peer_address)

    def tcp_close(self, connection: TCPConnection) -> None:
        pipe = self._pipe_for(connection)
        if pipe is None:
            return
        for end, listener in (
            (pipe.client_end, pipe.client_listener),
            (pipe.server_end, pipe.server_listener),
        ):
            if not end.closed:
                end.mark_closed()
                if end is not connection:
                    listener.handle_tcp_error(end)
        self._tcp_pipes.remove(pipe)

    # -- simulation control ---------------------------------------------------#
    def run(
        self,
        duration: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the discrete-event loop.

        ``duration`` bounds virtual time (seconds from now); ``max_events``
        bounds the number of dispatched events; ``stop_condition`` ends the
        run early as soon as it returns true; with no bound at all, the
        loop runs until the event queue drains.
        """
        until = None if duration is None else self.scheduler.now + duration
        dispatched = self.scheduler.run(
            until=until, max_events=max_events, stop_condition=stop_condition
        )
        if self.sanitizer is not None:
            # Re-verify the retained window of delivered payloads for
            # receiver-side aliasing writes.  This runs at the end of every
            # run() call, drained or not — realistic deployments keep
            # soft-state refresh timers pending forever, so gating on an
            # empty queue would skip the check exactly where it matters.
            self.sanitizer.final_check()
        return dispatched

    def rng(self, label: Optional[str] = None) -> random.Random:
        """A seeded RNG derived from the environment seed (and ``label``).

        This is the sanctioned randomness source for simulator-driven
        components (pierlint rule P03): streams are stable per
        ``(seed, label)`` pair, keeping seeded runs reproducible.
        """
        return derive_rng(self.seed, label)

    @property
    def now(self) -> float:
        return self.scheduler.now
