"""The Physical Runtime Environment (paper Section 3.1.3, Figure 3).

This binding of the Virtual Runtime Interface runs against real sockets.
One :class:`PhysicalEnvironment` drives every process-local node from a
single selector loop: readiness on any node's UDP/TCP socket and the
shared :class:`~repro.runtime.scheduler.MainScheduler` timer queue are
multiplexed in one thread, with no busy-polling — the loop sleeps in
``select()`` until the next socket or timer is due.

The wire format is the binary codec (:mod:`repro.runtime.codec`), not
pickle: every datagram is a fixed envelope (kind, transport id, logical
source/destination port) plus the tagged payload encoding, so interned
wire tuples cross process boundaries as schema-packed bytes.

Delivery is honest.  ``sendto()`` succeeding says nothing on a real
network, so every DATA frame is tracked until the *receiver's* ACK frame
comes back; unacknowledged frames are retransmitted with exponential
backoff (seeded jitter via :func:`~repro.runtime.rand.derive_rng`) and
receivers keep a per-peer dedup window so retransmissions are re-acked
without being delivered twice.  VRI-level ``handle_udp_ack`` callbacks
therefore reflect receipt — the same observable contract the simulator
gives — and a node marked failed simply stops acking, so its peers'
delivery callbacks fail after retries exactly as they would for a
remote crash.

The physical environment exists to demonstrate that the same program
code that runs under the discrete-event simulator binds to real UDP/TCP
transports ("native simulation").  Tests exercise it on the loopback
interface with a handful of nodes; large-scale experiments use the
simulator, exactly as the paper did for scales beyond PlanetLab.
"""

from __future__ import annotations

import random
import selectors
import socket
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.runtime import codec
from repro.runtime.congestion import NetworkStats
from repro.runtime.endpoint import NetworkEndpoint
from repro.runtime.events import Event
from repro.runtime.rand import derive_rng
from repro.runtime.scheduler import MainScheduler
from repro.runtime.vri import (
    PortRegistry,
    TCPConnection,
    TCPListener,
    UDPListener,
    VirtualRuntime,
)

Address = Tuple[str, int]

# Socket buffer request: loopback bursts (an exchange flushing a batch to
# every peer) overflow the default ~200 KB buffers long before congestion
# control reacts; the OS clamps to its own maximum.
_SOCKET_BUFFER_BYTES = 1 << 21

# Select timeout cap: bounds stop_condition latency when no timer is due.
_SELECT_SLICE = 0.05


@dataclass(slots=True)
class _PendingSend:
    """A DATA frame awaiting its receiver ACK."""

    transport_id: int
    wire: bytes
    socket_destination: Address
    callback_data: Any
    callback_client: Optional[UDPListener]
    attempts: int = 0
    retry_event: Optional[Event] = None


@dataclass
class _DedupWindow:
    """Recently seen transport ids from one peer (bounded FIFO)."""

    limit: int = 1024
    seen: Set[int] = field(default_factory=set)
    order: Deque[int] = field(default_factory=deque)

    def check_and_add(self, transport_id: int) -> bool:
        if transport_id in self.seen:
            return False
        self.seen.add(transport_id)
        self.order.append(transport_id)
        if len(self.order) > self.limit:
            self.seen.discard(self.order.popleft())
        return True


@dataclass(slots=True)
class _TcpEntry:
    """One live TCP connection: handle, socket, owner, and frame buffer."""

    connection: TCPConnection
    sock: socket.socket
    listener: TCPListener
    buffer: bytearray


class PhysicalEnvironment(NetworkEndpoint):
    """Many process-local PIER nodes on real sockets, one selector loop."""

    MAX_ATTEMPTS = 5
    RETRY_TIMEOUT = 0.25

    def __init__(
        self,
        node_count: int = 0,
        host: str = "127.0.0.1",
        seed: int = 0,
    ) -> None:
        self.scheduler = MainScheduler()
        self.selector = selectors.DefaultSelector()
        self.stats = NetworkStats()
        self.sanitizer = None
        self.tracer = None
        self.adversary = None
        self.seed = seed
        self.host = host
        self.node_count = 0
        self.bytes_sent_by_node: Dict[Address, int] = defaultdict(int)
        self.bytes_received_by_node: Dict[Address, int] = defaultdict(int)
        self.duplicates_dropped = 0
        # DATA frames re-sent by the retry ladder (attempt >= 2); together
        # with duplicates_dropped this is the deployment's retransmit-rate
        # story in the metrics snapshot.
        self.retransmits = 0
        # Wall seconds spent dispatching timers/sockets, excluding time
        # asleep in select().  Real deployments idle between timers by
        # design, so throughput comparisons against the simulator (which
        # never sleeps) use busy time, not end-to-end wall time.
        self.busy_seconds = 0.0
        self._epoch = time.monotonic()
        self._runtimes: Dict[Address, "PhysicalNodeRuntime"] = {}
        self._order: List[Address] = []
        self._failure_listeners: List[Callable[[Address], None]] = []
        self._recovery_listeners: List[Callable[[Address], None]] = []
        self._closed = False
        for _ in range(node_count):
            self.add_node()

    # -- node access ------------------------------------------------------#
    def _resolve(self, address: Any) -> Address:
        """Accept a socket address or a creation index."""
        if isinstance(address, int):
            return self._order[address]
        return address

    def runtime(self, address: Any) -> "PhysicalNodeRuntime":
        return self._runtimes[self._resolve(address)]

    def runtimes(self) -> List["PhysicalNodeRuntime"]:
        return [self._runtimes[address] for address in self._order]

    def add_node(self, udp_port: int = 0) -> "PhysicalNodeRuntime":
        return PhysicalNodeRuntime(self, udp_port)

    def _register(self, runtime: "PhysicalNodeRuntime") -> None:
        self._runtimes[runtime.address] = runtime
        self._order.append(runtime.address)
        self.node_count += 1

    # -- failure model -----------------------------------------------------#
    def on_failure(self, callback: Callable[[Address], None]) -> None:
        self._failure_listeners.append(callback)

    def on_recovery(self, callback: Callable[[Address], None]) -> None:
        self._recovery_listeners.append(callback)

    def fail_node(self, address: Any) -> None:
        runtime = self.runtime(address)
        if not runtime.alive:
            return
        runtime.alive = False
        for listener in list(self._failure_listeners):
            listener(runtime.address)

    def recover_node(self, address: Any) -> None:
        runtime = self.runtime(address)
        if runtime.alive:
            return
        runtime.alive = True
        for listener in list(self._recovery_listeners):
            listener(runtime.address)

    def is_alive(self, address: Any) -> bool:
        return self.runtime(address).alive

    # -- clock -------------------------------------------------------------#
    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def rng(self, label: Optional[str] = None) -> random.Random:
        return derive_rng(self.seed, label)

    # -- event loop ---------------------------------------------------------#
    def run(
        self,
        duration: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drive sockets and timers for ``duration`` wall-clock seconds.

        With no bound at all, runs until the timer queue drains and no
        DATA frame is awaiting an ACK — the physical analogue of the
        simulator running its queue dry.
        """
        deadline = None if duration is None else time.monotonic() + duration
        dispatched = 0
        while not self._closed:
            iteration_start = time.monotonic()
            if stop_condition is not None and stop_condition():
                break
            if max_events is not None and dispatched >= max_events:
                break
            now = self.now
            while True:
                next_time = self.scheduler.peek_time()
                if next_time is None or next_time > now:
                    break
                self.scheduler.step()
                dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    break
            if max_events is not None and dispatched >= max_events:
                break
            if deadline is None:
                if self.scheduler.peek_time() is None and not self._any_pending():
                    break
                timeout = _SELECT_SLICE
            else:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    break
            next_time = self.scheduler.peek_time()
            if next_time is not None:
                timeout = min(timeout, max(0.0, next_time - self.now))
            timeout = min(timeout, _SELECT_SLICE)
            self.busy_seconds += time.monotonic() - iteration_start
            ready = self.selector.select(timeout)
            woke = time.monotonic()
            for key, _mask in ready:
                dispatched += key.data()
            self.busy_seconds += time.monotonic() - woke
        return dispatched

    def _any_pending(self) -> bool:
        return any(runtime._pending for runtime in self._runtimes.values())

    # -- lifecycle -----------------------------------------------------------#
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for runtime in list(self._runtimes.values()):
            runtime._close_sockets()
        self.selector.close()
        self.scheduler.shutdown()


class PhysicalNodeRuntime(VirtualRuntime):
    """A VRI bound to real sockets for one process-local node.

    Each node owns one UDP socket; logical VRI "ports" are multiplexed
    over it by the datagram envelope's source/destination port fields.
    TCP is provided by per-connection sockets on the environment's
    selector, with 4-byte length-prefixed framing reassembled from a
    per-connection byte buffer (short reads cannot corrupt framing).

    Nodes are made by their :class:`PhysicalEnvironment` (``node_count``
    or :meth:`~PhysicalEnvironment.add_node`), which owns the loop and
    closes every node's sockets.
    """

    def __init__(self, environment: PhysicalEnvironment, udp_port: int = 0) -> None:
        self._environment = environment
        self.scheduler = environment.scheduler
        self._ports = PortRegistry()
        self.alive = True
        self._udp_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            try:
                self._udp_socket.setsockopt(
                    socket.SOL_SOCKET, option, _SOCKET_BUFFER_BYTES
                )
            except OSError:
                pass
        self._udp_socket.bind((environment.host, udp_port))
        self._udp_socket.setblocking(False)
        self._address: Address = self._udp_socket.getsockname()
        self._transport_ids = 0
        self._pending: Dict[int, _PendingSend] = {}
        self._dedup: Dict[Address, _DedupWindow] = defaultdict(_DedupWindow)
        self._rng = derive_rng(
            (environment.seed, repr(self._address)), "physical-retransmit"
        )
        self._tcp_servers: Dict[int, socket.socket] = {}
        self._tcp_connections: Dict[int, _TcpEntry] = {}
        self._next_connection_id = 0
        self._closed = False
        environment.selector.register(
            self._udp_socket, selectors.EVENT_READ, self._on_udp_readable
        )
        environment._register(self)

    # -- lifecycle --------------------------------------------------------- #
    def _close_sockets(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.alive = False
        try:
            self._environment.selector.unregister(self._udp_socket)
        except (KeyError, ValueError, OSError):
            pass
        self._udp_socket.close()
        for server in self._tcp_servers.values():
            try:
                self._environment.selector.unregister(server)
            except (KeyError, ValueError, OSError):
                pass
            server.close()
        self._tcp_servers.clear()
        for entry in list(self._tcp_connections.values()):
            self._drop_tcp_entry(entry, notify=False)

    @property
    def environment(self) -> PhysicalEnvironment:
        return self._environment

    # -- tracer ----------------------------------------------------------------#
    @property
    def tracer(self) -> Optional[Any]:
        """The environment's causal tracer, or ``None`` when not tracing."""
        return self._environment.tracer

    # -- adversary -------------------------------------------------------------#
    @property
    def adversary(self) -> Optional[Any]:
        """The environment's byzantine adversary, or ``None`` when honest."""
        return self._environment.adversary

    # -- identity ------------------------------------------------------------#
    @property
    def address(self) -> Address:
        return self._address

    # -- clock / scheduler -----------------------------------------------------#
    def get_current_time(self) -> float:
        return self._environment.now

    def schedule_event(
        self,
        delay: float,
        callback_data: Any,
        callback_client: Callable[[Any], None],
    ) -> Event:
        event = Event(
            time=self._environment.now + max(0.0, delay),
            callback=self._dispatch_timer,
            callback_data=(callback_client, callback_data),
        )
        self.scheduler.schedule(event)
        return event

    def _dispatch_timer(self, bound: Tuple[Callable[[Any], None], Any]) -> None:
        if self.alive:
            bound[0](bound[1])

    # -- UDP ---------------------------------------------------------------------#
    def listen(self, port: int, callback_client: UDPListener) -> None:
        self._ports.bind_udp(port, callback_client)

    def release(self, port: int) -> None:
        self._ports.release_udp(port)

    def udp_listener(self, port: int) -> Optional[UDPListener]:
        return self._ports.udp_listener(port)

    def send(
        self,
        source_port: int,
        destination: Tuple[Address, int],
        payload: Any,
        callback_data: Any = None,
        callback_client: Optional[UDPListener] = None,
    ) -> None:
        if self._closed or not self.alive:
            return
        socket_destination, destination_port = destination
        self._transport_ids += 1
        transport_id = self._transport_ids
        wire = codec.pack_datagram(
            codec.KIND_DATA, transport_id, source_port, destination_port, payload
        )
        pending = _PendingSend(
            transport_id=transport_id,
            wire=wire,
            socket_destination=tuple(socket_destination),
            callback_data=callback_data,
            callback_client=callback_client,
        )
        self._pending[transport_id] = pending
        tracer = self._environment.tracer
        if tracer is not None and isinstance(payload, dict):
            trace_id = payload.get("trace")
            if trace_id is not None:
                tracer.event(
                    "transport.send",
                    trace_id,
                    node=self._address,
                    destination=tuple(socket_destination),
                    bytes=len(wire),
                )
        self._transmit(pending)

    def _transmit(self, pending: _PendingSend) -> None:
        pending.attempts += 1
        if pending.attempts > 1:
            self._environment.retransmits += 1
            tracer = self._environment.tracer
            if tracer is not None:
                # Retransmit ladders are transport-local (the trace id lives
                # inside the encoded frame), so the span is unscoped.
                tracer.event(
                    "transport.retransmit",
                    None,
                    node=self._address,
                    transport_id=pending.transport_id,
                    attempt=pending.attempts,
                )
        self._environment.stats.record_send(len(pending.wire))
        self._environment.bytes_sent_by_node[self._address] += len(pending.wire)
        try:
            self._udp_socket.sendto(pending.wire, pending.socket_destination)
        except OSError:
            # Undeliverable at the socket layer (oversized frame, closed
            # socket): retries cannot help an EMSGSIZE, but transient
            # buffer pressure resolves, so let the retry ladder decide.
            if len(pending.wire) > codec.MAX_DATAGRAM:
                self._abandon(pending)
                return
        pending.retry_event = self.schedule_event(
            self._retry_delay(pending.attempts), pending.transport_id, self._on_retry
        )

    def _retry_delay(self, attempts: int) -> float:
        return (
            self._environment.RETRY_TIMEOUT
            * (2.0 ** (attempts - 1))
            * (0.75 + 0.5 * self._rng.random())
        )

    def _on_retry(self, transport_id: int) -> None:
        pending = self._pending.get(transport_id)
        if pending is None:
            return
        if pending.attempts >= self._environment.MAX_ATTEMPTS:
            self._abandon(pending)
            return
        self._transmit(pending)

    def _abandon(self, pending: _PendingSend) -> None:
        self._pending.pop(pending.transport_id, None)
        self._environment.stats.record_drop()
        tracer = self._environment.tracer
        if tracer is not None:
            tracer.event(
                "transport.fail",
                None,
                node=self._address,
                transport_id=pending.transport_id,
                attempts=pending.attempts,
            )
        if pending.callback_client is not None:
            pending.callback_client.handle_udp_ack(pending.callback_data, False)

    def _on_udp_readable(self) -> int:
        handled = 0
        while True:
            try:
                wire, peer = self._udp_socket.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return handled
            except OSError:
                return handled
            handled += 1
            try:
                kind, transport_id, source_port, destination_port, payload = (
                    codec.unpack_datagram(wire)
                )
            except codec.CodecError:
                continue  # malformed datagrams are dropped best-effort
            if kind == codec.KIND_ACK:
                self._on_transport_ack(transport_id)
                continue
            if not self.alive:
                # A failed node neither delivers nor acks: its peers see
                # delivery failures after retries, like a real crash.
                continue
            ack = codec.pack_datagram(codec.KIND_ACK, transport_id, destination_port, source_port)
            # An ACK frame is bytes on the wire but not a message, as in
            # the simulator's accounting of acks.
            self._environment.stats.bytes_sent += len(ack)
            self._environment.bytes_sent_by_node[self._address] += len(ack)
            try:
                self._udp_socket.sendto(ack, peer)
            except OSError:
                pass
            if not self._dedup[peer].check_and_add(transport_id):
                self._environment.duplicates_dropped += 1
                continue
            self._environment.stats.record_delivery()
            self._environment.bytes_received_by_node[self._address] += len(wire)
            listener = self._ports.udp_listener(destination_port)
            if listener is not None:
                listener.handle_udp((peer, source_port), payload)
        return handled

    def _on_transport_ack(self, transport_id: int) -> None:
        pending = self._pending.pop(transport_id, None)
        if pending is None:
            return
        if pending.retry_event is not None:
            pending.retry_event.cancel()
        tracer = self._environment.tracer
        if tracer is not None:
            tracer.event(
                "transport.ack",
                None,
                node=self._address,
                transport_id=transport_id,
                attempts=pending.attempts,
            )
        if pending.callback_client is not None:
            pending.callback_client.handle_udp_ack(pending.callback_data, True)

    # -- TCP ---------------------------------------------------------------------#
    def tcp_listen(self, port: int, callback_client: TCPListener) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._address[0], port))
        server.listen(16)
        server.setblocking(False)
        self._tcp_servers[port] = server
        self._ports.bind_tcp(port, callback_client)
        self._environment.selector.register(
            server,
            selectors.EVENT_READ,
            lambda port=port, server=server: self._on_tcp_accept(port, server),
        )

    def tcp_release(self, port: int) -> None:
        server = self._tcp_servers.pop(port, None)
        if server is not None:
            try:
                self._environment.selector.unregister(server)
            except (KeyError, ValueError, OSError):
                pass
            server.close()
        self._ports.release_tcp(port)

    def tcp_connect(
        self, source_port: int, destination: Tuple[Address, int], callback_client: TCPListener
    ) -> TCPConnection:
        (host, _udp_port), port = destination
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((host, port))
        sock.setblocking(False)
        return self._adopt_tcp_socket(sock, callback_client, remote=destination)

    def _adopt_tcp_socket(
        self, sock: socket.socket, listener: TCPListener, remote: Any
    ) -> TCPConnection:
        self._next_connection_id += 1
        connection = TCPConnection(
            connection_id=self._next_connection_id,
            local=(self._address, sock.getsockname()[1]),
            remote=remote,
        )
        entry = _TcpEntry(
            connection=connection, sock=sock, listener=listener, buffer=bytearray()
        )
        self._tcp_connections[connection.connection_id] = entry
        self._environment.selector.register(
            sock, selectors.EVENT_READ, lambda entry=entry: self._on_tcp_readable(entry)
        )
        return connection

    def tcp_write(self, connection: TCPConnection, data: bytes) -> int:
        entry = self._tcp_connections.get(connection.connection_id)
        if entry is None or connection.closed:
            raise ConnectionError("write on closed or unknown connection")
        entry.sock.setblocking(True)
        try:
            entry.sock.sendall(len(data).to_bytes(4, "big") + data)
        finally:
            entry.sock.setblocking(False)
        return len(data)

    def tcp_disconnect(self, connection: TCPConnection) -> None:
        entry = self._tcp_connections.get(connection.connection_id)
        connection.mark_closed()
        if entry is not None:
            self._drop_tcp_entry(entry, notify=False)

    def _on_tcp_accept(self, port: int, server: socket.socket) -> int:
        accepted = 0
        while True:
            try:
                sock, peer = server.accept()
            except (BlockingIOError, InterruptedError):
                return accepted
            except OSError:
                return accepted
            listener = self._ports.tcp_listener(port)
            if listener is None:
                sock.close()
                continue
            sock.setblocking(False)
            connection = self._adopt_tcp_socket(sock, listener, remote=peer)
            accepted += 1
            listener.handle_tcp_new(connection)

    def _on_tcp_readable(self, entry: _TcpEntry) -> int:
        """Accumulate stream bytes; deliver only complete frames.

        Framing is a 4-byte big-endian length prefix.  Bytes are buffered
        per connection and frames are parsed out only once fully present,
        so short reads (a header split across segments, a body arriving
        in pieces) cannot corrupt the stream.  A peer close (``recv``
        returning ``b""``) reaps the connection: the entry is removed,
        the socket unregistered, and the owner told via
        ``handle_tcp_error``.
        """
        events = 0
        while True:
            try:
                chunk = entry.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                chunk = b""
            if not chunk:
                self._drop_tcp_entry(entry, notify=True)
                return events + 1
            entry.buffer.extend(chunk)
        buffer = entry.buffer
        while len(buffer) >= 4:
            length = int.from_bytes(buffer[:4], "big")
            if len(buffer) < 4 + length:
                break
            body = bytes(buffer[4 : 4 + length])
            del buffer[: 4 + length]
            entry.connection.deliver(body)
            entry.listener.handle_tcp_data(entry.connection)
            events += 1
        return events

    def _drop_tcp_entry(self, entry: _TcpEntry, notify: bool) -> None:
        self._tcp_connections.pop(entry.connection.connection_id, None)
        try:
            self._environment.selector.unregister(entry.sock)
        except (KeyError, ValueError, OSError):
            pass
        entry.sock.close()
        if not entry.connection.closed:
            entry.connection.mark_closed()
            if notify:
                entry.listener.handle_tcp_error(entry.connection)
