"""UdpCC: acknowledged, congestion-controlled UDP (paper Section 3.1.3).

PIER's primary transport is UDP, augmented by the UdpCC library which adds
per-message acknowledgements and TCP-style congestion control, without
in-order delivery guarantees.  This module reproduces the transport's
observable behaviour on top of the VRI ``send``/``listen`` primitives:

* every message is tracked until acknowledged **by the receiver** — an
  explicit ack frame travels back over the wire, so delivery callbacks
  reflect actual receipt, not local send success.  This is what keeps the
  transport honest on real sockets, where ``sendto()`` succeeding says
  nothing about delivery;
* retransmissions back off exponentially with seeded jitter
  (:func:`~repro.runtime.rand.derive_rng`), and senders are notified of
  delivery success or failure after :data:`~UdpCCTransport.MAX_ATTEMPTS`;
* receivers keep a dedup window of recently seen message ids per sender,
  so a retransmission whose original did arrive is re-acked without being
  delivered to the application twice;
* an AIMD congestion window bounds the number of unacknowledged messages
  in flight to any one destination, with additional messages queued.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, DefaultDict, Deque, Dict, Optional, Set, Tuple

from repro.runtime.rand import derive_rng
from repro.runtime.vri import VirtualRuntime

DeliveryCallback = Callable[[bool, Any], None]

# How many recently seen message ids to remember per sender for dedup.
DEDUP_WINDOW = 1024


@dataclass
class _OutstandingMessage:
    message_id: int
    destination: Tuple[Any, int]
    payload: Any
    callback: Optional[DeliveryCallback]
    callback_data: Any
    attempts: int = 0


@dataclass
class _FlowState:
    """AIMD congestion state for one destination."""

    window: float = 4.0
    in_flight: int = 0
    queue: Deque[_OutstandingMessage] = field(default_factory=deque)

    def on_ack(self) -> None:
        # Additive increase, one message per window's worth of acks.
        self.window = min(self.window + 1.0 / max(self.window, 1.0), 256.0)

    def on_loss(self) -> None:
        # Multiplicative decrease.
        self.window = max(self.window / 2.0, 1.0)


@dataclass
class _DedupState:
    """Recently seen message ids from one sender (bounded FIFO window)."""

    seen: Set[int] = field(default_factory=set)
    order: Deque[int] = field(default_factory=deque)

    def check_and_add(self, message_id: int) -> bool:
        """True if ``message_id`` is new; remembers it either way."""
        if message_id in self.seen:
            return False
        self.seen.add(message_id)
        self.order.append(message_id)
        if len(self.order) > DEDUP_WINDOW:
            self.seen.discard(self.order.popleft())
        return True


class UdpCCTransport:
    """Reliable (receiver-acknowledged) message transport on one VRI port."""

    MAX_ATTEMPTS = 4
    RETRY_TIMEOUT = 1.0

    def __init__(self, runtime: VirtualRuntime, port: int) -> None:
        self.runtime = runtime
        self.port = port
        self._message_ids = itertools.count(1)
        self._receive_handler: Optional[Callable[[Any, Any], None]] = None
        self._flows: DefaultDict[Tuple[Any, int], _FlowState] = defaultdict(_FlowState)
        self._outstanding: Dict[int, _OutstandingMessage] = {}
        self._dedup: DefaultDict[Tuple[Any, int], _DedupState] = defaultdict(_DedupState)
        self._rng = derive_rng((repr(runtime.address), port), "udpcc-backoff")
        self.messages_sent = 0
        self.messages_failed = 0
        self.duplicates_dropped = 0
        self.retransmits = 0
        runtime.listen(port, self)

    # -- public API -------------------------------------------------------#
    def on_receive(self, handler: Callable[[Any, Any], None]) -> None:
        """Register the application handler for inbound messages."""
        self._receive_handler = handler

    def send(
        self,
        destination: Tuple[Any, int],
        payload: Any,
        callback: Optional[DeliveryCallback] = None,
        callback_data: Any = None,
    ) -> int:
        """Queue ``payload`` for delivery to ``destination``.

        Returns the message id.  ``callback(success, callback_data)`` fires
        once the receiver's ack arrives or delivery is abandoned after
        retries.
        """
        message = _OutstandingMessage(
            message_id=next(self._message_ids),
            destination=destination,
            payload=payload,
            callback=callback,
            callback_data=callback_data,
        )
        flow = self._flows[destination]
        flow.queue.append(message)
        self._pump(destination)
        return message.message_id

    def close(self) -> None:
        self.runtime.release(self.port)

    # -- flow control -------------------------------------------------------#
    def _pump(self, destination: Tuple[Any, int]) -> None:
        flow = self._flows[destination]
        while flow.queue and flow.in_flight < int(flow.window):
            message = flow.queue.popleft()
            self._transmit(message)

    def _retry_delay(self, attempts: int) -> float:
        """Exponential backoff with jitter: base * 2^(attempt-1) * [0.75, 1.25)."""
        return (
            self.RETRY_TIMEOUT
            * (2.0 ** (attempts - 1))
            * (0.75 + 0.5 * self._rng.random())
        )

    def _transmit(self, message: _OutstandingMessage) -> None:
        flow = self._flows[message.destination]
        flow.in_flight += 1
        message.attempts += 1
        self._outstanding[message.message_id] = message
        self.messages_sent += 1
        if message.attempts > 1:
            self.retransmits += 1
        tracer = getattr(self.runtime, "tracer", None)
        if tracer is not None:
            tracer.event(
                "udpcc.send",
                None,
                node=self.runtime.address,
                message_id=message.message_id,
                attempt=message.attempts,
            )
        self.runtime.send(
            self.port,
            message.destination,
            {
                "udpcc": "data",
                "id": message.message_id,
                "port": self.port,
                "payload": message.payload,
            },
        )
        self.runtime.schedule_event(
            self._retry_delay(message.attempts),
            (message.message_id, message.attempts),
            self._on_timeout,
        )

    def _on_timeout(self, timer_data: Tuple[int, int]) -> None:
        message_id, attempt = timer_data
        message = self._outstanding.get(message_id)
        if message is None or message.attempts != attempt:
            # Acked, abandoned, or already retransmitted — stale timer.
            return
        if message.attempts >= self.MAX_ATTEMPTS:
            # _finish charges the loss; don't halve the window twice.
            self._finish(message, success=False)
            return
        flow = self._flows[message.destination]
        flow.on_loss()
        self._outstanding.pop(message_id, None)
        flow.in_flight = max(0, flow.in_flight - 1)
        flow.queue.appendleft(message)
        self._pump(message.destination)

    def _finish(self, message: _OutstandingMessage, success: bool) -> None:
        if self._outstanding.pop(message.message_id, None) is None:
            return
        flow = self._flows[message.destination]
        flow.in_flight = max(0, flow.in_flight - 1)
        if success:
            flow.on_ack()
        else:
            self.messages_failed += 1
            flow.on_loss()
        tracer = getattr(self.runtime, "tracer", None)
        if tracer is not None:
            tracer.event(
                "udpcc.ack" if success else "udpcc.fail",
                None,
                node=self.runtime.address,
                message_id=message.message_id,
                attempts=message.attempts,
            )
        if message.callback is not None:
            message.callback(success, message.callback_data)
        self._pump(message.destination)

    # -- VRI UDPListener callbacks --------------------------------------------#
    def handle_udp(self, source: Any, payload: Any) -> None:
        if isinstance(payload, dict):
            kind = payload.get("udpcc")
            if kind == "ack":
                self._handle_ack(payload.get("id"))
                return
            if kind == "data":
                self._handle_data(source, payload)
                return
        if self._receive_handler is not None:
            self._receive_handler(source, payload)

    def _handle_data(self, source: Any, frame: Dict[str, Any]) -> None:
        message_id = frame.get("id")
        sender_port = frame.get("port", self.port)
        # VRI listeners see source as (node_address, source_port).
        origin = source[0] if isinstance(source, tuple) and len(source) == 2 else source
        # Ack first — even duplicates are re-acked, because a duplicate
        # means our previous ack (or their timer) was lost.
        self.runtime.send(
            self.port, (origin, sender_port), {"udpcc": "ack", "id": message_id}
        )
        if not self._dedup[(origin, sender_port)].check_and_add(message_id):
            self.duplicates_dropped += 1
            return
        if self._receive_handler is not None:
            self._receive_handler(source, frame.get("payload"))

    def _handle_ack(self, message_id: Any) -> None:
        message = self._outstanding.get(message_id)
        if message is not None:
            self._finish(message, success=True)

    def handle_udp_ack(self, callback_data: Any, success: bool) -> None:
        """VRI-level hint (simulator only): a send to a dead node failed.

        Success is ignored — delivery is only confirmed by the receiver's
        ack frame — but an early failure hint counts as a loss signal.
        """
        if success:
            return
        message = self._outstanding.get(callback_data)
        if message is not None:
            self._flows[message.destination].on_loss()
