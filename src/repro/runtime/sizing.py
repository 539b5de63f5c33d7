"""Message sizes for both runtime environments: the bytes the codec sends.

A message's size is the length of the datagram the physical runtime
would put on the wire for it — the fixed envelope header plus the
payload's :mod:`repro.runtime.codec` encoding.  The simulator charges
exactly that to its congestion models and byte counters, so simulated
and physical ``bytes_sent`` count the same bytes.

Sizing builds no bytes: :func:`repro.runtime.codec.encoded_size` walks
the payload by the codec's own tag and width rules, and an (immutable)
:class:`repro.qp.tuples.Tuple` memoizes its size, so a tuple is walked
once no matter how many hops or batches carry it.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.codec import ENVELOPE_BYTES, encoded_size


def wire_size(payload: Any) -> int:
    """Bytes of the datagram that carries ``payload``."""
    return ENVELOPE_BYTES + encoded_size(payload)


# The older name, bound to the same function: tools outside ``src/`` call
# and time message sizing by either name.
estimate_message_size = wire_size
