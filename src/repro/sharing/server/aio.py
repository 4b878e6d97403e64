"""The loop-friendly transport adapter for the asyncio session server.

Every transport in :mod:`repro.sharing.transport` is already
*non-blocking* in the syscall sense (simulated channels never block;
the real sockets are ``setblocking(False)``), but a busy destination
can still hand ``receive_packets()`` an unbounded batch, and one
chatty session must not monopolise the event loop while its neighbours
starve.  :class:`CooperativeTransport` bounds how many packets one
``receive_packets()`` call may return, buffering the excess locally,
so each media-pump iteration does a bounded amount of work.
"""

from __future__ import annotations

from collections import deque

from ..transport import PacketTransport

#: Default per-drain packet budget; generous for media, tight enough
#: that a flooding peer cannot stall sibling sessions.
DEFAULT_BUDGET = 256


class CooperativeTransport(PacketTransport):
    """A bounded-batch view over any :class:`PacketTransport`.

    ``receive_packets()`` returns at most ``budget`` packets per call;
    anything beyond the budget waits, already drained from the
    underlying path, in a local deque for the next call.  Send-side
    calls delegate unchanged.
    """

    def __init__(self, inner: PacketTransport,
                 budget: int = DEFAULT_BUDGET) -> None:
        if budget < 1:
            raise ValueError("budget must be at least 1 packet")
        self.inner = inner
        self.budget = budget
        self._pending: deque[bytes] = deque()

    @property
    def reliable(self) -> bool:  # type: ignore[override]
        return self.inner.reliable

    def send_packet(self, packet: bytes) -> bool:
        return self.inner.send_packet(packet)

    def receive_packets(self) -> list[bytes]:
        pending = self._pending
        if len(pending) < self.budget:
            pending.extend(self.inner.receive_packets())
        n = min(self.budget, len(pending))
        return [pending.popleft() for _ in range(n)]

    def backlog_bytes(self) -> int:
        return self.inner.backlog_bytes()

    def can_send(self, size: int) -> bool:
        return self.inner.can_send(size)

    @property
    def closed(self) -> bool:
        # Deliver buffered packets before reporting the close.
        return self.inner.closed and not self._pending

    def close(self) -> None:
        self.inner.close()
