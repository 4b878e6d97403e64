"""Transport adaptors: one packet-oriented interface over every path.

The AH "can share an application to TCP participants, UDP participants,
and several multicast addresses in the same sharing session" (section
4.2).  The sharing layer talks to all of them through
:class:`PacketTransport`; adaptors wrap the simulated channels, the
simulated multicast group, and the real sockets.

RTP and RTCP are multiplexed on one path using the RFC 5761 rule:
a packet whose payload-type octet falls in 192..223 (after clearing the
marker bit, 64..95 collide with nothing we use) is RTCP.
"""

from __future__ import annotations

import abc

from ..net.channel import LossyChannel, ReliableChannel
from ..net.multicast import MulticastGroup
from ..rtp.framing import StreamDeframer, frame


def is_rtcp(packet: bytes) -> bool:
    """RFC 5761 demultiplexing: RTCP packet types occupy 192-223."""
    if len(packet) < 2:
        return False
    return 192 <= packet[1] <= 223


class PacketTransport(abc.ABC):
    """A bidirectional packet path between the AH and one destination."""

    #: True for stream (TCP-like) paths: no loss, no reordering.
    reliable: bool = False

    @abc.abstractmethod
    def send_packet(self, packet: bytes) -> bool:
        """Try to send one packet; False means refused/dropped locally."""

    @abc.abstractmethod
    def receive_packets(self) -> list[bytes]:
        """Drain every packet that has arrived."""

    def backlog_bytes(self) -> int:
        """Unsent bytes queued locally (the section 7 signal); 0 if n/a."""
        return 0

    def can_send(self, size: int) -> bool:
        """Whether a packet of ``size`` would be accepted right now."""
        return True

    @property
    def closed(self) -> bool:
        """True once the path is permanently down (peer disconnected)."""
        return False

    def close(self) -> None:
        """Shut this side of the path down; default transports ignore it."""


class DatagramTransport(PacketTransport):
    """One side of a simulated UDP association (a lossy channel pair)."""

    reliable = False

    def __init__(self, outbound: LossyChannel, inbound: LossyChannel) -> None:
        self._out = outbound
        self._in = inbound
        self._closed = False

    def send_packet(self, packet: bytes) -> bool:
        if self._closed:
            return False
        return self._out.send(packet)

    def receive_packets(self) -> list[bytes]:
        if self._closed:
            return []
        return self._in.receive_ready()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Locally close this side (process death / explicit shutdown).

        UDP has no FIN: the *peer's* transport object stays open and
        only notices through silence — which is exactly what the
        liveness tier is for."""
        self._closed = True


class StreamTransport(PacketTransport):
    """One side of a simulated TCP association with RFC 4571 framing."""

    reliable = True

    def __init__(self, outbound: ReliableChannel, inbound: ReliableChannel) -> None:
        self._out = outbound
        self._in = inbound
        self._deframer = StreamDeframer()
        self._closed = False

    def send_packet(self, packet: bytes) -> bool:
        if self._closed:
            return False
        return self._out.send(frame(packet))

    def receive_packets(self) -> list[bytes]:
        if self._closed:
            return []
        data = self._in.receive_ready()
        return self._deframer.feed(data) if data else []

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True

    def backlog_bytes(self) -> int:
        return self._out.backlog_bytes()

    def can_send(self, size: int) -> bool:
        # +2 for the RFC 4571 length prefix.
        return self._out.can_send(size + 2)


class MulticastSenderTransport(PacketTransport):
    """AH-side handle on a multicast group: send fans out, receive is empty.

    Feedback (PLI/NACK) from multicast receivers travels over separate
    unicast return channels, so the group itself is send-only.  The
    receiving side needs no class of its own: it is a
    :class:`DatagramTransport` whose inbound channel is the member's
    group subscription and whose outbound channel is the unicast
    feedback path.
    """

    reliable = False

    def __init__(self, group: MulticastGroup) -> None:
        self.group = group

    def send_packet(self, packet: bytes) -> bool:
        self.group.send(packet)
        return True

    def receive_packets(self) -> list[bytes]:
        return []


class UdpSocketTransport(PacketTransport):
    """Real UDP socket path to a fixed peer (loopback integration)."""

    reliable = False

    def __init__(self, endpoint, peer: tuple[str, int]) -> None:
        self.endpoint = endpoint
        self.peer = peer

    def send_packet(self, packet: bytes) -> bool:
        return self.endpoint.send_to(packet, self.peer)

    def receive_packets(self) -> list[bytes]:
        return [data for data, _peer in self.endpoint.receive()]


class TcpSocketTransport(PacketTransport):
    """Real TCP connection path (loopback integration)."""

    reliable = True

    def __init__(self, connection) -> None:
        self.connection = connection

    def send_packet(self, packet: bytes) -> bool:
        if self.connection.closed:
            return False
        try:
            self.connection.send_packet(packet)
        except OSError:
            return False
        return True

    def receive_packets(self) -> list[bytes]:
        if self.connection.closed:
            return []
        try:
            return self.connection.receive_packets()
        except OSError:
            return []

    def backlog_bytes(self) -> int:
        return self.connection.backlog_bytes()

    @property
    def closed(self) -> bool:
        return self.connection.closed

    def close(self) -> None:
        self.connection.close()
