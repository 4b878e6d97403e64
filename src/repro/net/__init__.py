"""Transport substrate: simulated channels, rate control, real sockets."""

from .channel import (
    ChannelConfig,
    DuplexChannel,
    LossyChannel,
    ReliableChannel,
    duplex_lossy,
    duplex_reliable,
)
from .multicast import MulticastGroup
from .ratecontrol import TokenBucket
from .tcp import TcpConnection, TcpListener, connect
from .udp import MAX_DATAGRAM, UdpEndpoint
from .world import World

__all__ = [
    "ChannelConfig",
    "DuplexChannel",
    "LossyChannel",
    "MAX_DATAGRAM",
    "MulticastGroup",
    "ReliableChannel",
    "TcpConnection",
    "TcpListener",
    "TokenBucket",
    "UdpEndpoint",
    "World",
    "connect",
    "duplex_lossy",
    "duplex_reliable",
]
