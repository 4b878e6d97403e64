"""The sharing system: Application Host, participants, and plumbing.

The curated public surface (see ``docs/API.md``):

* :func:`host` / :func:`join` — the convenience factories: build a
  SIP-signalled single-session service and attach participants to it
  without deep-importing ``ah`` / ``participant`` / ``transport``.
* :class:`SharingService` — the synchronous single-session service.
* :class:`~repro.sharing.server.SessionServer` — the asyncio
  multi-session hosting server (``repro.sharing.server``).
* :class:`SignallingBinding` / :class:`RemotePeer` — service-owned
  signalling plumbing.
* The building blocks (:class:`ApplicationHost`, :class:`Participant`,
  transports, layouts, codec config) remain exported for advanced
  composition.
"""

from __future__ import annotations

import random
import zlib

from ..net.channel import ChannelConfig
from ..rtp.clock import SimulatedClock
from .ah import AhSession, ApplicationHost
from .capture import (
    CapturedFrame,
    CapturePipeline,
    MoveOp,
    PointerOp,
    UpdateOp,
    window_manager_info,
)
from .config import PT_HIP, PT_REMOTING, PointerMode, SharingConfig
from .encoder import FrameEncoder, StampedPacket
from .events import EventInjector, EventStats
from .layout import (
    CompactedLayout,
    GroupedLayout,
    LayoutPolicy,
    OriginalLayout,
    ShiftedLayout,
)
from .participant import LocalWindow, Participant
from .retransmit import RetransmitCache
from .sender import UpdateScheduler
from .server import SessionServer
from .service import SharingService
from .signalling import RemotePeer, SignallingBinding
from .transport import (
    DatagramTransport,
    MulticastSenderTransport,
    PacketTransport,
    StreamTransport,
    TcpSocketTransport,
    UdpSocketTransport,
    is_rtcp,
)

__all__ = [
    "AhSession",
    "ApplicationHost",
    "CapturePipeline",
    "CapturedFrame",
    "CompactedLayout",
    "DatagramTransport",
    "EventInjector",
    "EventStats",
    "FrameEncoder",
    "GroupedLayout",
    "LayoutPolicy",
    "LocalWindow",
    "MoveOp",
    "MulticastSenderTransport",
    "OriginalLayout",
    "PT_HIP",
    "PT_REMOTING",
    "PacketTransport",
    "Participant",
    "PointerMode",
    "PointerOp",
    "RemotePeer",
    "RetransmitCache",
    "SessionServer",
    "SharingConfig",
    "SharingService",
    "ShiftedLayout",
    "SignallingBinding",
    "StampedPacket",
    "StreamTransport",
    "TcpSocketTransport",
    "UdpSocketTransport",
    "UpdateOp",
    "UpdateScheduler",
    "host",
    "is_rtcp",
    "join",
    "window_manager_info",
]


def host(
    config: SharingConfig | None = None,
    clock: SimulatedClock | None = None,
    screen_width: int = 1280,
    screen_height: int = 1024,
    channel_config: ChannelConfig | None = None,
    rate_bps: int | None = None,
    uri: str = "sip:ah@host",
    rng: random.Random | None = None,
    obs=None,
) -> SharingService:
    """One SIP-signalled sharing service, batteries included.

    Builds the clock, the :class:`ApplicationHost` and the
    :class:`SharingService` in one call; the pieces stay reachable as
    ``service.ah`` and ``service.clock``.  Pair with :func:`join`::

        service = repro.sharing.host()
        viewer = repro.sharing.join(service, "alice")
        service.advance(0.02)   # drive the session

    For hundreds of concurrent sessions in one process, use the asyncio
    :class:`~repro.sharing.server.SessionServer` instead.
    """
    clock = clock or SimulatedClock()
    if obs is not None:
        obs.bind_clock(clock)
    ah = ApplicationHost(
        screen_width=screen_width,
        screen_height=screen_height,
        config=config,
        clock=clock,
        rng=rng,
        obs=obs,
    )
    return SharingService(
        ah,
        clock,
        uri=uri,
        channel_config=channel_config,
        rng=rng,
        rate_bps=rate_bps,
        obs=obs,
    )


def join(
    service: SharingService,
    name: str,
    prefer_transport: str = "tcp",
    rng: random.Random | None = None,
    max_rounds: int = 50,
) -> Participant:
    """Attach one participant to a :func:`host`-style service.

    Runs the full INVITE → negotiate → answer → ACK handshake through a
    service-owned :class:`SignallingBinding` and an auto-answering
    :class:`RemotePeer`; returns the wired :class:`Participant`.
    ``prefer_transport`` pins the media path (``"tcp"`` or ``"udp"``).
    """
    binding = service.invite(name)
    peer = RemotePeer(
        f"sip:{name}@remote",
        binding,
        prefer_transport=prefer_transport,
        rng=rng or random.Random(zlib.crc32(name.encode())),
    )
    for _ in range(max_rounds):
        peer.pump()
        service.pump_signalling()
        participant = service.participant_for(name)
        if peer.established and participant is not None:
            return participant
    raise RuntimeError(
        f"signalling for {name!r} did not establish in {max_rounds} rounds"
    )
