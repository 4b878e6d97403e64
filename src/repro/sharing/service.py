"""SIP-managed sharing service: signalling drives the media session.

:class:`SharingService` is the single-session, synchronous face of the
hosting core: one :class:`~repro.sharing.ah.ApplicationHost` whose
participant lifecycle is driven by SIP (the "integrated into the
existing IETF session model" story of section 2), runnable end to end
on simulated links.  All of the machinery — endpoints, bindings,
negotiated media wiring, participant lifecycle — lives in
:class:`~repro.sharing.server.core.SessionCore`, which the
:class:`~repro.sharing.server.SessionServer` drives at
hundreds-of-sessions scale; this class adds its own
:class:`~repro.net.world.World` (``service.world``), and
:meth:`SharingService.advance` is one step of it.

Public API::

    service = SharingService(ah, clock)
    binding = service.invite("alice", remote_endpoint)  # service owns queues
    ...
    service.advance(0.02)
"""

from __future__ import annotations

import random

from ..net.channel import ChannelConfig
from ..net.world import World
from ..rtp.clock import SimulatedClock
from .server.core import SessionCore


class SharingService(SessionCore):
    """An AH with SIP-signalled participant lifecycle (simulated links)."""

    def __init__(
        self,
        ah,
        clock: SimulatedClock,
        uri: str = "sip:ah@host",
        channel_config: ChannelConfig | None = None,
        rng: random.Random | None = None,
        rate_bps: int | None = None,
        obs=None,
    ) -> None:
        if not callable(getattr(clock, "now", None)) or not callable(
            getattr(clock, "advance", None)
        ):
            raise TypeError(
                "SharingService needs a clock with now() and advance()"
            )
        super().__init__(
            ah,
            clock,
            uri=uri,
            channel_config=channel_config,
            rng=rng,
            rate_bps=rate_bps,
            obs=obs,
        )
        #: One :meth:`advance` is one step: signalling, AH, clock tick,
        #: participants, liveness.
        self.world = World(clock)
        self.world.add(
            lambda dt: self.pump_signalling(),
            self.ah.advance,
            self.world.tick,
            lambda dt: self.receive(),
            lambda dt: self.poll_liveness(),
        )

    def advance(self, dt: float) -> None:
        """One service round of ``dt`` simulated seconds."""
        self.world.step(dt)
