"""repro — RTP payload format for application and desktop sharing.

A full-system reproduction of Boyaci & Schulzrinne's application/desktop
sharing protocol (CoNEXT 2007 / draft-boyaci-avt-app-sharing-00):

* :mod:`repro.core` — the remoting and HIP payload formats (the paper's
  contribution), wire-exact.
* :mod:`repro.rtp` — RTP/RTCP substrate (RFC 3550, 4585 feedback,
  4571 TCP framing).
* :mod:`repro.codecs` — from-scratch PNG, a DCT lossy codec, baselines,
  and content-adaptive selection.
* :mod:`repro.surface` — the virtual window system standing in for OS
  screen capture.
* :mod:`repro.apps` — deterministic synthetic applications (workloads).
* :mod:`repro.net` — simulated channels, rate control, real sockets.
* :mod:`repro.sharing` — the Application Host and Participant.
* :mod:`repro.relay` — the cascaded fan-out tier for huge audiences.
* :mod:`repro.bfcp` — floor control (RFC 4582 subset, Appendix A).
* :mod:`repro.sdp` — session description mapping (section 10).

Quickstart::

    from repro import quick_session

    ah, participant, clock = quick_session()
    # ... drive apps on the AH, advance the clock, watch the
    # participant's windows converge to the AH's, pixel for pixel.
"""

from __future__ import annotations

from .rtp.clock import SimulatedClock
from .net.channel import ChannelConfig, duplex_reliable
from .obs import Instrumentation, MetricsRegistry, NULL, NullInstrumentation
from .relay import HostedRelay, RelayNode, RelayTree
from .sharing import host, join
from .sharing.ah import ApplicationHost
from .sharing.config import PointerMode, SharingConfig
from .sharing.participant import Participant
from .sharing.server import SessionServer
from .sharing.service import SharingService
from .sharing.signalling import SignallingBinding
from .sharing.transport import StreamTransport

__version__ = "1.0.0"

__all__ = [
    "ApplicationHost",
    "HostedRelay",
    "Instrumentation",
    "MetricsRegistry",
    "NULL",
    "NullInstrumentation",
    "Participant",
    "PointerMode",
    "RelayNode",
    "RelayTree",
    "SessionServer",
    "SharingConfig",
    "SharingService",
    "SignallingBinding",
    "SimulatedClock",
    "host",
    "join",
    "quick_session",
    "__version__",
]


def quick_session(
    config: SharingConfig | None = None,
    screen_width: int = 1280,
    screen_height: int = 1024,
    delay: float = 0.01,
    bandwidth_bps: int = 0,
    obs: Instrumentation | None = None,
) -> tuple[ApplicationHost, Participant, SimulatedClock]:
    """One AH plus one TCP participant over a simulated link.

    The smallest useful session: returns the pair already connected
    (the participant will receive the initial full sync on the next
    ``advance``/``process_incoming`` round) and the shared clock that
    drives the simulation.  Pass an :class:`Instrumentation` as ``obs=``
    to get metrics out of every layer; see ``docs/OBSERVABILITY.md``.
    For a SIP-signalled session use :func:`repro.sharing.host` /
    :func:`repro.sharing.join`; for many concurrent sessions in one
    process use :class:`repro.SessionServer`.
    """
    clock = SimulatedClock()
    if obs is not None:
        obs.bind_clock(clock)
    cfg = config or SharingConfig()
    ah = ApplicationHost(
        screen_width=screen_width,
        screen_height=screen_height,
        config=cfg,
        clock=clock,
        obs=obs,
    )
    channel_config = ChannelConfig(delay=delay, bandwidth_bps=bandwidth_bps)
    link = duplex_reliable(
        channel_config, clock.now,
        instrumentation=obs,
    )
    ah_transport = StreamTransport(link.forward, link.backward)
    participant_transport = StreamTransport(link.backward, link.forward)
    participant = Participant(
        "participant-1",
        participant_transport,
        clock=clock,
        config=cfg,
        screen_width=screen_width,
        screen_height=screen_height,
        obs=obs,
    )
    ah.add_participant("participant-1", ah_transport)
    participant.join()
    return ah, participant, clock
