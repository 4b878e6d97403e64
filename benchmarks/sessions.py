"""Shared session builders for the benchmark experiments.

Every builder accepts ``obs=``: pass an
:class:`repro.Instrumentation` built on no clock (the builder binds it
to the session clock) and the whole stack — scheduler, RTP, jitter
buffer, rate control, channels — reports into one snapshot.
"""

from __future__ import annotations

from repro.net.channel import ChannelConfig, duplex_lossy, duplex_reliable
from repro.net.world import World, receive
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.sharing.participant import Participant
from repro.sharing.transport import DatagramTransport, StreamTransport


def tcp_session(
    config: SharingConfig | None = None,
    delay: float = 0.01,
    bandwidth_bps: int = 0,
    send_buffer: int = 256 * 1024,
    screen=(1280, 1024),
    obs=None,
):
    """(clock, ah, participant) over one simulated TCP link."""
    clock = SimulatedClock()
    if obs is not None:
        obs.bind_clock(clock)
    cfg = config or SharingConfig()
    ah = ApplicationHost(
        screen_width=screen[0], screen_height=screen[1], config=cfg,
        clock=clock, obs=obs,
    )
    link = duplex_reliable(
        ChannelConfig(delay=delay, bandwidth_bps=bandwidth_bps),
        clock.now,
        send_buffer=send_buffer,
        instrumentation=obs,
    )
    ah.add_participant("p1", StreamTransport(link.forward, link.backward))
    participant = Participant(
        "p1",
        StreamTransport(link.backward, link.forward),
        clock=clock,
        config=cfg,
        obs=obs,
    )
    participant.join()
    return clock, ah, participant


def udp_session(
    config: SharingConfig | None = None,
    delay: float = 0.02,
    loss_rate: float = 0.0,
    seed: int = 0,
    rate_bps: int | None = None,
    reorder_wait: float = 0.25,
    obs=None,
):
    """(clock, ah, participant) over one simulated UDP path."""
    clock = SimulatedClock()
    if obs is not None:
        obs.bind_clock(clock)
    cfg = config or SharingConfig()
    ah = ApplicationHost(
        config=cfg, clock=clock, obs=obs
    )
    link = duplex_lossy(
        ChannelConfig(delay=delay, loss_rate=loss_rate, seed=seed), clock.now,
        instrumentation=obs,
    )
    ah.add_participant(
        "p1", DatagramTransport(link.forward, link.backward), rate_bps=rate_bps
    )
    participant = Participant(
        "p1",
        DatagramTransport(link.backward, link.forward),
        clock=clock,
        config=cfg,
        reorder_wait=reorder_wait,
        obs=obs,
    )
    participant.join()
    return clock, ah, participant


def add_udp_participant(
    clock,
    ah,
    name: str,
    loss_rate: float = 0.0,
    delay: float = 0.02,
    seed: int = 0,
    rate_bps: int | None = None,
    obs=None,
):
    obs = obs if obs is not None else ah.obs
    link = duplex_lossy(
        ChannelConfig(delay=delay, loss_rate=loss_rate, seed=seed), clock.now,
        instrumentation=obs.scoped(peer=name),
    )
    ah.add_participant(
        name, DatagramTransport(link.forward, link.backward), rate_bps=rate_bps
    )
    participant = Participant(
        name,
        DatagramTransport(link.backward, link.forward),
        clock=clock,
        config=ah.config,
        obs=obs,
    )
    participant.join()
    return participant


def add_tcp_participant(clock, ah, name: str, delay: float = 0.01,
                        bandwidth_bps: int = 0, obs=None):
    obs = obs if obs is not None else ah.obs
    link = duplex_reliable(
        ChannelConfig(delay=delay, bandwidth_bps=bandwidth_bps), clock.now,
        instrumentation=obs.scoped(peer=name),
    )
    ah.add_participant(name, StreamTransport(link.forward, link.backward))
    participant = Participant(
        name,
        StreamTransport(link.backward, link.forward),
        clock=clock,
        config=ah.config,
        obs=obs,
    )
    participant.join()
    return participant


def session_world(clock, ah, participants, dt: float = 0.02,
                  per_round=None) -> World:
    """The AH → tick → participants loop; ``per_round(i)`` runs first."""
    world = World(clock, dt)
    if per_round is not None:
        world.add(lambda _dt: per_round(world.rounds))
    world.add(ah.advance, world.tick, receive(participants))
    return world
