"""Shared session-building helpers for the integration tests."""

from __future__ import annotations

from repro.net.channel import ChannelConfig, duplex_lossy, duplex_reliable
from repro.net.world import World, receive
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.sharing.layout import LayoutPolicy
from repro.sharing.participant import Participant
from repro.sharing.transport import DatagramTransport, StreamTransport


def tcp_pair(
    clock: SimulatedClock,
    ah: ApplicationHost,
    participant_id: str = "p1",
    delay: float = 0.01,
    bandwidth_bps: int = 0,
    layout: LayoutPolicy | None = None,
    screen=(1280, 1024),
) -> Participant:
    """Attach one TCP participant to ``ah`` over a simulated stream."""
    link = duplex_reliable(
        ChannelConfig(delay=delay, bandwidth_bps=bandwidth_bps), clock.now
    )
    ah.add_participant(
        participant_id, StreamTransport(link.forward, link.backward)
    )
    participant = Participant(
        participant_id,
        StreamTransport(link.backward, link.forward),
        clock=clock.now,
        config=ah.config,
        layout=layout,
        screen_width=screen[0],
        screen_height=screen[1],
    )
    participant.join()
    return participant


def udp_pair(
    clock: SimulatedClock,
    ah: ApplicationHost,
    participant_id: str = "p1",
    delay: float = 0.01,
    loss_rate: float = 0.0,
    bandwidth_bps: int = 0,
    seed: int = 0,
    rate_bps: int | None = None,
    reorder_wait: float = 0.25,
    faults=None,
    obs=None,
    **participant_kwargs,
) -> Participant:
    """Attach one UDP participant to ``ah`` over a simulated lossy path.

    ``faults`` installs a :class:`~repro.net.channel.FaultProfile` on
    the forward (AH→participant) direction; extra keyword arguments are
    forwarded to the :class:`Participant` constructor (e.g. a ``config``
    of its own, to make it NACK a non-retransmitting AH).
    """
    link = duplex_lossy(
        ChannelConfig(
            delay=delay,
            loss_rate=loss_rate,
            bandwidth_bps=bandwidth_bps,
            seed=seed,
        ),
        clock.now,
        faults=faults,
    )
    ah.add_participant(
        participant_id,
        DatagramTransport(link.forward, link.backward),
        rate_bps=rate_bps,
    )
    participant_kwargs.setdefault("config", ah.config)
    participant = Participant(
        participant_id,
        DatagramTransport(link.backward, link.forward),
        clock=clock.now,
        reorder_wait=reorder_wait,
        obs=obs,
        **participant_kwargs,
    )
    participant.link = link
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


def run_session(
    clock: SimulatedClock,
    ah: ApplicationHost,
    participants: list[Participant],
    rounds: int,
    dt: float = 0.02,
    per_round=None,
) -> None:
    """Advance AH + participants in lockstep for ``rounds`` steps."""
    session_world(clock, ah, participants, dt, per_round).run(rounds)


def settle(clock, ah, participants, rounds: int = 100, dt: float = 0.02):
    """Run with no new app activity until traffic drains."""
    run_session(clock, ah, participants, rounds, dt)
