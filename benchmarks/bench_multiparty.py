"""E8 — one AH, many participants, mixed transports (section 4.2).

"The AH can share an application to TCP participants, UDP participants,
and several multicast addresses in the same sharing session."  Scales
the participant count and reports AH egress and service time per frame.
Unicast egress grows linearly; a multicast group encodes once per
update regardless of group size.
"""

import time

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.net.channel import ChannelConfig
from repro.net.multicast import MulticastGroup
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.sharing.participant import Participant
from repro.sharing.transport import (
    DatagramTransport,
    MulticastSenderTransport,
)
from repro.surface.geometry import Rect

from sessions import add_tcp_participant, add_udp_participant, session_world

ROUNDS = 120


def _unicast_fleet(n: int):
    clock = SimulatedClock()
    ah = ApplicationHost(config=SharingConfig(), clock=clock.now)
    win = ah.windows.create_window(Rect(0, 0, 400, 300))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)
    participants = []
    for i in range(n):
        if i % 2 == 0:
            participants.append(add_tcp_participant(clock, ah, f"tcp-{i}"))
        else:
            participants.append(
                add_udp_participant(clock, ah, f"udp-{i}", seed=i)
            )
    def drive(i):
        if i % 4 == 0:
            editor.type_text(f"round {i}\n")

    world = session_world(clock, ah, participants, per_round=drive)
    wall_start = time.perf_counter()
    world.run(ROUNDS)
    wall = time.perf_counter() - wall_start
    assert all(p.converged_with(ah.windows) for p in participants)
    return ah, wall


@pytest.mark.parametrize("n", [1, 4, 8, 16])
def test_unicast_scaling(benchmark, experiment, n):
    recorder = experiment("E8", "participant scaling: unicast vs multicast")
    ah, wall = benchmark.pedantic(_unicast_fleet, args=(n,), rounds=1,
                                  iterations=1)
    recorder.row(
        mode="unicast-mixed",
        participants=n,
        egress_kib=ah.total_bytes_sent() / 1024,
        egress_kib_per_participant=ah.total_bytes_sent() / 1024 / n,
        ah_wall_ms_per_frame=wall * 1000 / ROUNDS,
    )


def _multicast_fleet(n: int):
    clock = SimulatedClock()
    ah = ApplicationHost(config=SharingConfig(), clock=clock.now)
    win = ah.windows.create_window(Rect(0, 0, 400, 300))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)
    group = MulticastGroup(ChannelConfig(delay=0.01), clock.now)
    ah.add_participant("group", MulticastSenderTransport(group), is_group=True)
    from repro.net.channel import duplex_lossy

    participants = []
    feedbacks = []
    for i in range(n):
        member = group.subscribe(f"m{i}")
        feedback = duplex_lossy(ChannelConfig(delay=0.01, seed=i), clock.now)
        feedbacks.append(feedback)
        participant = Participant(
            f"m{i}",
            DatagramTransport(feedback.backward, member),
            clock=clock.now,
            config=ah.config,
        )
        participant.join()
        participants.append(participant)

    def drive(i):
        for feedback in feedbacks:
            for packet in feedback.backward.receive_ready():
                ah._handle_rtcp("group", packet)
        if i % 4 == 0:
            editor.type_text(f"round {i}\n")

    world = session_world(clock, ah, participants, per_round=drive)
    wall_start = time.perf_counter()
    world.run(ROUNDS)
    wall = time.perf_counter() - wall_start
    assert all(p.converged_with(ah.windows) for p in participants)
    return ah, wall


@pytest.mark.parametrize("n", [4, 16])
def test_multicast_scaling(benchmark, experiment, n):
    recorder = experiment("E8", "participant scaling: unicast vs multicast")
    ah, wall = benchmark.pedantic(_multicast_fleet, args=(n,), rounds=1,
                                  iterations=1)
    recorder.row(
        mode="multicast",
        participants=n,
        egress_kib=ah.total_bytes_sent() / 1024,
        egress_kib_per_participant=ah.total_bytes_sent() / 1024 / n,
        ah_wall_ms_per_frame=wall * 1000 / ROUNDS,
    )
