"""End-to-end: a hostile peer is quarantined, an honest one converges.

The acceptance scenario for the hardening work: two participants share
one AH; one sends a sustained stream of garbage.  The AH must count the
rejections in the obs registry, quarantine the hostile peer, and keep
serving the well-behaved one — one bad apple must not wedge the
session.
"""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.obs.instrumentation import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.surface.geometry import Rect

from ..integration.helpers import settle, tcp_pair

GARBAGE = [
    b"",
    b"\x00",
    b"\xff" * 40,
    b"\x80\x63garbage-that-looks-rtp-ish" + b"\x00" * 8,
    bytes(range(64)),
]

#: Four of the five GARBAGE packets count as rejections at the AH, so
#: four rounds 0.2 s apart spend QuarantinePolicy's default budget of
#: 16 inside its 5 s window.
FLOOD_ROUNDS = 4


@pytest.fixture
def clock():
    return SimulatedClock()


def _session(clock, obs):
    ah = ApplicationHost(clock=clock.now, obs=obs)
    window = ah.windows.create_window(Rect(40, 40, 300, 200))
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    honest = tcp_pair(clock, ah, "honest")
    hostile = tcp_pair(clock, ah, "hostile")
    settle(clock, ah, [honest, hostile], 40)
    return ah, editor, honest, hostile


class TestHostilePeerQuarantine:
    def test_hostile_peer_quarantined_honest_peer_converges(self, clock):
        obs = Instrumentation(clock=clock)
        ah, editor, honest, hostile = _session(clock, obs)
        assert honest.converged_with(ah.windows)

        # The hostile peer floods garbage; the honest one keeps working.
        for round_index in range(FLOOD_ROUNDS):
            for junk in GARBAGE:
                hostile.transport.send_packet(junk)
            editor.type_text("x")
            settle(clock, ah, [honest, hostile], 10)

        assert ah.quarantine.is_quarantined("hostile")
        assert not ah.quarantine.is_quarantined("honest")

        # The honest participant still tracks AH state exactly.
        editor.type_text("still alive")
        settle(clock, ah, [honest, hostile], 40)
        assert honest.converged_with(ah.windows)

        # And the obs registry recorded the story.
        counters = obs.snapshot()["counters"]
        rejected = sum(
            count for key, count in counters.items()
            if key.startswith("hardening.packets_rejected{")
        )
        assert rejected >= ah.quarantine.budget
        assert counters["hardening.peers_quarantined"] == 1

    def test_quarantine_expires_and_peer_recovers(self, clock):
        obs = Instrumentation(clock=clock)
        ah, editor, honest, hostile = _session(clock, obs)
        for _ in range(FLOOD_ROUNDS):
            for junk in GARBAGE:
                hostile.transport.send_packet(junk)
            settle(clock, ah, [honest, hostile], 10)
        assert ah.quarantine.is_quarantined("hostile")

        # Ride out the cool-down; the peer is served again afterwards.
        settle(clock, ah, [honest, hostile],
               rounds=int(ah.quarantine.cooldown / 0.02) + 10)
        assert not ah.quarantine.is_quarantined("hostile")
        editor.type_text("back")
        settle(clock, ah, [honest, hostile], 40)
        assert hostile.converged_with(ah.windows)

    def test_departing_peer_forgotten(self, clock):
        obs = Instrumentation(clock=clock)
        ah, editor, honest, hostile = _session(clock, obs)
        for _ in range(FLOOD_ROUNDS):
            for junk in GARBAGE:
                hostile.transport.send_packet(junk)
            settle(clock, ah, [honest, hostile], 10)
        assert ah.quarantine.is_quarantined("hostile")
        ah.remove_participant("hostile")
        assert ah.quarantine.quarantined_peers == []
