"""Security-relevant behaviour (section 8 and scattered MUSTs).

Application sharing "inherently exposes the shared applications to
risks by malicious participants" — these tests pin down the defensive
behaviour the implementation provides at the protocol layer:
coordinate legitimacy, floor gating as default-deny, unpredictable
initial timestamps/sequence numbers, and bounded resource usage under
hostile input.
"""

import random

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.bfcp.server import FloorControlServer
from repro.rtp.clock import SimulatedClock
from repro.rtp.session import RtpSender
from repro.sharing.ah import ApplicationHost
from repro.surface.geometry import Rect

from .helpers import settle, tcp_pair


@pytest.fixture
def clock():
    return SimulatedClock()


class TestUnpredictableInitialValues:
    def test_initial_timestamps_differ_across_sessions(self):
        """'the initial value of the timestamp MUST be random
        (unpredictable) to make known-plaintext attacks more
        difficult' (sections 5.1.1, 6.1.1)."""
        stamps = {
            RtpSender(99, rng=random.Random(seed)).clock.initial_timestamp
            for seed in range(12)
        }
        assert len(stamps) >= 10

    def test_initial_sequence_numbers_differ(self):
        seqs = {
            RtpSender(99, rng=random.Random(seed))._next_seq
            for seed in range(12)
        }
        assert len(seqs) >= 10

    def test_ssrcs_differ(self):
        ssrcs = {
            RtpSender(99, rng=random.Random(seed)).ssrc for seed in range(12)
        }
        assert len(ssrcs) >= 10


class TestInputValidationSurface:
    def test_event_outside_every_window_never_reaches_app(self, clock):
        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(500, 500, 100, 100))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = tcp_pair(clock, ah)
        settle(clock, ah, [participant], 30)
        before = editor.events_handled
        # Probe many points outside the shared window.
        for x, y in ((0, 0), (499, 499), (601, 601), (5000, 0), (0, 5000)):
            participant.send_raw_mouse(x, y)
        settle(clock, ah, [participant], 30)
        assert editor.events_handled == before
        assert ah.injector.stats.rejected_out_of_window == 5

    def test_events_for_closed_window_rejected(self, clock):
        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(0, 0, 100, 100))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = tcp_pair(clock, ah)
        settle(clock, ah, [participant], 30)
        wid = win.window_id
        ah.apps.detach(wid)
        ah.windows.close_window(wid)
        settle(clock, ah, [participant], 30)
        participant.type_text(wid, "ghost input")
        settle(clock, ah, [participant], 30)
        assert editor.text() == ""

    def test_floor_default_deny(self, clock):
        """With BFCP wired, a participant who never requested the floor
        controls nothing — deny is the default state."""
        floor = FloorControlServer()
        ah = ApplicationHost(clock=clock.now, floor_check=floor.floor_check)
        win = ah.windows.create_window(Rect(0, 0, 200, 150))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = tcp_pair(clock, ah)
        settle(clock, ah, [participant], 30)
        participant.type_text(win.window_id, "unauthorised")
        participant.click(win.window_id, 10, 10)
        settle(clock, ah, [participant], 30)
        assert editor.text() == ""
        assert ah.injector.stats.accepted == 0


class TestResourceBounds:
    def test_retransmit_cache_is_bounded(self, clock):
        """A NACK flood cannot make the AH cache grow without bound."""
        from repro.sharing.retransmit import RetransmitCache

        cache = RetransmitCache(capacity=64)
        for seq in range(10_000):
            cache.store(seq, b"x" * 100)
        assert len(cache) == 64

    def test_deframer_bounded_against_length_bomb(self):
        """A stream claiming a huge frame cannot exhaust memory."""
        from repro.rtp.framing import FramingError, StreamDeframer

        deframer = StreamDeframer(max_buffer=4096)
        with pytest.raises(FramingError):
            for _ in range(100):
                deframer.feed(b"\xff\xff" + b"A" * 1024)

    def test_jitter_buffer_capacity_bounded(self, clock):
        from repro.rtp.jitter_buffer import JitterBuffer
        from repro.rtp.packet import RtpPacket

        buf = JitterBuffer(now=clock.now, max_wait=100.0, capacity=32)
        # Adversarial stream with a permanent hole; the caller drains
        # pop_ready() as the receive loop does.
        buf.insert(RtpPacket(99, 0, 0, 1, b""))
        released = len(buf.pop_ready())
        for seq in range(2, 500):
            buf.insert(RtpPacket(99, seq, 0, 1, b""))
            released += len(buf.pop_ready())
        # Slots stay bounded; everything inserted is eventually released.
        assert len(buf._slots) <= 32
        assert released + len(buf._slots) == 499

    def test_recovery_state_pruned(self, clock):
        """The participant's recovery-manager maps cannot grow unboundedly."""
        ah = ApplicationHost(clock=clock.now)
        ah.windows.create_window(Rect(0, 0, 50, 50))
        from .helpers import udp_pair

        participant = udp_pair(clock, ah)
        settle(clock, ah, [participant], 20)
        recovery = participant.leg.recovery
        # Simulate a long-lived recovered-seq memory and trigger the
        # prune path with a genuine gap just past the live stream.
        for seq in range(5000):
            recovery._recovered_at[seq] = -100.0
        gaps = participant.leg.receiver.gaps
        highest = gaps._highest
        assert highest is not None
        gaps.record((highest + 3) & 0xFFFF)  # leaves holes at +1, +2
        participant.process_incoming()
        assert participant.nacks_sent >= 1
        assert len(recovery._recovered_at) < 5000
        # Pending retry state is bounded by the gap detector's window.
        assert recovery.pending <= participant.leg.receiver.gaps.max_tracked
