"""Multicast sessions and BFCP-gated HIP control."""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.bfcp.client import FloorControlClient, FloorState
from repro.bfcp.hid_status import HidStatus
from repro.bfcp.server import FloorControlServer
from repro.net.channel import ChannelConfig, duplex_lossy
from repro.net.multicast import MulticastGroup
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.participant import Participant
from repro.sharing.transport import (
    DatagramTransport,
    MulticastSenderTransport,
)
from repro.surface.geometry import Rect

from .helpers import run_session, settle, tcp_pair


@pytest.fixture
def clock():
    return SimulatedClock()


def multicast_session(clock, ah, names, loss_rate=0.0):
    """Create a multicast group session with unicast feedback paths."""
    group = MulticastGroup(
        ChannelConfig(delay=0.01, loss_rate=loss_rate, seed=17), clock.now
    )
    # One feedback (unicast, reliable-ish lossless datagram) path back
    # from each receiver to the AH for PLI/NACK.
    feedback_links = {}
    participants = []
    group_transport = MulticastSenderTransport(group)
    ah.add_participant("mcast-group", group_transport, is_group=True)
    for name in names:
        member_channel = group.subscribe(name)
        feedback = duplex_lossy(ChannelConfig(delay=0.01, seed=hash(name) % 97), clock.now)
        feedback_links[name] = feedback
        transport = DatagramTransport(feedback.backward, member_channel)
        participant = Participant(
            name, transport, clock=clock.now, config=ah.config,
        )
        participants.append(participant)
    return group, participants, feedback_links


class TestMulticastSession:
    def test_one_send_many_receivers(self, clock):
        ah = ApplicationHost(clock=clock.now)
        win = ah.windows.create_window(Rect(0, 0, 250, 180))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        _group, participants, feedbacks = multicast_session(
            clock, ah, ["m1", "m2", "m3"]
        )
        # Feedback PLIs are delivered out-of-band to the AH group session.
        session = ah.sessions["mcast-group"]

        def pump_feedback():
            for feedback in feedbacks.values():
                for packet in feedback.backward.receive_ready():
                    ah._handle_rtcp("mcast-group", packet)

        for participant in participants:
            participant.join()

        def drive(i):
            pump_feedback()
            if i % 6 == 0 and i < 120:
                editor.type_text(f"multicast {i}\n")

        run_session(clock, ah, participants, 250, per_round=drive)
        pump_feedback()
        settle(clock, ah, participants, 50)
        for participant in participants:
            assert participant.converged_with(ah.windows)
        # The AH encoded each update once for the whole group.
        assert session.scheduler.packets_sent > 0


class TestFloorControlledSession:
    def test_only_floor_holder_controls(self, clock):
        floor_server = FloorControlServer()
        ah = ApplicationHost(clock=clock.now, floor_check=floor_server.floor_check)
        win = ah.windows.create_window(Rect(0, 0, 400, 300))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        alice = tcp_pair(clock, ah, "alice")
        bob = tcp_pair(clock, ah, "bob")
        settle(clock, ah, [alice, bob], 40)

        floor_server.request_floor("alice", user_id=1)
        alice.type_text(win.window_id, "from alice ")
        bob.type_text(win.window_id, "from bob ")
        settle(clock, ah, [alice, bob], 60)
        assert editor.text() == "from alice "
        assert ah.injector.stats.rejected_floor > 0

    def test_floor_handover(self, clock):
        floor_server = FloorControlServer()
        ah = ApplicationHost(clock=clock.now, floor_check=floor_server.floor_check)
        win = ah.windows.create_window(Rect(0, 0, 400, 300))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        alice = tcp_pair(clock, ah, "alice")
        bob = tcp_pair(clock, ah, "bob")
        settle(clock, ah, [alice, bob], 40)

        request_alice = floor_server.request_floor("alice", 1)
        floor_server.request_floor("bob", 2)  # queued FIFO
        alice.type_text(win.window_id, "A")
        settle(clock, ah, [alice, bob], 40)
        floor_server.release_floor(request_alice)
        bob.type_text(win.window_id, "B")
        settle(clock, ah, [alice, bob], 40)
        assert editor.text() == "AB"

    def test_hid_status_blocks_keyboard_only(self, clock):
        """Appendix A: the AH may temporarily block HID events without
        revoking the floor."""
        floor_server = FloorControlServer()
        ah = ApplicationHost(clock=clock.now, floor_check=floor_server.floor_check)
        win = ah.windows.create_window(Rect(0, 0, 400, 300))
        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        alice = tcp_pair(clock, ah, "alice")
        settle(clock, ah, [alice], 40)
        floor_server.request_floor("alice", 1)
        floor_server.set_hid_status(HidStatus.STATE_MOUSE_ALLOWED)
        alice.type_text(win.window_id, "blocked")
        alice.click(win.window_id, 10, 10)
        settle(clock, ah, [alice], 40)
        assert editor.text() == ""  # keyboard blocked
        assert ah.injector.stats.by_type.get("MousePressed", 0) == 1
