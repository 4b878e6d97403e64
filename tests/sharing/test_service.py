"""Tests for the SIP-managed sharing service."""

import random

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.rtp.clock import SimulatedClock
from repro.sdp import negotiate, parse_sdp
from repro.sharing.ah import ApplicationHost
from repro.sharing.service import SharingService
from repro.sharing.signalling import SignallingBinding
from repro.sip.dialog import DialogState, SipEndpoint
from repro.surface.geometry import Rect


@pytest.fixture
def setup():
    clock = SimulatedClock()
    ah = ApplicationHost(clock=clock.now)
    window = ah.windows.create_window(Rect(10, 10, 200, 150))
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    service = SharingService(ah, clock)
    return clock, ah, service, window, editor


def make_remote(name: str, to_service: list[str]):
    """A participant-side SIP endpoint that auto-answers INVITEs."""
    endpoint = SipEndpoint(
        f"sip:{name}@host-{name}",
        send=to_service.append,
        rng=random.Random(hash(name) % 1000),
    )
    return endpoint


def establish(service, remote, remote_inbox, service_inbox, name):
    service.invite(
        name, remote,
        binding=SignallingBinding(name, remote_inbox, service_inbox),
    )
    # Deliver INVITE; remote negotiates and answers.
    while remote_inbox:
        remote.receive(remote_inbox.pop(0))
    assert remote.state is DialogState.RINGING
    agreed = negotiate(parse_sdp(remote.remote_sdp))
    remote.accept(f"v=0\r\ns=answer transport={agreed.transport}\r\n"
                  + remote.remote_sdp)
    service.pump_signalling()
    while remote_inbox:  # ACK back to the remote
        remote.receive(remote_inbox.pop(0))


class TestCallLifecycle:
    def test_invite_establishes_media(self, setup):
        clock, ah, service, window, editor = setup
        remote_inbox: list[str] = []
        service_inbox: list[str] = []
        remote = make_remote("alice", service_inbox)
        establish(service, remote, remote_inbox, service_inbox, "alice")
        assert "alice" in service.active_calls()
        assert "alice" in ah.sessions
        participant = service.participant_for("alice")
        assert participant is not None
        for _ in range(40):
            service.advance(0.02)
        assert participant.converged_with(ah.windows)

    def test_media_follows_negotiated_transport(self, setup):
        clock, ah, service, _window, _editor = setup
        remote_inbox: list[str] = []
        service_inbox: list[str] = []
        remote = make_remote("bob", service_inbox)
        establish(service, remote, remote_inbox, service_inbox, "bob")
        # Default preference is TCP → reliable transport on both ends.
        assert ah.sessions["bob"].transport.reliable

    def test_hang_up_removes_participant(self, setup):
        clock, ah, service, _window, _editor = setup
        remote_inbox: list[str] = []
        service_inbox: list[str] = []
        remote = make_remote("carol", service_inbox)
        establish(service, remote, remote_inbox, service_inbox, "carol")
        assert "carol" in ah.sessions
        service.hang_up("carol")
        while remote_inbox:
            remote.receive(remote_inbox.pop(0))
        assert "carol" not in ah.sessions
        assert service.active_calls() == []
        assert remote.state is DialogState.TERMINATED

    def test_remote_bye_removes_participant(self, setup):
        clock, ah, service, _window, _editor = setup
        remote_inbox: list[str] = []
        service_inbox: list[str] = []
        remote = make_remote("dave", service_inbox)
        establish(service, remote, remote_inbox, service_inbox, "dave")
        remote.bye()
        service.pump_signalling()
        assert "dave" not in ah.sessions

    def test_duplicate_call_name_rejected(self, setup):
        _clock, _ah, service, _w, _e = setup
        inbox: list[str] = []
        remote = make_remote("eve", inbox)
        service.invite("eve", remote)
        with pytest.raises(ValueError):
            service.invite("eve", remote)

    def test_signalling_queues_can_be_deques(self, setup):
        # pump_signalling drains with popleft when the queue offers it
        # (O(1) per message instead of list.pop(0)'s O(n)).
        from collections import deque

        clock, ah, service, _window, _editor = setup
        remote_inbox: list[str] = []
        service_inbox = deque()
        remote = make_remote("grace", service_inbox)
        service.invite(
            "grace", remote,
            binding=SignallingBinding("grace", remote_inbox, service_inbox),
        )
        while remote_inbox:
            remote.receive(remote_inbox.pop(0))
        agreed = negotiate(parse_sdp(remote.remote_sdp))
        remote.accept(f"v=0\r\ns=answer transport={agreed.transport}\r\n"
                      + remote.remote_sdp)
        service.pump_signalling()
        assert not service_inbox  # fully drained
        assert "grace" in service.active_calls()
        assert "grace" in ah.sessions

    def test_typing_flows_through_sip_established_session(self, setup):
        clock, ah, service, window, editor = setup
        remote_inbox: list[str] = []
        service_inbox: list[str] = []
        remote = make_remote("fred", service_inbox)
        establish(service, remote, remote_inbox, service_inbox, "fred")
        participant = service.participant_for("fred")
        for _ in range(40):
            service.advance(0.02)
        participant.type_text(window.window_id, "via SIP session")
        for _ in range(40):
            service.advance(0.02)
        assert editor.text() == "via SIP session"
