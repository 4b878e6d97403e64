"""Acceptance: one Instrumentation object observes a full SIP-signalled
lossy-UDP session, end to end.

A single injection at AH construction must reach the update scheduler,
the jitter buffer, RTP send/receive on both streams, token-bucket rate
control and the channel layer — verified by inspecting the session
snapshot, plus a reconstructable update-sent → update-applied latency
histogram.
"""

import json
import random

import pytest

from repro.net.channel import ChannelConfig
from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.sdp import build_ah_offer
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import PT_HIP, PT_REMOTING
from repro.sharing.service import SharingService
from repro.sharing.signalling import SignallingBinding
from repro.sip.dialog import DialogState, SipEndpoint
from repro.apps.terminal import TerminalApp
from repro.surface.geometry import Rect


def _establish_udp(service, name):
    """SIP handshake whose answer negotiates the UDP remoting stream."""
    remote_inbox: list[str] = []
    service_inbox: list[str] = []
    remote = SipEndpoint(
        f"sip:{name}@host", send=service_inbox.append, rng=random.Random(1)
    )
    service.invite(
        name, remote,
        binding=SignallingBinding(name, remote_inbox, service_inbox),
    )
    while remote_inbox:
        remote.receive(remote_inbox.pop(0))
    assert remote.state is DialogState.RINGING
    remote.accept(build_ah_offer(offer_tcp=False).to_string())
    service.pump_signalling()
    while remote_inbox:
        remote.receive(remote_inbox.pop(0))


@pytest.fixture(scope="module")
def session():
    clock = SimulatedClock()
    obs = Instrumentation(clock=clock)
    ah = ApplicationHost(clock=clock, obs=obs)
    window = ah.windows.create_window(Rect(20, 20, 320, 240), title="log")
    terminal = TerminalApp(window)
    ah.apps.attach(terminal)
    service = SharingService(
        ah,
        clock,
        channel_config=ChannelConfig(delay=0.02, loss_rate=0.05, seed=3),
        rate_bps=4_000_000,
        obs=obs,
    )
    _establish_udp(service, "alice")
    participant = service.participant_for("alice")
    assert participant is not None
    assert not participant.transport.reliable  # UDP path negotiated

    # ~12 simulated seconds: enough damage for loss → NACK → retransmit,
    # and well past the first randomised RTCP interval (≤ 7.5 s), so
    # SR-based latency estimation kicks in for later updates.
    for i in range(600):
        if i % 5 == 0:
            terminal.append_line(f"[{i:03d}] build output line {i}")
        if i % 40 == 0 and window.window_id in participant.windows:
            participant.move_mouse(window.window_id, 5 + i % 50, 7)
        service.advance(0.02)
    return obs, ah, participant, window


class TestUnifiedSnapshot:
    def test_all_five_layers_report(self, session):
        obs, _ah, _participant, _window = session
        reg = obs.registry
        # 1. Update scheduler (AH send path).
        assert reg.total("scheduler.packets_sent", peer="alice") > 0
        # 2. Jitter buffer (participant receive path, UDP only).
        assert reg.total("jitter.packets_buffered", peer="alice") > 0
        # 3. RTP layer, both streams.
        assert reg.total("rtp.packets_sent", pt=PT_REMOTING, side="ah") > 0
        assert reg.total(
            "rtp.packets_received", side="participant", stream="remoting"
        ) > 0
        # 4. Token-bucket rate control (the UDP tier).
        assert reg.total("ratecontrol.bytes_admitted") > 0
        # 5. Channel layer, both directions.
        assert reg.total("channel.datagrams_sent", dir="fwd") > 0
        assert reg.total("channel.datagrams_sent", dir="back") > 0

    def test_loss_recovery_counters_nonzero(self, session):
        obs, ah, participant, _window = session
        reg = obs.registry
        assert reg.total("channel.datagrams_dropped") > 0
        assert reg.total("participant.nacks_sent") == participant.nacks_sent > 0
        assert reg.total("ah.nacks_received") == ah.nacks_received > 0
        assert reg.total("scheduler.retransmit_packets") > 0

    def test_hip_and_rtcp_counters_nonzero(self, session):
        obs, _ah, participant, _window = session
        reg = obs.registry
        assert reg.total("rtp.packets_sent", pt=PT_HIP, peer="alice") > 0
        assert reg.total("rtcp.reports_sent", side="ah") > 0
        assert reg.total("rtcp.reports_sent", side="participant") > 0
        assert participant.stats.hip.packets > 0

    def test_update_latency_reconstructable_two_ways(self, session):
        obs, _ah, participant, _window = session
        # (a) Trace-event pairing on the shared RTP timestamp.
        latencies = obs.update_latencies()
        assert latencies.count > 0
        p50 = latencies.percentile(50)
        assert 0.0 < p50 < 1.0  # one-way delay is 20 ms + pacing
        # (b) The participant's own SR-anchored estimate (protocol-
        # faithful: derived from the RTCP NTP↔RTP mapping on the wire).
        assert participant.update_latency.count > 0
        assert 0.0 < participant.update_latency.percentile(50) < 1.0

    def test_snapshot_serialises_and_labels_render(self, session):
        obs, _ah, _participant, _window = session
        snap = obs.snapshot()
        json.dumps(snap)  # one JSON-serialisable dict per session
        assert any(
            key.startswith("scheduler.packets_sent{")
            and "peer=alice" in key
            and "side=ah" in key
            for key in snap["counters"]
        )
        assert snap["trace"]["kinds"].get("update.sent", 0) > 0
        assert snap["trace"]["kinds"].get("update.applied", 0) > 0

    def test_session_still_converges_under_instrumentation(self, session):
        _obs, ah, participant, _window = session
        # Observability must not perturb protocol behaviour.
        assert participant.screen_converged_with(ah.windows)
