"""Relay failure handling: pruning, quarantine, crash, failover.

The robustness contract layered onto :class:`RelayNode`:

* **pruning** — downstreams are removed when their transport closes
  locally *or* when they fall silent past the liveness thresholds,
  each counted under its own reason;
* **quarantine** — a downstream feeding the relay malformed RTCP is
  ignored (same budget/cooldown policy as every other ingress);
* **crash** — a crashed node stops pumping and closes its transports,
  with no FIN toward peers (UDP semantics);
* **failover** — a dead upstream is detected by silence, and
  :meth:`RelayNode.replace_upstream` / :meth:`RelayTree.failover_orphans`
  re-home the subtree with a full stream reset + PLI resync.
"""

import pytest

from repro.health import LivenessConfig, PeerState
from repro.net.channel import ChannelConfig
from repro.obs import Instrumentation
from repro.relay import RelayNode, duplex_transport_pair
from repro.rtp.feedback import PictureLossIndication, nacks_for
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import decode_compound
from repro.sharing.config import PT_REMOTING

MEDIA_SSRC = 0x5350_4A52
VIEWER_SSRC = 0x0BAD_F00D
LIVE = LivenessConfig(suspect_after=0.5, dead_after=1.5)


def media_packet(seq: int, ssrc: int = MEDIA_SSRC) -> bytes:
    return RtpPacket(
        payload_type=PT_REMOTING,
        sequence_number=seq,
        timestamp=1000 + seq * 90,
        ssrc=ssrc,
        payload=b"update-bytes",
    ).encode()


def make_relay(clock, liveness=None, obs=None):
    upstream_far, relay_up = duplex_transport_pair(
        ChannelConfig(delay=0.0), clock.now
    )
    relay = RelayNode(
        "relay-h", relay_up, clock=clock, liveness=liveness, obs=obs
    )
    return upstream_far, relay


def add_viewer(relay, clock, name, rate_bps=None):
    near, far = duplex_transport_pair(ChannelConfig(delay=0.0), clock.now)
    relay.add_downstream(name, near, rate_bps=rate_bps)
    return near, far


def pump(clock, relay, dt=0.001):
    clock.advance(dt)
    relay.pump()
    clock.advance(dt)


class TestPruning:
    def test_locally_closed_transport_pruned_and_counted(self, clock):
        obs = Instrumentation(clock=clock.now)
        upstream, relay = make_relay(clock, obs=obs)
        near, _far = add_viewer(relay, clock, "a")
        near.close()
        pump(clock, relay)
        assert "a" not in relay.downstreams
        assert relay.downstreams_pruned == 1
        counter = obs.registry.get(
            "relay.downstream_pruned",
            peer="relay-h", side="relay", reason="closed",
        )
        assert counter.value == 1

    def test_silent_downstream_pruned_as_dead(self, clock):
        obs = Instrumentation(clock=clock.now)
        upstream, relay = make_relay(
            clock, liveness=LIVE, obs=obs
        )
        add_viewer(relay, clock, "quiet")
        clock.advance(LIVE.dead_after)
        relay.pump()
        assert "quiet" not in relay.downstreams
        counter = obs.registry.get(
            "relay.downstream_pruned",
            peer="relay-h", side="relay", reason="dead",
        )
        assert counter.value == 1

    def test_chatty_downstream_stays(self, clock):
        upstream, relay = make_relay(clock, liveness=LIVE)
        _near, far = add_viewer(relay, clock, "chatty")
        for _ in range(4):
            far.send_packet(
                PictureLossIndication(VIEWER_SSRC, MEDIA_SSRC).encode()
            )
            clock.advance(LIVE.dead_after / 2)
            relay.pump()
        assert "chatty" in relay.downstreams
        assert relay.downstreams_pruned == 0

    def test_no_liveness_config_means_no_silence_pruning(self, clock):
        upstream, relay = make_relay(clock)
        add_viewer(relay, clock, "quiet")
        clock.advance(3600.0)
        relay.pump()
        assert "quiet" in relay.downstreams


class TestQuarantine:
    def test_malformed_rtcp_flood_quarantines_the_downstream(self, clock):
        upstream, relay = make_relay(clock)
        _near, far = add_viewer(relay, clock, "hostile")
        # RTCP by the mux rule (PT in 192..223) but truncated garbage,
        # a whole default budget of it inside one window.
        for _ in range(relay.quarantine.budget):
            far.send_packet(b"\x80\xc8\x00")
            pump(clock, relay)
        assert relay.quarantine.is_quarantined("hostile")
        assert "hostile" in relay.snapshot()["quarantined"]

    def test_quarantined_feedback_is_ignored_but_proves_liveness(self, clock):
        upstream, relay = make_relay(clock, liveness=LIVE)
        upstream.send_packet(media_packet(10))
        _near, far = add_viewer(relay, clock, "hostile")
        pump(clock, relay)
        far.receive_packets()  # drain the forwarded copy
        for _ in range(relay.quarantine.budget):
            far.send_packet(b"\x80\xc8\x00")
            pump(clock, relay)
        assert relay.quarantine.is_quarantined("hostile")
        # A NACK that would normally be served from cache is ignored.
        nack = nacks_for(VIEWER_SSRC, MEDIA_SSRC, [10])
        far.send_packet(nack.encode())
        pump(clock, relay)
        media = [
            raw for raw in far.receive_packets()
            if raw[:2] != b"\x80\xc8" and len(raw) > 12
        ]
        assert media == []
        # ...but the chatter still counts as liveness: no dead-prune.
        assert relay.downstream_liveness.state_of("hostile") \
            is PeerState.ALIVE


class TestOverloadScaling:
    def test_scale_halves_and_restores_tiered_limiters(self, clock):
        upstream, relay = make_relay(clock)
        add_viewer(relay, clock, "tiered", rate_bps=100_000)
        add_viewer(relay, clock, "unmetered")
        relay.scale_rate_tiers(0.5)
        assert relay.downstreams["tiered"].limiter.rate_bps == 50_000
        assert relay.downstreams["unmetered"].limiter is None
        # Non-compounding: scaling again recomputes from the base tier.
        relay.scale_rate_tiers(0.5)
        assert relay.downstreams["tiered"].limiter.rate_bps == 50_000
        relay.scale_rate_tiers(1.0)
        assert relay.downstreams["tiered"].limiter.rate_bps == 100_000

    def test_downstream_added_while_degraded_gets_scaled_tier(self, clock):
        upstream, relay = make_relay(clock)
        relay.scale_rate_tiers(0.25)
        add_viewer(relay, clock, "late", rate_bps=80_000)
        assert relay.downstreams["late"].limiter.rate_bps == 20_000

    def test_invalid_factor_rejected(self, clock):
        upstream, relay = make_relay(clock)
        with pytest.raises(ValueError):
            relay.scale_rate_tiers(0.0)


class TestCrash:
    def test_crashed_relay_goes_silent_and_closes_its_transports(
        self, clock
    ):
        upstream, relay = make_relay(clock)
        near, far = add_viewer(relay, clock, "a")
        relay.crash()
        assert relay.crashed
        assert relay.snapshot()["crashed"] is True
        upstream.send_packet(media_packet(1))
        assert relay.pump() == 0
        clock.advance(1.0)
        assert far.receive_packets() == []
        # UDP has no FIN: the viewer's own transport object stays open.
        assert not far.closed


class TestUpstreamLiveness:
    def test_silent_upstream_flagged_dead(self, clock):
        obs = Instrumentation(clock=clock.now)
        upstream, relay = make_relay(
            clock, liveness=LIVE, obs=obs
        )
        assert not relay.upstream_dead
        clock.advance(LIVE.dead_after)
        relay.pump()
        assert relay.upstream_dead
        assert relay.snapshot()["upstream_dead"] is True
        assert obs.registry.get(
            "health.upstream_dead", peer="relay-h", side="relay"
        ).value == 1

    def test_media_keeps_upstream_alive(self, clock):
        upstream, relay = make_relay(clock, liveness=LIVE)
        for _ in range(4):
            upstream.send_packet(media_packet(1))
            clock.advance(LIVE.dead_after / 2)
            relay.pump()
        assert not relay.upstream_dead


class TestReplaceUpstream:
    def test_new_parent_means_full_stream_reset(self, clock):
        upstream, relay = make_relay(clock, liveness=LIVE)
        _near, far = add_viewer(relay, clock, "v")
        upstream.send_packet(media_packet(20))
        pump(clock, relay)
        far.receive_packets()
        assert relay.leg.receiver.packets_received == 1

        new_far, new_relay_side = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay.replace_upstream(new_relay_side)
        assert relay.failovers == 1
        assert relay.snapshot()["failovers"] == 1
        # Old stream state is gone: counters reset, cache not serving.
        assert relay.leg.receiver.packets_received == 0
        assert not relay.upstream_dead
        # The resync PLI went out the new path immediately.
        plis = [
            m for raw in new_far.receive_packets()
            for m in decode_compound(raw)
            if isinstance(m, PictureLossIndication)
        ]
        assert len(plis) == 1

    def test_stale_cache_never_serves_the_new_stream(self, clock):
        upstream, relay = make_relay(clock)
        _near, far = add_viewer(relay, clock, "v")
        upstream.send_packet(media_packet(30, ssrc=0x1111))
        pump(clock, relay)
        far.receive_packets()

        new_far, new_relay_side = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay.replace_upstream(new_relay_side)
        # A NACK for seq 30 on the *new* stream must not be answered
        # with the old stream's bytes (same 16-bit seq, different SSRC).
        nack = nacks_for(VIEWER_SSRC, 0x2222, [30])
        far.send_packet(nack.encode())
        pump(clock, relay)
        assert all(
            raw[1] in range(192, 224) for raw in far.receive_packets()
        )

    def test_forwarding_resumes_through_the_new_parent(self, clock):
        upstream, relay = make_relay(clock, liveness=LIVE)
        _near, far = add_viewer(relay, clock, "v")
        new_far, new_relay_side = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay.replace_upstream(new_relay_side)
        new_far.send_packet(media_packet(5, ssrc=0x2222))
        pump(clock, relay)
        media = [
            RtpPacket.decode(raw) for raw in far.receive_packets()
            if raw[1] not in range(192, 224)
        ]
        assert [p.sequence_number for p in media] == [5]
        assert media[0].ssrc == 0x2222
