"""RelayNode unit behaviour: forwarding, absorption, escalation.

The relay's contract has three faces:

* **media transparency** — downstream sees the upstream bytes
  unmodified (same SSRC, same sequence numbers), duplicates stop at
  the relay;
* **feedback absorption** — NACKs served from the local cache and
  PLI storms never reach the upstream;
* **deduplicated escalation** — a cache miss goes upstream exactly
  once however many viewers ask, and the repair is re-forwarded only
  to the ones who asked.
"""

import pytest

from repro.net.channel import ChannelConfig
from repro.relay import RelayNode, duplex_transport_pair
from repro.relay.node import PLI_MIN_INTERVAL
from repro.rtp.feedback import GenericNack, PictureLossIndication, nacks_for
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import decode_compound
from repro.sharing.config import PT_HIP, PT_REMOTING
from repro.sharing.retransmit import RetransmitCache

MEDIA_SSRC = 0x5350_4A52
VIEWER_SSRC = 0x0BAD_F00D


def media_packet(seq: int, payload: bytes = b"update-bytes") -> bytes:
    return RtpPacket(
        payload_type=PT_REMOTING,
        sequence_number=seq,
        timestamp=1000 + seq * 90,
        ssrc=MEDIA_SSRC,
        payload=payload,
    ).encode()


def decode_rtcp(raw: bytes):
    return decode_compound(raw)


@pytest.fixture
def rig(clock):
    """An upstream handle, the relay, and two downstream handles."""
    upstream_far, relay_up = duplex_transport_pair(
        ChannelConfig(delay=0.0), clock.now
    )
    relay = RelayNode("relay-x", relay_up, clock=clock)
    downstream = {}
    for name in ("a", "b"):
        near, far = duplex_transport_pair(ChannelConfig(delay=0.0), clock.now)
        relay.add_downstream(name, near)
        downstream[name] = far
    return upstream_far, relay, downstream


def pump(clock, relay, dt=0.001):
    clock.advance(dt)
    relay.pump()
    clock.advance(dt)


class TestForwarding:
    def test_media_forwarded_verbatim_to_every_downstream(self, clock, rig):
        upstream, relay, downstream = rig
        raw = media_packet(100)
        upstream.send_packet(raw)
        pump(clock, relay)
        for far in downstream.values():
            got = far.receive_packets()
            assert got == [raw]  # byte-identical: same SSRC, seq, payload
        assert relay.packets_forwarded == 1

    def test_upstream_duplicate_stops_at_the_relay(self, clock, rig):
        upstream, relay, downstream = rig
        raw = media_packet(7)
        upstream.send_packet(raw)
        pump(clock, relay)
        for far in downstream.values():
            far.receive_packets()
        upstream.send_packet(raw)  # network-duplicated copy
        pump(clock, relay)
        for far in downstream.values():
            assert far.receive_packets() == []
        assert relay.duplicates_dropped == 1

    def test_malformed_upstream_dropped_and_counted(self, clock, rig):
        upstream, relay, downstream = rig
        upstream.send_packet(b"\x80")  # truncated: not decodable
        pump(clock, relay)
        assert relay.malformed_dropped == 1
        for far in downstream.values():
            assert far.receive_packets() == []

    def test_hip_from_viewer_flows_upstream_verbatim(self, clock, rig):
        upstream, relay, downstream = rig
        hip = RtpPacket(
            payload_type=PT_HIP, sequence_number=1, timestamp=5,
            ssrc=VIEWER_SSRC, payload=b"keystroke",
        ).encode()
        downstream["a"].send_packet(hip)
        pump(clock, relay)
        assert upstream.receive_packets() == [hip]
        assert relay.hip_forwarded == 1


class TestNackAbsorption:
    def test_cache_hit_served_locally_without_upstream_traffic(
        self, clock, rig
    ):
        upstream, relay, downstream = rig
        raw = media_packet(50)
        upstream.send_packet(raw)
        upstream.send_packet(media_packet(51))
        pump(clock, relay)
        for far in downstream.values():
            far.receive_packets()
        nack = nacks_for(VIEWER_SSRC, MEDIA_SSRC, [50])
        downstream["a"].send_packet(nack.encode())
        pump(clock, relay)
        assert downstream["a"].receive_packets() == [raw]
        assert downstream["b"].receive_packets() == []  # targeted, not fanned
        assert upstream.receive_packets() == []  # fully absorbed
        assert relay.absorbed_nacks == 1
        assert relay.upstream_nacks == 0

    def test_cache_miss_escalates_exactly_once_for_two_viewers(
        self, clock, rig
    ):
        upstream, relay, downstream = rig
        # The relay never saw seq 201 (upstream loss before the relay):
        # anchor its sequence space, then two viewers NACK the hole.
        upstream.send_packet(media_packet(200))
        upstream.send_packet(media_packet(202))
        pump(clock, relay)
        for far in downstream.values():
            far.receive_packets()
        downstream["a"].send_packet(
            nacks_for(VIEWER_SSRC, MEDIA_SSRC, [201]).encode()
        )
        downstream["b"].send_packet(
            nacks_for(VIEWER_SSRC + 1, MEDIA_SSRC, [201]).encode()
        )
        pump(clock, relay)
        nacks = [
            m for raw in upstream.receive_packets()
            for m in decode_rtcp(raw)
            if isinstance(m, GenericNack)
        ]
        seqs = [s for n in nacks for s in n.sequence_numbers()]
        assert seqs.count(201) == 1, "one upstream NACK per missing seq"
        # No duplicate escalation on the next rounds either (retry
        # backoff owns the schedule).
        pump(clock, relay)
        pump(clock, relay)
        assert upstream.receive_packets() == []

    def test_never_forwarded_repair_fans_to_everyone(self, clock, rig):
        upstream, relay, downstream = rig
        upstream.send_packet(media_packet(300))
        upstream.send_packet(media_packet(302))
        pump(clock, relay)
        for far in downstream.values():
            far.receive_packets()
        # Only viewer "a" asks — but nobody ever got 301, so the repair
        # is a first-time forward and every downstream has the hole.
        downstream["a"].send_packet(
            nacks_for(VIEWER_SSRC, MEDIA_SSRC, [301]).encode()
        )
        pump(clock, relay)
        upstream.receive_packets()  # the escalated NACK
        repair = media_packet(301)
        upstream.send_packet(repair)
        pump(clock, relay)
        assert downstream["a"].receive_packets() == [repair]
        assert downstream["b"].receive_packets() == [repair]

    def test_aged_out_repair_re_forwarded_only_to_requesters(self, clock):
        upstream_far, relay_up = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay = RelayNode("relay-aged", relay_up, clock=clock)
        relay.cache = RetransmitCache(2)
        downstream = {}
        for name in ("a", "b"):
            near, far = duplex_transport_pair(
                ChannelConfig(delay=0.0), clock.now
            )
            relay.add_downstream(name, near)
            downstream[name] = far
        # Forward 320, then push it out of the 2-entry cache.
        for seq in (320, 321, 322):
            upstream_far.send_packet(media_packet(seq))
        pump(clock, relay)
        for far in downstream.values():
            far.receive_packets()
        # Viewer "a" lost 320 on its last hop; the cache no longer has
        # it, so the relay fetches it upstream — and on arrival serves
        # only the waiter: "b" already holds 320 and must not see a dup.
        downstream["a"].send_packet(
            nacks_for(VIEWER_SSRC, MEDIA_SSRC, [320]).encode()
        )
        pump(clock, relay)
        upstream_far.receive_packets()  # the escalated NACK
        repair = media_packet(320)
        upstream_far.send_packet(repair)
        pump(clock, relay)
        assert downstream["a"].receive_packets() == [repair]
        assert downstream["b"].receive_packets() == []

    def test_own_gap_nacked_upstream_without_any_viewer_asking(
        self, clock, rig
    ):
        upstream, relay, downstream = rig
        upstream.send_packet(media_packet(400))
        upstream.send_packet(media_packet(402))  # 401 lost upstream
        pump(clock, relay)
        nacks = [
            m for raw in upstream.receive_packets()
            for m in decode_rtcp(raw)
            if isinstance(m, GenericNack)
        ]
        assert [s for n in nacks for s in n.sequence_numbers()] == [401]
        assert nacks[0].sender_ssrc == relay.ssrc
        assert nacks[0].media_ssrc == MEDIA_SSRC


class TestPliValve:
    def test_viewer_pli_storm_collapses_to_one_upstream_pli(
        self, clock, rig
    ):
        upstream, relay, downstream = rig
        upstream.send_packet(media_packet(10))
        pump(clock, relay)
        for _ in range(5):
            for far in downstream.values():
                far.send_packet(
                    PictureLossIndication(VIEWER_SSRC, MEDIA_SSRC).encode()
                )
            pump(clock, relay)
        plis = [
            m for raw in upstream.receive_packets()
            for m in decode_rtcp(raw)
            if isinstance(m, PictureLossIndication)
        ]
        assert len(plis) == 1
        assert relay.plis_received == 10
        assert relay.plis_suppressed == 9

    def test_valve_reopens_after_min_interval(self, clock, rig):
        upstream, relay, downstream = rig
        pli = PictureLossIndication(VIEWER_SSRC, MEDIA_SSRC).encode()
        downstream["a"].send_packet(pli)
        pump(clock, relay)
        clock.advance(PLI_MIN_INTERVAL)
        downstream["a"].send_packet(pli)
        pump(clock, relay)
        plis = [
            m for raw in upstream.receive_packets()
            for m in decode_rtcp(raw)
            if isinstance(m, PictureLossIndication)
        ]
        assert len(plis) == 2


class TestGiveUp:
    def test_exhausted_retries_degrade_to_upstream_pli(self, clock):
        upstream_far, relay_up = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay = RelayNode("relay-g", relay_up, clock=clock)
        upstream_far.send_packet(media_packet(500))
        upstream_far.send_packet(media_packet(502))
        pump(clock, relay)
        # Upstream never repairs: the default ladder (NACK, then
        # retries after 0.2 + 0.4 + 0.8 s, give-up 1.6 s later: 3.0 s)
        # exhausts into a PLI degrade.
        for _ in range(70):
            clock.advance(0.05)
            relay.pump()
        messages = [
            m for raw in upstream_far.receive_packets()
            for m in decode_rtcp(raw)
        ]
        assert any(isinstance(m, PictureLossIndication) for m in messages)
        assert relay.gave_up == 1
        # The hole is acknowledged: no further NACKs for it.
        relay.pump()
        assert relay.leg.recovery.pending == 0


class TestRateTiers:
    def test_throttled_downstream_queues_and_drains_in_order(self, clock):
        upstream_far, relay_up = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay = RelayNode("relay-t", relay_up, clock=clock)
        near, far = duplex_transport_pair(ChannelConfig(delay=0.0), clock.now)
        # ~3000 B/s with a burst well under two packets' worth.
        tier = relay.add_downstream("slow", near, rate_bps=24_000)
        tier.limiter._tokens = 0.0  # start the bucket empty
        payload = bytes(1400)
        packets = [media_packet(600 + i, payload) for i in range(4)]
        for raw in packets:
            upstream_far.send_packet(raw)
        pump(clock, relay)
        assert len(tier.queue) == 4  # nothing admitted yet
        got = []
        for _ in range(16):
            clock.advance(0.25)
            relay.pump()
            got.extend(far.receive_packets())
        assert got == packets  # FIFO order preserved through the tier

    def test_retransmits_bypass_the_tier(self, clock):
        upstream_far, relay_up = duplex_transport_pair(
            ChannelConfig(delay=0.0), clock.now
        )
        relay = RelayNode("relay-b", relay_up, clock=clock)
        near, far = duplex_transport_pair(ChannelConfig(delay=0.0), clock.now)
        tier = relay.add_downstream("slow", near, rate_bps=24_000)
        raw = media_packet(700, bytes(1400))
        upstream_far.send_packet(raw)
        pump(clock, relay)
        far.receive_packets()
        tier.limiter._tokens = 0.0  # bucket empty: normal sends would queue
        far.send_packet(nacks_for(VIEWER_SSRC, MEDIA_SSRC, [700]).encode())
        pump(clock, relay)
        assert far.receive_packets() == [raw]  # served despite the tier
        assert tier.retransmits_served == 1


class TestTopology:
    def test_duplicate_downstream_id_rejected(self, clock, rig):
        _, relay, _ = rig
        near, _ = duplex_transport_pair(ChannelConfig(delay=0.0), clock.now)
        with pytest.raises(ValueError):
            relay.add_downstream("a", near)

    def test_remove_downstream_clears_waiters(self, clock, rig):
        upstream, relay, downstream = rig
        upstream.send_packet(media_packet(800))
        upstream.send_packet(media_packet(802))
        pump(clock, relay)
        downstream["a"].send_packet(
            nacks_for(VIEWER_SSRC, MEDIA_SSRC, [801]).encode()
        )
        pump(clock, relay)
        relay.remove_downstream("a")
        assert all("a" not in w for w in relay._wanted.values())
        assert relay.downstream_count == 1
