"""ReceiveLeg and PeerIngress on their own, over scripted transports."""

import random

import pytest

from repro.core.errors import ProtocolError
from repro.health.liveness import LivenessConfig
from repro.rtp.clock import DEFAULT_CLOCK_RATE
from repro.rtp.feedback import GenericNack, PictureLossIndication
from repro.rtp.packet import RtpPacket
from repro.rtp.reports import RtcpReporter
from repro.rtp.rtcp import decode_compound
from repro.rtp.session import RtpSender
from repro.sharing.config import PT_HIP, PT_REMOTING
from repro.sharing.stream import PeerIngress, ReceiveLeg
from repro.sharing.transport import PacketTransport

MEDIA_SSRC = 0xABCD0001
OUR_SSRC = 0x11112222


class ScriptedTransport(PacketTransport):
    """Hands out what the test queued, records what was sent."""

    def __init__(self, reliable: bool = False) -> None:
        self.reliable = reliable
        self.inbox: list[bytes] = []
        self.sent: list[bytes] = []
        self.is_closed = False

    def send_packet(self, packet: bytes) -> bool:
        self.sent.append(packet)
        return True

    def receive_packets(self) -> list[bytes]:
        packets, self.inbox = self.inbox, []
        return packets

    @property
    def closed(self) -> bool:
        return self.is_closed

    def feedback(self) -> list:
        """Everything sent so far, decoded; clears the record."""
        sent, self.sent = self.sent, []
        return [m for raw in sent for m in decode_compound(raw)]


def media(seq: int, timestamp: int = 0, pt: int = PT_REMOTING) -> bytes:
    return RtpPacket(pt, seq, timestamp, MEDIA_SSRC, b"payload").encode()


def make_leg(clock, transport, **kwargs) -> ReceiveLeg:
    return ReceiveLeg(
        transport, clock.now, OUR_SSRC, cname="test/leg",
        rng=random.Random(1), **kwargs,
    )


class TestReceiveLegRecovery:
    def test_gap_nack_retry_give_up(self, clock):
        transport = ScriptedTransport()
        leg = make_leg(clock, transport)
        for seq in (10, 11, 13):
            packet, recovered = leg.receive_rtp(media(seq))
            assert packet.sequence_number == seq and not recovered
        assert leg.media_ssrc == MEDIA_SSRC

        # Fresh gap: NACK now.  Sending is the owner's call.
        def poll_after(seconds: float):
            clock.advance(seconds)
            return leg.poll_recovery()

        actions = leg.poll_recovery()
        assert actions.nack_now == [12] and not actions.gave_up
        assert transport.sent == []
        sizes = leg.send_nacks(actions.nack_now)
        (nack,) = transport.feedback()
        assert isinstance(nack, GenericNack)
        assert (nack.sender_ssrc, nack.media_ssrc) == (OUR_SSRC, MEDIA_SSRC)
        assert nack.sequence_numbers() == [12] and len(sizes) == 1

        # The default ladder: retries 0.2, 0.4 and 0.8 s apart, nothing
        # asked again in between.
        for interval in (0.2, 0.4, 0.8):
            assert poll_after(interval - 0.05).nack_now == []
            assert poll_after(0.05 + 1e-9).nack_now == [12]
        assert poll_after(1.6 - 0.05).nack_now == []
        # Attempts exhausted 1.6 s after the last one (3.0 s in all):
        # given up, and no longer reported missing, so the owner's PLI
        # is the only thing left to send.
        actions = poll_after(0.05 + 1e-9)
        assert actions.gave_up == [12] and actions.nack_now == []
        assert leg.receiver.missing_sequence_numbers() == []
        assert leg.poll_recovery().nack_now == []
        size = leg.send_pli()
        (pli,) = transport.feedback()
        assert isinstance(pli, PictureLossIndication)
        assert (pli.sender_ssrc, pli.media_ssrc) == (OUR_SSRC, MEDIA_SSRC)
        assert size > 0

    def test_retransmission_reports_recovered(self, clock):
        transport = ScriptedTransport()
        leg = make_leg(clock, transport)
        for seq in (1, 2, 4):
            leg.receive_rtp(media(seq))
        assert leg.poll_recovery().nack_now == [3]
        _packet, recovered = leg.receive_rtp(media(3))
        assert recovered
        assert leg.recovery.pending == 0
        assert leg.poll_recovery().nack_now == []

    def test_wanted_sequences_share_the_one_machine(self, clock):
        transport = ScriptedTransport()
        leg = make_leg(clock, transport)
        for seq in (100, 101, 103):
            leg.receive_rtp(media(seq))
        # Own gap (102) and a downstream's cache miss (90) together.
        assert sorted(leg.poll_recovery([90]).nack_now) == [90, 102]
        # Asked again by someone else before the retry is due: nothing.
        assert leg.poll_recovery([90]).nack_now == []
        # The waiter went away and the own gap filled: both are done.
        leg.receive_rtp(media(102))
        assert leg.poll_recovery().nack_now == []
        assert leg.recovery.pending == 0

    def test_giving_up_on_a_wanted_seq_ahead_of_the_head_opens_no_gaps(
        self, clock
    ):
        """A downstream NACKed a seq this leg never saw.  Giving up on
        it must not move the head past it and NACK every seq between."""
        leg = make_leg(clock, ScriptedTransport())
        for seq in range(100, 110):
            leg.receive_rtp(media(seq))
        gave_up = []
        while not gave_up:
            clock.advance(0.1)
            gave_up = leg.poll_recovery([600]).gave_up
        assert gave_up == [600] and clock.now() == pytest.approx(3.2)
        for _ in range(3):
            clock.advance(0.1)
            assert leg.poll_recovery().nack_now == []
        assert leg.receiver.missing_sequence_numbers() == []

    def test_forget_stops_the_chase_without_a_give_up(self, clock):
        leg = make_leg(clock, ScriptedTransport())
        for seq in (1, 3):
            leg.receive_rtp(media(seq))
        assert leg.poll_recovery().nack_now == [2]
        leg.forget(2)
        assert leg.recovery.cancelled == 1 and leg.recovery.gave_up == 0
        clock.advance(5.0)
        actions = leg.poll_recovery()
        assert actions.nack_now == [] and actions.gave_up == []

    def test_reliable_path_needs_no_recovery(self, clock):
        transport = ScriptedTransport(reliable=True)
        leg = make_leg(clock, transport)
        assert not leg.recovers
        for seq in (1, 2, 5):  # cannot happen on a stream; prove it is inert
            _packet, recovered = leg.receive_rtp(media(seq))
            assert not recovered
        clock.advance(1.0)
        actions = leg.poll_recovery([3])
        assert actions.nack_now == [] and actions.gave_up == []
        assert leg.recovery.nacks_sent == 0 and leg.recovery.pending == 0
        assert transport.sent == []


class TestReceiveLegStream:
    def test_other_payload_types_are_not_the_remoting_stream(self, clock):
        leg = make_leg(clock, ScriptedTransport())
        assert leg.receive_rtp(media(1, pt=PT_HIP)) == (None, False)
        assert leg.receiver.packets_received == 0 and leg.media_ssrc == 0

    def test_malformed_input_raises_for_the_owner(self, clock):
        leg = make_leg(clock, ScriptedTransport())
        with pytest.raises(ProtocolError):
            leg.receive_rtp(b"\x80")
        with pytest.raises(ProtocolError):
            leg.receive_rtcp(b"\x80\xc8\x00")

    def test_latency_from_the_last_sender_report(self, clock):
        leg = make_leg(clock, ScriptedTransport())
        assert leg.latency_of(1234) is None  # no SR yet
        clock.advance(10.0)
        sender = RtpSender(
            PT_REMOTING, ssrc=MEDIA_SSRC, now=clock.now,
            rng=random.Random(2),
        )
        captured = sender.next_packet(b"x").timestamp
        clock.advance(0.25)
        sr = RtcpReporter(
            clock.now, sender=sender, cname="ah", rng=random.Random(3)
        ).build_compound()
        (report,) = leg.receive_rtcp(sr)
        assert report.ssrc == MEDIA_SSRC
        clock.advance(0.05)
        assert leg.latency_of(captured) == pytest.approx(0.30, abs=1e-3)
        # Implausible (a timestamp an hour ahead) is no estimate at all.
        assert leg.latency_of(captured + 3600 * DEFAULT_CLOCK_RATE) is None

    def test_report_goes_out_when_due_and_is_the_heartbeat(self, clock):
        transport = ScriptedTransport()
        leg = make_leg(clock, transport, rtcp_interval=1.0)
        leg.receive_rtp(media(7))
        assert leg.send_report() == 0 and transport.sent == []
        clock.advance(1.6)  # past the jittered 0.5-1.5x interval
        size = leg.send_report()
        assert size == len(transport.sent[0]) > 0
        rr = transport.feedback()[0]
        assert rr.reports[0].ssrc == MEDIA_SSRC
        assert rr.reports[0].extended_highest_seq == 7


class IngressHarness:
    def __init__(self, clock, liveness=None) -> None:
        self.rtcp: list[tuple[str, bytes]] = []
        self.rtp: list[tuple[str, bytes]] = []
        self.gone: list[tuple[str, str]] = []
        self.ingress = PeerIngress(
            clock.now,
            liveness,
            on_rtcp=lambda peer, raw: self.rtcp.append((peer, raw)),
            on_rtp=lambda peer, raw: self.rtp.append((peer, raw)),
            on_gone=self._gone,
        )

    def _gone(self, peer: str, reason: str) -> None:
        self.gone.append((peer, reason))
        self.ingress.remove(peer)

    def add(self, peer: str) -> ScriptedTransport:
        transport = ScriptedTransport()
        self.ingress.add(peer, transport)
        return transport


PLI = PictureLossIndication(1, 2).encode()
HIP = RtpPacket(PT_HIP, 1, 0, 9, b"\x01").encode()


class TestPeerIngress:
    def test_demux_by_peer_and_plane(self, clock):
        h = IngressHarness(clock)
        a, b = h.add("a"), h.add("b")
        a.inbox = [PLI, HIP]
        b.inbox = [HIP]
        h.ingress.drain()
        assert h.rtcp == [("a", PLI)]
        assert h.rtp == [("a", HIP), ("b", HIP)]
        assert h.gone == []

    def test_quarantined_peer_is_drained_alive_and_ignored(self, clock):
        liveness = LivenessConfig(suspect_after=1.0, dead_after=2.0)
        h = IngressHarness(clock, liveness=liveness)
        bad, good = h.add("bad"), h.add("good")
        quarantine = h.ingress.quarantine
        for _ in range(quarantine.budget):
            quarantine.record_rejection("bad", "rtcp")
        assert h.ingress.quarantine.is_quarantined("bad")
        for _ in range(4):  # 4 x 0.6 s: well past dead_after
            clock.advance(0.6)
            bad.inbox = [PLI, HIP]
            good.inbox = [PLI]
            h.ingress.drain()
            assert bad.inbox == []  # drained, not left to pile up
            assert h.ingress.poll_liveness() == []  # traffic = alive
        assert [peer for peer, _raw in h.rtcp] == ["good"] * 4
        assert h.rtp == [] and h.gone == []
        # The cool-down over, the same peer is heard again.
        clock.advance(quarantine.cooldown)
        bad.inbox = [PLI]
        good.inbox = [PLI]
        h.ingress.drain()
        assert h.rtcp[-2:] == [("bad", PLI), ("good", PLI)]

    def test_closed_and_dead_are_reported_with_their_reason(self, clock):
        liveness = LivenessConfig(suspect_after=1.0, dead_after=2.0)
        h = IngressHarness(clock, liveness=liveness)
        closing, silent, healthy = h.add("closing"), h.add("silent"), h.add("ok")
        closing.inbox = [PLI]
        closing.is_closed = True
        h.ingress.drain()
        # What arrived before the close is still delivered.
        assert h.rtcp == [("closing", PLI)]
        assert h.gone == [("closing", "closed")]
        for _ in range(5):
            clock.advance(0.5)
            healthy.inbox = [PLI]
            h.ingress.drain()
            h.ingress.poll_liveness()
        assert h.gone == [("closing", "closed"), ("silent", "dead")]
        # Gone peers are no longer drained.
        silent.inbox = [PLI]
        h.ingress.drain()
        assert silent.inbox == [PLI]

    def test_remove_forgets_quarantine_and_liveness(self, clock):
        liveness = LivenessConfig(suspect_after=1.0, dead_after=2.0)
        h = IngressHarness(clock, liveness=liveness)
        h.add("p")
        for _ in range(h.ingress.quarantine.budget):
            h.ingress.quarantine.record_rejection("p", "rtp")
        assert h.ingress.quarantine.is_quarantined("p")
        h.ingress.remove("p")
        assert not h.ingress.quarantine.is_quarantined("p")
        assert h.ingress.liveness.tracked == 0
        # A peer re-added under the same id starts clean.
        again = h.add("p")
        again.inbox = [PLI]
        h.ingress.drain()
        assert h.rtcp == [("p", PLI)]

    def test_no_liveness_configured_means_no_silence_eviction(self, clock):
        h = IngressHarness(clock)
        h.add("quiet")
        clock.advance(3600.0)
        h.ingress.drain()
        assert h.ingress.poll_liveness() == [] and h.gone == []
