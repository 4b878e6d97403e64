"""Tests for RTP sender/receiver session state."""

import random

from repro.rtp.clock import MediaClock, SimulatedClock
from repro.rtp.session import RtpReceiver, RtpSender, generate_ssrc


class TestGenerateSsrc:
    def test_avoids_taken(self):
        rng = random.Random(1)
        taken = {generate_ssrc(rng) for _ in range(5)}
        fresh = generate_ssrc(random.Random(1), taken=taken)
        assert fresh not in taken

    def test_nonzero(self):
        assert generate_ssrc(random.Random(0)) != 0


class TestRtpSender:
    def test_sequence_increments(self):
        sender = RtpSender(99, rng=random.Random(7))
        a = sender.next_packet(b"a")
        b = sender.next_packet(b"b")
        assert (a.sequence_number + 1) & 0xFFFF == b.sequence_number

    def test_random_initial_sequence(self):
        values = {
            RtpSender(99, rng=random.Random(i)).next_packet(b"").sequence_number
            for i in range(6)
        }
        assert len(values) > 1

    def test_timestamp_from_clock(self):
        clock = SimulatedClock()
        sender = RtpSender(
            99,
            clock=MediaClock(initial_timestamp=0),
            now=clock.now,
            rng=random.Random(0),
        )
        clock.advance(1.0)
        assert sender.next_packet(b"x").timestamp == 90_000

    def test_timestamp_override_shared_by_fragments(self):
        sender = RtpSender(99, rng=random.Random(0))
        ts = sender.current_timestamp()
        packets = [sender.next_packet(b"x", timestamp=ts) for _ in range(3)]
        assert len({p.timestamp for p in packets}) == 1

    def test_counters(self):
        sender = RtpSender(99, rng=random.Random(0))
        sender.next_packet(b"abc")
        sender.next_packet(b"de")
        assert sender.packets_sent == 2
        assert sender.octets_sent == 5

    def test_wraparound(self):
        sender = RtpSender(99, rng=random.Random(0))
        sender._next_seq = 0xFFFF
        a = sender.next_packet(b"")
        b = sender.next_packet(b"")
        assert a.sequence_number == 0xFFFF
        assert b.sequence_number == 0


class TestRtpReceiver:
    def test_accounting(self):
        clock = SimulatedClock()
        sender = RtpSender(99, now=clock.now, rng=random.Random(0))
        receiver = RtpReceiver(now=clock.now)
        for _ in range(10):
            received = receiver.receive(sender.next_packet(b"abc"))
            assert received.valid
            clock.advance(0.02)
        assert receiver.packets_received == 10
        assert receiver.octets_received == 30
        assert receiver.stats().packets_lost == 0

    def test_ssrc_latch(self):
        clock = SimulatedClock()
        receiver = RtpReceiver(now=clock.now)
        sender_a = RtpSender(99, ssrc=1, rng=random.Random(0))
        sender_b = RtpSender(99, ssrc=2, rng=random.Random(0))
        assert receiver.receive(sender_a.next_packet(b"")).valid
        assert not receiver.receive(sender_b.next_packet(b"")).valid

    def test_missing_reported(self):
        clock = SimulatedClock()
        sender = RtpSender(99, now=clock.now, rng=random.Random(3))
        receiver = RtpReceiver(now=clock.now)
        packets = [sender.next_packet(b"") for _ in range(6)]
        for i, packet in enumerate(packets):
            if i != 3:
                receiver.receive(packet)
        assert receiver.missing_sequence_numbers() == [
            packets[3].sequence_number
        ]

    def test_late_retransmission_beyond_misorder_fills_its_gap(self):
        """Packet 5 of a 200-packet update, retransmitted once the head
        is > MAX_MISORDER ahead: A.1 calls it invalid, but it arrived."""
        from repro.rtp.packet import RtpPacket
        from repro.rtp.sequence import MAX_MISORDER
        from repro.sharing.recovery import RecoveryManager

        clock = SimulatedClock()
        receiver = RtpReceiver(now=clock.now)
        recovery = RecoveryManager(now=clock.now)

        def arrive(seq):
            recovery.note_arrival(seq)
            return receiver.receive(RtpPacket(99, seq, 0, 7, b"x"))

        for seq in range(1000, 1200):
            if seq != 1005:
                arrive(seq)
        assert receiver.missing_sequence_numbers() == [1005]
        assert recovery.poll(receiver.missing_sequence_numbers()).nack_now == [
            1005
        ]
        assert 1199 - 1005 > MAX_MISORDER
        late = arrive(1005)
        # The validity heuristic still gates the reception statistics…
        assert not late.valid
        assert receiver.packets_received == 199
        # …but the gap is closed and nothing is asked for again.
        assert receiver.missing_sequence_numbers() == []
        clock.advance(5.0)
        actions = recovery.poll(receiver.missing_sequence_numbers())
        assert actions.nack_now == [] and actions.gave_up == []
        assert recovery.pending == 0
