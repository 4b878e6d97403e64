"""Tests for transport adaptors, RTP/RTCP demux, and the NACK cache."""

import pytest

from repro.net.channel import ChannelConfig, duplex_lossy, duplex_reliable
from repro.net.multicast import MulticastGroup
from repro.rtp.clock import SimulatedClock
from repro.rtp.feedback import PictureLossIndication
from repro.rtp.packet import RtpPacket
from repro.sharing.retransmit import RetransmitCache
from repro.sharing.transport import (
    DatagramTransport,
    MulticastSenderTransport,
    StreamTransport,
    is_rtcp,
)


@pytest.fixture
def clock():
    return SimulatedClock()


class TestDemux:
    def test_rtp_not_rtcp(self):
        packet = RtpPacket(99, 0, 0, 1, b"x").encode()
        assert not is_rtcp(packet)

    def test_hip_pt_with_marker_not_rtcp(self):
        # PT 100 + marker bit → second byte 228... wait, 0x80|100 = 228.
        packet = RtpPacket(100, 0, 0, 1, b"x", marker=True).encode()
        assert not is_rtcp(packet) or packet[1] < 192  # must stay RTP
        # PT range 96-127 with marker gives 224-255 — above the RTCP
        # window only when >223; PT 100 marker = 228 which is >223.
        assert packet[1] == 228

    def test_rtcp_detected(self):
        assert is_rtcp(PictureLossIndication(1, 2).encode())

    def test_short_junk(self):
        assert not is_rtcp(b"")
        assert not is_rtcp(b"\x80")


class TestDatagramTransport:
    def test_bidirectional(self, clock):
        link = duplex_lossy(ChannelConfig(delay=0.01), clock.now)
        ah = DatagramTransport(link.forward, link.backward)
        participant = DatagramTransport(link.backward, link.forward)
        ah.send_packet(b"down")
        participant.send_packet(b"up")
        clock.advance(0.02)
        assert participant.receive_packets() == [b"down"]
        assert ah.receive_packets() == [b"up"]

    def test_not_reliable(self, clock):
        link = duplex_lossy(ChannelConfig(), clock.now)
        assert not DatagramTransport(link.forward, link.backward).reliable


class TestStreamTransport:
    def test_framing_roundtrip(self, clock):
        link = duplex_reliable(ChannelConfig(delay=0.01), clock.now)
        ah = StreamTransport(link.forward, link.backward)
        participant = StreamTransport(link.backward, link.forward)
        for i in range(5):
            ah.send_packet(bytes([i]) * (i + 1))
        clock.advance(0.02)
        assert participant.receive_packets() == [
            bytes([i]) * (i + 1) for i in range(5)
        ]

    def test_backlog_visible(self, clock):
        link = duplex_reliable(
            ChannelConfig(delay=0, bandwidth_bps=8_000), clock.now
        )
        ah = StreamTransport(link.forward, link.backward)
        ah.send_packet(b"x" * 2000)
        assert ah.backlog_bytes() > 0
        clock.advance(10)
        assert ah.backlog_bytes() == 0

    def test_reliable_flag(self, clock):
        link = duplex_reliable(ChannelConfig(), clock.now)
        assert StreamTransport(link.forward, link.backward).reliable


class TestMulticastTransports:
    def test_sender_fans_out(self, clock):
        group = MulticastGroup(ChannelConfig(delay=0.01), clock.now)
        a_chan = group.subscribe("a")
        b_chan = group.subscribe("b")
        feedback = duplex_lossy(ChannelConfig(delay=0.01), clock.now)
        sender = MulticastSenderTransport(group)
        recv_a = DatagramTransport(feedback.backward, a_chan)
        recv_b = DatagramTransport(feedback.backward, b_chan)
        sender.send_packet(b"frame")
        clock.advance(0.02)
        assert recv_a.receive_packets() == [b"frame"]
        assert recv_b.receive_packets() == [b"frame"]
        assert sender.receive_packets() == []  # send-only

    def test_receiver_feedback_path(self, clock):
        group = MulticastGroup(ChannelConfig(delay=0.01), clock.now)
        chan = group.subscribe("a")
        feedback = duplex_lossy(ChannelConfig(delay=0.01), clock.now)
        receiver = DatagramTransport(feedback.backward, chan)
        receiver.send_packet(b"nack")
        clock.advance(0.02)
        assert feedback.backward.receive_ready() == [b"nack"]


class TestRetransmitCache:
    def test_store_lookup(self):
        cache = RetransmitCache(capacity=10)
        cache.store(5, b"five")
        assert cache.lookup(5) == b"five"
        assert cache.hits == 1

    def test_miss(self):
        cache = RetransmitCache()
        assert cache.lookup(1) is None
        assert cache.misses == 1

    def test_eviction_oldest_first(self):
        cache = RetransmitCache(capacity=3)
        for seq in range(5):
            cache.store(seq, bytes([seq]))
        assert cache.lookup(0) is None
        assert cache.lookup(1) is None
        assert cache.lookup(4) == bytes([4])
        assert len(cache) == 3

    def test_lookup_many_preserves_order(self):
        cache = RetransmitCache()
        for seq in (1, 2, 3):
            cache.store(seq, bytes([seq]))
        assert cache.lookup_many([3, 9, 1]) == [bytes([3]), bytes([1])]

    def test_zero_capacity_stores_nothing(self):
        cache = RetransmitCache(capacity=0)
        cache.store(1, b"x")
        assert cache.lookup(1) is None

    def test_seq_wraps_mod_2_16(self):
        cache = RetransmitCache()
        cache.store(0x1_0005, b"wrapped")
        assert cache.lookup(5) == b"wrapped"

    def test_restore_moves_to_fresh(self):
        cache = RetransmitCache(capacity=2)
        cache.store(1, b"a")
        cache.store(2, b"b")
        cache.store(1, b"a2")  # refresh 1
        cache.store(3, b"c")  # evicts 2, not 1
        assert cache.lookup(1) == b"a2"
        assert cache.lookup(2) is None


class TestRetransmitCacheWraparound:
    """Regression tests for the stale-replay wraparound bug.

    The pre-fix cache was keyed by ``seq & 0xFFFF``: with capacity above
    65536 (config allows any size), a first-cycle packet stored under a
    residue was replayed for a current-cycle NACK naming the same
    residue — 65536 sequence numbers of silent pixel corruption.
    """

    def test_stale_cycle_entry_not_replayed(self):
        cache = RetransmitCache(capacity=70_000)
        # First cycle: a full 65536-packet sweep.
        for seq in range(0x10000):
            cache.store(seq, b"old-%d" % seq)
        # Second cycle: residues 0..10, but residue 5 was never sent
        # (or its store was skipped) — the NACK for it must MISS, not
        # resurrect b"old-5" from a cycle ago.
        for seq in range(0x10000, 0x10005):
            cache.store(seq, b"new-%d" % (seq & 0xFFFF))
        for seq in range(0x10006, 0x1000B):
            cache.store(seq, b"new-%d" % (seq & 0xFFFF))
        assert cache.lookup(5) is None
        assert cache.stale_rejected + cache.misses >= 1
        # Residues actually re-sent resolve to the fresh bytes.
        assert cache.lookup(4) == b"new-4"
        assert cache.lookup(7) == b"new-7"

    def test_same_residue_new_cycle_replaces(self):
        cache = RetransmitCache(capacity=70_000)
        cache.store(5, b"first-cycle")
        for seq in range(6, 0x10000):
            cache.store(seq, b".")
        cache.store(0x10005, b"second-cycle")
        assert cache.lookup(5) == b"second-cycle"
        # The first-cycle packet is gone entirely, not shadowed.
        assert cache.lookup(0x10005 - 0x10000) == b"second-cycle"

    def test_wire_seq_store_extends_across_wrap(self):
        """Stores arrive as bare 16-bit wire values; the cache must
        extend them so wraparound does not reset its ordering."""
        cache = RetransmitCache(capacity=8)
        for seq in (0xFFFE, 0xFFFF, 0x0000, 0x0001):
            cache.store(seq, b"s%d" % seq)
        assert cache.lookup(0xFFFE) == b"s%d" % 0xFFFE
        assert cache.lookup(0x0001) == b"s%d" % 0x0001
        assert len(cache) == 4

    def test_stale_lookup_counted(self):
        cache = RetransmitCache(capacity=70_000)
        for seq in range(0x10000 + 10):
            cache.store(seq, b"x")
        # Residue 11 still holds only the first-cycle entry; a NACK for
        # it is half the sequence space behind the newest packet.
        assert cache.lookup(11) is None
        assert cache.stale_rejected == 1
        assert cache.misses == 1
