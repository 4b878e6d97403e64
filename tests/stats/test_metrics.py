"""Tests for metrics helpers."""

import pytest

from repro.obs.metrics import ByteCounter, LatencyRecorder, TrafficStats


class TestLatencyRecorder:
    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        assert recorder.mean() == 0.0
        assert recorder.percentile(95) == 0.0
        assert recorder.max() == 0.0

    def test_mean(self):
        recorder = LatencyRecorder()
        recorder.extend([0.1, 0.2, 0.3])
        assert recorder.mean() == pytest.approx(0.2)

    def test_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([float(i) for i in range(1, 101)])
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 100.0
        assert recorder.percentile(50) == pytest.approx(50.5)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(0.42)
        assert recorder.percentile(1) == 0.42
        assert recorder.percentile(99) == 0.42

    def test_interpolation(self):
        recorder = LatencyRecorder()
        recorder.extend([0.0, 1.0])
        assert recorder.percentile(25) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(101)

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(0.5)
        summary = recorder.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}


class TestByteCounter:
    def test_add(self):
        counter = ByteCounter()
        counter.add(100, 112)
        counter.add(50, 62)
        assert counter.packets == 2
        assert counter.payload_bytes == 150
        assert counter.wire_bytes == 174

    def test_merge(self):
        a = ByteCounter(1, 10, 12)
        b = ByteCounter(2, 20, 24)
        a.merge(b)
        assert (a.packets, a.payload_bytes, a.wire_bytes) == (3, 30, 36)


class TestTrafficStats:
    def test_totals(self):
        stats = TrafficStats()
        stats.region_update.add(100, 112)
        stats.hip.add(8, 20)
        stats.rtcp.add(12, 12)
        assert stats.total_wire_bytes() == 144
        assert stats.total_packets() == 3

    def test_zero_initial(self):
        stats = TrafficStats()
        assert stats.total_wire_bytes() == 0
        assert stats.total_packets() == 0
