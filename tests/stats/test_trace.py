"""Tests for session trace recording."""

import pytest

from repro.obs.trace import SessionTrace
from repro.rtp.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def trace(clock):
    return SessionTrace(clock.now)


class TestRecording:
    def test_event_carries_time_and_attrs(self, clock, trace):
        clock.advance(1.5)
        event = trace.record("update-sent", seq=42, bytes=100)
        assert event.time == 1.5
        assert event.attrs == {"seq": 42, "bytes": 100}
        assert len(trace) == 1

    def test_iteration_in_order(self, clock, trace):
        for i in range(5):
            trace.record("tick", i=i)
            clock.advance(0.1)
        assert [e.attrs["i"] for e in trace] == list(range(5))


class TestQueries:
    def test_filter_by_kind(self, trace):
        trace.record("a")
        trace.record("b")
        trace.record("a")
        assert trace.count("a") == 2
        assert len(trace.events("b")) == 1
        assert len(trace.events()) == 3

    def test_first_last(self, clock, trace):
        trace.record("x", n=1)
        clock.advance(1)
        trace.record("x", n=2)
        assert trace.first("x").attrs["n"] == 1
        assert trace.last("x").attrs["n"] == 2
        assert trace.first("missing") is None

    def test_between(self, clock, trace):
        for _ in range(5):
            trace.record("t")
            clock.advance(1.0)
        assert len(trace.between(1.0, 3.0)) == 2

    def test_span(self, clock, trace):
        trace.record("start")
        clock.advance(2.5)
        trace.record("end")
        assert trace.span("start", "end") == pytest.approx(2.5)
        assert trace.span("start", "missing") is None

    def test_rate_per_second(self, clock, trace):
        # 11 events over a 1.0 s observed window → 11 events/second.
        for _ in range(11):
            trace.record("pkt")
            clock.advance(0.1)
        assert trace.rate_per_second("pkt") == pytest.approx(11.0)

    def test_rate_single_burst_uses_whole_trace_window(self, clock, trace):
        # A burst at one instant inside a longer trace must be rated
        # against the trace's observation span, not the burst's own
        # zero-length first-to-last-of-kind span.
        trace.record("start")
        clock.advance(1.0)
        for _ in range(5):
            trace.record("pkt")
        clock.advance(1.0)
        trace.record("end")
        assert trace.rate_per_second("pkt") == pytest.approx(2.5)

    def test_rate_no_matching_events(self, trace):
        assert trace.rate_per_second("missing") == 0.0

    def test_rate_degenerate(self, trace):
        # A lone event (zero-length window) has no derivable rate.
        trace.record("only-one")
        assert trace.rate_per_second("only-one") == 0.0

    def test_rate_equal_timestamps(self, trace):
        # Every event at one timestamp: window is zero → rate is 0.0 ...
        for _ in range(3):
            trace.record("pkt")
        assert trace.rate_per_second("pkt") == 0.0
        # ... unless the caller supplies an explicit window.
        assert trace.rate_per_second("pkt", window=2.0) == pytest.approx(1.5)

    def test_to_rows(self, clock, trace):
        trace.record("e", value=7)
        rows = trace.to_rows()
        assert rows == [{"time": 0.0, "kind": "e", "value": 7}]
