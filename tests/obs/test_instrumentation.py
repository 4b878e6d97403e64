"""Tests for the Instrumentation facade, null off-switch, and clock shims."""

import pytest

from repro.obs import NULL, Instrumentation, NullInstrumentation, as_now
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.participant import Participant
from repro.sharing.transport import StreamTransport
from repro.net.channel import ChannelConfig, duplex_reliable
from repro.obs.metrics import LatencyRecorder, TrafficStats


class TestFacade:
    def test_counters_share_one_registry(self):
        obs = Instrumentation()
        obs.counter("pkts").inc(2)
        obs.count("pkts", 3)
        assert obs.registry.total("pkts") == 5

    def test_event_records_clocked_trace(self):
        clock = SimulatedClock()
        obs = Instrumentation(clock=clock)
        clock.advance(1.25)
        obs.event("thing", n=1)
        (event,) = obs.trace.events("thing")
        assert event.time == pytest.approx(1.25)
        assert event.attrs == {"n": 1}

    def test_scoped_labels_stamp_metrics_and_events(self):
        obs = Instrumentation()
        scoped = obs.scoped(peer="p1").scoped(side="ah")
        scoped.counter("pkts").inc()
        scoped.event("e")
        assert obs.registry.get("pkts", peer="p1", side="ah").value == 1
        assert obs.trace.events("e")[0].attrs == {"peer": "p1", "side": "ah"}

    def test_scoped_shares_registry_and_trace(self):
        obs = Instrumentation()
        scoped = obs.scoped(peer="p1")
        assert scoped.registry is obs.registry
        assert scoped.trace is obs.trace

    def test_traffic_stats_adapter_feeds_registry(self):
        obs = Instrumentation()
        stats = obs.traffic_stats(side="ah")
        stats.region_update.add(100, 112)
        stats.region_update.add(50, 62)
        # The legacy public attributes still read correctly...
        assert isinstance(stats, TrafficStats)
        assert stats.region_update.packets == 2
        assert stats.region_update.wire_bytes == 174
        # ...and the same adds landed in the shared registry.
        reg = obs.registry
        assert reg.total("traffic.packets", side="ah") == 2
        assert reg.get(
            "traffic.wire_bytes", side="ah", **{"class": "region_update"}
        ).value == 174

    def test_latency_recorder_is_registry_histogram(self):
        obs = Instrumentation()
        rec = obs.latency_recorder("participant.update_latency_seconds")
        assert isinstance(rec, LatencyRecorder)
        rec.record(0.05)
        snap = obs.snapshot()
        assert (
            snap["histograms"]["participant.update_latency_seconds"]["count"]
            == 1
        )

    def test_update_latencies_pairs_on_shared_key(self):
        clock = SimulatedClock()
        obs = Instrumentation(clock=clock)
        obs.event("update.sent", rtp_ts=1000)
        clock.advance(0.04)
        obs.event("update.applied", rtp_ts=1000)
        obs.event("update.applied", rtp_ts=9999)  # unmatched: skipped
        latencies = obs.update_latencies()
        assert latencies.count == 1
        assert latencies.max() == pytest.approx(0.04)

    def test_snapshot_includes_trace_summary_and_optional_events(self):
        obs = Instrumentation()
        obs.event("a")
        obs.event("a")
        obs.event("b")
        snap = obs.snapshot()
        assert snap["trace"] == {"events": 3, "kinds": {"a": 2, "b": 1}}
        assert "events" not in snap
        assert len(obs.snapshot(events=True)["events"]) == 3

    def test_bind_clock_repoints_trace(self):
        obs = Instrumentation()
        clock = SimulatedClock()
        clock.advance(2.0)
        obs.bind_clock(clock)
        obs.event("late")
        assert obs.trace.events("late")[0].time == pytest.approx(2.0)
        assert obs.now() == pytest.approx(2.0)


class TestNull:
    def test_null_is_disabled_and_stateless(self):
        assert NULL.enabled is False
        c = NULL.counter("anything", peer="p")
        c.inc(10**6)
        assert c.value == 0
        assert NULL.counter("other") is c  # shared singleton handle
        NULL.event("ignored")
        assert NULL.snapshot()["trace"]["events"] == 0

    def test_null_scoped_returns_self(self):
        assert NULL.scoped(peer="p1") is NULL

    def test_null_adapters_stay_live(self):
        # participant.stats / participant.update_latency must keep
        # working when observability is off.
        stats = NULL.traffic_stats()
        stats.hip.add(10, 22)
        assert stats.hip.packets == 1
        rec = NULL.latency_recorder("x")
        rec.record(0.1)
        assert rec.count == 1

    def test_fresh_null_instances_share_interface(self):
        null = NullInstrumentation()
        assert null.histogram("h").count == 0
        null.observe("h", 1.0)
        assert null.update_latencies().count == 0


class TestClockShims:
    def test_as_now_accepts_clock_like_and_callable(self):
        clock = SimulatedClock()
        clock.advance(3.0)
        assert as_now(clock)() == pytest.approx(3.0)
        assert as_now(clock.now)() == pytest.approx(3.0)
        with pytest.raises(TypeError):
            as_now(object())
        with pytest.raises(TypeError):
            as_now(None)

    def test_ah_accepts_clock_object(self):
        clock = SimulatedClock()
        ah = ApplicationHost(clock=clock)
        clock.advance(0.5)
        assert ah._now() == pytest.approx(0.5)

    def test_participant_requires_a_clock(self):
        clock = SimulatedClock()
        link = duplex_reliable(ChannelConfig(), clock.now)
        transport = StreamTransport(link.backward, link.forward)
        with pytest.raises(TypeError, match="Participant"):
            Participant("p1", transport)
