"""FlightRecorder: per-peer rings and sentinel-triggered dumps."""

import json

from repro.obs import Instrumentation
from repro.obs.flight import SESSION_RING, FlightRecorder
from repro.obs.trace import TraceEvent


def ev(time, kind, **attrs):
    return TraceEvent(time, kind, attrs)


class TestRings:
    def test_events_keyed_by_peer_label(self):
        fr = FlightRecorder()
        fr.observe(ev(1.0, "nack.sent", peer="a"))
        fr.observe(ev(2.0, "nack.sent", peer="b"))
        fr.observe(ev(3.0, "pli.sent"))
        assert fr.peers == ["a", "b", SESSION_RING]
        assert fr.ring("a") == [{"time": 1.0, "kind": "nack.sent", "peer": "a"}]
        assert fr.ring(SESSION_RING)[0]["kind"] == "pli.sent"

    def test_ring_is_bounded(self):
        fr = FlightRecorder(capacity=3)
        for i in range(10):
            fr.observe(ev(float(i), "x", peer="a"))
        ring = fr.ring("a")
        assert len(ring) == 3
        assert [r["time"] for r in ring] == [7.0, 8.0, 9.0]


class TestSentinels:
    def test_dump_fires_once_with_trigger_last(self):
        fr = FlightRecorder()
        fr.observe(ev(1.0, "nack.sent", peer="a", count=2))
        fr.observe(ev(2.0, "recovery.gave_up", peer="a", count=1))
        fr.observe(ev(3.0, "nack.sent", peer="a", count=1))

        assert len(fr.dumps) == 1
        dump = fr.dumps[0]
        assert dump["sentinel"] == "recovery.gave_up"
        assert dump["peer"] == "a"
        # triggering event last; later events are NOT in this dump
        assert dump["events"][-1]["kind"] == "recovery.gave_up"
        assert len(dump["events"]) == 2

    def test_attr_subset_match(self):
        fr = FlightRecorder()
        fr.observe(ev(1.0, "reassembly.dropped", reason="orphan"))
        assert fr.dumps == []  # only reason="expired" is a sentinel
        fr.observe(ev(2.0, "reassembly.dropped", reason="expired"))
        assert len(fr.dumps) == 1

    def test_every_default_sentinel_fires(self):
        fr = FlightRecorder()
        fr.observe(ev(1.0, "peer.quarantined", peer="a"))
        fr.observe(ev(2.0, "recovery.gave_up", peer="a"))
        fr.observe(ev(3.0, "reassembly.dropped", peer="a", reason="expired"))
        fr.observe(ev(4.0, "jitter.abandoned", peer="a", seq=9))
        assert [d["sentinel"] for d in fr.dumps] == [
            "peer.quarantined", "recovery.gave_up",
            "reassembly.dropped", "jitter.abandoned",
        ]
        assert fr.sentinels_seen == 4

    def test_max_dumps_bounds_memory(self):
        fr = FlightRecorder(max_dumps=2)
        for i in range(5):
            fr.observe(ev(float(i), "recovery.gave_up", peer="a"))
        assert len(fr.dumps) == 2
        assert fr.sentinels_seen == 5
        assert fr.dumps_dropped == 3

    def test_to_json_round_trips(self):
        fr = FlightRecorder()
        fr.observe(ev(1.0, "jitter.abandoned", peer="a", seq=4))
        doc = json.loads(fr.to_json())
        assert doc["dumps"][0]["sentinel"] == "jitter.abandoned"


class TestInstrumentationFeed:
    def test_events_flow_into_the_recorder(self):
        obs = Instrumentation()
        obs.event("nack.sent", peer="p1", count=1)
        obs.event("recovery.gave_up", peer="p1", count=1)
        assert len(obs.flight.dumps) == 1
        assert obs.flight.dumps[0]["events"][-1]["kind"] == "recovery.gave_up"

    def test_scoped_views_share_the_recorder(self):
        obs = Instrumentation()
        scoped = obs.scoped(peer="p2")
        scoped.event("jitter.abandoned", seq=3)
        assert obs.flight.dumps[0]["peer"] == "p2"
