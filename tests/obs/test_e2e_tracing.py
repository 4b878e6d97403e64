"""Acceptance: end-to-end causal tracing under adversarial networks.

Two scripted sessions exercise the full span pipeline:

* a Gilbert–Elliott burst-loss session where at least one update only
  completes because a NACK retransmission filled its loss — its span
  must carry the complete causal chain (schedule → … → apply) and
  land in the ``recovered=yes`` histograms and both exporters;
* a give-up session (AH ignores NACKs) where spans are abandoned and
  counted, and the flight recorder dumps fire exactly once per
  sentinel with the triggering event last.
"""

import json

import pytest

from repro.net.channel import FaultProfile
from repro.obs import Instrumentation
from repro.obs.report import run_scenario
from repro.obs.spans import OPTIONAL_STAGES, STAGES

#: Stages every *direct* (relay-free) session must populate.
REQUIRED_STAGES = tuple(s for s in STAGES if s not in OPTIONAL_STAGES)
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from tests.integration.helpers import session_world, udp_pair


@pytest.fixture(scope="module")
def burst_obs():
    """One traced Gilbert–Elliott burst-loss session."""
    return run_scenario("burst", rounds=380)


def _recovered_spans(obs):
    return [
        span for span in obs.spans.completed
        if span.outcome == "complete" and span.recovered
    ]


class TestRecoveredSpans:
    def test_complete_causal_chain(self, burst_obs):
        recovered = _recovered_spans(burst_obs)
        assert recovered, "burst scenario produced no recovered updates"
        for span in recovered:
            missing = [s for s in REQUIRED_STAGES if s not in span.stages]
            assert not missing, (
                f"update {span.update_id} recovered but lost stages {missing}"
            )
            for stage in REQUIRED_STAGES:
                t0, t1 = span.stages[stage]
                assert t0 <= t1
            assert span.e2e_seconds() > 0
            # recovery cost is real: e2e spans at least one RTT of repair
            assert span.e2e_seconds() > span.stages["schedule"][1] - span.start

    def test_histograms_populated_for_every_stage(self, burst_obs):
        registry = burst_obs.registry
        for stage in REQUIRED_STAGES:
            h = registry.get("update.stage_seconds", stage=stage)
            assert h is not None and h.count > 0, stage
        yes = registry.get("update.e2e_seconds", recovered="yes")
        assert yes.count == len(_recovered_spans(burst_obs))
        assert yes.count >= 1
        p50, p95, p99 = yes.percentiles((50, 95, 99))
        assert 0 < p50 <= p95 <= p99

    def test_prometheus_export_carries_recovered_split(self, burst_obs):
        text = burst_obs.export_prometheus()
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_update_e2e_seconds_count")
            and 'recovered="yes"' in line
        )
        assert float(count_line.split(" ")[-1]) >= 1
        assert 'quantile="0.95"' in text

    def test_chrome_trace_carries_recovered_spans(self, burst_obs):
        doc = json.loads(burst_obs.export_chrome_trace())
        recovered_ids = {s.update_id for s in _recovered_spans(burst_obs)}
        events = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("update_id") in recovered_ids
        ]
        assert events
        assert all(e["args"]["recovered"] for e in events)
        stages_seen = {e["name"] for e in events}
        assert set(REQUIRED_STAGES) <= stages_seen


class TestGiveUpTracing:
    @pytest.fixture(scope="class")
    def give_up_obs(self):
        clock = SimulatedClock()
        obs = Instrumentation(clock=clock)
        obs.spans  # tracing on before the session is built
        # AH ignores NACKs while the participant's own config says
        # retransmission is supported: retries can only exhaust into
        # give-up → PLI.
        config = SharingConfig(retransmissions=False)
        ah = ApplicationHost(config=config, clock=clock, obs=obs)
        win = ah.windows.create_window(Rect(50, 50, 400, 300))
        from repro.apps.text_editor import TextEditorApp

        editor = TextEditorApp(win)
        ah.apps.attach(editor)
        participant = udp_pair(
            clock, ah, seed=17, obs=obs,
            config=SharingConfig(retransmissions=True),
            reorder_wait=30.0,
        )
        world = session_world(clock, ah, [participant])
        world.run(50)
        assert participant.converged_with(ah.windows)

        link = participant.link.forward
        blackout = FaultProfile(loss_good=1.0, loss_bad=1.0)
        world.at(1.2, lambda: link.set_faults(blackout))
        world.at(1.21, lambda: editor.type_text("doomed update " * 30))
        world.at(1.5, lambda: link.set_faults(None))
        world.run(50)
        assert world.run_until(
            lambda: participant.converged_with(ah.windows), timeout=30.0
        )
        return obs

    def test_spans_abandoned_and_counted(self, give_up_obs):
        abandoned = [
            s for s in give_up_obs.spans.completed
            if s.outcome == "abandoned:give_up"
        ]
        assert abandoned
        counter = give_up_obs.registry.get("spans.abandoned", reason="give_up")
        assert counter.value == len(abandoned)
        # abandoned spans never contaminate the e2e latency histograms
        e2e_total = sum(
            give_up_obs.registry.get(
                "update.e2e_seconds", recovered=label
            ).count
            for label in ("no", "yes")
            if give_up_obs.registry.get("update.e2e_seconds", recovered=label)
        )
        completed = [
            s for s in give_up_obs.spans.completed if s.outcome == "complete"
        ]
        assert e2e_total == len(completed)

    def test_flight_dumps_fire_once_per_sentinel(self, give_up_obs):
        flight = give_up_obs.flight
        assert flight.dumps, "no flight dumps despite give-up + PLI"
        sentinels = {d["sentinel"] for d in flight.dumps}
        assert "recovery.gave_up" in sentinels
        assert "jitter.abandoned" in sentinels
        # exactly one dump per sentinel event (none dropped, none extra)
        assert flight.dumps_dropped == 0
        assert flight.sentinels_seen == len(flight.dumps)

    def test_triggering_event_is_last_in_every_dump(self, give_up_obs):
        for dump in give_up_obs.flight.dumps:
            trigger = dump["events"][-1]
            assert trigger["kind"] == dump["sentinel"]
            assert trigger["time"] == dump["time"]
