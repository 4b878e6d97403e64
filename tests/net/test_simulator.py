"""Tests for the session simulation driver."""

import pytest

from repro import quick_session
from repro.apps import TextEditorApp
from repro.net.simulator import Simulation
from repro.surface import Rect


def build_sim():
    ah, participant, clock = quick_session()
    sim = Simulation(ah, clock, dt=0.02)
    sim.add_participant(participant)
    window = ah.windows.create_window(Rect(0, 0, 200, 150))
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    return sim, editor, participant


class TestStepping:
    def test_run_counts_rounds(self):
        sim, _editor, _p = build_sim()
        sim.run(10)
        assert sim.rounds_run == 10
        assert sim.clock.now() == pytest.approx(0.2)

    def test_run_seconds(self):
        sim, _editor, _p = build_sim()
        sim.run_seconds(1.0)
        assert sim.clock.now() == pytest.approx(1.0)

    def test_drivers_invoked_with_round_index(self):
        sim, editor, _p = build_sim()
        seen = []
        sim.add_driver(seen.append)
        sim.run(5)
        assert seen == [0, 1, 2, 3, 4]

    def test_bad_dt(self):
        ah, _p, clock = quick_session()
        with pytest.raises(ValueError):
            Simulation(ah, clock, dt=0)


class TestConvergence:
    def test_run_until_converged(self):
        sim, editor, participant = build_sim()
        editor.type_text("content to deliver")
        assert sim.run_until_converged(timeout=10.0)
        assert participant.converged_with(sim.ah.windows)

    def test_run_until_custom_condition(self):
        sim, editor, participant = build_sim()
        editor.type_text("x")
        assert sim.run_until(lambda: participant.updates_applied > 0)

    def test_timeout_returns_false(self):
        sim, _editor, participant = build_sim()
        # A condition that can never hold.
        assert not sim.run_until(lambda: False, timeout=0.1)

    def test_no_participants_never_converged(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock)
        assert not sim.run_until_converged(timeout=0.1)


class TestObservability:
    def test_snapshot_includes_simulation_progress(self):
        from repro.obs import Instrumentation

        obs = Instrumentation()
        ah, participant, clock = quick_session(obs=obs)
        sim = Simulation(ah, clock, dt=0.02)
        sim.add_participant(participant)
        sim.run(5)
        snap = sim.snapshot()
        assert snap["simulation"]["rounds"] == 5
        assert snap["simulation"]["time"] == pytest.approx(0.1)
        assert snap["simulation"]["dt"] == pytest.approx(0.02)
        # The simulation defaults to the AH's instrumentation.
        assert snap["counters"] == obs.snapshot()["counters"]

    def test_snapshot_without_instrumentation_still_works(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock)
        snap = sim.snapshot()
        assert snap["counters"] == {}
        assert snap["simulation"]["rounds"] == 0

    def test_sample_every_collects_periodic_snapshots(self):
        ah, participant, clock = quick_session()
        sim = Simulation(ah, clock, dt=0.02)
        sim.add_participant(participant)
        sim.sample_every(0.1)
        sim.run_seconds(1.0)
        assert len(sim.samples) == 10
        times = [t for t, _snap in sim.samples]
        assert times == sorted(times)
        assert all("simulation" in snap for _t, snap in sim.samples)

    def test_sample_every_custom_sampler(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock, dt=0.02)
        sim.sample_every(0.1, sampler=lambda: {"rounds": sim.rounds_run})
        sim.run_seconds(0.5)
        assert len(sim.samples) == 5
        rounds = [s["rounds"] for _t, s in sim.samples]
        assert rounds == sorted(rounds)
        # ~0.1 s apart at dt=0.02 → roughly every 5 rounds (float clock
        # accumulation may shift a boundary by one round).
        assert rounds[0] == 5
        assert rounds[-1] == 25

    def test_sample_every_rejects_bad_interval(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock)
        with pytest.raises(ValueError):
            sim.sample_every(0)

    def test_simulation_requires_advanceable_clock(self):
        ah, _p, _clock = quick_session()
        with pytest.raises(TypeError):
            Simulation(ah, clock=lambda: 0.0)


class TestRunUntilEdgeCases:
    def test_true_condition_runs_zero_steps(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock)
        assert sim.run_until(lambda: True, timeout=0.0)
        assert sim.rounds_run == 0

    def test_condition_true_exactly_at_deadline_observed(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock, dt=0.02)
        # Becomes true only on the final step before the deadline; the
        # loop must still evaluate it once more before giving up.
        assert sim.run_until(lambda: clock.now() >= 0.1, timeout=0.1)

    def test_timeout_consumes_expected_rounds(self):
        ah, _p, clock = quick_session()
        sim = Simulation(ah, clock, dt=0.02)
        assert not sim.run_until(lambda: False, timeout=0.1)
        assert sim.rounds_run == 5
        assert clock.now() == pytest.approx(0.1)


class TestScriptedEvents:
    def test_at_fires_once_at_time(self):
        sim, _editor, _p = build_sim()
        fired = []
        sim.at(0.1, lambda: fired.append(sim.clock.now()))
        sim.run_seconds(0.3)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(0.1, abs=sim.dt)

    def test_events_fire_in_time_order(self):
        sim, _editor, _p = build_sim()
        order = []
        sim.at(0.2, lambda: order.append("late"))
        sim.at(0.1, lambda: order.append("early"))
        sim.run_seconds(0.5)
        assert order == ["early", "late"]

    def test_same_time_preserves_registration_order(self):
        sim, _editor, _p = build_sim()
        order = []
        sim.at(0.1, lambda: order.append("a"))
        sim.at(0.1, lambda: order.append("b"))
        sim.run_seconds(0.2)
        assert order == ["a", "b"]

    def test_past_event_fires_on_next_step(self):
        sim, _editor, _p = build_sim()
        sim.run_seconds(1.0)
        fired = []
        sim.at(0.5, lambda: fired.append(True))  # already in the past
        sim.step()
        assert fired == [True]

    def test_event_can_reconfigure_channel_faults(self):
        """The intended use: flip a fault profile on a schedule."""
        from repro.net.channel import (
            ChannelConfig, FaultProfile, LossyChannel,
        )

        sim, _editor, _p = build_sim()
        channel = LossyChannel(ChannelConfig(delay=0), sim.clock.now)
        burst = FaultProfile.gilbert_elliott(0.5)
        sim.at(0.1, lambda: channel.set_faults(burst))
        sim.at(0.2, lambda: channel.set_faults(None))
        sim.run_seconds(0.15)
        assert channel.faults is burst
        sim.run_seconds(0.15)
        assert channel.faults is None
