"""Tests for the one stepping loop, :class:`repro.net.World`."""

import pytest

from repro import quick_session
from repro.apps import TextEditorApp
from repro.net import World
from repro.net.world import receive
from repro.rtp.clock import SimulatedClock
from repro.surface import Rect


def build_world():
    ah, participant, clock = quick_session()
    world = World(clock, dt=0.02)
    world.add(ah.advance, world.tick, receive([participant]))
    window = ah.windows.create_window(Rect(0, 0, 200, 150))
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    return world, ah, editor, participant


class TestStepping:
    def test_run_counts_rounds(self):
        world, _ah, _editor, _p = build_world()
        world.run(10)
        assert world.rounds == 10
        assert world.clock.now() == pytest.approx(0.2)

    def test_drivers_invoked_with_round_index(self):
        world = World(SimulatedClock())
        seen = []
        world.add(lambda dt: seen.append(world.rounds), world.tick)
        world.run(5)
        assert seen == [0, 1, 2, 3, 4]

    def test_entries_run_in_registration_order(self):
        clock = SimulatedClock()
        world = World(clock, dt=0.5)
        seen = []
        world.add(
            lambda dt: seen.append(("before", clock.now(), dt)),
            world.tick,
            lambda dt: seen.append(("after", clock.now(), dt)),
        )
        world.step()
        assert seen == [("before", 0.0, 0.5), ("after", 0.5, 0.5)]

    def test_step_dt_overrides_the_default(self):
        clock = SimulatedClock()
        world = World(clock, dt=0.02)
        world.add(world.tick)
        world.step(0.25)
        assert clock.now() == pytest.approx(0.25)

    def test_time_moves_only_through_a_tick_entry(self):
        clock = SimulatedClock()
        world = World(clock)
        world.run(3)
        assert clock.now() == 0.0
        assert world.rounds == 3

    def test_bad_dt(self):
        for dt in (0, -0.02):
            with pytest.raises(ValueError):
                World(SimulatedClock(), dt=dt)

    def test_world_requires_a_clock_with_now(self):
        with pytest.raises(TypeError):
            World(clock=lambda: 0.0)


class TestConvergence:
    def test_run_until_converged(self):
        world, ah, editor, participant = build_world()
        editor.type_text("content to deliver")
        assert world.run_until(
            lambda: participant.converged_with(ah.windows), timeout=10.0
        )

    def test_run_until_custom_condition(self):
        world, _ah, editor, participant = build_world()
        editor.type_text("x")
        assert world.run_until(lambda: participant.updates_applied > 0)

    def test_timeout_returns_false(self):
        world, _ah, _editor, _p = build_world()
        # A condition that can never hold.
        assert not world.run_until(lambda: False, timeout=0.1)


class TestRunUntilEdgeCases:
    def test_true_condition_runs_zero_steps(self):
        world, _ah, _editor, _p = build_world()
        assert world.run_until(lambda: True, timeout=0.0)
        assert world.rounds == 0

    def test_condition_true_exactly_at_deadline_observed(self):
        world, _ah, _editor, _p = build_world()
        clock = world.clock
        # Becomes true only on the final step before the deadline; the
        # loop must still evaluate it once more before giving up.
        assert world.run_until(lambda: clock.now() >= 0.1, timeout=0.1)

    def test_timeout_consumes_expected_rounds(self):
        world, _ah, _editor, _p = build_world()
        assert not world.run_until(lambda: False, timeout=0.1)
        assert world.rounds == 5
        assert world.clock.now() == pytest.approx(0.1)


class TestScriptedEvents:
    def test_at_fires_once_at_time(self):
        world, _ah, _editor, _p = build_world()
        fired = []
        world.at(0.1, lambda: fired.append(world.clock.now()))
        world.run(15)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(0.1, abs=world.dt)

    def test_events_fire_in_time_order(self):
        world, _ah, _editor, _p = build_world()
        order = []
        world.at(0.2, lambda: order.append("late"))
        world.at(0.1, lambda: order.append("early"))
        world.run(25)
        assert order == ["early", "late"]

    def test_same_time_preserves_registration_order(self):
        world, _ah, _editor, _p = build_world()
        order = []
        world.at(0.1, lambda: order.append("a"))
        world.at(0.1, lambda: order.append("b"))
        world.run(10)
        assert order == ["a", "b"]

    def test_past_event_fires_on_next_step(self):
        world, _ah, _editor, _p = build_world()
        world.run(50)
        fired = []
        world.at(0.5, lambda: fired.append(True))  # already in the past
        world.step()
        assert fired == [True]

    def test_due_events_fire_before_the_entries(self):
        clock = SimulatedClock()
        world = World(clock)
        order = []
        world.add(lambda dt: order.append("entry"), world.tick)
        world.at(0.0, lambda: order.append("event"))
        world.step()
        assert order == ["event", "entry"]

    def test_event_can_reconfigure_channel_faults(self):
        """The intended use: flip a fault profile on a schedule."""
        from repro.net.channel import (
            ChannelConfig, FaultProfile, LossyChannel,
        )

        world, _ah, _editor, _p = build_world()
        channel = LossyChannel(ChannelConfig(delay=0), world.clock.now)
        burst = FaultProfile.gilbert_elliott(0.5)
        world.at(0.1, lambda: channel.set_faults(burst))
        world.at(0.2, lambda: channel.set_faults(None))
        world.run(7)
        assert channel.faults is burst
        world.run(7)
        assert channel.faults is None
