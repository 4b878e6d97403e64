"""TaskSupervisor behaviour: restart, backoff, give-up, teardown.

The supervisor is a synchronous strike counter: ``run(name, round_fn)``
calls one round, and what it remembers between calls is how many times
in a row ``name`` crashed and when its backoff ends.
"""

import asyncio
import time

import pytest

from repro.health import RestartPolicy, TaskSupervisor
from repro.obs import Instrumentation

FAST = RestartPolicy(initial_backoff=0.0, max_restarts=3, reset_after=5.0)
CLEAN = {"crashes": 0, "restarts": 0, "give_ups": 0}


def flaky(crashes, error=RuntimeError("boom")):
    """A round that raises on its first ``crashes`` calls, then is clean."""
    calls = []

    def round_fn():
        calls.append(len(calls))
        if len(calls) <= crashes:
            raise error

    return round_fn, calls


class TestRestart:
    def test_crash_restarts_until_clean_exit(self):
        sup = TaskSupervisor(FAST)
        round_fn, calls = flaky(2)
        for _ in range(3):
            sup.run("entry", round_fn)
        assert calls == [0, 1, 2]
        assert sup.crashes == 2
        assert sup.restarts == 2
        assert sup.give_ups == 0

    def test_strikes_are_per_name(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=0.0,
                                           max_restarts=1))
        gave_up = []
        for name in ("a", "b"):
            round_fn, _ = flaky(1)
            sup.run(name, round_fn, on_give_up=gave_up.append)
        # One crash each: neither reached two in a row.
        assert sup.crashes == 2
        assert gave_up == []


class TestGiveUp:
    def test_exhausted_budget_fires_on_give_up_with_final_error(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=0.0,
                                           max_restarts=2))
        seen = []
        errors = [RuntimeError(f"persistent {i}") for i in range(3)]
        remaining = iter(errors)

        def round_fn():
            raise next(remaining)

        for _ in range(3):
            sup.run("entry", round_fn, on_give_up=seen.append)
        # max_restarts=2 tolerates 2 restarts: 3 crashes total.
        assert sup.crashes == 3
        assert sup.restarts == 2
        assert sup.give_ups == 1
        assert seen == [errors[-1]]

    def test_zero_restarts_means_one_strike(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=0.0,
                                           max_restarts=0))
        round_fn, _ = flaky(1, ValueError("no"))
        sup.run("entry", round_fn)
        assert sup.crashes == 1
        assert sup.restarts == 0
        assert sup.give_ups == 1

    def test_give_up_forgets_the_strikes(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=0.0,
                                           max_restarts=0))
        round_fn, calls = flaky(1)
        sup.run("entry", round_fn)
        # The owner closed; a new entry reusing the name starts clean.
        sup.run("entry", round_fn)
        assert calls == [0, 1]
        assert sup.give_ups == 1


class TestTeardown:
    def test_cancellation_passes_through_without_restart(self):
        sup = TaskSupervisor(FAST)
        for error in (asyncio.CancelledError, KeyboardInterrupt):
            round_fn, calls = flaky(1, error())
            with pytest.raises(error):
                sup.run("entry", round_fn)
            # Uncounted, and no backoff either: the next round runs.
            sup.run("entry", round_fn)
            assert calls == [0, 1]
        assert sup.snapshot() == CLEAN

    def test_forget_drops_a_pending_backoff(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=3600.0))
        round_fn, calls = flaky(1)
        sup.run("entry", round_fn)
        sup.run("entry", round_fn)  # backing off: skipped
        assert calls == [0]
        sup.forget("entry")
        sup.run("entry", round_fn)
        assert calls == [0, 1]


class TestPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RestartPolicy(initial_backoff=0.1, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(initial_backoff=-1.0)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(reset_after=0.0)

    def test_backoff_skips_rounds_until_it_elapses(self):
        sup = TaskSupervisor(RestartPolicy(initial_backoff=0.02))
        round_fn, calls = flaky(1)
        sup.run("entry", round_fn)
        for _ in range(5):
            sup.run("entry", round_fn)  # inside the 20 ms backoff
        assert calls == [0]
        time.sleep(0.03)
        sup.run("entry", round_fn)
        assert calls == [0, 1]
        assert sup.snapshot() == {"crashes": 1, "restarts": 1, "give_ups": 0}

    def test_long_clean_stretch_resets_consecutive_counter(self):
        sup = TaskSupervisor(
            RestartPolicy(initial_backoff=0.0, max_restarts=1,
                          reset_after=0.0001)
        )

        def round_fn():
            raise RuntimeError("periodic")

        for _ in range(3):
            sup.run("entry", round_fn)
            time.sleep(0.01)  # survive past reset_after
        # Three crashes but never two *consecutive* ones: no give-up.
        assert sup.crashes == 3
        assert sup.give_ups == 0


def test_metrics_flow_to_instrumentation():
    obs = Instrumentation()
    sup = TaskSupervisor(RestartPolicy(initial_backoff=0.0, max_restarts=1),
                         instrumentation=obs)
    round_fn, _ = flaky(2)
    for _ in range(2):
        sup.run("entry", round_fn)
    assert obs.registry.get("health.task_crashes").value == 2
    assert obs.registry.get("health.task_restarts").value == 1
    assert obs.registry.get("health.task_give_ups").value == 1
