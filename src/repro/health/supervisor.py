"""Crash-restart supervision for the server's per-entry rounds.

The :class:`~repro.sharing.server.SessionServer` loop calls every
hosted entry's ``round()`` once per step; without this module an
uncaught exception in one round would take the whole server loop down
(or, swallowed, wedge the entry with nothing recorded).

:class:`TaskSupervisor` is the per-entry strike counter the loop
consults: :meth:`TaskSupervisor.run` calls one round, a raise is
counted and logged (``health.task_crashes``), the entry then skips
rounds until an exponential wall-clock backoff elapses and runs again
(``health.task_restarts``), and after ``max_restarts`` consecutive
crashes the supervisor gives up (``health.task_give_ups``) and invokes
the owner's ``on_give_up`` callback; for a hosted session, closing it
with ``reason="supervisor_give_up"`` so its participants are shed
cleanly instead of hanging forever.

``CancelledError`` and ``KeyboardInterrupt`` are *not* crashes: both
pass through uncounted, so teardown behaves as if the supervisor were
not there.  A clean stretch of ``reset_after`` seconds after a restart
clears the strikes, so an entry that crashes once a day never reaches
give-up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..obs.instrumentation import NULL


@dataclass(frozen=True, slots=True)
class RestartPolicy:
    """Backoff schedule for one supervised entry."""

    #: Wall-clock pause before the first restart.
    initial_backoff: float = 0.01
    #: Multiplier per consecutive crash.
    backoff_factor: float = 2.0
    #: Consecutive crashes tolerated before giving up.
    max_restarts: int = 3
    #: A restarted entry surviving this long (wall seconds) resets the
    #: consecutive-crash counter.
    reset_after: float = 5.0

    def __post_init__(self) -> None:
        if self.initial_backoff < 0:
            raise ValueError("initial_backoff cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts cannot be negative")
        if self.reset_after <= 0:
            raise ValueError("reset_after must be positive")

    def backoff(self, consecutive_crashes: int) -> float:
        """Pause before restart number ``consecutive_crashes``."""
        return self.initial_backoff * (
            self.backoff_factor ** max(0, consecutive_crashes - 1)
        )


class TaskSupervisor:
    """Runs rounds with crash-restart semantics, one strike count per name."""

    def __init__(
        self,
        policy: RestartPolicy | None = None,
        instrumentation=None,
    ) -> None:
        self.policy = policy or RestartPolicy()
        self.crashes = 0
        self.restarts = 0
        self.give_ups = 0
        #: name -> (consecutive crashes, wall time its backoff ends);
        #: only entries that crashed and have not been clean for
        #: ``reset_after`` since are here.
        self._strikes: dict[str, tuple[int, float]] = {}
        obs = instrumentation if instrumentation is not None else NULL
        self._obs = obs
        self._c_crashes = obs.counter("health.task_crashes")
        self._c_restarts = obs.counter("health.task_restarts")
        self._c_give_ups = obs.counter("health.task_give_ups")

    def run(
        self,
        name: str,
        round_fn: Callable[[], None],
        on_give_up: Callable[[BaseException], None] | None = None,
    ) -> None:
        """Call ``round_fn()`` once, unless ``name`` is backing off.

        ``on_give_up`` fires once, with the final exception, when the
        restart budget is exhausted; the strikes are forgotten then, as
        they are by :meth:`forget` when the owner closes for any other
        reason.
        """
        consecutive, resume_at = self._strikes.get(name, (0, 0.0))
        if consecutive:
            clean_for = time.monotonic() - resume_at
            if clean_for < 0:
                return  # backing off: skip this round
            if clean_for >= self.policy.reset_after:
                del self._strikes[name]
                consecutive = 0
        try:
            round_fn()
        except Exception as exc:
            consecutive += 1
            self.crashes += 1
            self._c_crashes.inc()
            if self._obs.enabled:
                self._obs.event(
                    "health.task_crashed", task=name,
                    error=type(exc).__name__,
                    consecutive=consecutive,
                )
            if consecutive > self.policy.max_restarts:
                self.give_ups += 1
                self._c_give_ups.inc()
                if self._obs.enabled:
                    self._obs.event(
                        "health.task_gave_up", task=name,
                        error=type(exc).__name__,
                        crashes=consecutive,
                    )
                self.forget(name)
                if on_give_up is not None:
                    on_give_up(exc)
                return
            self.restarts += 1
            self._c_restarts.inc()
            self._strikes[name] = (
                consecutive,
                time.monotonic() + self.policy.backoff(consecutive),
            )

    def forget(self, name: str) -> None:
        """Drop ``name``'s strikes (its owner closed)."""
        self._strikes.pop(name, None)

    def snapshot(self) -> dict:
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "give_ups": self.give_ups,
        }
