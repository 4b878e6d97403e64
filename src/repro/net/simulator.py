"""Session simulation driver.

Tests, examples and benchmarks all advance the same loop: tick the AH,
advance the clock, service the participants.  :class:`Simulation`
centralises that with convergence-aware stepping, so experiment code
reads as *what* it drives rather than *how* the loop works.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.clock import SimulatedClock


class Simulation:
    """Drives one AH and its participants on a shared simulated clock."""

    def __init__(
        self,
        ah,
        clock: SimulatedClock = None,
        dt: float = 0.02,
        instrumentation=None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if clock is None or not callable(getattr(clock, "advance", None)):
            raise TypeError(
                "Simulation needs a clock with now() and advance()"
            )
        as_now(clock)  # validates now()
        self.ah = ah
        self.clock = clock
        self.dt = dt
        #: Where snapshots come from; defaults to the AH's own object so
        #: one injection at AH construction covers the whole harness.
        self.obs = (
            instrumentation if instrumentation is not None
            else getattr(ah, "obs", NULL)
        )
        self.participants: list = []
        #: Callables invoked with the round index before each step.
        self.drivers: list[Callable[[int], None]] = []
        self.rounds_run = 0
        #: (time, snapshot) pairs collected by :meth:`sample_every`.
        self.samples: list[tuple[float, dict]] = []
        self._sample_interval: float | None = None
        self._sampler: Callable[[], dict] | None = None
        self._next_sample = 0.0
        #: Scripted one-shot events: (time, order, callback) heap.
        self._scripted: list[tuple[float, int, Callable[[], None]]] = []
        self._scripted_counter = 0

    def add_participant(self, participant) -> None:
        self.participants.append(participant)

    def add_driver(self, driver: Callable[[int], None]) -> None:
        self.drivers.append(driver)

    # -- Observability ----------------------------------------------------

    def snapshot(self, events: bool = False) -> dict:
        """The session's metrics snapshot plus simulation progress."""
        snap = self.obs.snapshot(events=events)
        snap["simulation"] = {
            "time": self.clock.now(),
            "rounds": self.rounds_run,
            "dt": self.dt,
        }
        return snap

    def sample_every(
        self,
        interval: float,
        sampler: Callable[[], dict] | None = None,
    ) -> None:
        """Collect periodic snapshots into :attr:`samples`.

        Every ``interval`` simulated seconds, ``sampler()`` (default
        :meth:`snapshot`) is appended as ``(time, sample)``.  Call again
        to change cadence; the next sample is rescheduled from now.
        """
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self._sample_interval = interval
        self._sampler = sampler
        self._next_sample = self.clock.now() + interval

    # -- Fault scripting ---------------------------------------------------

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once, at the first step where clock >= time.

        The hook for scripted fault schedules: flip a channel's
        :class:`~repro.net.channel.FaultProfile` on, clear it, change
        an app's behaviour — all deterministically placed on the
        simulated timeline.

            sim.at(2.0, lambda: link.forward.set_faults(burst))
            sim.at(6.0, lambda: link.forward.set_faults(None))
        """
        heapq.heappush(
            self._scripted, (time, self._scripted_counter, callback)
        )
        self._scripted_counter += 1

    # -- Chaos scripting ---------------------------------------------------
    #
    # Deterministic failure events on the simulated timeline.  Targets
    # are duck-typed: anything with ``crash()`` can be crashed, and
    # anything with ``partition()``/``stall()``/``heal()`` — a
    # :class:`~repro.net.channel.LossyChannel`, a
    # :class:`~repro.net.channel.DuplexChannel`, or a relay tree link —
    # can be cut, frozen and healed.  Combined with
    # :meth:`~repro.net.channel.LossyChannel.set_faults` schedules this
    # is the whole chaos vocabulary ``bench_chaos.py`` uses.

    def crash_at(self, time: float, node) -> None:
        """Kill ``node`` (anything with ``crash()``) at ``time``."""
        self.at(time, node.crash)

    def partition_at(self, time: float, target,
                     duration: float | None = None) -> None:
        """Cut ``target`` at ``time``; auto-heal after ``duration``."""
        self.at(time, target.partition)
        if duration is not None:
            self.at(time + duration, target.heal)

    def stall_at(self, time: float, target,
                 duration: float | None = None) -> None:
        """Freeze ``target``'s delivery at ``time``; optionally heal."""
        self.at(time, target.stall)
        if duration is not None:
            self.at(time + duration, target.heal)

    def heal_at(self, time: float, target) -> None:
        """Clear ``target``'s partition/stall at ``time``."""
        self.at(time, target.heal)

    # -- Stepping ---------------------------------------------------------

    def step(self) -> None:
        now = self.clock.now()
        while self._scripted and self._scripted[0][0] <= now:
            heapq.heappop(self._scripted)[2]()
        for driver in self.drivers:
            driver(self.rounds_run)
        self.ah.advance(self.dt)
        self.clock.advance(self.dt)
        for participant in self.participants:
            participant.process_incoming()
        self.rounds_run += 1
        if self._sample_interval is not None:
            now = self.clock.now()
            if now >= self._next_sample:
                sampler = self._sampler or self.snapshot
                self.samples.append((now, sampler()))
                while self._next_sample <= now:
                    self._next_sample += self._sample_interval

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    def run_seconds(self, seconds: float) -> None:
        self.run(max(1, round(seconds / self.dt)))

    def run_until(
        self,
        condition: Callable[[], bool],
        timeout: float = 30.0,
    ) -> bool:
        """Step until ``condition()`` holds; False when time runs out.

        The condition is evaluated once per round, including one final
        time at the deadline, so a condition that becomes true on the
        very last step is still observed.
        """
        deadline = self.clock.now() + timeout
        while True:
            if condition():
                return True
            if self.clock.now() >= deadline:
                return False
            self.step()

    def run_until_converged(self, timeout: float = 30.0,
                            screen_only: bool = False) -> bool:
        """Step until every participant matches the AH."""
        def all_converged() -> bool:
            for participant in self.participants:
                if screen_only:
                    if not participant.screen_converged_with(self.ah.windows):
                        return False
                elif not participant.converged_with(self.ah.windows):
                    return False
            return bool(self.participants)

        return self.run_until(all_converged, timeout=timeout)
