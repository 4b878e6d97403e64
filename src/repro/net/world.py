"""The one stepping loop: an ordered list of entries on one clock.

Every driver in the stack — the sync :class:`~repro.sharing.service.
SharingService`, the :class:`~repro.sharing.server.SessionServer`, the
traced report scenarios, the demo, the benchmarks and the tests —
steps the system the same way: fire the scripted callbacks that are
due, then call each registered entry once, in registration order.

An entry is any ``entry(dt) -> None`` callable.  The clock tick is one
entry like the others (:meth:`World.tick`), so *where* time moves in a
round is decided by where it was registered, and :meth:`World.tick` is
the only place in the package that advances a simulated clock::

    world = World(clock, dt=0.02)
    world.add(ah.advance, world.tick, receive([participant]))
    world.at(2.0, relay.crash)
    world.run_until(lambda: participant.converged_with(ah.windows))

A per-round driver is an entry that reads :attr:`World.rounds` (the
index of the round in progress).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable

Entry = Callable[[float], None]


class World:
    """An ordered list of step entries sharing one clock."""

    def __init__(self, clock, dt: float = 0.02) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not callable(getattr(clock, "now", None)):
            raise TypeError("World needs a clock with now()")
        self.clock = clock
        self.dt = dt
        self.entries: list[Entry] = []
        #: Completed steps; during a step, the index of the one running.
        self.rounds = 0
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._order = itertools.count()

    def add(self, *entries: Entry) -> None:
        """Append ``entries``; each step calls them in this order."""
        self.entries.extend(entries)

    def tick(self, dt: float) -> None:
        """The clock entry: advance simulated time by ``dt``."""
        self.clock.advance(dt)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once, at the first step where clock >= time.

        Due callbacks fire at the start of a step, before any entry,
        ordered by ``(time, registration order)``; a time already in
        the past fires on the next step.  This is the whole scripting
        vocabulary: ``world.at(t, relay.crash)``, ``world.at(t,
        link.partition)`` then ``world.at(t + 2, link.heal)``, or
        ``world.at(t, lambda: channel.set_faults(burst))``.
        """
        heapq.heappush(self._timers, (time, next(self._order), callback))

    def step(self, dt: float | None = None) -> None:
        """Fire the due callbacks, then call every entry once."""
        dt = self.dt if dt is None else dt
        now = self.clock.now()
        timers = self._timers
        while timers and timers[0][0] <= now:
            heapq.heappop(timers)[2]()
        for entry in self.entries:
            entry(dt)
        self.rounds += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until(self, predicate: Callable[[], bool],
                  timeout: float = 30.0) -> bool:
        """Step until ``predicate()`` holds; False when time runs out.

        ``timeout`` is clock time.  The predicate is checked before
        every step and once more at the deadline, so one that becomes
        true on the very last step is still seen.
        """
        deadline = self.clock.now() + timeout
        while True:
            if predicate():
                return True
            if self.clock.now() >= deadline:
                return False
            self.step()


def receive(participants: Iterable) -> Entry:
    """An entry that lets each participant drain its transport.

    ``participants`` is read on every step, so a list the caller keeps
    appending to (a late joiner) is picked up from the next round.
    """
    def entry(_dt: float) -> None:
        for participant in participants:
            participant.process_incoming()
    return entry
