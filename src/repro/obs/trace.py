"""Session event traces for experiment post-processing.

A :class:`SessionTrace` is an append-only log of timestamped events
("update-sent", "update-applied", "nack", ...) that benchmarks and
examples use to reconstruct timelines — e.g. pairing each applied
update with its capture time to plot freshness over a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped event with free-form attributes."""

    time: float
    kind: str
    attrs: dict[str, Any] = field(default_factory=dict)


class SessionTrace:
    """An append-only, queryable event log for one experiment run."""

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._events: list[TraceEvent] = []

    def record(self, kind: str, **attrs: Any) -> TraceEvent:
        event = TraceEvent(self._now(), kind, attrs)
        self._events.append(event)
        return event

    # -- Queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def between(self, start: float, end: float) -> list[TraceEvent]:
        """Events with ``start <= time < end`` (append order preserved)."""
        return [e for e in self._events if start <= e.time < end]

    def first(self, kind: str) -> TraceEvent | None:
        for event in self._events:
            if event.kind == kind:
                return event
        return None

    def last(self, kind: str) -> TraceEvent | None:
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    def span(self, start_kind: str, end_kind: str) -> float | None:
        """Seconds from the first ``start_kind`` to the last ``end_kind``."""
        start = self.first(start_kind)
        end = self.last(end_kind)
        if start is None or end is None:
            return None
        return end.time - start.time

    def rate_per_second(self, kind: str, window: float | None = None) -> float:
        """Occurrences of ``kind`` per second of observation window.

        The window defaults to the whole-trace span (first to last event
        of *any* kind), so a burst of events recorded at one instant
        inside a longer trace is still rated against the time actually
        observed — the old first-to-last-of-kind span undercounted such
        bursts (a single event always rated 0).  Defined edge cases:

        * no matching events → 0.0;
        * zero-length window (empty trace, a single event, or every
          event at one timestamp) → 0.0 unless an explicit positive
          ``window`` is passed, since no rate is derivable from an
          instant.
        """
        count = sum(1 for e in self._events if e.kind == kind)
        if count == 0:
            return 0.0
        if window is None:
            window = self._events[-1].time - self._events[0].time
        if window <= 0:
            return 0.0
        return count / window

    def to_rows(self) -> list[dict[str, Any]]:
        """Flat dict rows (time, kind, **attrs) for tabular export."""
        return [
            {"time": e.time, "kind": e.kind, **e.attrs} for e in self._events
        ]
