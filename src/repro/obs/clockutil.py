"""Clock normalisation: one time-injection convention for the stack.

Historically the components disagreed — ``ApplicationHost(now=...)``
took a callable, ``SharingService(clock=...)`` took a
:class:`~repro.rtp.clock.SimulatedClock`, ``Participant`` required a
positional ``now``.  Everything now accepts a ``clock`` that may be

* a Clock-like object exposing ``now() -> float`` (e.g.
  :class:`~repro.rtp.clock.SimulatedClock`), or
* a bare ``() -> float`` callable (e.g. ``time.monotonic``).
"""

from __future__ import annotations

from typing import Callable

Now = Callable[[], float]


def as_now(clock, default: Now | None = None) -> Now:
    """Normalise a Clock-like or callable into a ``now()`` callable."""
    if clock is None:
        if default is None:
            raise TypeError("a clock is required here")
        return default
    now = getattr(clock, "now", None)
    if callable(now):
        return now
    if callable(clock):
        return clock
    raise TypeError(
        "expected a Clock-like (with .now()) or a () -> float callable, "
        f"got {type(clock).__name__}"
    )
