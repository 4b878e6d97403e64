"""Timed-region accounting, update-wave tracking and summary statistics.

The harness drives the program from one thread.  Every call into the
program goes through :meth:`Meter.timed` (or the ``start``/``stop``
pair around an ``await``); the **timed region** is the sum of those
``perf_counter_ns`` deltas.  Workload generation and convergence probes
run *between* timed calls and are accounted separately
(``generator_ns`` / ``verify_ns``), so they are outside every
end-to-end number.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

#: Percentiles the report may quote, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is quoted only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: A viewer this many waves behind has lost its oldest wave for good
#: (bounds the AH snapshots a stuck viewer keeps alive).
MAX_PENDING_WAVES = 64


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(count: int, ladder=PERCENTILE_LADDER):
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` when even the lowest rung has fewer than ten samples above
    it (the sample supports no percentile at all).
    """
    best = None
    for p in ladder:
        # In integer per-mille: 10 000 samples * (1 - 0.999) is exactly 10.
        if count * (1000 - round(p * 10)) >= MIN_SAMPLES_BEYOND * 1000:
            best = p
    return best


class Tracked:
    """One real participant whose update deliveries are sampled.

    A wave is **applied** at the viewer once its windows are pixel-equal
    to the AH's windows as they were right after that wave's mutation
    (or after a later one: the sender may coalesce).  The AH side is
    snapshotted per wave, so a viewer that is still one wave behind
    when the next is issued is credited as soon as it catches up with
    the first.  The pixel probe only runs when the viewer's applied
    counter moved, so idle rounds cost two integer reads.
    """

    __slots__ = ("participant", "manager", "pending", "seen")

    def __init__(self, participant, manager) -> None:
        self.participant = participant
        #: The AH window manager this viewer must converge with.
        self.manager = manager
        #: Waves not yet seen applied: (due, timed_ns at issue, snapshot).
        self.pending: list[tuple[float, int, dict]] = []
        self.seen = 0

    @property
    def name(self) -> str:
        return self.participant.id

    def progress(self) -> int:
        viewer = self.participant
        return viewer.updates_applied + viewer.moves_applied

    def converged(self) -> bool:
        """Pixel-equal to the AH's *current* state."""
        return self.participant.converged_with(self.manager)

    def snapshot(self) -> dict:
        """Copies of the AH's window surfaces, by window id."""
        return {
            window.window_id: window.surface.array.copy()
            for window in self.manager
        }

    def shows(self, snapshot: dict) -> bool:
        local = self.participant.windows
        return local.keys() == snapshot.keys() and all(
            np.array_equal(local[wid].surface.array, pixels)
            for wid, pixels in snapshot.items()
        )

    def waves_shown(self) -> int:
        """How many pending waves the viewer has caught up with: up to
        and including the newest one whose pixels it shows."""
        for count in range(len(self.pending), 0, -1):
            if self.shows(self.pending[count - 1][2]):
                return count
        return 0


class Meter:
    """Stopwatch for the timed region plus the update-sample ledger."""

    def __init__(self, now, tracked, recorder=None) -> None:
        self._now = now
        self.tracked: list[Tracked] = tracked
        #: Span recorder of a traced pass; spans are recorded only while
        #: a timed call is on the stack.
        self.recorder = recorder
        self.timed_ns = 0
        self.generator_ns = 0
        self.verify_ns = 0
        self.round_ns: list[int] = []
        self._round_start = 0
        self.waves = 0
        self.host_ns: list[int] = []
        self.virtual_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- The timed region --------------------------------------------------

    def start(self) -> int:
        if self.recorder is not None:
            self.recorder.active = True
        return perf_counter_ns()

    def stop(self, t0: int) -> None:
        self.timed_ns += perf_counter_ns() - t0
        if self.recorder is not None:
            self.recorder.active = False

    def timed(self, fn, *args):
        """Call into the program; its wall time joins the timed region."""
        t0 = self.start()
        try:
            return fn(*args)
        finally:
            self.stop(t0)

    def end_round(self) -> None:
        self.round_ns.append(self.timed_ns - self._round_start)
        self._round_start = self.timed_ns

    # -- Outside the timed region -------------------------------------------

    def generate(self, fn, *args):
        """Run a workload mutation (glyph/photo rendering): untimed."""
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.generator_ns += perf_counter_ns() - t0

    def verify(self, probe):
        """Run a convergence or end-of-run probe: untimed."""
        t0 = perf_counter_ns()
        try:
            return probe()
        finally:
            self.verify_ns += perf_counter_ns() - t0

    # -- Update waves --------------------------------------------------------

    def begin_wave(self, dues: list[float]) -> None:
        """Register one mutation wave; ``dues[i]`` is the virtual time
        at which tracked viewer ``i``'s user acted.

        Call right after the mutation.  Latency runs from the due time
        (open loop: the user acted whether or not the host kept up),
        host time from the timed-region total at this instant, i.e.
        from the wave's first timed call.
        """
        self.waves += 1
        snapshots: dict[int, dict] = {}
        for viewer, due in zip(self.tracked, dues, strict=True):
            key = id(viewer.manager)
            if key not in snapshots:
                snapshots[key] = self.verify(viewer.snapshot)
            if not viewer.pending:
                viewer.seen = viewer.progress()
            elif len(viewer.pending) >= MAX_PENDING_WAVES:
                viewer.pending.pop(0)
                self._fail(f"{viewer.name}: update never applied")
            viewer.pending.append((due, self.timed_ns, snapshots[key]))
            self.attempted += 1

    def check(self, viewer: Tracked) -> None:
        """After a timed call that may have delivered to ``viewer``."""
        if not viewer.pending:
            return
        progress = viewer.progress()
        if progress == viewer.seen:
            return
        viewer.seen = progress
        applied = self.verify(viewer.waves_shown)
        now = self._now()
        for due, issued_ns, _snapshot in viewer.pending[:applied]:
            self.host_ns.append(self.timed_ns - issued_ns)
            self.virtual_s.append(now - due)
        del viewer.pending[:applied]

    # -- End of run ----------------------------------------------------------

    def final_check(self, what: str, probe) -> None:
        """One end-of-run attempt (convergence, gaps, leaks)."""
        self.attempted += 1
        if not self.verify(probe):
            self._fail(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def close_waves(self) -> None:
        """A wave never seen applied is a failure and has no latency."""
        for viewer in self.tracked:
            for _wave in viewer.pending:
                self._fail(f"{viewer.name}: update never applied")
            viewer.pending.clear()
