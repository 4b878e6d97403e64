"""Scroll detection: turn vertical content shifts into copy operations.

Section 5.2.3 motivates MoveRectangle: "instructs the participant to
move a region from one place to another, which is efficient for some
drawing operations like scrolls."  An AH capturing raw pixels has to
*infer* that a scroll happened.  :class:`ScrollDetector` checks a small
set of candidate vertical offsets against the previous frame: if a large
rectangle matches the prior frame shifted by ``dy``, the AH can emit one
MoveRectangle plus a RegionUpdate for the newly exposed band instead of
re-encoding the full area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .damage import changed_tiles
from .framebuffer import Framebuffer
from .geometry import Rect
from .region import Region

#: Each candidate is scored in this many interleaved passes (rows
#: ``p::ROW_PHASES``).  Mismatches counted so far are a lower bound on
#: the total, so a candidate is dropped, exactly, the moment it cannot
#: reach the best score: a wrong offset after the first pass (a sample
#: spread over the whole area), a near-miss after a few, and only a
#: winner is compared in full.
ROW_PHASES = 8


@dataclass(frozen=True, slots=True)
class ScrollOp:
    """A detected scroll inside ``area``: contents moved by ``dy`` pixels.

    ``source`` is the rectangle (in the pre-scroll frame) that can be
    copied; ``dest_top`` is where its top edge lands; ``exposed`` is the
    band that holds new content and still needs a RegionUpdate.
    """

    area: Rect
    dy: int
    source: Rect
    dest_top: int
    exposed: Rect
    #: Detection found the copy explains every pixel of the moved area.
    exact: bool = field(default=False, compare=False)

    @property
    def destination(self) -> Rect:
        return Rect(self.source.left, self.dest_top,
                    self.source.width, self.source.height)

    def mismatch_region(
        self, before: Framebuffer, after: Framebuffer, tile: int = 16
    ) -> Region:
        """Pixels in the moved area the copy does NOT explain.

        Detection tolerates a small mismatch fraction (a cursor, a
        highlight).  Those pixels would go stale if only the
        MoveRectangle were sent, so the caller must repaint them.
        Returned as a tile-granular :class:`~repro.surface.region.Region`
        in the same coordinates as ``area``; ``before`` and ``after``
        are the frames the op was detected on.
        """
        if self.exact:
            return Region.empty()
        dest = self.destination
        diff = after.packed(dest) != before.packed(self.source)
        return Region(
            r.translated(dest.left, dest.top) for r in changed_tiles(diff, tile)
        )


class ScrollDetector:
    """Detects pure vertical scrolls within a fixed surface area."""

    def __init__(
        self,
        candidate_offsets: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64),
        min_match_fraction: float = 0.995,
        min_area_rows: int = 16,
    ) -> None:
        if not candidate_offsets:
            raise ValueError("need at least one candidate offset")
        if not 0.0 < min_match_fraction <= 1.0:
            raise ValueError("min_match_fraction must be in (0, 1]")
        #: Offsets tried in both directions, in order.
        self.candidate_offsets = tuple(sorted(set(abs(o) for o in candidate_offsets)))
        self.min_match_fraction = min_match_fraction
        self.min_area_rows = min_area_rows
        #: Pixel comparisons made so far, over every call to ``detect``.
        self.pixels_compared = 0

    def detect(
        self, before: Framebuffer, after: Framebuffer, area: Rect
    ) -> ScrollOp | None:
        """Find a vertical scroll of ``area`` between two frames.

        Returns ``None`` when no candidate offset explains (at least
        ``min_match_fraction`` of) the change, in which case the caller
        falls back to plain RegionUpdate encoding.
        """
        clip = area.intersection(before.bounds).intersection(after.bounds)
        if clip.is_empty() or clip.height < self.min_area_rows:
            return None
        prev = before.packed(clip)
        curr = after.packed(clip)
        self.pixels_compared += clip.area
        if np.array_equal(prev, curr):
            return None

        h = clip.height
        best: ScrollOp | None = None
        best_score = self.min_match_fraction
        for offset in self.candidate_offsets:
            if offset >= h:
                break
            for dy in (-offset, offset):
                # dy > 0 moved content down: curr[dy:] should equal
                # prev[:-dy]; dy < 0 moved it up.
                lo, hi = max(dy, 0), h + min(dy, 0)
                score = self._match_fraction(
                    curr[lo:hi], prev[lo - dy : hi - dy], best_score
                )
                if score >= best_score:
                    best_score = score
                    best = self._build_op(clip, dy, exact=score == 1.0)
        return best

    def _match_fraction(
        self, a: np.ndarray, b: np.ndarray, floor: float
    ) -> float:
        """Fraction of pixels where ``a == b``, or some value below
        ``floor`` as soon as the fraction is known to be below it."""
        n = a.size
        mismatches = 0
        for phase in range(ROW_PHASES):
            rows = a[phase::ROW_PHASES]
            mismatches += np.count_nonzero(rows != b[phase::ROW_PHASES])
            self.pixels_compared += rows.size
            score = (n - mismatches) / n
            if score < floor:
                break
        return score

    @staticmethod
    def _build_op(clip: Rect, dy: int, exact: bool) -> ScrollOp:
        h = clip.height
        if dy > 0:  # moved down: copy top part down, new content at top
            source = Rect(clip.left, clip.top, clip.width, h - dy)
            dest_top = clip.top + dy
            exposed = Rect(clip.left, clip.top, clip.width, dy)
        else:  # moved up: copy lower part up, new content at bottom
            source = Rect(clip.left, clip.top - dy, clip.width, h + dy)
            dest_top = clip.top
            exposed = Rect(clip.left, clip.bottom + dy, clip.width, -dy)
        return ScrollOp(
            area=clip, dy=dy, source=source, dest_top=dest_top,
            exposed=exposed, exact=exact,
        )
