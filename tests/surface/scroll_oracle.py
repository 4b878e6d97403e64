"""The scroll detector as it stood before the packed-pixel rewrite.

A test-only oracle, like the scalar PNG reference: ``detect``,
``_match_fraction``, ``_build_op`` and ``mismatch_region`` are the
parent commit's code verbatim (a byte compare per channel, ``mean()``
as the score, one whole pass per candidate, a Python loop over tiles);
``mismatch_region`` is a function here, its first argument still named
``self``.  ``test_scroll_exact.py`` holds the production detector to
the same ``ScrollOp`` and the same mismatch ``Region`` on every input.
"""

from __future__ import annotations

import numpy as np

from repro.surface.framebuffer import Framebuffer
from repro.surface.geometry import Rect
from repro.surface.scroll import ScrollDetector, ScrollOp


def mismatch_region(self, before, after, tile: int = 16):
    """Pixels in the moved area the copy does NOT explain.

    Detection tolerates a small mismatch fraction (a cursor, a
    highlight).  Those pixels would go stale if only the
    MoveRectangle were sent, so the caller must repaint them.
    Returned as a tile-granular :class:`~repro.surface.region.Region`
    in the same coordinates as ``area``.
    """
    from repro.surface.region import Region

    dest = self.destination
    curr = after.array[dest.top : dest.bottom, dest.left : dest.right]
    prev = before.array[
        self.source.top : self.source.bottom,
        self.source.left : self.source.right,
    ]
    diff = np.any(curr != prev, axis=2)
    if not diff.any():
        return Region()
    tiles = []
    for tile_rect in Rect(0, 0, dest.width, dest.height).tiles(tile):
        block = diff[
            tile_rect.top : tile_rect.bottom,
            tile_rect.left : tile_rect.right,
        ]
        if block.any():
            tiles.append(tile_rect.translated(dest.left, dest.top))
    return Region(tiles)


class OracleScrollDetector(ScrollDetector):
    """Same constructor, the parent's search."""

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
        prev = before.array[clip.top : clip.bottom, clip.left : clip.right]
        curr = after.array[clip.top : clip.bottom, clip.left : clip.right]
        if np.array_equal(prev, curr):
            return None

        best: ScrollOp | None = None
        best_score = self.min_match_fraction
        for offset in self.candidate_offsets:
            if offset >= clip.height:
                break
            for dy in (-offset, offset):
                score = self._match_fraction(prev, curr, dy)
                if score >= best_score:
                    best_score = score
                    best = self._build_op(clip, dy)
        return best

    @staticmethod
    def _match_fraction(prev: np.ndarray, curr: np.ndarray, dy: int) -> float:
        """Fraction of overlapping pixels where curr == prev shifted by dy."""
        h = prev.shape[0]
        if dy > 0:  # content moved down: curr[dy:] should equal prev[:-dy]
            a = curr[dy:]
            b = prev[: h - dy]
        else:  # content moved up
            a = curr[: h + dy]
            b = prev[-dy:]
        if a.size == 0:
            return 0.0
        pixel_match = np.all(a == b, axis=2)
        return float(pixel_match.mean())

    @staticmethod
    def _build_op(clip: Rect, dy: int) -> ScrollOp:
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
            area=clip, dy=dy, source=source, dest_top=dest_top, exposed=exposed
        )
