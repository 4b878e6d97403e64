"""Tile-based change detection between framebuffer generations.

The draft observes (section 2) that screen content "is characterized by
large areas of the screen that remain unchanged for long periods of
time, while others change rapidly."  A capture layer that cannot get
damage events from applications must *discover* the changed pixels by
diffing successive captures.  :class:`TileDiffer` does this with a fixed
grid: each tile is compared wholesale (a vectorised numpy comparison)
and changed tiles are merged into a compact :class:`Region`.

Tile size trades detection granularity against comparison overhead; the
ablation benchmark ``bench_damage.py`` sweeps it.
"""

from __future__ import annotations

import numpy as np

from .framebuffer import Framebuffer
from .geometry import Rect
from .region import Region

DEFAULT_TILE = 32


class TileDiffer:
    """Detects changed regions between consecutive frames of one surface."""

    def __init__(self, width: int, height: int, tile: int = DEFAULT_TILE):
        if tile <= 0:
            raise ValueError("tile size must be positive")
        if width <= 0 or height <= 0:
            raise ValueError("surface must be non-empty")
        self.tile = tile
        self.bounds = Rect(0, 0, width, height)
        self._previous: Framebuffer | None = None

    def reset(self) -> None:
        """Forget the reference frame; next diff reports full damage."""
        self._previous = None

    def diff(self, frame: Framebuffer) -> Region:
        """Damage of ``frame`` relative to the previously seen frame.

        The first call (or the first after :meth:`reset`) reports the
        whole surface as damaged — exactly the "full screen update"
        semantics of a PLI response.

        All tiles are compared in one whole-array pass; the
        reference snapshot is refreshed by copying only the changed
        tiles — an unchanged frame costs one comparison and zero copies.
        """
        if frame.width != self.bounds.width or frame.height != self.bounds.height:
            raise ValueError(
                f"frame size {frame.width}x{frame.height} does not match "
                f"differ size {self.bounds.width}x{self.bounds.height}"
            )
        if self._previous is None:
            self._previous = frame.copy()
            return Region.from_rect(self.bounds)

        prev = self._previous.array
        current = frame.array
        neq = frame.packed(self.bounds) != self._previous.packed(self.bounds)
        if not neq.any():
            return Region.empty()
        changed = changed_tiles(neq, self.tile)
        if sum(r.area for r in changed) == self.bounds.area:  # every tile
            np.copyto(prev, current)
            return Region.from_rect(self.bounds)
        for rect in changed:
            prev[rect.top : rect.bottom, rect.left : rect.right] = current[
                rect.top : rect.bottom, rect.left : rect.right
            ]
        return Region(changed)


def changed_tiles(mask: np.ndarray, tile: int) -> list[Rect]:
    """Cells of the ``tile`` grid over a 2-D bool ``mask`` with a set pixel.

    Row-major, in mask coordinates, edge cells clipped to the mask.
    """
    height, width = mask.shape
    tiles_y = -(-height // tile)
    tiles_x = -(-width // tile)
    if height % tile or width % tile:
        padded = np.zeros((tiles_y * tile, tiles_x * tile), dtype=bool)
        padded[:height, :width] = mask
        mask = padded
    hits = mask.reshape(tiles_y, tile, tiles_x, tile).any(axis=(1, 3))
    return [
        Rect(tx * tile, ty * tile,
             min(tile, width - tx * tile), min(tile, height - ty * tile))
        for ty, tx in np.argwhere(hits).tolist()
    ]


def shrink_to_changed_rows(
    before: Framebuffer, after: Framebuffer, rect: Rect
) -> Rect:
    """Tighten ``rect`` to the minimal row span that actually changed.

    Applied after tile detection to avoid re-encoding identical rows at
    the top/bottom of a changed tile.  Returns the empty rect when the
    area is identical.
    """
    clip = rect.intersection(before.bounds).intersection(after.bounds)
    if clip.is_empty():
        return Rect(0, 0, 0, 0)
    row_changed = (before.packed(clip) != after.packed(clip)).any(axis=1)
    indices = np.flatnonzero(row_changed)
    if indices.size == 0:
        return Rect(0, 0, 0, 0)
    first = int(indices[0])
    last = int(indices[-1])
    return Rect(clip.left, clip.top + first, clip.width, last - first + 1)
