"""RGBA pixel buffers backed by numpy arrays.

A :class:`Framebuffer` is the pixel store for windows, the composited
screen at the AH, and the reconstructed canvases at participants.  All
pixel data is ``uint8`` RGBA in row-major ``(height, width, 4)`` layout.
"""

from __future__ import annotations

import numpy as np

from .geometry import Rect

#: Number of channels (RGBA).
CHANNELS = 4

Color = tuple[int, int, int, int]

#: Opaque black, the draft-mandated blanking colour for non-shared areas.
BLACK: Color = (0, 0, 0, 255)
WHITE: Color = (255, 255, 255, 255)
TRANSPARENT: Color = (0, 0, 0, 0)


class Framebuffer:
    """A mutable RGBA pixel rectangle with copy/fill/blit primitives."""

    __slots__ = ("_pixels",)

    def __init__(self, width: int, height: int, fill: Color = BLACK) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"framebuffer must be non-empty: {width}x{height}")
        self._pixels = np.empty((height, width, CHANNELS), dtype=np.uint8)
        self._pixels[:, :] = fill

    # -- Constructors -------------------------------------------------

    @classmethod
    def from_array(cls, pixels: np.ndarray) -> "Framebuffer":
        """Wrap an existing ``(h, w, 4) uint8`` array (copied)."""
        if pixels.ndim != 3 or pixels.shape[2] != CHANNELS:
            raise ValueError(f"expected (h, w, 4) array, got {pixels.shape}")
        if pixels.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {pixels.dtype}")
        fb = cls.__new__(cls)
        fb._pixels = np.array(pixels, dtype=np.uint8, order="C")
        return fb

    def copy(self) -> "Framebuffer":
        return Framebuffer.from_array(self._pixels)

    # -- Introspection ------------------------------------------------

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    @property
    def array(self) -> np.ndarray:
        """The underlying array (mutable view — callers share pixels)."""
        return self._pixels

    def packed(self, rect: Rect) -> np.ndarray:
        """``(h, w)`` ``uint32`` view of ``rect`` (inside the bounds).

        One RGBA pixel per lane: a single 32-bit compare per pixel
        beats a byte compare + channel reduction by ~60x.  Legal for
        any rect because the backing array is always C-contiguous.
        """
        return self._pixels.view(np.uint32)[
            rect.top : rect.bottom, rect.left : rect.right, 0
        ]

    def get_pixel(self, x: int, y: int) -> Color:
        r, g, b, a = self._pixels[y, x]
        return (int(r), int(g), int(b), int(a))

    # -- Mutation -----------------------------------------------------

    def fill(self, color: Color, rect: Rect | None = None) -> None:
        """Fill ``rect`` (or the whole buffer) with a solid colour."""
        target = self.bounds if rect is None else rect.intersection(self.bounds)
        if target.is_empty():
            return
        self._pixels[target.top : target.bottom, target.left : target.right] = color

    def put_pixel(self, x: int, y: int, color: Color) -> None:
        if 0 <= x < self.width and 0 <= y < self.height:
            self._pixels[y, x] = color

    def read_rect(self, rect: Rect) -> np.ndarray:
        """Copy out the pixels of ``rect`` (clipped to the buffer)."""
        clip = rect.intersection(self.bounds)
        if clip.is_empty():
            return np.zeros((0, 0, CHANNELS), dtype=np.uint8)
        return np.array(
            self._pixels[clip.top : clip.bottom, clip.left : clip.right],
            copy=True,
        )

    def write_rect(self, left: int, top: int, pixels: np.ndarray) -> Rect:
        """Blit ``pixels`` with its top-left at ``(left, top)``.

        Pixels falling outside the buffer are clipped.  Returns the
        rectangle actually written (empty rect when fully clipped).
        """
        if pixels.ndim != 3 or pixels.shape[2] != CHANNELS:
            raise ValueError(f"expected (h, w, 4) pixels, got {pixels.shape}")
        h, w = pixels.shape[:2]
        if h == 0 or w == 0:
            return Rect(0, 0, 0, 0)
        # Clip manually: left/top may be negative (partially off-buffer).
        x0 = max(left, 0)
        y0 = max(top, 0)
        x1 = min(left + w, self.width)
        y1 = min(top + h, self.height)
        if x1 <= x0 or y1 <= y0:
            return Rect(0, 0, 0, 0)
        clip = Rect.from_edges(x0, y0, x1, y1)
        src_x = clip.left - left
        src_y = clip.top - top
        self._pixels[clip.top : clip.bottom, clip.left : clip.right] = pixels[
            src_y : src_y + clip.height, src_x : src_x + clip.width
        ]
        return clip

    def copy_rect(self, src: Rect, dest_left: int, dest_top: int) -> Rect:
        """Move pixels of ``src`` to ``(dest_left, dest_top)`` in-place.

        This is the participant-side primitive for MoveRectangle
        (section 5.2.3): "Source and destination rectangles may
        overlap", so the copy is staged through a temporary.
        """
        data = self.read_rect(src)
        if data.size == 0:
            return Rect(0, 0, 0, 0)
        return self.write_rect(dest_left, dest_top, data)

    def scroll(self, rect: Rect, dy: int) -> None:
        """Shift the contents of ``rect`` vertically by ``dy`` pixels.

        Positive ``dy`` moves content down.  Vacated rows are left
        untouched (the caller repaints them) — matching how a terminal
        scroll damages only the fresh line.
        """
        clip = rect.intersection(self.bounds)
        if clip.is_empty() or dy == 0:
            return
        if abs(dy) >= clip.height:
            return
        data = self.read_rect(clip)
        if dy > 0:
            self.write_rect(clip.left, clip.top + dy, data[: clip.height - dy])
        else:
            self.write_rect(clip.left, clip.top, data[-dy:])

    # -- Comparison ---------------------------------------------------

    def identical_to(self, other: "Framebuffer") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self._pixels, other._pixels))
        )

    def diff_rect(self, other: "Framebuffer", rect: Rect) -> bool:
        """True when the two buffers differ anywhere inside ``rect``."""
        clip = rect.intersection(self.bounds)
        if clip.is_empty():
            return False
        a = self._pixels[clip.top : clip.bottom, clip.left : clip.right]
        b = other._pixels[clip.top : clip.bottom, clip.left : clip.right]
        return not bool(np.array_equal(a, b))

    def mean_abs_error(self, other: "Framebuffer") -> float:
        """Mean absolute per-channel error against ``other`` (0 = equal)."""
        if self.width != other.width or self.height != other.height:
            raise ValueError("size mismatch")
        a = self._pixels.astype(np.int16)
        b = other._pixels.astype(np.int16)
        return float(np.abs(a - b).mean())
