"""The AH capture pipeline: window state → protocol-ready operations.

Each call to :meth:`CapturePipeline.capture` turns what changed since
the previous call into a :class:`CapturedFrame`:

* a fresh :class:`~repro.core.WindowManagerInfo` when geometry, z-order
  or window set changed (section 5.2.1 triggers),
* :class:`MoveOp` for detected scrolls (section 5.2.3),
* :class:`UpdateOp` pixel rectangles for the remaining damage, and
* pointer state for whichever pointer model is active.

Coordinates in ops are absolute AH screen coordinates (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.window_info import WindowManagerInfo, WindowRecord
from ..surface.cursor import PointerState
from ..surface.framebuffer import Framebuffer
from ..surface.geometry import Rect
from ..surface.region import Region
from ..surface.scroll import ScrollDetector
from ..surface.window import WindowManager, layout_signature

#: Damage per window is simplified to at most this many rectangles
#: before encoding (fewer, larger RegionUpdates).
MAX_UPDATE_RECTS = 16


@dataclass(frozen=True, slots=True)
class UpdateOp:
    """Fresh pixels for one absolute-coordinate rectangle of a window."""

    window_id: int
    left: int  # absolute screen coordinate
    top: int
    pixels: np.ndarray  # (h, w, 4) uint8


@dataclass(frozen=True, slots=True)
class MoveOp:
    """A detected scroll: copy source rect to destination (absolute)."""

    window_id: int
    source_left: int
    source_top: int
    width: int
    height: int
    dest_left: int
    dest_top: int


@dataclass(frozen=True, slots=True)
class PointerOp:
    """Pointer moved and/or changed icon (explicit pointer model)."""

    left: int
    top: int
    image: np.ndarray | None  # None = position-only


@dataclass(slots=True)
class CapturedFrame:
    """Everything one capture pass produced."""

    window_info: WindowManagerInfo | None = None
    moves: list[MoveOp] = field(default_factory=list)
    updates: list[UpdateOp] = field(default_factory=list)
    pointer: PointerOp | None = None

    @property
    def is_empty(self) -> bool:
        return (
            self.window_info is None
            and not self.moves
            and not self.updates
            and self.pointer is None
        )

    def damage_area(self) -> int:
        return sum(op.pixels.shape[0] * op.pixels.shape[1] for op in self.updates)


def window_manager_info(manager: WindowManager) -> WindowManagerInfo:
    """Snapshot the manager into the wire message, bottom-first."""
    records = tuple(
        WindowRecord(
            window_id=g.window_id,
            group_id=g.group_id,
            left=g.rect.left,
            top=g.rect.top,
            width=g.rect.width,
            height=g.rect.height,
        )
        for g in manager.geometries()
    )
    return WindowManagerInfo(records)


class CapturePipeline:
    """Stateful change extractor over a :class:`WindowManager`."""

    def __init__(
        self,
        manager: WindowManager,
        pointer: PointerState | None = None,
        scroll_detection: bool = True,
        max_update_rects: int = MAX_UPDATE_RECTS,
        pointer_in_band: bool = False,
    ) -> None:
        self.manager = manager
        self.pointer = pointer
        self.scroll_detection = scroll_detection
        self.max_update_rects = max_update_rects
        #: Section 4.2 first pointer model: the pointer image rides
        #: inside RegionUpdate pixels instead of MousePointerInfo.
        self.pointer_in_band = pointer_in_band
        self._prev_pointer_rect: Rect | None = None
        self._scroll_detector = ScrollDetector()
        self._prev_surfaces: dict[int, Framebuffer] = {}
        #: Per-window visible region (window-local) at the last capture.
        #: Newly exposed area was never shipped while occluded, so it
        #: must be re-sent when an occluder moves away.
        self._prev_visible: dict[int, Region] = {}
        self._prev_layout = None  # forces a WMI on the first capture
        self.frames_captured = 0
        self.scrolls_detected = 0

    # -- Full state (PLI / new participant) --------------------------------

    def full_frame(self) -> CapturedFrame:
        """The complete current state: WMI + full image of every window.

        What the AH sends "after receiving a PLI message" or right
        after a TCP participant connects (sections 4.3/4.4).
        """
        frame = CapturedFrame(window_info=window_manager_info(self.manager))
        for window in self.manager:
            pixels = self.read_window_rect(window, window.local_bounds)
            frame.updates.append(
                UpdateOp(
                    window_id=window.window_id,
                    left=window.rect.left,
                    top=window.rect.top,
                    pixels=pixels,
                )
            )
        if self.pointer is not None and not self.pointer_in_band:
            frame.pointer = PointerOp(
                self.pointer.x, self.pointer.y, np.array(self.pointer.image)
            )
        return frame

    # -- Incremental capture --------------------------------------------------

    def capture(self) -> CapturedFrame:
        """Extract changes since the previous capture."""
        self.frames_captured += 1
        frame = CapturedFrame()

        pointer_moved = pointer_dirty = False
        if self.pointer is not None:
            pointer_moved, pointer_dirty = self.pointer.take_pending()
        if self.pointer_in_band and (pointer_moved or pointer_dirty):
            # The pointer is ordinary pixels in this model: its old and
            # new footprints must be repainted through RegionUpdates.
            self._damage_pointer_footprints()

        exposed_by_window: dict[int, Region] = {}
        layout = layout_signature(self.manager.geometries())
        layout_changed = layout != self._prev_layout
        if layout_changed:
            frame.window_info = window_manager_info(self.manager)
            self._prev_layout = layout
            exposed_by_window = self._refresh_visibility()

        damage_by_window = self.manager.harvest_damage()
        # With no damage and the layout as it was, no window has
        # anything to send and every snapshot is current.
        windows = self.manager if damage_by_window or layout_changed else ()
        for window in windows:
            wid = window.window_id
            damage = damage_by_window.get(wid)
            exposed = exposed_by_window.get(wid)
            if exposed is not None:
                damage = exposed if damage is None else damage.union(exposed)
            prev = self._prev_surfaces.get(wid)
            if damage is not None:
                remaining = damage
                if self.scroll_detection and prev is not None:
                    remaining = self._extract_scroll(window, prev, damage, frame)
                remaining = remaining.simplified(self.max_update_rects)
                for rect in remaining:
                    frame.updates.append(
                        UpdateOp(
                            window_id=wid,
                            left=window.rect.left + rect.left,
                            top=window.rect.top + rect.top,
                            pixels=self.read_window_rect(window, rect),
                        )
                    )
            # Keep the snapshot the next scroll detection compares
            # against; nothing else reads it.
            if not self.scroll_detection:
                continue
            pixels = window.surface.array
            if prev is None or prev.array.shape != pixels.shape:
                self._prev_surfaces[wid] = window.surface.copy()
            elif damage is not None:
                np.copyto(prev.array, pixels)

        if (self.pointer is not None and not self.pointer_in_band
                and (pointer_moved or pointer_dirty)):
            frame.pointer = PointerOp(
                self.pointer.x,
                self.pointer.y,
                np.array(self.pointer.image) if pointer_dirty else None,
            )
        return frame

    def _refresh_visibility(self) -> dict[int, Region]:
        """Recompute each window's visible region; return what it exposed.

        Visibility is a function of stacking order and rects, which is
        what the layout signature holds, so this runs only when that
        changes.  Also forgets windows that have closed.
        """
        visible_by_window: dict[int, Region] = {}
        exposed_by_window: dict[int, Region] = {}
        for window in self.manager:
            wid = window.window_id
            visible = self.manager.visible_region(wid).translated(
                -window.rect.left, -window.rect.top
            )
            exposed = visible.subtract(
                self._prev_visible.get(wid, Region.empty())
            )
            if not exposed.is_empty():
                exposed_by_window[wid] = exposed
            visible_by_window[wid] = visible
        self._prev_visible = visible_by_window
        for wid in self._prev_surfaces.keys() - visible_by_window.keys():
            del self._prev_surfaces[wid]
        return exposed_by_window

    def read_window_rect(self, window, rect: Rect) -> np.ndarray:
        """Read update pixels for a window-local rect, pointer-aware.

        The single pixel source for every send path (incremental,
        full refresh, coalesced re-read) so the in-band pointer model
        stays consistent everywhere.
        """
        pixels = window.surface.read_rect(rect)
        if self.pointer_in_band and self.pointer is not None:
            pixels = self._overlay_pointer(
                pixels, window.rect.left + rect.left, window.rect.top + rect.top
            )
        return pixels

    # -- In-band pointer support ------------------------------------------

    def _pointer_rect(self) -> Rect:
        assert self.pointer is not None
        image = self.pointer.image
        return Rect(
            self.pointer.x, self.pointer.y, image.shape[1], image.shape[0]
        )

    def _damage_pointer_footprints(self) -> None:
        """Mark old and new pointer positions as window damage."""
        current = self._pointer_rect()
        footprints = [current]
        if self._prev_pointer_rect is not None:
            footprints.append(self._prev_pointer_rect)
        self._prev_pointer_rect = current
        for rect in footprints:
            for window in self.manager:
                # Clip the absolute footprint to the window, then
                # translate into window-local damage coordinates.
                clipped = rect.intersection(window.rect)
                if clipped.is_empty():
                    continue
                window.add_damage(
                    clipped.translated(-window.rect.left, -window.rect.top)
                )

    def _overlay_pointer(self, pixels: np.ndarray, abs_left: int,
                         abs_top: int) -> np.ndarray:
        """Paint the pointer into an update block where it overlaps."""
        assert self.pointer is not None
        footprint = self._pointer_rect()
        block = Rect(abs_left, abs_top, pixels.shape[1], pixels.shape[0])
        overlap = block.intersection(footprint)
        if overlap.is_empty():
            return pixels
        out = np.array(pixels, copy=True)
        image = self.pointer.image
        src = image[
            overlap.top - footprint.top : overlap.bottom - footprint.top,
            overlap.left - footprint.left : overlap.right - footprint.left,
        ]
        dst = out[
            overlap.top - abs_top : overlap.bottom - abs_top,
            overlap.left - abs_left : overlap.right - abs_left,
        ]
        opaque = src[:, :, 3] == 255
        dst[opaque] = src[opaque]
        return out

    def _extract_scroll(
        self,
        window,
        prev: Framebuffer,
        damage: Region,
        frame: CapturedFrame,
    ) -> Region:
        """Try to explain the damage as a scroll; return leftover damage."""
        area = damage.bounds()
        op = self._scroll_detector.detect(prev, window.surface, area)
        if op is None:
            return damage
        self.scrolls_detected += 1
        base_left = window.rect.left
        base_top = window.rect.top
        frame.moves.append(
            MoveOp(
                window_id=window.window_id,
                source_left=base_left + op.source.left,
                source_top=base_top + op.source.top,
                width=op.source.width,
                height=op.source.height,
                dest_left=base_left + op.source.left,
                dest_top=base_top + op.dest_top,
            )
        )
        # The moved area is *mostly* explained — detection tolerates a
        # small mismatch (cursor, highlight) that must still be
        # repainted, along with the exposed band and any damage outside
        # the scrolled area.
        moved_dest = op.destination
        leftover = damage.subtract_rect(moved_dest)
        leftover = leftover.union_rect(op.exposed)
        leftover = leftover.union(op.mismatch_region(prev, window.surface))
        return leftover
