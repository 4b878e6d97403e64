"""Virtual window system: windows, z-order, groups, and the manager.

This package substitutes for the OS window system the paper captures
from.  A :class:`Window` owns an RGBA backing store and a geometry on
the virtual desktop; the :class:`WindowManager` maintains the stacking
order (bottom-first, exactly the implicit z-order of WindowManagerInfo
records, section 5.2.1) and process grouping (the GroupID field).

Everything a real capture layer would report — geometry changes, damage,
stacking changes — is surfaced through an observer callback so the AH
can translate it into protocol messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .framebuffer import BLACK, Color, Framebuffer
from .geometry import Rect
from .region import Region

#: windowID is a 16-bit unsigned wire field (section 5.1.2).
MAX_WINDOW_ID = 0xFFFF
#: GroupID is an 8-bit field; 0 is reserved for "no grouping" (section 5.2.1).
MAX_GROUP_ID = 0xFF
NO_GROUP = 0


class WindowError(Exception):
    """Raised for invalid window-manager operations."""


@dataclass(frozen=True, slots=True)
class WindowGeometry:
    """A snapshot of one window's placement, as carried on the wire."""

    window_id: int
    group_id: int
    rect: Rect

    def __post_init__(self) -> None:
        if not 0 <= self.window_id <= MAX_WINDOW_ID:
            raise WindowError(f"windowID out of range: {self.window_id}")
        if not 0 <= self.group_id <= MAX_GROUP_ID:
            raise WindowError(f"groupID out of range: {self.group_id}")


class Window:
    """One shared window: geometry plus an RGBA backing store.

    The backing store always matches the window's size; resizing
    preserves the existing image in the overlapping area, as the draft
    requires of participants ("The participant MUST keep the existing
    window image after a resize and relocation").
    """

    def __init__(
        self,
        window_id: int,
        rect: Rect,
        group_id: int = NO_GROUP,
        fill: Color = BLACK,
        title: str = "",
    ) -> None:
        if rect.is_empty():
            raise WindowError("window must have non-zero size")
        self.geometry = WindowGeometry(window_id, group_id, rect)
        self.title = title
        self.surface = Framebuffer(rect.width, rect.height, fill=fill)
        #: Window-local damage accumulated since last harvest.
        self._damage = Region.empty()

    # -- Accessors ----------------------------------------------------

    @property
    def window_id(self) -> int:
        return self.geometry.window_id

    @property
    def group_id(self) -> int:
        return self.geometry.group_id

    @property
    def rect(self) -> Rect:
        return self.geometry.rect

    @property
    def local_bounds(self) -> Rect:
        return Rect(0, 0, self.rect.width, self.rect.height)

    # -- Drawing (window-local coordinates) ---------------------------

    def fill(self, color: Color, rect: Rect | None = None) -> None:
        target = self.local_bounds if rect is None else rect
        self.surface.fill(color, target)
        self.add_damage(target)

    def draw_pixels(self, left: int, top: int, pixels: np.ndarray) -> None:
        written = self.surface.write_rect(left, top, pixels)
        if not written.is_empty():
            self.add_damage(written)

    def scroll(self, rect: Rect, dy: int) -> None:
        self.surface.scroll(rect, dy)
        self.add_damage(rect)

    def add_damage(self, rect: Rect) -> None:
        clip = rect.intersection(self.local_bounds)
        if not clip.is_empty():
            self._damage = self._damage.union_rect(clip)

    def take_damage(self) -> Region:
        """Return and clear accumulated window-local damage."""
        damage, self._damage = self._damage, Region.empty()
        return damage

    def peek_damage(self) -> Region:
        return self._damage

    # -- Geometry mutation (through the manager) ----------------------

    def _apply_geometry(self, rect: Rect) -> None:
        old = self.geometry.rect
        if rect.size != old.size:
            fresh = Framebuffer(rect.width, rect.height, fill=BLACK)
            keep_w = min(old.width, rect.width)
            keep_h = min(old.height, rect.height)
            fresh.write_rect(
                0, 0, self.surface.read_rect(Rect(0, 0, keep_w, keep_h))
            )
            self.surface = fresh
            # Newly exposed area must be repainted and shipped.
            exposed = Region.from_rect(Rect(0, 0, rect.width, rect.height))
            exposed = exposed.subtract_rect(Rect(0, 0, keep_w, keep_h))
            self._damage = self._damage.union(exposed)
        self.geometry = WindowGeometry(
            self.geometry.window_id, self.geometry.group_id, rect
        )


@dataclass(frozen=True, slots=True)
class WindowEvent:
    """What changed in the window manager, for AH consumption.

    ``kind`` is one of ``created``, ``closed``, ``moved``, ``resized``,
    ``restacked`` — every kind except pure damage triggers a
    WindowManagerInfo message per section 5.2.1.
    """

    kind: str
    window_id: int


class WindowManager:
    """Owns the stacking order and identity of shared windows."""

    def __init__(self, screen_width: int = 1280, screen_height: int = 1024):
        if screen_width <= 0 or screen_height <= 0:
            raise WindowError("screen must be non-empty")
        self.screen = Rect(0, 0, screen_width, screen_height)
        self._stack: list[Window] = []  # bottom-first, wire order
        self._by_id: dict[int, Window] = {}
        self._next_id = 1
        self._observers: list[Callable[[WindowEvent], None]] = []

    # -- Observation ---------------------------------------------------

    def add_observer(self, callback: Callable[[WindowEvent], None]) -> None:
        self._observers.append(callback)

    def _notify(self, kind: str, window_id: int) -> None:
        event = WindowEvent(kind, window_id)
        for callback in self._observers:
            callback(event)

    # -- Lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[Window]:
        """Iterate bottom-first (the WindowManagerInfo record order)."""
        return iter(self._stack)

    def get(self, window_id: int) -> Window:
        try:
            return self._by_id[window_id]
        except KeyError:
            raise WindowError(f"no window with id {window_id}") from None

    def has(self, window_id: int) -> bool:
        return window_id in self._by_id

    def top_window(self) -> Window | None:
        return self._stack[-1] if self._stack else None

    def geometries(self) -> list[WindowGeometry]:
        """Bottom-first geometry snapshots — a WindowManagerInfo payload."""
        return [w.geometry for w in self._stack]

    def window_ids(self) -> list[int]:
        return [w.window_id for w in self._stack]

    # -- Lifecycle ------------------------------------------------------

    def create_window(
        self,
        rect: Rect,
        group_id: int = NO_GROUP,
        title: str = "",
        fill: Color = BLACK,
        window_id: int | None = None,
    ) -> Window:
        if window_id is None:
            window_id = self._allocate_id()
        elif window_id in self._by_id:
            raise WindowError(f"windowID {window_id} already in use")
        elif not 0 <= window_id <= MAX_WINDOW_ID:
            raise WindowError(f"windowID out of range: {window_id}")
        window = Window(window_id, rect, group_id=group_id, title=title, fill=fill)
        self._stack.append(window)  # new windows map on top
        self._by_id[window_id] = window
        window.add_damage(window.local_bounds)
        self._notify("created", window_id)
        return window

    def close_window(self, window_id: int) -> None:
        window = self.get(window_id)
        self._stack.remove(window)
        del self._by_id[window_id]
        self._notify("closed", window_id)

    def _allocate_id(self) -> int:
        for _ in range(MAX_WINDOW_ID + 1):
            candidate = self._next_id
            self._next_id = (self._next_id % MAX_WINDOW_ID) + 1
            if candidate not in self._by_id:
                return candidate
        raise WindowError("windowID space exhausted")

    # -- Geometry / stacking --------------------------------------------

    def move_window(self, window_id: int, left: int, top: int) -> None:
        window = self.get(window_id)
        rect = window.rect
        if (left, top) == (rect.left, rect.top):
            return
        window._apply_geometry(Rect(left, top, rect.width, rect.height))
        self._notify("moved", window_id)

    def resize_window(self, window_id: int, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise WindowError("window must keep non-zero size")
        window = self.get(window_id)
        rect = window.rect
        if (width, height) == (rect.width, rect.height):
            return
        window._apply_geometry(Rect(rect.left, rect.top, width, height))
        self._notify("resized", window_id)

    def raise_window(self, window_id: int) -> None:
        window = self.get(window_id)
        if self._stack[-1] is window:
            return
        self._stack.remove(window)
        self._stack.append(window)
        self._notify("restacked", window_id)

    def lower_window(self, window_id: int) -> None:
        window = self.get(window_id)
        if self._stack[0] is window:
            return
        self._stack.remove(window)
        self._stack.insert(0, window)
        self._notify("restacked", window_id)

    # -- Hit testing & visibility ----------------------------------------

    def window_at(self, x: int, y: int) -> Window | None:
        """Topmost window containing the screen point, if any.

        This implements the AH legitimacy rule of section 4.1: a HIP
        event is only acceptable when its coordinates fall inside a
        shared window.
        """
        for window in reversed(self._stack):
            if window.rect.contains_point(x, y):
                return window
        return None

    def visible_region(self, window_id: int) -> Region:
        """Screen-space region of ``window_id`` not hidden by windows above."""
        window = self.get(window_id)
        region = Region.from_rect(window.rect.intersection(self.screen))
        above = False
        for other in self._stack:
            if other is window:
                above = True
                continue
            if above:
                region = region.subtract_rect(other.rect)
        return region

    def shared_region(self) -> Region:
        """Union of all shared windows clipped to the screen."""
        region = Region()
        for window in self._stack:
            region = region.union_rect(window.rect.intersection(self.screen))
        return region

    # -- Damage harvest ---------------------------------------------------

    def harvest_damage(self) -> dict[int, Region]:
        """Collect and clear per-window damage in window-local coordinates.

        Only damage inside the *visible* part of each window is
        reported — pixels hidden under higher windows need not be (and,
        for true application sharing, must not be) shipped.
        """
        harvested: dict[int, Region] = {}
        for window in self._stack:
            damage = window.take_damage()
            if damage.is_empty():
                continue
            visible = self.visible_region(window.window_id).translated(
                -window.rect.left, -window.rect.top
            )
            clipped = damage.intersect(visible)
            if not clipped.is_empty():
                harvested[window.window_id] = clipped
        return harvested

    def composite(self, blank: Color = BLACK) -> Framebuffer:
        """Render the shared desktop: windows over a blanked background.

        Section 2: "A true application sharing system must blank all
        the nonshared windows" — everything that is not a shared window
        composites as ``blank``.
        """
        screen = Framebuffer(self.screen.width, self.screen.height, fill=blank)
        for window in self._stack:  # bottom-first: later windows overdraw
            screen.write_rect(
                window.rect.left,
                window.rect.top,
                window.surface.array,
            )
        return screen


def layout_signature(geometries: Iterable[WindowGeometry]) -> tuple:
    """Hashable snapshot of a full window layout for change detection."""
    return tuple(
        (g.window_id, g.group_id, g.rect.as_tuple()) for g in geometries
    )
