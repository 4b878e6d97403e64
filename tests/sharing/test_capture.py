"""Tests for the AH capture pipeline."""

import numpy as np
import pytest

from repro.sharing.capture import CapturePipeline, window_manager_info
from repro.surface.cursor import PointerState
from repro.surface.framebuffer import WHITE, Framebuffer
from repro.surface.geometry import Rect
from repro.surface.region import Region
from repro.surface.window import WindowManager


@pytest.fixture
def wm():
    return WindowManager(1280, 1024)


class TestWindowManagerInfoSnapshot:
    def test_snapshot_matches_manager(self, wm):
        wm.create_window(Rect(10, 20, 100, 50), group_id=3)
        wm.create_window(Rect(200, 100, 60, 60))
        info = window_manager_info(wm)
        assert info.window_ids() == wm.window_ids()
        assert info.records[0].group_id == 3
        assert info.records[0].left == 10


class TestFirstCapture:
    def test_first_capture_has_wmi_and_content(self, wm):
        wm.create_window(Rect(0, 0, 50, 50))
        pipeline = CapturePipeline(wm)
        frame = pipeline.capture()
        assert frame.window_info is not None
        assert frame.updates  # full window content
        assert frame.damage_area() == 50 * 50

    def test_quiet_capture_is_empty(self, wm):
        wm.create_window(Rect(0, 0, 50, 50))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        frame = pipeline.capture()
        assert frame.is_empty


class TestGeometryTriggers:
    def test_move_triggers_wmi(self, wm):
        w = wm.create_window(Rect(0, 0, 50, 50))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        wm.move_window(w.window_id, 100, 100)
        frame = pipeline.capture()
        assert frame.window_info is not None

    def test_restack_triggers_wmi(self, wm):
        a = wm.create_window(Rect(0, 0, 50, 50))
        wm.create_window(Rect(0, 0, 50, 50))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        wm.raise_window(a.window_id)
        assert pipeline.capture().window_info is not None

    def test_close_triggers_wmi_without_window(self, wm):
        w = wm.create_window(Rect(0, 0, 50, 50))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        wm.close_window(w.window_id)
        frame = pipeline.capture()
        assert frame.window_info is not None
        assert frame.window_info.records == ()


class TestDamageCapture:
    def test_updates_carry_absolute_coords(self, wm):
        w = wm.create_window(Rect(300, 200, 100, 100))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        w.fill(WHITE, Rect(10, 20, 5, 5))
        frame = pipeline.capture()
        assert len(frame.updates) == 1
        update = frame.updates[0]
        assert (update.left, update.top) == (310, 220)
        assert update.pixels.shape == (5, 5, 4)
        assert (update.pixels == 255).all()

    def test_occluded_damage_not_captured(self, wm):
        bottom = wm.create_window(Rect(0, 0, 100, 100))
        wm.create_window(Rect(0, 0, 100, 100))  # fully covers
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        bottom.fill(WHITE)
        frame = pipeline.capture()
        assert all(u.window_id != bottom.window_id for u in frame.updates)

    def test_rect_cap_respected(self, wm):
        w = wm.create_window(Rect(0, 0, 500, 500))
        pipeline = CapturePipeline(wm, max_update_rects=2)
        pipeline.capture()
        for i in range(8):  # 8 scattered damage spots
            w.fill(WHITE, Rect(i * 60, i * 60, 5, 5))
        frame = pipeline.capture()
        assert len(frame.updates) <= 2


class TestScrollCapture:
    def _scroll_window(self, wm, pipeline):
        w = wm.create_window(Rect(0, 0, 200, 200))
        # Distinct row stripes so the shift is detectable.
        for y in range(200):
            w.fill(((y * 13) % 256, (y * 7) % 256, 0, 255), Rect(0, y, 200, 1))
        pipeline.capture()
        # Scroll content up by 16 rows; repaint the exposed band.
        w.scroll(Rect(0, 0, 200, 200), -16)
        for y in range(184, 200):
            w.fill((1, 2, 3, 255), Rect(0, y, 200, 1))
        w.add_damage(Rect(0, 0, 200, 200))
        return w

    def test_scroll_detected_as_move(self, wm):
        pipeline = CapturePipeline(wm, scroll_detection=True)
        self._scroll_window(wm, pipeline)
        frame = pipeline.capture()
        assert len(frame.moves) == 1
        move = frame.moves[0]
        assert move.height == 184
        assert pipeline.scrolls_detected == 1
        # Update area shrinks to roughly the exposed band.
        assert frame.damage_area() <= 16 * 200 * 2

    def test_scroll_detection_disabled(self, wm):
        pipeline = CapturePipeline(wm, scroll_detection=False)
        self._scroll_window(wm, pipeline)
        frame = pipeline.capture()
        assert frame.moves == []
        assert frame.damage_area() == 200 * 200


    def test_no_snapshot_when_detection_is_off(self, wm, monkeypatch):
        """Nothing reads the per-window snapshot without scroll
        detection, so none is taken; the updates are what they were."""
        copies = []
        original = Framebuffer.copy
        monkeypatch.setattr(
            Framebuffer, "copy", lambda fb: copies.append(fb) or original(fb)
        )
        w = wm.create_window(Rect(40, 30, 200, 200))
        pipeline = CapturePipeline(wm, scroll_detection=False)
        pipeline.capture()
        for i in range(5):
            w.fill((i, 2 * i, 3 * i, 255), Rect(10 * i, 20, 30, 8))
            frame = pipeline.capture()
            assert frame.moves == []
            [update] = frame.updates
            assert (update.left, update.top) == (40 + 10 * i, 50)
            assert update.pixels.shape == (8, 30, 4)
            assert (update.pixels == (i, 2 * i, 3 * i, 255)).all()
        assert copies == []


def sent_region(frame, window) -> Region:
    """What the frame's updates repaint of one window (absolute)."""
    return Region(
        Rect(u.left, u.top, u.pixels.shape[1], u.pixels.shape[0])
        for u in frame.updates
        if u.window_id == window.window_id
    )


class TestIdleCapture:
    def test_idle_ticks_touch_no_region(self, wm, monkeypatch):
        """No damage, no layout change, no pointer event: no visibility
        query, and not one Region or Rect is built."""
        wm.create_window(Rect(0, 0, 200, 200))
        wm.create_window(Rect(100, 100, 200, 200))
        pipeline = CapturePipeline(wm, pointer=PointerState())
        pipeline.capture()
        built = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            return wrapper

        for owner, name in [(WindowManager, "visible_region"),
                            (Region, "__init__"), (Rect, "__post_init__")]:
            monkeypatch.setattr(
                owner, name, counted(name, getattr(owner, name))
            )
        monkeypatch.setattr(
            Region, "from_rect",
            staticmethod(counted("from_rect", Region.from_rect)),
        )
        for _ in range(100):
            assert pipeline.capture().is_empty
        assert built == []
        wm.top_window().fill(WHITE, Rect(0, 0, 5, 5))
        assert not pipeline.capture().is_empty
        assert {"visible_region", "__init__", "__post_init__"} <= set(built)


class TestExposure:
    """Visible regions are recomputed only when the layout signature
    changes; every way of uncovering pixels must change it."""

    OVERLAP = Region.from_rect(Rect(50, 50, 50, 50))

    @pytest.fixture
    def stacked(self, wm):
        below = wm.create_window(Rect(0, 0, 100, 100))
        above = wm.create_window(Rect(50, 50, 100, 100))
        pipeline = CapturePipeline(wm)
        pipeline.capture()
        return wm, pipeline, below, above

    def test_restack_with_unchanged_rects(self, stacked):
        wm, pipeline, below, above = stacked
        wm.raise_window(below.window_id)
        frame = pipeline.capture()
        assert sent_region(frame, below) == self.OVERLAP
        assert sent_region(frame, above).is_empty()
        wm.lower_window(below.window_id)
        frame = pipeline.capture()
        assert sent_region(frame, above) == self.OVERLAP
        assert sent_region(frame, below).is_empty()

    def test_occluder_moves_away(self, stacked):
        wm, pipeline, below, above = stacked
        wm.move_window(above.window_id, 300, 300)
        frame = pipeline.capture()
        assert sent_region(frame, below) == self.OVERLAP
        assert pipeline.capture().is_empty

    def test_occluder_closes(self, stacked):
        wm, pipeline, below, above = stacked
        wm.close_window(above.window_id)
        assert sent_region(pipeline.capture(), below) == self.OVERLAP

    def test_closed_id_reused_elsewhere(self, stacked):
        wm, pipeline, below, above = stacked
        wm.close_window(above.window_id)
        pipeline.capture()
        again = wm.create_window(
            Rect(20, 20, 60, 60), window_id=above.window_id
        )
        frame = pipeline.capture()
        assert sent_region(frame, again) == Region.from_rect(again.rect)

    def test_closed_id_reused_in_place_between_captures(self, stacked):
        """Same id, same rect, same stacking slot: the signature does
        not move, and the new window's own damage carries its pixels."""
        wm, pipeline, below, above = stacked
        wm.close_window(above.window_id)
        again = wm.create_window(above.rect, window_id=above.window_id)
        again.fill(WHITE)
        frame = pipeline.capture()
        assert frame.window_info is None
        assert sent_region(frame, again) == Region.from_rect(again.rect)
        assert sent_region(frame, below).is_empty()
        assert (frame.updates[0].pixels == 255).all()


class TestPointerCapture:
    def test_pointer_move_captured(self, wm):
        pointer = PointerState()
        pipeline = CapturePipeline(wm, pointer=pointer)
        pipeline.capture()  # initial image announcement
        pointer.move_to(44, 55)
        frame = pipeline.capture()
        assert frame.pointer is not None
        assert (frame.pointer.left, frame.pointer.top) == (44, 55)
        assert frame.pointer.image is None  # image unchanged

    def test_initial_capture_announces_image(self, wm):
        pointer = PointerState()
        pipeline = CapturePipeline(wm, pointer=pointer)
        frame = pipeline.capture()
        assert frame.pointer is not None
        assert frame.pointer.image is not None


class TestFullFrame:
    def test_full_frame_complete_state(self, wm):
        wm.create_window(Rect(0, 0, 50, 50))
        wm.create_window(Rect(100, 100, 30, 30))
        pointer = PointerState()
        pipeline = CapturePipeline(wm, pointer=pointer)
        pipeline.capture()
        full = pipeline.full_frame()
        assert full.window_info is not None
        assert len(full.updates) == 2
        assert full.damage_area() == 50 * 50 + 30 * 30
        assert full.pointer is not None and full.pointer.image is not None
