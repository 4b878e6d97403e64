"""Tests for scroll detection."""

import numpy as np
import pytest

from repro.apps.photo_viewer import PhotoViewerApp
from repro.apps.terminal import TerminalApp
from repro.surface.framebuffer import Framebuffer
from repro.surface.geometry import Rect
from repro.surface.scroll import ScrollDetector
from repro.surface.window import WindowManager


def striped(height: int, width: int = 40, phase: int = 0) -> Framebuffer:
    """Rows of distinct colours so shifts are unambiguous."""
    fb = Framebuffer(width, height)
    for y in range(height):
        value = ((y + phase) * 37) % 256
        fb.fill((value, 255 - value, (value * 3) % 256, 255), Rect(0, y, width, 1))
    return fb


class TestScrollDetector:
    def test_detects_upward_scroll(self):
        before = striped(100)
        after = striped(100, phase=8)  # content moved up by 8 rows
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 100))
        assert op is not None
        assert op.dy == -8
        assert op.exposed.height == 8
        assert op.exposed.top == 92  # new content at the bottom

    def test_detects_downward_scroll(self):
        before = striped(100, phase=8)
        after = striped(100, phase=0)
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 100))
        assert op is not None
        assert op.dy == 8
        assert op.exposed.top == 0

    def test_no_scroll_on_random_change(self):
        rng = np.random.default_rng(0)
        before = Framebuffer.from_array(
            rng.integers(0, 256, (100, 40, 4)).astype(np.uint8)
        )
        after = Framebuffer.from_array(
            rng.integers(0, 256, (100, 40, 4)).astype(np.uint8)
        )
        assert ScrollDetector().detect(before, after, Rect(0, 0, 40, 100)) is None

    def test_identical_frames_no_scroll(self):
        frame = striped(64)
        assert ScrollDetector().detect(frame, frame, Rect(0, 0, 40, 64)) is None

    def test_small_area_skipped(self):
        before = striped(10)
        after = striped(10, phase=2)
        detector = ScrollDetector(min_area_rows=16)
        assert detector.detect(before, after, Rect(0, 0, 40, 10)) is None

    def test_scroll_op_geometry_consistent(self):
        before = striped(100)
        after = striped(100, phase=16)
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 100))
        assert op is not None
        # Source + exposed must tile the scrolled area.
        assert op.source.height + op.exposed.height == op.area.height

    def test_applying_op_reconstructs_frame(self):
        """Copying source→dest then repainting exposed == the new frame."""
        before = striped(80)
        after = striped(80, phase=4)
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 80))
        assert op is not None
        recon = before.copy()
        recon.copy_rect(op.source, op.source.left, op.dest_top)
        recon.write_rect(
            op.exposed.left, op.exposed.top, after.read_rect(op.exposed)
        )
        assert recon.identical_to(after)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ScrollDetector(candidate_offsets=())
        with pytest.raises(ValueError):
            ScrollDetector(min_match_fraction=0.0)


class TestMismatchRegion:
    def test_pure_scroll_has_no_mismatch(self):
        before = striped(80)
        after = striped(80, phase=4)
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 80))
        assert op is not None
        assert op.mismatch_region(before, after).is_empty()

    def test_cursor_like_blemish_reported(self):
        """A small unexplained change (a cursor) inside the scrolled
        area must surface as mismatch so it gets repainted — the
        regression behind stale pixels under scroll detection."""
        before = striped(80)
        after = striped(80, phase=4)
        # Paint a small 'cursor' into the new frame mid-area
        # (small enough to stay under the match-fraction tolerance).
        after.fill((255, 255, 0, 255), Rect(10, 30, 2, 2))
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 80))
        assert op is not None
        mismatch = op.mismatch_region(before, after)
        assert not mismatch.is_empty()
        assert mismatch.contains_point(11, 31)

    def test_copy_plus_mismatch_plus_exposed_reconstructs(self):
        before = striped(80)
        after = striped(80, phase=4)
        after.fill((1, 2, 3, 255), Rect(20, 50, 3, 2))
        op = ScrollDetector().detect(before, after, Rect(0, 0, 40, 80))
        assert op is not None
        recon = before.copy()
        recon.copy_rect(op.source, op.source.left, op.dest_top)
        for rect in op.mismatch_region(before, after):
            recon.write_rect(rect.left, rect.top, after.read_rect(rect))
        recon.write_rect(
            op.exposed.left, op.exposed.top, after.read_rect(op.exposed)
        )
        assert recon.identical_to(after)


class TestWorkDone:
    """``pixels_compared`` follows what changed, not the candidate
    count: the byte-wise detector before it compared 20x the area
    (plus the equality check) on both of these."""

    def test_terminal_line_scroll(self):
        window = WindowManager().create_window(Rect(0, 0, 500, 500))
        terminal = TerminalApp(window)
        terminal.run_build_output(terminal.rows)  # full: the next line scrolls
        before = window.surface.copy()
        window.take_damage()
        terminal.run_build_output(1, start=terminal.rows)
        detector = ScrollDetector()
        op = detector.detect(before, window.surface, window.peek_damage().bounds())
        assert op is not None and op.dy == -terminal.cell_h
        assert detector.pixels_compared <= 6 * 500 * 500

    def test_photo_flip(self):
        window = WindowManager().create_window(Rect(0, 0, 320, 240))
        viewer = PhotoViewerApp(window)
        before = window.surface.copy()
        viewer.next_photo()
        detector = ScrollDetector()
        assert detector.detect(before, window.surface, window.local_bounds) is None
        assert detector.pixels_compared <= 4 * 320 * 240
