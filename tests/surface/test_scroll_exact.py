"""The packed, early-exit scroll detector decides what the old one did.

Differential tests against :mod:`tests.surface.scroll_oracle` (the
parent's byte-wise, whole-pass detector kept verbatim): equal
``ScrollOp`` (or both ``None``) and equal mismatch ``Region`` on noise,
row-constant frames with many tied candidates, blank frames, vertically
periodic content, true scrolls with bit-flip noise around the match
threshold, clipped areas and non-default detector settings.  CI runs
this directory under ``--hypothesis-profile=thorough``.
"""

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from repro.surface.framebuffer import Framebuffer
from repro.surface.geometry import Rect
from repro.surface.scroll import ROW_PHASES, ScrollDetector

from . import scroll_oracle

DEFAULT_OFFSETS = ScrollDetector().candidate_offsets
OFF_LIST = (3, 20)  # plausible scroll distances the detector never tries

CONFIGS = [
    {},
    {"min_match_fraction": 1.0},
    {"min_match_fraction": 0.9, "min_area_rows": 4},
    {"candidate_offsets": (3, 5, 7)},
    {"candidate_offsets": (-2, 2, 9, 40), "min_area_rows": 1},
]


def content(kind: str, rng: np.random.Generator, h: int, w: int, pitch: int):
    """An ``(h, w, 4)`` uint8 image of the named kind."""
    if kind == "noise":
        return rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    if kind == "blank":
        return np.full((h, w, 4), 7, dtype=np.uint8)
    palette = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    if kind == "rows":  # each row one of three colours: ties everywhere
        return np.repeat(palette[rng.integers(0, 3, h)][:, None], w, axis=1)
    assert kind == "periodic"
    cell = rng.integers(0, 256, (pitch, w, 4), dtype=np.uint8)
    return np.tile(cell, (-(-h // pitch), 1, 1))[:h]


def scrolled(before: np.ndarray, dy: int, fresh: np.ndarray) -> np.ndarray:
    """``before`` moved by ``dy`` rows, the vacated band from ``fresh``."""
    after = np.roll(before, dy, axis=0)
    band = slice(0, dy) if dy > 0 else slice(before.shape[0] + dy, None)
    after[band] = fresh[band]
    return after


def assert_same_decision(before, after, area, config, tile=16):
    new = ScrollDetector(**config).detect(before, after, area)
    old = scroll_oracle.OracleScrollDetector(**config).detect(before, after, area)
    assert new == old
    if new is not None:
        assert new.mismatch_region(before, after, tile) == (
            scroll_oracle.mismatch_region(old, before, after, tile)
        )
    return new


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = draw(st.sampled_from(CONFIGS))
    kind = draw(st.sampled_from(["noise", "rows", "blank", "periodic"]))
    pitch = draw(st.integers(1, 16))
    h = draw(st.integers(20, 96))
    w = draw(st.integers(1, 40))
    before = content(kind, rng, h, w, pitch)

    # The zone that changes: the whole frame, a sub-rectangle (its left
    # edge inside the frame, so the packed view is column-clipped), or
    # one with too few rows for the default ``min_area_rows``.
    shape = draw(st.sampled_from(["full", "full", "sub", "short"]))
    zone = Rect(0, 0, w, h)
    if shape != "full":
        left = draw(st.integers(0, w - 1))
        top = draw(st.integers(0, h - 17))
        tall = h - top if shape == "sub" else 15
        zone = Rect(left, top, draw(st.integers(1, w - left)),
                    draw(st.integers(1, tall)))
    rows = slice(zone.top, zone.bottom)
    cols = slice(zone.left, zone.right)

    change = draw(st.sampled_from(["scroll"] * 4 + ["unrelated", "same"]))
    after = before.copy()
    if change == "unrelated":
        after[rows, cols] = content(kind, rng, zone.height, zone.width, pitch)
    elif change == "scroll" and zone.height > 1:
        tried = config.get("candidate_offsets", DEFAULT_OFFSETS)
        dy = draw(st.sampled_from(
            [abs(o) for o in (1, *tried, *OFF_LIST) if abs(o) < zone.height]
        )) * draw(st.sampled_from([-1, 1]))
        # The vacated band gets new content, or the rows that wrapped
        # round: periodic content then continues, and offsets a pitch
        # apart tie.
        fresh = content(kind, rng, zone.height, zone.width, pitch)
        if draw(st.booleans()):
            fresh = np.roll(before[rows, cols], dy, axis=0)
        after[rows, cols] = scrolled(before[rows, cols], dy, fresh)
        # Flip one bit in m distinct moved pixels, m around the number
        # the detector's threshold tolerates.
        n = (zone.height - abs(dy)) * zone.width
        edge = int((1.0 - config.get("min_match_fraction", 0.995)) * n)
        m = draw(st.sampled_from([0, 1, edge - 1, edge, edge + 1]))
        keep = slice(dy, None) if dy > 0 else slice(0, zone.height + dy)
        target = after[rows, cols][keep]  # a view: writes land in after
        picks = rng.choice(n, size=min(max(m, 0), n), replace=False)
        ys, xs = np.unravel_index(picks, target.shape[:2])
        target[ys, xs, int(rng.integers(0, 4))] ^= 1 << int(rng.integers(0, 8))

    # Frames of different sizes and an area hanging over both, so the
    # detector's clip is the intersection of three rectangles.
    area = zone
    if draw(st.booleans()):
        after = np.pad(after, ((0, 3), (0, 5), (0, 0)), mode="edge")
        area = Rect(zone.left, zone.top, zone.width + 9, zone.height + 9)
    tile = draw(st.sampled_from([16, 5, 32]))
    return (Framebuffer.from_array(before), Framebuffer.from_array(after),
            area, config, tile)


@given(cases())
def test_same_decision_as_the_parent_detector(case):
    op = assert_same_decision(*case)
    event("no scroll" if op is None else "exact" if op.exact else "inexact")


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("offset", DEFAULT_OFFSETS + OFF_LIST)
@pytest.mark.parametrize("left", [0, 6])
def test_true_scroll_by_each_offset(offset, sign, left, rng):
    """Every default offset is found, in both directions; an off-list
    one is not; either way the oracle agrees."""
    before = rng.integers(0, 256, (120, 50, 4), dtype=np.uint8)
    after = before.copy()
    after[:, left:] = scrolled(
        before[:, left:], sign * offset, content("noise", rng, 120, 50 - left, 1)
    )
    op = assert_same_decision(
        Framebuffer.from_array(before), Framebuffer.from_array(after),
        Rect(left, 0, 50 - left, 120), {},
    )
    if offset in DEFAULT_OFFSETS:
        assert op is not None and op.dy == sign * offset and op.exact
    else:
        assert op is None


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_mismatches_at_the_threshold(extra, rng):
    """0.5 % of the moved pixels wrong is a scroll; one more is not."""
    before = rng.integers(0, 256, (100, 50, 4), dtype=np.uint8)
    after = scrolled(before, -16, content("noise", rng, 100, 50, 1))
    n = 84 * 50  # 4200 moved pixels: exactly 21 may mismatch
    picks = rng.choice(n, size=21 + extra, replace=False)
    after[:84].reshape(-1, 4)[picks, 0] ^= 0x80
    op = assert_same_decision(
        Framebuffer.from_array(before), Framebuffer.from_array(after),
        Rect(0, 0, 50, 100), {},
    )
    assert (op is not None) == (extra <= 0)
    if op is not None:
        assert not op.exact


def test_a_rejected_candidate_stops_after_one_phase(rng):
    """Noise against noise: each of the 20 candidates is dropped after
    rows ``0::ROW_PHASES``, on top of the one whole-area equality check."""
    before = Framebuffer.from_array(
        rng.integers(0, 256, (240, 320, 4), dtype=np.uint8))
    after = Framebuffer.from_array(
        rng.integers(0, 256, (240, 320, 4), dtype=np.uint8))
    detector = ScrollDetector()
    assert detector.detect(before, after, before.bounds) is None
    sampled = sum(
        -(-(240 - offset) // ROW_PHASES) * 320 * 2 for offset in DEFAULT_OFFSETS
    )
    assert detector.pixels_compared == 240 * 320 + sampled
