"""The diagonal wavefront rebuilds the bytes the row path rebuilds.

Differential tests of :func:`repro.codecs.png.filters._unfilter_wavefront`
against :func:`~repro.codecs.png.filters._unfilter_rows` (the row path,
itself pinned to the scalar reference in ``test_png_vectorized.py``).
Both kernels are called directly, so both sides of the cost rule in
:func:`~repro.codecs.png.filters.unfilter_image` are exercised on every
example whatever that rule would pick; a separate test pins which side
the rule picks for the shapes it was measured on.

Generated inputs: heights 1-300 and widths 1-400 pixels (images taller
than wide are swept in several bands); residuals of uniform noise or of
a small palette (which makes the Paeth distances tie often); optionally
a leading None row of random bytes, so the first filtered row reads
random ``prev`` content instead of the zero row; and four filter
sequences: one type throughout, a random type per row, the UI pattern
(Paeth runs of 1-7 between Up and Sub rows) and the photo pattern (a
long Average run with isolated Paeth and Sub rows).  CI runs this
directory under ``--hypothesis-profile=thorough``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.codecs.png import filters
from repro.codecs.png.filters import (
    ALL_FILTERS,
    BPP,
    FILTER_AVERAGE,
    FILTER_NONE,
    FILTER_PAETH,
    FILTER_SUB,
    FILTER_UP,
    _unfilter_rows,
    _unfilter_wavefront,
    unfilter_image,
)

PALETTE = np.array([0, 1, 2, 127, 128, 129, 254, 255], dtype=np.uint8)


def ui_pattern(rng: np.random.Generator, height: int) -> list[int]:
    types: list[int] = []
    while len(types) < height:
        types += rng.choice([FILTER_UP, FILTER_SUB],
                            int(rng.integers(1, 6))).tolist()
        types += [FILTER_PAETH] * int(rng.integers(1, 8))
    return types[:height]


def photo_pattern(rng: np.random.Generator, height: int) -> list[int]:
    types = np.full(height, FILTER_AVERAGE)
    isolated = rng.random(height) < 0.05
    types[isolated] = rng.choice([FILTER_PAETH, FILTER_SUB],
                                 int(isolated.sum()))
    return types.tolist()


def filter_sequence(pattern: str, rng: np.random.Generator,
                    height: int) -> np.ndarray:
    if pattern == "uniform":
        types = [int(rng.choice(ALL_FILTERS))] * height
    elif pattern == "random":
        types = rng.choice(ALL_FILTERS, height).tolist()
    elif pattern == "ui":
        types = ui_pattern(rng, height)
    else:
        types = photo_pattern(rng, height)
    return np.array(types, dtype=np.uint8)


def residuals(content: str, rng: np.random.Generator, height: int,
              width: int) -> np.ndarray:
    if content == "noise":
        return rng.integers(0, 256, (height, width * BPP), dtype=np.uint8)
    return rng.choice(PALETTE, (height, width * BPP))


def assert_kernels_match(types: np.ndarray, rows: np.ndarray) -> None:
    want = _unfilter_rows(types, rows)
    got = _unfilter_wavefront(types, rows)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)


@given(
    height=st.integers(1, 300),
    width=st.integers(1, 400),
    pattern=st.sampled_from(["uniform", "random", "ui", "photo"]),
    content=st.sampled_from(["noise", "palette"]),
    random_prev=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_wavefront_matches_the_row_path(height, width, pattern, content,
                                       random_prev, seed):
    rng = np.random.default_rng(seed)
    types = filter_sequence(pattern, rng, height)
    rows = residuals(content, rng, height, width)
    if random_prev:
        types = np.concatenate([[FILTER_NONE], types]).astype(np.uint8)
        prev = rng.integers(0, 256, (1, width * BPP), dtype=np.uint8)
        rows = np.concatenate([prev, rows])
    assert_kernels_match(types, rows)


@pytest.mark.parametrize("filter_type", ALL_FILTERS)
@pytest.mark.parametrize("height,width", [(1, 1), (1, 37), (37, 1), (2, 2)])
def test_degenerate_shapes(filter_type, height, width):
    rng = np.random.default_rng(filter_type * 100 + height * 10 + width)
    types = np.full(height, filter_type, dtype=np.uint8)
    assert_kernels_match(types, residuals("noise", rng, height, width))


@pytest.mark.parametrize("pattern", ["random", "ui", "photo"])
@pytest.mark.parametrize("height,width", [(9, 4), (150, 7), (61, 60)])
def test_bands_join_like_one_image(pattern, height, width):
    # Taller than wide: several bands, each seeded with the last row of
    # the band before (the last band is shorter unless width divides
    # height).
    rng = np.random.default_rng(height * width)
    types = filter_sequence(pattern, rng, height)
    assert_kernels_match(types, residuals("noise", rng, height, width))


def test_tall_sweep_scratch_stays_in_proportion_to_the_image():
    # One sweep of the whole 16x1200 image would hold (16 + 1200 + 1) *
    # 1201 pixels of scratch, 76 times the image; bands of 16 rows hold
    # 33 * 17, and the swept bands are joined into one more image.
    types = np.full(1200, FILTER_AVERAGE, dtype=np.uint8)
    rows = residuals("noise", np.random.default_rng(3), 1200, 16)
    tracemalloc.start()
    try:
        _unfilter_wavefront(types, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows.nbytes


@pytest.mark.parametrize("height", [1, 40])
def test_scanline_view_input(height):
    # The decoder hands in ``scanlines[:, 1:]``: rows one byte past the
    # filter byte, a stride that is not the row length (and, for one
    # row, a contiguous view at an odd address).
    rng = np.random.default_rng(5)
    types = filter_sequence("random", rng, height)
    raw = np.concatenate(
        [types[:, None], residuals("noise", rng, height, 23)], axis=1
    ).tobytes()
    scan = np.frombuffer(raw, dtype=np.uint8).reshape(height, -1)
    assert_kernels_match(scan[:, 0], scan[:, 1:])


# The shapes the cost rule was measured on: (name, height, width, filter
# mix as {type: rows}, the path it takes).
RULE_CASES = [
    ("320x240 photo", 240, 320,
     {FILTER_AVERAGE: 234, FILTER_PAETH: 5, FILTER_SUB: 1}, "wavefront"),
    ("500x500 terminal", 500, 500,
     {FILTER_PAETH: 306, FILTER_UP: 131, FILTER_SUB: 63}, "wavefront"),
    ("140x100 terminal", 100, 140,
     {FILTER_PAETH: 55, FILTER_UP: 33, FILTER_SUB: 12}, "wavefront"),
    ("8-row text rect", 8, 492,
     {FILTER_PAETH: 4, FILTER_UP: 2, FILTER_SUB: 2}, "rows"),
    ("640x480 editor", 480, 640,
     {FILTER_UP: 477, FILTER_SUB: 2, FILTER_PAETH: 1}, "rows"),
    # Tall and narrow, all Average: too few pixels per banded step.
    ("24x4000 Average", 4000, 24, {FILTER_AVERAGE: 4000}, "rows"),
    ("21x32768 Average", 32768, 21, {FILTER_AVERAGE: 32768}, "rows"),
    ("120x1200 Average", 1200, 120, {FILTER_AVERAGE: 1200}, "wavefront"),
]


@pytest.mark.parametrize("name,height,width,mix,path", RULE_CASES,
                         ids=[case[0] for case in RULE_CASES])
def test_cost_rule_picks_the_measured_path(monkeypatch, name, height,
                                           width, mix, path):
    taken = []
    monkeypatch.setattr(filters, "_unfilter_rows",
                        lambda *args: taken.append("rows"))
    monkeypatch.setattr(filters, "_unfilter_wavefront",
                        lambda *args: taken.append("wavefront"))
    types = np.concatenate(
        [np.full(rows, kind, dtype=np.uint8) for kind, rows in mix.items()]
    )
    assert len(types) == height
    unfilter_image(types, np.zeros((height, width * BPP), dtype=np.uint8))
    assert taken == [path]


def test_rows_without_a_serial_dependency_never_sweep(monkeypatch):
    monkeypatch.setattr(filters, "_unfilter_wavefront",
                        lambda *args: pytest.fail("swept"))
    rng = np.random.default_rng(9)
    for kind in (FILTER_NONE, FILTER_SUB, FILTER_UP):
        types = np.full(300, kind, dtype=np.uint8)
        rows = residuals("noise", rng, 300, 40)
        assert np.array_equal(unfilter_image(types, rows),
                              _unfilter_rows(types, rows))


@pytest.mark.parametrize("height,width", [(0, 0), (0, 1), (1, 0)])
def test_empty_images(height, width):
    types = np.full(height, FILTER_AVERAGE, dtype=np.uint8)
    rows = np.zeros((height, width * BPP), dtype=np.uint8)
    assert unfilter_image(types, rows).shape == rows.shape
