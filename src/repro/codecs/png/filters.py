"""PNG scanline filters (types 0-4) with vectorised apply/undo.

PNG's pre-compression filters are why it beats plain DEFLATE on screen
content: rows of UI pixels are self-similar, so Sub/Up/Average/Paeth
residuals are near-zero and compress extremely well.  Filtering is the
per-row design choice ablated in ``bench_codecs.py``.

The hot paths here are whole-image: :func:`filter_image` computes all
five candidates as ``(h, w*4)`` arrays and picks per-row winners with a
vectorised MSAD argmin; :func:`unfilter_image` reconstructs every row,
either along the image's anti-diagonals (one vector step per diagonal,
when enough rows are Average or Paeth) or row by row.  The per-row
``apply_filter``/``choose_filter``/``undo_filter`` API is kept on top of
the same kernels.  Bit-for-bit scalar references live in
:mod:`repro.codecs.png.reference` and are pinned equal by tests.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

FILTER_NONE = 0
FILTER_SUB = 1
FILTER_UP = 2
FILTER_AVERAGE = 3
FILTER_PAETH = 4

ALL_FILTERS = (FILTER_NONE, FILTER_SUB, FILTER_UP, FILTER_AVERAGE, FILTER_PAETH)

#: Bytes per pixel for 8-bit RGBA.
BPP = 4


def _shift_left(row: np.ndarray) -> np.ndarray:
    """The 'a' predictor: the pixel ``BPP`` bytes to the left (0 padded)."""
    out = np.zeros_like(row)
    out[BPP:] = row[:-BPP]
    return out


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorised Paeth predictor over int16 inputs."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


# -- Whole-image filtering (encode hot path) ---------------------------------


class _Workspace:
    """Preallocated scratch for one ``(h, stride)`` filtering problem.

    Screen sharing filters the same frame geometry over and over; fresh
    ``np.empty`` per candidate plane costs more than the arithmetic at
    this size (allocation + first-touch faults + cold caches), so all
    intermediates live here and every ufunc writes through ``out=``.
    """

    def __init__(self, height: int, stride: int) -> None:
        shape = (height, stride)
        self.cands = np.empty((len(ALL_FILTERS),) + shape, dtype=np.uint8)
        self.a = np.empty(shape, dtype=np.uint8)
        self.b = np.empty(shape, dtype=np.uint8)
        self.c = np.empty(shape, dtype=np.uint8)
        self.u8a = np.empty(shape, dtype=np.uint8)
        self.u8b = np.empty(shape, dtype=np.uint8)
        self.u8c = np.empty(shape, dtype=np.uint8)
        self.i16a = np.empty(shape, dtype=np.int16)
        self.i16b = np.empty(shape, dtype=np.int16)
        self.scores = np.empty((len(ALL_FILTERS), height), dtype=np.int64)

    def predictors(self, rows: np.ndarray,
                   prev_row: np.ndarray | None = None) -> None:
        """Fill the a (left), b (up), c (up-left) planes, zero padded.

        ``prev_row`` supplies the raw scanline above ``rows[0]`` when
        the rows are a band cut out of a larger image; ``None`` keeps
        the image-start semantics (zero predecessors).
        """
        a, b, c = self.a, self.b, self.c
        a[:, :BPP] = 0
        a[:, BPP:] = rows[:, :-BPP]
        if prev_row is None:
            b[0] = 0
            c[0] = 0
        else:
            b[0] = prev_row
            c[0, :BPP] = 0
            c[0, BPP:] = prev_row[:-BPP]
        b[1:] = rows[:-1]
        c[1:, :BPP] = 0
        c[1:, BPP:] = rows[:-1, :-BPP]


class _WorkspaceCache(threading.local):
    """A few most-recent workspaces, per thread, keyed by shape."""

    MAX_SHAPES = 4

    def __init__(self) -> None:
        self.by_shape: dict[tuple[int, int], _Workspace] = {}

    def get(self, height: int, stride: int) -> _Workspace:
        key = (height, stride)
        ws = self.by_shape.pop(key, None)
        if ws is None:
            ws = _Workspace(height, stride)
            while len(self.by_shape) >= self.MAX_SHAPES:
                self.by_shape.pop(next(iter(self.by_shape)))
        self.by_shape[key] = ws  # reinsert: dict order is the LRU order
        return ws


_workspaces = _WorkspaceCache()


def _candidate_into(filter_type: int, rows: np.ndarray, ws: _Workspace,
                    out: np.ndarray) -> None:
    """One filter's residuals for every row at once, written into ``out``.

    All arithmetic stays in uint8: subtraction wraps mod 256 exactly
    like the int16-then-cast scalar reference, and the Average
    predictor uses the carry-free identity
    ``(a + b) // 2 == (a >> 1) + (b >> 1) + (a & b & 1)``.
    """
    a, b, c = ws.a, ws.b, ws.c
    if filter_type == FILTER_NONE:
        out[:] = rows
    elif filter_type == FILTER_SUB:
        np.subtract(rows, a, out=out)
    elif filter_type == FILTER_UP:
        np.subtract(rows, b, out=out)
    elif filter_type == FILTER_AVERAGE:
        t = ws.u8a
        np.right_shift(a, 1, out=out)
        np.right_shift(b, 1, out=t)
        out += t
        np.bitwise_and(a, b, out=t)
        t &= 1
        out += t
        np.subtract(rows, out, out=out)
    elif filter_type == FILTER_PAETH:
        _paeth_plane_into(ws, out)
        np.subtract(rows, out, out=out)
    else:
        raise ValueError(f"unknown filter type: {filter_type}")


def _paeth_plane_into(ws: _Workspace, out: np.ndarray) -> None:
    """Paeth predictor over whole uint8 planes, written into ``out``.

    Uses the distance identities pa = |b - c|, pb = |a - c| (computed
    carry-free in uint8 as max - min) and pc = |(a - c) + (b - c)|.
    The two selects are XOR blends through 0x00/0xFF masks, which beat
    ``np.where`` by ~2x at this size.
    """
    a, b, c = ws.a, ws.b, ws.c
    pa, pb, t = ws.u8a, ws.u8b, ws.u8c
    np.maximum(b, c, out=pa)
    np.minimum(b, c, out=t)
    pa -= t
    np.maximum(a, c, out=pb)
    np.minimum(a, c, out=t)
    pb -= t
    s, s2 = ws.i16a, ws.i16b
    np.subtract(a, c, out=s, dtype=np.int16)
    np.subtract(b, c, out=s2, dtype=np.int16)
    s += s2
    np.abs(s, out=s)
    pc = s.view(np.uint16)  # |a + b - 2c| is in [0, 510]: same bits
    mask = (pb <= pc).view(np.uint8)
    np.negative(mask, out=mask)
    pred = t
    np.bitwise_xor(b, c, out=pred)
    pred &= mask
    pred ^= c  # pb <= pc ? b : c
    mask = ((pa <= pb) & (pa <= pc)).view(np.uint8)
    np.negative(mask, out=mask)
    np.bitwise_xor(a, pred, out=out)
    out &= mask
    out ^= pred  # pa smallest ? a : pred


def filter_image(
    rows: np.ndarray,
    adaptive_filter: bool = True,
    fixed_filter: int = FILTER_NONE,
    prev_row: np.ndarray | None = None,
) -> np.ndarray:
    """Filter all scanlines of an image in one vectorised pass.

    ``rows`` is the raw image as ``(h, w*BPP) uint8``.  Returns the
    ready-to-compress ``(h, 1 + w*BPP) uint8`` buffer: per-row filter
    type byte followed by the filtered scanline.  With
    ``adaptive_filter`` the per-row winner is the minimum-sum-of-
    absolute-differences candidate (libpng's MSAD heuristic), resolved
    for all rows with one argmin.

    ``prev_row`` makes the call band-composable: filtering rows
    ``[y0:y1)`` of an image with ``prev_row=rows_full[y0-1]`` yields
    exactly rows ``[y0:y1)`` of the whole-image result, because every
    predictor (and the per-row MSAD choice) only ever reaches one raw
    row up.  Bands therefore reassemble into a byte-identical scanline
    stream.
    """
    height, stride = rows.shape
    out = np.empty((height, 1 + stride), dtype=np.uint8)
    ws = _workspaces.get(height, stride)
    ws.predictors(rows, prev_row)
    if not adaptive_filter:
        out[:, 0] = fixed_filter
        _candidate_into(fixed_filter, rows, ws, out[:, 1:])
        return out

    cands = ws.cands
    for f in ALL_FILTERS:
        _candidate_into(f, rows, ws, cands[f])
    # MSAD score: each filtered byte counts its signed magnitude
    # min(v, 256 - v), which in wraparound uint8 is min(v, -v); per-row
    # sums for all five candidates, then one argmin along the candidate
    # axis (ties resolve to the lower filter type, matching the scalar
    # loop's strict-less update).  A row sums to at most stride * 255,
    # far inside uint32.
    scores = ws.scores
    scratch = ws.u8a
    for f in ALL_FILTERS:
        np.negative(cands[f], out=scratch)
        np.minimum(scratch, cands[f], out=scratch)
        scores[f] = np.add.reduce(scratch, axis=1, dtype=np.uint32)
    chosen = np.argmin(scores, axis=0).astype(np.uint8)
    out[:, 0] = chosen
    for f in ALL_FILTERS:
        mask = chosen == f
        if mask.any():
            out[mask, 1:] = cands[f][mask]
    return out


# -- Whole-image unfiltering (decode hot path) -------------------------------


def _undo_average_row(filtered: list[int], prev: list[int],
                      out: list[int]) -> None:
    """Average reconstruction, one independent recurrence per byte lane."""
    n = len(filtered)
    for lane in range(BPP):
        left = 0
        for i in range(lane, n, BPP):
            left = out[i] = (filtered[i] + ((left + prev[i]) >> 1)) & 0xFF


def _undo_paeth_row(filtered: list[int], prev: list[int],
                    out: list[int]) -> None:
    """Paeth reconstruction, one independent recurrence per byte lane."""
    n = len(filtered)
    for lane in range(BPP):
        a = 0  # reconstructed left neighbour
        c = 0  # raw up-left neighbour
        for i in range(lane, n, BPP):
            b = prev[i]
            p = a + b - c
            pa = p - a if p >= a else a - p
            pb = p - b if p >= b else b - p
            pc = p - c if p >= c else c - p
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            a = out[i] = (filtered[i] + pred) & 0xFF
            c = b


def _undo_sub_rows(filtered: np.ndarray) -> np.ndarray:
    """Sub rows have no inter-row dependency: per-lane prefix sums.

    The truncating cast to uint8 is the mod-256 reduction; a uint32
    accumulator is exact for any spec-sized row (width < 2^24).
    """
    rows, stride = filtered.shape
    lanes = filtered.reshape(rows, stride // BPP, BPP)
    return (
        np.cumsum(lanes, axis=1, dtype=np.uint32)
        .astype(np.uint8)
        .reshape(rows, stride)
    )


#: The wavefront's cost rule.  A sweep costs ``width + rows - 1``
#: diagonal steps per band (:func:`_band_rows`) whatever the filter mix;
#: the row path costs one Python recurrence per Average/Paeth pixel.
#: :func:`unfilter_image` sweeps when ``(#Average + #Paeth rows) * width
#: >= WAVEFRONT_MIN_PIXELS_PER_STEP * steps``.  Measured (2-core x86-64,
#: Python 3.11, numpy 2.4, the suite's own decode inputs, three rounds):
#: the two paths break even where that ratio is 11-22 for 8-row text
#: rects and the 640x480 UI screenshot, 17-29 for a 140x100 terminal,
#: 24-39 for a 500x500 one and 28-37 for 320x240 photos (a step grows
#: with the rows it spans; Average pixels are the row path's cheapest),
#: and 17-19 for Average-only images taller than wide (40x2000, 64x1500,
#: 120x1200), swept in bands.  At 20, photos (ratio ~140), the 500x500
#: terminal (~150) and 140x100 terminals (~32) sweep; text rects (~4),
#: Up-dominated editor frames (<1) and images under 40 pixels wide keep
#: the row path.
WAVEFRONT_MIN_PIXELS_PER_STEP = 20


def _band_rows(height: int, width: int) -> int:
    """Rows per wavefront band: the whole image unless it is taller than wide.

    A band of ``b`` rows sweeps in ``width + b - 1`` steps over
    ``(width + b + 1) * (b + 1)`` pixels of scratch, so capping ``b`` at
    ``width`` keeps both within about twice the band's own pixels: a
    tall, narrow image costs what its pixels cost, not the square of
    its height.
    """
    return max(1, min(height, width))


def unfilter_image(filter_types: np.ndarray, filtered: np.ndarray) -> np.ndarray:
    """Reconstruct all scanlines from their filtered form.

    ``filter_types`` is ``(h,)``, ``filtered`` is ``(h, w*BPP)``.  Only
    Average and Paeth rows carry a serial dependency, so only they
    decide the path: enough of them (see
    :data:`WAVEFRONT_MIN_PIXELS_PER_STEP`) and the image is swept along
    its anti-diagonals (:func:`_unfilter_wavefront`), one vector step
    per diagonal for every row of a band at once; otherwise the row
    path (:func:`_unfilter_rows`) batches None/Sub/Up rows and runs
    each Average/Paeth row as a lane-wise loop over Python ints.  Both
    paths produce the same bytes.
    """
    bad = filter_types > FILTER_PAETH
    if bad.any():
        raise ValueError(
            f"unknown filter type: {int(filter_types[int(np.argmax(bad))])}"
        )
    height, stride = filtered.shape
    width = stride // BPP
    bands = -(-height // _band_rows(height, width))
    steps = bands * (width - 1) + height
    # Average and Paeth are the two highest filter types.
    serial = int(np.count_nonzero(filter_types >= FILTER_AVERAGE))
    if serial and serial * width >= WAVEFRONT_MIN_PIXELS_PER_STEP * steps:
        return _unfilter_wavefront(filter_types, filtered)
    return _unfilter_rows(filter_types, filtered)


def _unfilter_rows(filter_types: np.ndarray, filtered: np.ndarray) -> np.ndarray:
    """The short-image path: one Python recurrence per serial row.

    None and Sub rows never read the row above, so they are
    reconstructed for the whole image up front; runs of consecutive Up
    rows collapse into one column-wise cumulative sum; Average and
    Paeth rows run a lane-wise recurrence over Python ints (byte lanes
    advance together, with no per-byte numpy indexing).
    """
    height, stride = filtered.shape
    out = np.empty((height, stride), dtype=np.uint8)

    types = filter_types.tolist()
    none_mask = filter_types == FILTER_NONE
    if none_mask.any():
        out[none_mask] = filtered[none_mask]
    sub_mask = filter_types == FILTER_SUB
    if sub_mask.any():
        out[sub_mask] = _undo_sub_rows(filtered[sub_mask])

    zero_prev = np.zeros(stride, dtype=np.uint8)
    y = 0
    while y < height:
        filter_type = types[y]
        if filter_type in (FILTER_NONE, FILTER_SUB):
            y += 1
            continue
        prev = out[y - 1] if y else zero_prev
        if filter_type == FILTER_UP:
            # Batch the whole run of consecutive Up rows: each adds its
            # residuals to the row above, i.e. a cumulative sum down
            # the columns seeded by the last reconstructed row.
            end = y + 1
            while end < height and types[end] == FILTER_UP:
                end += 1
            span = np.cumsum(filtered[y:end], axis=0, dtype=np.uint32)
            span += prev
            out[y:end] = span.astype(np.uint8)  # truncation is mod 256
            y = end
            continue
        row_out = out[y].tolist()
        row_filtered = filtered[y].tolist()
        row_prev = prev.tolist()
        if filter_type == FILTER_AVERAGE:
            _undo_average_row(row_filtered, row_prev, row_out)
        else:
            _undo_paeth_row(row_filtered, row_prev, row_out)
        out[y] = row_out
        y += 1
    return out


def _unfilter_wavefront(filter_types: np.ndarray,
                        filtered: np.ndarray) -> np.ndarray:
    """Reconstruct the image band by band, one anti-diagonal per step.

    Bands are :func:`_band_rows` rows tall; each is swept by
    :func:`_sweep_band` with the last row of the band before it as the
    row above, so the bands join exactly as the rows of one image.  An
    image no taller than wide is one band, returned as swept.
    """
    height, stride = filtered.shape
    band = _band_rows(height, stride // BPP)
    prev = np.zeros(stride, dtype=np.uint8)
    bands = []
    for y in range(0, height, band):
        bands.append(_sweep_band(filter_types[y:y + band],
                                 filtered[y:y + band], prev))
        prev = bands[-1][-1]
    return bands[0] if len(bands) == 1 else np.concatenate(bands)


def _sweep_band(filter_types: np.ndarray, filtered: np.ndarray,
                prev: np.ndarray) -> np.ndarray:
    """Reconstruct every row of one band at once, one diagonal per step.

    Pixel (r, j) needs only its left (r, j-1), up (r-1, j) and up-left
    (r-1, j-1) neighbours, which lie on diagonals d-1, d-1 and d-2 of
    ``d = r + j``.  So once the band is stored skewed (diagonal d is
    one array row), all pixels of diagonal d are independent and one
    ufunc per filter formula finishes them together: ``width + height
    - 1`` steps in all, each a handful of ufuncs over <= ``height``
    pixels.

    Within a diagonal the rows are ordered by filter type (stable, so
    ascending within a type), which makes each type one contiguous
    slice; per type only the rows whose pixel ``d - r`` lies inside
    the band are touched.  Slot 0 of every diagonal holds row -1 (the
    ``prev`` scanline, zero above the image) and j < 0 is never
    written, so both PNG boundaries come for free.  Each step gathers
    its diagonal's residuals into type order with one ``np.take``, and
    the row above the same way unless type order is row order; the
    up-left neighbour is the previous step's row above.
    """
    height, stride = filtered.shape
    width = stride // BPP
    diagonals = width + height - 1
    counts = np.bincount(filter_types, minlength=len(ALL_FILTERS))
    order = np.argsort(filter_types, kind="stable")
    ranks = np.arange(height)
    slot = np.empty(height, dtype=np.intp)  # recon slot of each row
    slot[order] = ranks + 1
    above = np.zeros(height, dtype=np.intp)  # slot of the row above
    above[1:] = slot[:-1]
    above = above[order]
    # Rows already in type order (one Sub row, then Average, as in some
    # photos: 14.5-16.5 ms instead of 21.5 ms for a 640x480 one) read
    # the row above from the slot before instead of gathering it.
    in_order = bool((order == ranks).all())

    # skew[d, r] is filtered pixel (r, d - r) whenever 0 <= d - r <
    # width: a strided view of one contiguous copy, whose flat index
    # d + r * (width - 1) stays inside [0, height * width) for every
    # (d, r) of the view.  Outside the band it reads some other pixel,
    # which no step uses.  f_row is diagonal d in type order.
    pixels = np.ascontiguousarray(filtered).view(np.uint32).reshape(-1)
    skew = as_strided(pixels, shape=(diagonals, height),
                      strides=(BPP, (width - 1) * BPP))
    f32 = np.empty(height, dtype=np.uint32)
    f_row = f32.view(np.uint8)

    # recon[d + 2] is diagonal d (rows 0 and 1 are diagonals -2, -1),
    # one BPP-byte pixel per slot; pixel j of row -1 is on diagonal
    # j - 1, and (-1, -1) stays zero.
    recon = np.zeros((diagonals + 2, (height + 1) * BPP), dtype=np.uint8)
    recon32 = recon.view(np.uint32)
    recon32[1:width + 1, 0] = prev.view(np.uint32)
    up32 = np.zeros(height, dtype=np.uint32)
    up_left32 = np.zeros(height, dtype=np.uint32)

    steps = np.arange(diagonals)
    groups = []
    start = 0
    for kind in ALL_FILTERS:
        end = start + int(counts[kind])
        if end > start:
            rows = order[start:end]
            lo = start + np.searchsorted(rows, steps - (width - 1))
            hi = start + np.searchsorted(rows, steps, side="right")
            groups.append((kind, lo.tolist(), hi.tolist()))
        start = end

    lanes = height * BPP
    t8 = np.empty(lanes, dtype=np.uint8)
    u8 = np.empty(lanes, dtype=np.uint8)
    for d in range(diagonals):
        np.take(skew[d], order, out=f32, mode="clip")
        left = recon[d + 1]
        out_row = recon[d + 2]
        if in_order:
            up, up_left = recon[d + 1], recon[d]
        else:
            up32, up_left32 = up_left32, up32
            np.take(recon32[d + 1], above, out=up32, mode="clip")
            up, up_left = up32.view(np.uint8), up_left32.view(np.uint8)
        for kind, los, his in groups:
            lo, hi = los[d] * BPP, his[d] * BPP
            if lo == hi:
                continue
            f = f_row[lo:hi]
            out_px = out_row[lo + BPP:hi + BPP]
            if kind == FILTER_NONE:
                out_px[...] = f
            elif kind == FILTER_SUB:
                np.add(f, left[lo + BPP:hi + BPP], out=out_px)
            elif kind == FILTER_UP:
                np.add(f, up[lo:hi], out=out_px)
            elif kind == FILTER_AVERAGE:
                # floor((a + b) / 2) without leaving uint8.
                a, b = left[lo + BPP:hi + BPP], up[lo:hi]
                t, u = t8[:hi - lo], u8[:hi - lo]
                np.bitwise_xor(a, b, out=t)
                t >>= 1
                np.bitwise_and(a, b, out=u)
                t += u
                np.add(f, t, out=out_px)
            else:
                pred = _paeth_predictor(left[lo + BPP:hi + BPP], up[lo:hi],
                                        up_left[lo:hi])
                np.add(f, pred, out=out_px)

    # Undo the skew: pixel (r, j) sits at diagonal r + j, slot[r].
    del pixels, skew
    cols = height + 1
    flat = recon32.reshape(-1)
    lines = as_strided(flat, shape=(flat.size - (width - 1) * cols, width),
                       strides=(BPP, cols * BPP))
    return lines[(ranks + 2) * cols + slot].view(np.uint8)


# -- Per-row API -------------------------------------------------------------


def apply_filter(filter_type: int, row: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Filter one scanline; ``prev`` is the prior *raw* scanline (zeros for row 0)."""
    if filter_type == FILTER_NONE:
        return row.copy()
    a = _shift_left(row)
    if filter_type == FILTER_SUB:
        return (row.astype(np.int16) - a).astype(np.uint8)
    if filter_type == FILTER_UP:
        return (row.astype(np.int16) - prev).astype(np.uint8)
    if filter_type == FILTER_AVERAGE:
        avg = (a.astype(np.int16) + prev.astype(np.int16)) // 2
        return (row.astype(np.int16) - avg).astype(np.uint8)
    if filter_type == FILTER_PAETH:
        c = _shift_left(prev)
        pred = _paeth_predictor(a, prev, c)
        return (row.astype(np.int16) - pred).astype(np.uint8)
    raise ValueError(f"unknown filter type: {filter_type}")


def undo_filter(filter_type: int, filtered: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Reconstruct a raw scanline from its filtered form."""
    if filter_type == FILTER_NONE:
        return filtered.copy()
    if filter_type == FILTER_UP:
        return ((filtered.astype(np.int16) + prev) % 256).astype(np.uint8)
    if filter_type == FILTER_SUB:
        return _undo_sub_rows(filtered.reshape(1, -1))[0]
    if filter_type in (FILTER_AVERAGE, FILTER_PAETH):
        out = [0] * len(filtered)
        row_filtered = filtered.tolist()
        row_prev = prev.tolist()
        if filter_type == FILTER_AVERAGE:
            _undo_average_row(row_filtered, row_prev, out)
        else:
            _undo_paeth_row(row_filtered, row_prev, out)
        return np.array(out, dtype=np.uint8)
    raise ValueError(f"unknown filter type: {filter_type}")


def choose_filter(row: np.ndarray, prev: np.ndarray) -> tuple[int, np.ndarray]:
    """Pick the filter minimising sum of absolute residuals (MSAD heuristic).

    This is the standard libpng heuristic: treat filtered bytes as
    signed and pick the filter with minimal total magnitude, a cheap
    proxy for DEFLATE-compressibility.  One-row view of the whole-image
    kernel in :func:`filter_image`.
    """
    rows = np.vstack([prev, row])
    filtered = filter_image(rows)
    # Row 0 is only predictor context; the answer is the second row.
    return int(filtered[1, 0]), filtered[1, 1:].copy()
