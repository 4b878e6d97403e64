"""Band-thread encode pool: one frame's encode spread over cores.

PR 6 vectorised the capture→encode hot path but left it single-
threaded; this module spreads it across cores the way ShAppliT's
broker-mediated cluster sharing spreads one shared surface's encode
work across executors.  An :class:`EncodePool` owns N threads and maps
the existing band functions over horizontal **bands** of the caller's
own array.  Threads are enough because everything a band runs is zlib
or whole-array numpy, both of which release the GIL, and the filter
and cache workspaces are per-thread (``threading.local``); pixels and
results never leave the process, so there is nothing to stage, share
or unlink.

Two pipelines shard into bands:

* **PNG** — :func:`encode_png_parallel`.  Scanline filtering is band-
  composable (each row's predictors and MSAD choice reach exactly one
  raw row up, see :func:`repro.codecs.png.filters.filter_image`), so
  every band filters independently and the reassembled scanline stream
  is byte-identical to the serial path.  Each band then deflates its
  scanlines as a *raw* deflate member (non-final bands end on a
  ``Z_SYNC_FLUSH`` byte boundary, the last band emits the final block);
  the caller concatenates members behind one zlib header and combines
  the per-band Adler-32 checksums (:func:`adler32_combine`), producing
  a standard single-stream zlib IDAT — the pigz construction.
* **Lossy DCT** — :func:`encode_lossy_parallel`.  8×8 blocks never
  cross a block-aligned band boundary, so each band's quantised
  coefficients (:func:`repro.codecs.lossy.plane_band_coefficients`)
  concatenate into byte-identical plane streams; the entropy stage
  then reuses the parallel deflate.

A missing or closed pool, a small image, or a PNG that would get a
single band encodes on the serial in-process path; an exception raised
inside a band reaches the caller as it would from the serial encoder,
and ``workers=0`` configurations never construct a pool at all.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..obs.instrumentation import NULL
from . import lossy as lossy_mod
from .lossy import block_band_rows, plane_band_coefficients
from .png.encoder import assemble_png, check_encode_input, encode_png
from .png.filters import FILTER_NONE, filter_image

#: Default worker count: one band per core (the caller only waits).
DEFAULT_WORKERS = os.cpu_count() or 1

#: Below this many pixel rows the dispatch overhead beats the win and
#: the encoder hands straight to the in-process path.
MIN_PARALLEL_ROWS = 128

_ADLER_BASE = 65521


def adler32_combine(adler1: int, adler2: int, len2: int) -> int:
    """Adler-32 of ``A + B`` given ``adler32(A)``, ``adler32(B)``, ``len(B)``.

    The zlib ``adler32_combine`` identity: the low word is a plain
    modular sum and the high word shifts by ``len2`` repetitions of
    ``sum1(A)``.  Lets per-band checksums combine without ever touching
    the concatenated data.
    """
    rem = len2 % _ADLER_BASE
    sum1_a = adler1 & 0xFFFF
    sum2_a = (adler1 >> 16) & 0xFFFF
    sum1_b = adler2 & 0xFFFF
    sum2_b = (adler2 >> 16) & 0xFFFF
    sum1 = (sum1_a + sum1_b - 1) % _ADLER_BASE
    sum2 = (sum2_a + sum2_b + rem * (sum1_a - 1)) % _ADLER_BASE
    return (sum2 << 16) | sum1


def zlib_header(level: int) -> bytes:
    """The 2-byte zlib stream header ``zlib.compress(b"", level)`` emits."""
    if level in (0, 1):
        flevel = 0
    elif level < 6:
        flevel = 1
    elif level == 6:
        flevel = 2
    else:
        flevel = 3
    cmf = 0x78  # deflate, 32 KiB window
    flg = flevel << 6
    flg |= 31 - ((cmf * 256 + flg) % 31)  # FCHECK
    return struct.pack("!BB", cmf, flg)


def row_bands(height: int, bands: int) -> list[tuple[int, int]]:
    """Partition ``height`` scanlines into ≤ ``bands`` contiguous spans."""
    if bands < 1:
        raise ValueError("band count must be positive")
    bands = min(bands, height)
    per_band = -(-height // bands)
    return [
        (start, min(start + per_band, height))
        for start in range(0, height, per_band)
    ]


def deflate_band(data, level: int, final: bool) -> bytes:
    """One band as a raw deflate member, concatenatable with its peers.

    Non-final members end with ``Z_SYNC_FLUSH`` (an empty stored block
    that realigns the bit stream to a byte boundary, BFINAL clear);
    the final member emits the terminating block.  Concatenating the
    members therefore forms one well-formed deflate stream.
    """
    comp = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    out = comp.compress(data)
    out += comp.flush(zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH)
    return out


def _zlib_stream(level: int, bands: list[tuple[bytes, int, int]]) -> bytes:
    """One zlib stream from per-band ``(member, adler32, length)`` results."""
    adler = 1
    for _member, band_adler, band_len in bands:
        adler = adler32_combine(adler, band_adler, band_len)
    return (
        zlib_header(level)
        + b"".join(member for member, _, _ in bands)
        + struct.pack("!I", adler)
    )


class EncodePool:
    """N band threads shared by every encoder of a session.

    Any number of callers may encode through one pool at once; each
    blocks until its own bands are done.  ``close()`` (or the context
    manager) joins the threads; a closed pool still encodes, in-process.
    """

    def __init__(self, workers: int = 0, *, obs=None) -> None:
        if workers < 1:
            workers = DEFAULT_WORKERS
        self.workers = workers
        self.fallbacks = 0
        self.closed = False
        # Callers on different threads share the two counters.
        self._count_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            workers, thread_name_prefix="encode-band"
        )
        obs = obs if obs is not None else NULL
        self._g_workers = obs.gauge("encode.workers")
        self._c_bands = obs.counter("encode.bands")
        self._c_fallbacks = obs.counter("encode.fallbacks")
        self._g_workers.set(workers)

    # -- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Finish running bands and join the threads."""
        if self.closed:
            return
        self.closed = True
        self._executor.shutdown(wait=True)
        self._g_workers.set(0)

    def __enter__(self) -> "EncodePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- Dispatch ----------------------------------------------------------

    def _map(self, band, spans: list[tuple[int, int]]) -> list:
        """``band(start, end)`` per span on the threads, in span order.

        The first band to raise re-raises here; bands not yet started
        are cancelled.
        """
        with self._count_lock:
            self._c_bands.inc(len(spans))
        return list(self._executor.map(lambda span: band(*span), spans))

    def _fallback(self) -> None:
        with self._count_lock:
            self.fallbacks += 1
            self._c_fallbacks.inc()

    # -- Band pipelines ----------------------------------------------------

    def band_count(self, height: int, bands: int | None) -> int:
        requested = bands if bands and bands > 0 else self.workers
        return max(1, min(requested, height))

    def png_bands(
        self,
        pixels: np.ndarray,
        *,
        compression_level: int = 6,
        adaptive_filter: bool = True,
        fixed_filter: int = FILTER_NONE,
        bands: int | None = None,
    ) -> bytes | None:
        """The zlib IDAT stream via band threads; None → caller falls back."""
        height, width = pixels.shape[:2]
        n_bands = self.band_count(height, bands)
        if n_bands < 2 and bands is None:
            return None
        rows = np.ascontiguousarray(pixels).reshape(height, width * 4)

        def band(y0: int, y1: int) -> tuple[bytes, int, int]:
            filtered = filter_image(
                rows[y0:y1], adaptive_filter=adaptive_filter,
                fixed_filter=fixed_filter,
                prev_row=rows[y0 - 1] if y0 else None,
            )
            member = deflate_band(filtered, compression_level, y1 == height)
            return member, zlib.adler32(filtered), filtered.nbytes

        return _zlib_stream(
            compression_level, self._map(band, row_bands(height, n_bands))
        )

    def lossy_plane_bands(
        self, pixels: np.ndarray, quality: int, bands: int | None = None
    ) -> list[bytes]:
        """Per-channel quantised plane streams via band threads."""
        height = pixels.shape[0]
        results = self._map(
            lambda y0, y1: plane_band_coefficients(pixels, quality, y0, y1),
            block_band_rows(height, self.band_count(height, bands)),
        )
        return [
            b"".join(band[channel] for band in results) for channel in range(3)
        ]

    def deflate_bands(
        self, data: bytes, level: int = 6, bands: int | None = None
    ) -> bytes:
        """One zlib stream of ``data``, deflated across band threads."""
        view = memoryview(data)
        size = len(data)

        def band(start: int, end: int) -> tuple[bytes, int, int]:
            chunk = view[start:end]
            return (
                deflate_band(chunk, level, end == size),
                zlib.adler32(chunk),
                end - start,
            )

        return _zlib_stream(
            level, self._map(band, row_bands(size, self.band_count(size, bands)))
        )


# -- Codec-level entry points -------------------------------------------------


def _use_pool(pool: EncodePool | None, height: int, bands: int | None) -> bool:
    """Whether an image of ``height`` rows goes to the band threads."""
    return (
        pool is not None
        and not pool.closed
        and (height >= MIN_PARALLEL_ROWS or bands is not None)
    )


def encode_png_parallel(
    pixels: np.ndarray,
    pool: EncodePool | None,
    *,
    compression_level: int = 6,
    adaptive_filter: bool = True,
    fixed_filter: int = FILTER_NONE,
    bands: int | None = None,
    idat_chunk_size: int = 1 << 20,
) -> bytes:
    """PNG-encode across the pool; any shortfall uses the serial path.

    The decompressed IDAT (the filtered scanline stream) is byte-
    identical to :func:`~repro.codecs.png.encoder.encode_png`'s; the
    deflate framing differs (per-band members), so the container bytes
    may not match even though every decoder reconstructs identical
    pixels.
    """
    height, width = check_encode_input(pixels)
    compressed = None
    if _use_pool(pool, height, bands):
        compressed = pool.png_bands(
            pixels, compression_level=compression_level,
            adaptive_filter=adaptive_filter, fixed_filter=fixed_filter,
            bands=bands,
        )
        if compressed is None:
            pool._fallback()
    if compressed is None:
        return encode_png(
            pixels, compression_level=compression_level,
            adaptive_filter=adaptive_filter, fixed_filter=fixed_filter,
            idat_chunk_size=idat_chunk_size,
        )
    return assemble_png(width, height, compressed, idat_chunk_size)


def encode_lossy_parallel(
    pixels: np.ndarray,
    pool: EncodePool | None,
    *,
    quality: int = 75,
    bands: int | None = None,
) -> bytes:
    """Lossy-DCT encode across the pool; shortfalls use the serial path.

    The quantised plane streams (the pre-entropy bytes) are identical
    to the serial encoder's; only the zlib member framing differs.
    """
    lossy_mod._check_pixels(pixels)
    height, width = pixels.shape[:2]
    if not _use_pool(pool, height, bands):
        return lossy_mod.LossyDctCodec(quality).encode(pixels)
    planes = pool.lossy_plane_bands(pixels, quality, bands=bands)
    body = pool.deflate_bands(b"".join(planes), level=6, bands=bands)
    return lossy_mod._HEADER.pack(width, height, quality) + body
