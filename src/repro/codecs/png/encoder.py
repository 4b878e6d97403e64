"""PNG encoder: 8-bit RGBA, per-row adaptive filtering, zlib IDAT."""

from __future__ import annotations

import zlib

import numpy as np

from .chunks import (
    SIGNATURE,
    TYPE_IDAT,
    TYPE_IEND,
    Chunk,
    ImageHeader,
    PngFormatError,
)
from .filters import FILTER_NONE, filter_image


def check_encode_input(pixels: np.ndarray) -> tuple[int, int]:
    """Validate encoder input; returns ``(height, width)``."""
    if pixels.ndim != 3 or pixels.shape[2] != 4 or pixels.dtype != np.uint8:
        raise PngFormatError(f"encoder needs (h, w, 4) uint8, got {pixels.shape}")
    height, width = pixels.shape[:2]
    if height == 0 or width == 0:
        raise PngFormatError("cannot encode an empty image")
    return height, width


def filtered_scanlines(
    pixels: np.ndarray,
    adaptive_filter: bool = True,
    fixed_filter: int = FILTER_NONE,
) -> np.ndarray:
    """The ready-to-compress ``(h, 1 + w*4)`` filtered scanline stream."""
    height, width = check_encode_input(pixels)
    rows = np.ascontiguousarray(pixels).reshape(height, width * 4)
    return filter_image(
        rows, adaptive_filter=adaptive_filter, fixed_filter=fixed_filter
    )


def assemble_png(
    width: int,
    height: int,
    compressed: bytes,
    idat_chunk_size: int = 1 << 20,
) -> bytes:
    """Wrap an already-compressed scanline stream into a PNG datastream.

    ``compressed`` must be one complete zlib stream of the filtered
    scanlines; the parallel encode path builds it from per-band raw
    deflate members, the serial path from one ``zlib.compress``.
    """
    parts = [SIGNATURE, Chunk(b"IHDR", ImageHeader(width, height).encode()).encode()]
    for start in range(0, len(compressed), idat_chunk_size):
        parts.append(
            Chunk(TYPE_IDAT, compressed[start : start + idat_chunk_size]).encode()
        )
    if not compressed:  # pragma: no cover - zlib never returns empty
        parts.append(Chunk(TYPE_IDAT, b"").encode())
    parts.append(Chunk(TYPE_IEND, b"").encode())
    return b"".join(parts)


def encode_png(
    pixels: np.ndarray,
    compression_level: int = 6,
    adaptive_filter: bool = True,
    fixed_filter: int = FILTER_NONE,
    idat_chunk_size: int = 1 << 20,
) -> bytes:
    """Encode an ``(h, w, 4) uint8`` array as a complete PNG datastream.

    ``adaptive_filter`` enables the per-row MSAD filter heuristic;
    switching it off and forcing ``fixed_filter`` is the ablation knob
    for experiment E1.

    All rows are filtered in one whole-image pass (five candidate
    planes, vectorised per-row argmin) into a single preallocated
    buffer that zlib compresses in place — no per-row temporaries, no
    ``bytes()`` copy of the filtered image.  The scalar reference path
    lives in :func:`repro.codecs.png.reference.encode_png_scalar` and
    produces byte-identical output; the multi-thread band path lives
    in :func:`repro.codecs.parallel.encode_png_parallel` and produces a
    byte-identical *scanline stream* (the deflate framing differs).
    """
    height, width = check_encode_input(pixels)
    filtered = filtered_scanlines(
        pixels, adaptive_filter=adaptive_filter, fixed_filter=fixed_filter
    )
    compressed = zlib.compress(filtered, compression_level)
    return assemble_png(width, height, compressed, idat_chunk_size)
