"""PNG decoder for the encoder's subset: 8-bit RGBA, no interlace."""

from __future__ import annotations

import numpy as np

from ..base import bounded_decompress, check_decode_dims
from .chunks import (
    BIT_DEPTH_8,
    COLOR_TYPE_RGBA,
    TYPE_IDAT,
    TYPE_IEND,
    TYPE_IHDR,
    ImageHeader,
    PngFormatError,
    iter_chunks,
)
from .filters import BPP, unfilter_image


def decode_png(data: bytes) -> np.ndarray:
    """Decode a PNG datastream to an ``(h, w, 4) uint8`` array.

    Raises :class:`PngFormatError` for anything outside the encoder's
    subset (non-RGBA colour types, interlacing, 16-bit depth) or for a
    corrupt stream.
    """
    header: ImageHeader | None = None
    idat = bytearray()
    seen_iend = False
    for chunk in iter_chunks(data):
        if chunk.type == TYPE_IHDR:
            if header is not None:
                raise PngFormatError("duplicate IHDR")
            header = ImageHeader.decode(chunk.data)
        elif chunk.type == TYPE_IDAT:
            if header is None:
                raise PngFormatError("IDAT before IHDR")
            idat.extend(chunk.data)
        elif chunk.type == TYPE_IEND:
            seen_iend = True
        # Ancillary chunks are skipped, per spec.
    if header is None:
        raise PngFormatError("no IHDR chunk")
    if not seen_iend:
        raise PngFormatError("no IEND chunk")
    if header.bit_depth != BIT_DEPTH_8 or header.color_type != COLOR_TYPE_RGBA:
        raise PngFormatError(
            "unsupported PNG subset: need 8-bit RGBA, got "
            f"depth={header.bit_depth} color={header.color_type}"
        )
    if header.interlace != 0:
        raise PngFormatError("interlaced PNG not supported")
    if header.compression != 0 or header.filter_method != 0:
        raise PngFormatError("unknown compression/filter method")

    width, height = header.width, header.height
    check_decode_dims(width, height, "PNG image")
    stride = width * BPP
    expected = height * (stride + 1)
    raw = bounded_decompress(idat, expected, "IDAT stream",
                             error_cls=PngFormatError)

    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + stride)
    try:
        out = unfilter_image(scanlines[:, 0], scanlines[:, 1:])
    except ValueError as exc:
        raise PngFormatError(str(exc)) from exc
    return out.reshape(height, width, BPP)
