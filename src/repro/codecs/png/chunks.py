"""PNG container: signature, chunk framing, CRC-32 (ISO 3309).

Implements the PNG datastream structure from the W3C PNG specification
— the container the draft's mandatory image format
(draft-boyaci-avt-png) relies on.  Only what the remoting payload needs
is implemented: 8-bit RGBA (colour type 6), no interlacing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from ..base import CodecError

#: The eight-byte PNG file signature.
SIGNATURE = b"\x89PNG\r\n\x1a\n"

TYPE_IHDR = b"IHDR"
TYPE_IDAT = b"IDAT"
TYPE_IEND = b"IEND"

#: Colour type 6: each pixel is an RGBA quadruple.
COLOR_TYPE_RGBA = 6
BIT_DEPTH_8 = 8

#: The PNG spec caps chunk length at 2^31-1; a declared length beyond
#: the datastream itself is rejected earlier by the truncation check,
#: but cap the count of chunks to bound the iterator's work.
MAX_CHUNKS = 4096


class PngFormatError(CodecError):
    """Raised for malformed PNG datastreams."""


@dataclass(frozen=True, slots=True)
class Chunk:
    """One PNG chunk: 4-char type plus body bytes."""

    type: bytes
    data: bytes

    def encode(self) -> bytes:
        if len(self.type) != 4:
            raise PngFormatError(f"chunk type must be 4 bytes: {self.type!r}")
        crc = zlib.crc32(self.type + self.data) & 0xFFFF_FFFF
        return (
            struct.pack("!I", len(self.data))
            + self.type
            + self.data
            + struct.pack("!I", crc)
        )


@dataclass(frozen=True, slots=True)
class ImageHeader:
    """The IHDR payload for the subset this codec produces."""

    width: int
    height: int
    bit_depth: int = BIT_DEPTH_8
    color_type: int = COLOR_TYPE_RGBA
    compression: int = 0
    filter_method: int = 0
    interlace: int = 0

    _STRUCT = struct.Struct("!IIBBBBB")

    def encode(self) -> bytes:
        if not (1 <= self.width <= 0x7FFF_FFFF and 1 <= self.height <= 0x7FFF_FFFF):
            raise PngFormatError(
                f"image dimensions out of range: {self.width}x{self.height}"
            )
        return self._STRUCT.pack(
            self.width,
            self.height,
            self.bit_depth,
            self.color_type,
            self.compression,
            self.filter_method,
            self.interlace,
        )

    @classmethod
    def decode(cls, data: bytes) -> "ImageHeader":
        if len(data) != cls._STRUCT.size:
            raise PngFormatError(f"IHDR wrong size: {len(data)}")
        width, height, depth, color, comp, filt, interlace = cls._STRUCT.unpack(data)
        header = cls(width, height, depth, color, comp, filt, interlace)
        if width == 0 or height == 0:
            raise PngFormatError("zero image dimension")
        return header


def iter_chunks(data: bytes) -> Iterator[Chunk]:
    """Walk the chunks of a PNG datastream, verifying CRCs.

    Raises :class:`PngFormatError` on a bad signature, truncation, or
    CRC mismatch.
    """
    if not data.startswith(SIGNATURE):
        raise PngFormatError("missing PNG signature", reason="bad_magic")
    offset = len(SIGNATURE)
    count = 0
    while offset < len(data):
        if count >= MAX_CHUNKS:
            raise PngFormatError(f"more than {MAX_CHUNKS} chunks",
                                 reason="overflow")
        count += 1
        if len(data) < offset + 8:
            raise PngFormatError("truncated chunk header", reason="truncated")
        (length,) = struct.unpack_from("!I", data, offset)
        chunk_type = data[offset + 4 : offset + 8]
        body_start = offset + 8
        body_end = body_start + length
        if len(data) < body_end + 4:
            raise PngFormatError(f"truncated {chunk_type!r} chunk",
                                 reason="truncated")
        body = data[body_start:body_end]
        (stored_crc,) = struct.unpack_from("!I", data, body_end)
        actual_crc = zlib.crc32(body, zlib.crc32(chunk_type))
        if stored_crc != actual_crc:
            raise PngFormatError(f"CRC mismatch in {chunk_type!r} chunk")
        yield Chunk(chunk_type, body)
        offset = body_end + 4
        if chunk_type == TYPE_IEND:
            return
    raise PngFormatError("datastream ended without IEND", reason="truncated")
