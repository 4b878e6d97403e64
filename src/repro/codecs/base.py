"""Codec interface and the payload-type registry.

RegionUpdate carries "the actual payload type of the content which can
be PNG, JPEG, Theora, or any other media type which has an RTP payload
specification" in a 7-bit PT field (section 5.2.2).  A
:class:`CodecRegistry` maps those dynamic payload-type numbers to codec
implementations; "All AH and participant software implementations MUST
support PNG images", which the default registry enforces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.errors import ProtocolError

#: Dynamic RTP payload types (RFC 3551: 96-127 are dynamic).
PT_PNG = 96
PT_RAW = 97
PT_ZLIB = 98
PT_LOSSY_DCT = 99

MAX_PAYLOAD_TYPE = 0x7F

#: Hard caps on decoded image geometry.  A shared desktop is at most a
#: few thousand pixels on a side; these bounds stop a hostile payload
#: from declaring gigapixel dimensions and driving allocation.
MAX_IMAGE_DIM = 32768
MAX_IMAGE_PIXELS = 1 << 24  # 16 Mpx ≈ 64 MiB of RGBA


class CodecError(ProtocolError):
    """Raised when encoding or decoding image payloads fails."""


def check_decode_dims(width: int, height: int, what: str = "image") -> None:
    """Reject hostile dimensions before any allocation happens."""
    if width <= 0 or height <= 0:
        raise CodecError(f"{what} has non-positive dimensions "
                         f"{width}x{height}", reason="semantic")
    if width > MAX_IMAGE_DIM or height > MAX_IMAGE_DIM:
        raise CodecError(f"{what} dimension exceeds {MAX_IMAGE_DIM}",
                         reason="overflow")
    if width * height > MAX_IMAGE_PIXELS:
        raise CodecError(f"{what} exceeds {MAX_IMAGE_PIXELS} pixels",
                         reason="overflow")


def bounded_decompress(data: bytes, expected: int, what: str = "stream",
                       error_cls: type["CodecError"] | None = None) -> bytes:
    """zlib-inflate at most ``expected`` bytes; reject bombs and trailers.

    ``zlib.decompress`` with no bound lets a kilobyte of input expand to
    gigabytes.  This decompresses with a hard output cap and requires the
    stream to produce exactly ``expected`` bytes and to end: a stream
    cut inside its Adler-32 trailer still inflates to every byte, but
    the checksum that would catch corruption was never read.
    """
    import zlib

    err = error_cls or CodecError
    decompressor = zlib.decompressobj()
    try:
        raw = decompressor.decompress(data, expected + 1)
    except zlib.error as exc:
        raise err(f"corrupt {what}: {exc}") from exc
    if len(raw) > expected or decompressor.unconsumed_tail:
        raise err(f"{what} inflates past the declared {expected} bytes",
                  reason="overflow")
    if len(raw) < expected:
        raise err(f"{what} ends short of the declared {expected} bytes",
                  reason="truncated")
    if not decompressor.eof:
        raise err(f"{what} ends before its zlib trailer", reason="truncated")
    if decompressor.unused_data:
        raise err(f"trailing garbage after {what}")
    return raw


@dataclass(frozen=True, slots=True)
class EncodedImage:
    """An encoded image payload plus the PT identifying its format."""

    payload_type: int
    data: bytes
    width: int
    height: int

    def __post_init__(self) -> None:
        if not 0 <= self.payload_type <= MAX_PAYLOAD_TYPE:
            raise CodecError(f"payload type out of range: {self.payload_type}")


class ImageCodec(abc.ABC):
    """Encodes/decodes RGBA pixel rectangles for RegionUpdate payloads."""

    #: The RTP payload type this codec registers under.
    payload_type: int
    #: Human-readable name used in SDP-ish negotiation and reports.
    name: str
    #: Whether a decode returns bit-exact pixels.
    lossless: bool

    @abc.abstractmethod
    def encode(self, pixels: np.ndarray) -> bytes:
        """Encode an ``(h, w, 4) uint8`` array to payload bytes."""

    @abc.abstractmethod
    def decode(self, data: bytes) -> np.ndarray:
        """Decode payload bytes back to an ``(h, w, 4) uint8`` array."""

    def encode_image(self, pixels: np.ndarray) -> EncodedImage:
        _check_pixels(pixels)
        return EncodedImage(
            payload_type=self.payload_type,
            data=self.encode(pixels),
            width=pixels.shape[1],
            height=pixels.shape[0],
        )


def _check_pixels(pixels: np.ndarray) -> None:
    if pixels.ndim != 3 or pixels.shape[2] != 4:
        raise CodecError(f"expected (h, w, 4) RGBA array, got {pixels.shape}")
    if pixels.dtype != np.uint8:
        raise CodecError(f"expected uint8 pixels, got {pixels.dtype}")
    if pixels.shape[0] == 0 or pixels.shape[1] == 0:
        raise CodecError("cannot encode an empty image")


class CodecRegistry:
    """Maps RTP payload types to codecs for one session.

    Mirrors the draft's negotiation model: AH and participant agree on
    a PT↔codec mapping during session establishment, and RegionUpdate's
    PT field selects the decoder at the participant.
    """

    def __init__(self) -> None:
        self._by_pt: dict[int, ImageCodec] = {}
        self._by_name: dict[str, ImageCodec] = {}

    def register(self, codec: ImageCodec) -> None:
        if codec.payload_type in self._by_pt:
            raise CodecError(
                f"payload type {codec.payload_type} already registered"
            )
        if codec.name in self._by_name:
            raise CodecError(f"codec name {codec.name!r} already registered")
        self._by_pt[codec.payload_type] = codec
        self._by_name[codec.name] = codec

    def by_payload_type(self, pt: int) -> ImageCodec:
        try:
            return self._by_pt[pt]
        except KeyError:
            raise CodecError(f"no codec for payload type {pt}") from None

    def by_name(self, name: str) -> ImageCodec:
        try:
            return self._by_name[name]
        except KeyError:
            raise CodecError(f"no codec named {name!r}") from None

    def supports(self, pt: int) -> bool:
        return pt in self._by_pt

    def payload_types(self) -> list[int]:
        return sorted(self._by_pt)

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def intersect_names(self, offered: list[str]) -> list[str]:
        """Codec names supported both locally and by the ``offered`` list."""
        return [n for n in offered if n in self._by_name]


def default_registry() -> CodecRegistry:
    """The mandatory codec set: PNG (required by the draft) + companions."""
    from .lossy import LossyDctCodec
    from .png import PngCodec
    from .raw import RawCodec
    from .zlib_codec import ZlibCodec

    registry = CodecRegistry()
    registry.register(PngCodec())
    registry.register(RawCodec())
    registry.register(ZlibCodec())
    registry.register(LossyDctCodec())
    return registry
