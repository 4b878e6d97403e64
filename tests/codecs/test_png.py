"""Tests for the from-scratch PNG codec."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.base import CodecError
from repro.codecs.png import (
    ALL_FILTERS,
    FILTER_PAETH,
    FILTER_SUB,
    FILTER_UP,
    PngCodec,
    PngFormatError,
    apply_filter,
    choose_filter,
    decode_png,
    encode_png,
    undo_filter,
)
from repro.codecs.png.chunks import SIGNATURE, Chunk, ImageHeader, iter_chunks


def random_image(h: int, w: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4)).astype(np.uint8)


class TestFilters:
    @pytest.mark.parametrize("filter_type", ALL_FILTERS)
    def test_apply_undo_roundtrip(self, filter_type):
        rng = np.random.default_rng(filter_type)
        row = rng.integers(0, 256, 40).astype(np.uint8)
        prev = rng.integers(0, 256, 40).astype(np.uint8)
        filtered = apply_filter(filter_type, row, prev)
        assert np.array_equal(undo_filter(filter_type, filtered, prev), row)

    def test_sub_on_constant_row_is_sparse(self):
        row = np.full(40, 123, dtype=np.uint8)
        prev = np.zeros(40, dtype=np.uint8)
        filtered = apply_filter(FILTER_SUB, row, prev)
        assert (filtered[4:] == 0).all()

    def test_up_on_identical_rows_is_zero(self):
        row = np.arange(40, dtype=np.uint8)
        filtered = apply_filter(FILTER_UP, row, row)
        assert (filtered == 0).all()

    def test_choose_filter_picks_valid(self):
        rng = np.random.default_rng(5)
        row = rng.integers(0, 256, 32).astype(np.uint8)
        prev = rng.integers(0, 256, 32).astype(np.uint8)
        filter_type, filtered = choose_filter(row, prev)
        assert filter_type in ALL_FILTERS
        assert np.array_equal(undo_filter(filter_type, filtered, prev), row)

    def test_unknown_filter_rejected(self):
        row = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            apply_filter(9, row, row)
        with pytest.raises(ValueError):
            undo_filter(9, row, row)


class TestChunks:
    def test_chunk_encode_crc(self):
        chunk = Chunk(b"IDAT", b"hello")
        data = chunk.encode()
        assert data[4:8] == b"IDAT"
        stored_crc = int.from_bytes(data[-4:], "big")
        assert stored_crc == zlib.crc32(b"IDAThello")

    def test_iter_chunks_roundtrip(self):
        stream = SIGNATURE + Chunk(b"IHDR", ImageHeader(2, 2).encode()).encode()
        stream += Chunk(b"IEND", b"").encode()
        chunks = list(iter_chunks(stream))
        assert [c.type for c in chunks] == [b"IHDR", b"IEND"]

    def test_bad_signature(self):
        with pytest.raises(PngFormatError):
            list(iter_chunks(b"not a png"))

    def test_crc_mismatch(self):
        stream = bytearray(
            SIGNATURE
            + Chunk(b"IHDR", ImageHeader(2, 2).encode()).encode()
            + Chunk(b"IEND", b"").encode()
        )
        stream[20] ^= 0xFF  # corrupt IHDR body
        with pytest.raises(PngFormatError):
            list(iter_chunks(bytes(stream)))

    def test_missing_iend(self):
        stream = SIGNATURE + Chunk(b"IHDR", ImageHeader(2, 2).encode()).encode()
        with pytest.raises(PngFormatError):
            list(iter_chunks(stream))


class TestEncodeDecode:
    def test_roundtrip_noise(self):
        img = random_image(33, 47)
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_roundtrip_flat(self, flat_image):
        assert np.array_equal(decode_png(encode_png(flat_image)), flat_image)

    def test_roundtrip_1x1(self):
        img = np.array([[[1, 2, 3, 4]]], dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_fixed_filter_modes(self):
        img = random_image(16, 16, seed=2)
        for filter_type in ALL_FILTERS:
            data = encode_png(img, adaptive_filter=False, fixed_filter=filter_type)
            assert np.array_equal(decode_png(data), img)

    def test_flat_compresses_well(self, flat_image):
        data = encode_png(flat_image)
        assert len(data) < flat_image.nbytes / 20

    def test_idat_chunking(self):
        img = random_image(64, 64, seed=3)
        data = encode_png(img, idat_chunk_size=512)
        idats = [c for c in iter_chunks(data) if c.type == b"IDAT"]
        assert len(idats) > 1
        assert np.array_equal(decode_png(data), img)

    def test_empty_rejected(self):
        with pytest.raises(PngFormatError):
            encode_png(np.zeros((0, 4, 4), dtype=np.uint8))

    def test_wrong_shape_rejected(self):
        with pytest.raises(PngFormatError):
            encode_png(np.zeros((4, 4, 3), dtype=np.uint8))

    @given(
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        seed=st.integers(0, 100),
        level=st.integers(0, 9),
    )
    @settings(max_examples=25)
    def test_roundtrip_property(self, h, w, seed, level):
        img = random_image(h, w, seed)
        assert np.array_equal(
            decode_png(encode_png(img, compression_level=level)), img
        )


class TestDecodeErrors:
    def test_truncated_idat(self):
        img = random_image(8, 8)
        data = bytearray(encode_png(img))
        # Corrupt IDAT body (recompute nothing: CRC check fires first).
        with pytest.raises(PngFormatError):
            offset = data.find(b"IDAT") + 6
            data[offset] ^= 0xFF
            decode_png(bytes(data))

    @pytest.mark.parametrize("cut", [1, 2, 4])
    def test_idat_cut_inside_adler_trailer(self, cut):
        # Every pixel byte still inflates, the chunk CRCs are valid, but
        # the zlib checksum is gone: the stream must not be trusted.
        img = random_image(8, 8)
        chunks = list(iter_chunks(encode_png(img)))
        (header,) = (c for c in chunks if c.type == b"IHDR")
        idat = b"".join(c.data for c in chunks if c.type == b"IDAT")
        stream = (SIGNATURE + header.encode()
                  + Chunk(b"IDAT", idat[:-cut]).encode()
                  + Chunk(b"IEND", b"").encode())
        with pytest.raises(PngFormatError) as excinfo:
            decode_png(stream)
        assert excinfo.value.reason == "truncated"

    def test_unsupported_color_type(self):
        header = ImageHeader(4, 4, bit_depth=8, color_type=2)  # RGB
        stream = SIGNATURE + Chunk(b"IHDR", header.encode()).encode()
        stream += Chunk(b"IDAT", zlib.compress(b"\x00" * (4 * 12 + 4))).encode()
        stream += Chunk(b"IEND", b"").encode()
        with pytest.raises(PngFormatError):
            decode_png(stream)

    def test_no_ihdr(self):
        stream = SIGNATURE + Chunk(b"IEND", b"").encode()
        with pytest.raises(PngFormatError):
            decode_png(stream)

    def test_wrong_decompressed_size(self):
        header = ImageHeader(4, 4)
        stream = SIGNATURE + Chunk(b"IHDR", header.encode()).encode()
        stream += Chunk(b"IDAT", zlib.compress(b"\x00" * 10)).encode()
        stream += Chunk(b"IEND", b"").encode()
        with pytest.raises(PngFormatError):
            decode_png(stream)


class TestPngCodec:
    def test_codec_roundtrip(self):
        codec = PngCodec()
        img = random_image(20, 30, seed=9)
        assert np.array_equal(codec.decode(codec.encode(img)), img)

    def test_codec_metadata(self):
        codec = PngCodec()
        assert codec.lossless
        assert codec.name == "png"

    def test_encode_image_wrapper(self):
        codec = PngCodec()
        img = random_image(5, 7)
        encoded = codec.encode_image(img)
        assert (encoded.width, encoded.height) == (7, 5)
        assert encoded.payload_type == codec.payload_type

    def test_codec_error_on_garbage(self):
        with pytest.raises(CodecError):
            PngCodec().decode(b"garbage")

    def test_bad_level_rejected(self):
        with pytest.raises(CodecError):
            PngCodec(compression_level=10)
