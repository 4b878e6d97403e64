"""Tests for the raw and zlib baseline codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.base import CodecError
from repro.codecs.raw import RawCodec
from repro.codecs.zlib_codec import ZlibCodec


def random_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 4)).astype(np.uint8)


class TestRaw:
    def test_roundtrip(self, noise_image):
        codec = RawCodec()
        assert np.array_equal(codec.decode(codec.encode(noise_image)), noise_image)

    def test_size_is_exact(self, noise_image):
        assert len(RawCodec().encode(noise_image)) == noise_image.nbytes + 8

    def test_truncated_rejected(self, noise_image):
        data = RawCodec().encode(noise_image)
        with pytest.raises(CodecError):
            RawCodec().decode(data[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(CodecError):
            RawCodec().decode(b"\x00\x01")

    def test_zero_dims_rejected(self):
        with pytest.raises(CodecError):
            RawCodec().decode(b"\x00\x00\x00\x00\x00\x00\x00\x00")

    def test_lossless_flag(self):
        assert RawCodec().lossless


class TestZlib:
    def test_roundtrip(self, noise_image):
        codec = ZlibCodec()
        assert np.array_equal(codec.decode(codec.encode(noise_image)), noise_image)

    def test_flat_compresses(self, flat_image):
        assert len(ZlibCodec().encode(flat_image)) < flat_image.nbytes / 10

    def test_levels(self, flat_image):
        for level in (0, 1, 9):
            codec = ZlibCodec(level=level)
            assert np.array_equal(
                codec.decode(codec.encode(flat_image)), flat_image
            )

    def test_bad_level(self):
        with pytest.raises(CodecError):
            ZlibCodec(level=10)

    def test_corrupt_stream_rejected(self, noise_image):
        data = bytearray(ZlibCodec().encode(noise_image))
        data[10] ^= 0xFF
        with pytest.raises(CodecError):
            ZlibCodec().decode(bytes(data))

    @pytest.mark.parametrize("cut", [1, 2, 4])
    def test_stream_cut_inside_adler_trailer_rejected(self, noise_image, cut):
        data = ZlibCodec().encode(noise_image)
        with pytest.raises(CodecError) as excinfo:
            ZlibCodec().decode(data[:-cut])
        assert excinfo.value.reason == "truncated"

    def test_length_mismatch_rejected(self, noise_image):
        import struct
        import zlib as z

        # Valid zlib stream but wrong pixel count for claimed dims.
        payload = struct.pack("!II", 10, 10) + z.compress(b"\x00" * 16)
        with pytest.raises(CodecError):
            ZlibCodec().decode(payload)

    @given(h=st.integers(1, 20), w=st.integers(1, 20), seed=st.integers(0, 50))
    @settings(max_examples=20)
    def test_roundtrip_property(self, h, w, seed):
        img = random_image(h, w, seed)
        codec = ZlibCodec()
        assert np.array_equal(codec.decode(codec.encode(img)), img)
