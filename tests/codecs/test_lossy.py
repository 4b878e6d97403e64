"""Tests for the DCT lossy codec (the JPEG stand-in)."""

import numpy as np
import pytest

from repro.apps.photo import synthetic_photo, ui_screenshot
from repro.codecs.base import CodecError
from repro.codecs.lossy import LossyDctCodec


class TestRoundtripShape:
    @pytest.mark.parametrize("size", [(8, 8), (16, 24), (13, 17), (1, 1), (5, 64)])
    def test_shape_preserved(self, size):
        h, w = size
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (h, w, 4)).astype(np.uint8)
        codec = LossyDctCodec(quality=80)
        out = codec.decode(codec.encode(img))
        assert out.shape == (h, w, 4)
        assert out.dtype == np.uint8

    def test_alpha_decodes_opaque(self):
        img = np.zeros((8, 8, 4), dtype=np.uint8)
        codec = LossyDctCodec()
        out = codec.decode(codec.encode(img))
        assert (out[:, :, 3] == 255).all()


class TestQuality:
    def test_flat_image_near_exact(self):
        img = np.empty((16, 16, 4), dtype=np.uint8)
        img[:, :] = (120, 64, 200, 255)
        codec = LossyDctCodec(quality=90)
        out = codec.decode(codec.encode(img))
        err = np.abs(out[:, :, :3].astype(int) - img[:, :, :3].astype(int))
        assert err.max() <= 4

    def test_photo_psnr_reasonable(self):
        photo = synthetic_photo(64, 64, seed=3)
        codec = LossyDctCodec(quality=75)
        decoded = codec.decode(codec.encode(photo))
        assert codec.psnr(photo, decoded) > 30.0

    def test_higher_quality_higher_psnr(self):
        photo = synthetic_photo(64, 64, seed=4)
        low = LossyDctCodec(quality=20)
        high = LossyDctCodec(quality=95)
        psnr_low = low.psnr(photo, low.decode(low.encode(photo)))
        psnr_high = high.psnr(photo, high.decode(high.encode(photo)))
        assert psnr_high > psnr_low

    def test_higher_quality_larger_payload(self):
        photo = synthetic_photo(64, 64, seed=5)
        assert len(LossyDctCodec(quality=95).encode(photo)) > len(
            LossyDctCodec(quality=20).encode(photo)
        )

    def test_psnr_inf_for_identical(self):
        img = np.zeros((8, 8, 4), dtype=np.uint8)
        assert LossyDctCodec().psnr(img, img) == float("inf")


class TestCompression:
    def test_beats_raw_on_photo(self):
        photo = synthetic_photo(96, 96, seed=6)
        encoded = LossyDctCodec(quality=60).encode(photo)
        assert len(encoded) < photo.nbytes / 3

    def test_metadata(self):
        codec = LossyDctCodec()
        assert not codec.lossless
        assert codec.name == "lossy-dct"


class TestErrors:
    def test_bad_quality(self):
        with pytest.raises(CodecError):
            LossyDctCodec(quality=0)
        with pytest.raises(CodecError):
            LossyDctCodec(quality=101)

    def test_truncated_payload(self):
        with pytest.raises(CodecError):
            LossyDctCodec().decode(b"\x00\x01")

    def test_corrupt_body(self):
        img = np.zeros((8, 8, 4), dtype=np.uint8)
        data = bytearray(LossyDctCodec().encode(img))
        data[12] ^= 0xFF
        with pytest.raises(CodecError):
            LossyDctCodec().decode(bytes(data))

    @pytest.mark.parametrize("cut", [1, 2, 4])
    def test_stream_cut_inside_adler_trailer(self, cut):
        img = synthetic_photo(16, 16, seed=2)
        data = LossyDctCodec().encode(img)
        with pytest.raises(CodecError) as excinfo:
            LossyDctCodec().decode(data[:-cut])
        assert excinfo.value.reason == "truncated"

    def test_wrong_coefficient_count(self):
        import struct
        import zlib

        payload = struct.pack("!IIB", 8, 8, 75) + zlib.compress(b"\x00" * 10)
        with pytest.raises(CodecError):
            LossyDctCodec().decode(payload)


class TestStability:
    def test_recompression_fixed_point(self):
        """Re-encoding a decoded image at the same quality converges:
        the second generation is nearly identical to the first (the
        quantisation grid is a fixed point)."""
        photo = synthetic_photo(64, 64, seed=8)
        codec = LossyDctCodec(quality=75)
        first = codec.decode(codec.encode(photo))
        second = codec.decode(codec.encode(first))
        assert codec.psnr(first, second) > 45.0

    def test_decode_deterministic(self):
        photo = synthetic_photo(32, 32, seed=9)
        codec = LossyDctCodec(quality=60)
        data = codec.encode(photo)
        a = codec.decode(data)
        b = codec.decode(data)
        assert np.array_equal(a, b)

    def test_encode_deterministic(self):
        photo = synthetic_photo(32, 32, seed=10)
        codec = LossyDctCodec(quality=60)
        assert codec.encode(photo) == codec.encode(photo)


class TestUiVsPhoto:
    def test_ui_content_degrades_more_visibly(self):
        """Sharp-edged UI content has worse PSNR than smooth photos at
        equal quality — the draft's rationale for keeping PNG for
        computer-generated content."""
        ui = ui_screenshot(64, 64, seed=1)
        photo = synthetic_photo(64, 64, seed=1)
        codec = LossyDctCodec(quality=50)
        psnr_ui = codec.psnr(ui, codec.decode(codec.encode(ui)))
        psnr_photo = codec.psnr(photo, codec.decode(codec.encode(photo)))
        assert psnr_photo > psnr_ui
