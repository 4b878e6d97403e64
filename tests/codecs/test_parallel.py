"""Parallel encode pool: byte-identity, band errors, thread teardown."""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codecs.lossy import LossyDctCodec, block_band_rows, plane_band_coefficients
from repro.codecs import parallel
from repro.codecs.parallel import (
    EncodePool,
    adler32_combine,
    deflate_band,
    encode_lossy_parallel,
    encode_png_parallel,
    row_bands,
    zlib_header,
)
from repro.codecs.png.chunks import TYPE_IDAT, iter_chunks
from repro.codecs.png.decoder import decode_png
from repro.codecs.png.encoder import encode_png, filtered_scanlines
from repro.obs.instrumentation import Instrumentation


def _pixels(seed: int, h: int, w: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=(h, w, 4), dtype=np.uint8
    )


def _scanline_stream(png: bytes) -> bytes:
    """The filtered scanlines a PNG carries: its IDAT chunks, inflated."""
    idat = b"".join(c.data for c in iter_chunks(png) if c.type == TYPE_IDAT)
    return zlib.decompress(idat)


@pytest.fixture(scope="module")
def pool():
    with EncodePool(2) as p:
        yield p


class TestDeflateAlgebra:
    def test_adler32_combine_matches_zlib(self):
        rng = np.random.default_rng(0)
        for la, lb in [(0, 1), (1, 0), (1000, 70000), (65521, 65521)]:
            a = rng.integers(0, 256, la, dtype=np.uint8).tobytes()
            b = rng.integers(0, 256, lb, dtype=np.uint8).tobytes()
            assert adler32_combine(
                zlib.adler32(a), zlib.adler32(b), len(b)
            ) == zlib.adler32(a + b)

    def test_zlib_header_matches_every_level(self):
        for level in range(10):
            assert zlib_header(level) == zlib.compress(b"x", level)[:2]

    def test_band_members_form_one_zlib_stream(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
        spans = row_bands(len(data), 4)
        members = [
            deflate_band(data[a:b], 6, final=(b == len(data)))
            for a, b in spans
        ]
        stream = (
            zlib_header(6)
            + b"".join(members)
            + struct.pack("!I", zlib.adler32(data))
        )
        assert zlib.decompress(stream) == data

    def test_row_bands_partition_exactly(self):
        for height in (1, 2, 7, 128, 481):
            for bands in (1, 2, 3, 8, 1000):
                spans = row_bands(height, bands)
                assert spans[0][0] == 0
                assert spans[-1][1] == height
                assert len(spans) <= bands
                for (_, e), (s, _) in zip(spans, spans[1:]):
                    assert e == s

    def test_block_band_rows_are_block_aligned(self):
        for height in (1, 8, 9, 100, 481):
            spans = block_band_rows(height, 3)
            assert spans[-1][1] == height
            for y0, _ in spans:
                assert y0 % 8 == 0


class TestPngByteIdentity:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 24),
        bands=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    def test_scanline_stream_identical(self, pool, h, w, bands, seed):
        px = _pixels(seed, h, w)
        out = encode_png_parallel(px, pool, bands=bands)
        assert _scanline_stream(out) == filtered_scanlines(px).tobytes()

    def test_scanline_stream_identical_fixed_filter(self, pool):
        from repro.codecs.png.filters import FILTER_PAETH

        px = _pixels(7, 33, 17)
        out = encode_png_parallel(
            px, pool, adaptive_filter=False, fixed_filter=FILTER_PAETH, bands=3
        )
        serial = filtered_scanlines(
            px, adaptive_filter=False, fixed_filter=FILTER_PAETH
        )
        assert _scanline_stream(out) == serial.tobytes()

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 24),
        bands=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    def test_parallel_png_round_trips(self, pool, h, w, bands, seed):
        px = _pixels(seed, h, w)
        out = encode_png_parallel(px, pool, bands=bands)
        assert np.array_equal(decode_png(out), decode_png(encode_png(px)))

    def test_one_row_frame(self, pool):
        px = _pixels(3, 1, 64)
        out = encode_png_parallel(px, pool, bands=4)
        assert np.array_equal(decode_png(out), px)

    def test_no_pool_falls_back_to_serial_bytes(self):
        px = _pixels(4, 16, 16)
        assert encode_png_parallel(px, None) == encode_png(px)


class TestLossyByteIdentity:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 24),
        bands=st.integers(1, 6),
        quality=st.sampled_from([10, 50, 90]),
        seed=st.integers(0, 100),
    )
    def test_plane_bytes_identical(self, pool, h, w, bands, quality, seed):
        px = _pixels(seed, h, w)
        parallel = pool.lossy_plane_bands(px, quality, bands=bands)
        serial = plane_band_coefficients(px, quality)
        assert parallel == serial

    def test_parallel_lossy_decodes_like_serial(self, pool):
        codec = LossyDctCodec(60)
        px = _pixels(5, 37, 21)
        out = encode_lossy_parallel(px, pool, quality=60, bands=3)
        assert np.array_equal(codec.decode(out), codec.decode(codec.encode(px)))

    def test_no_pool_falls_back_to_serial_bytes(self):
        px = _pixels(6, 16, 16)
        assert encode_lossy_parallel(px, None, quality=70) == LossyDctCodec(
            70
        ).encode(px)


class TestPoolLifecycle:
    def test_close_is_idempotent_and_joins_threads(self):
        baseline = threading.active_count()
        pool = EncodePool(2)
        encode_png_parallel(_pixels(11, 130, 20), pool, bands=2)
        assert threading.active_count() > baseline
        pool.close()
        pool.close()
        assert pool.closed
        assert threading.active_count() == baseline

    def test_closed_pool_still_encodes_in_process(self):
        pool = EncodePool(1)
        pool.close()
        px = _pixels(12, 16, 16)
        assert encode_png_parallel(px, pool) == encode_png(px)

    def test_band_exception_reaches_caller_and_pool_stays_usable(
        self, monkeypatch
    ):
        px = _pixels(13, 200, 30)
        real = parallel.deflate_band

        def failing_last_band(data, level, final):
            if final:
                raise zlib.error("band failed")
            return real(data, level, final)

        with EncodePool(2) as pool:
            monkeypatch.setattr(parallel, "deflate_band", failing_last_band)
            with pytest.raises(zlib.error, match="band failed"):
                encode_png_parallel(px, pool, bands=3)
            with pytest.raises(zlib.error, match="band failed"):
                encode_lossy_parallel(px, pool, bands=3)
            monkeypatch.undo()
            out = encode_png_parallel(px, pool, bands=3)
            assert np.array_equal(decode_png(out), px)
            assert pool.fallbacks == 0

    def test_metrics_flow_through_instrumentation(self):
        obs = Instrumentation()
        with EncodePool(1, obs=obs) as pool:
            encode_png_parallel(_pixels(14, 150, 20), pool, bands=2)
            assert obs.registry.total("encode.bands") == 2
            assert obs.registry.total("encode.workers") == 1
            assert obs.registry.total("encode.fallbacks") == 0
            # One worker and no explicit band count: a PNG would get a
            # single band, so it takes the serial encoder instead.
            encode_png_parallel(_pixels(15, 150, 20), pool)
            assert obs.registry.total("encode.fallbacks") == 1
            assert pool.fallbacks == 1
        assert obs.registry.total("encode.workers") == 0

    def test_workers_clamped_to_at_least_one(self):
        with EncodePool(0) as pool:
            assert pool.workers >= 1
