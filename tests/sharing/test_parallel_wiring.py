"""Pool wiring through the sharing tier: config → host → encoder → span."""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.codecs.base import default_registry
from repro.codecs.parallel import EncodePool, encode_png_parallel
from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.rtp.session import RtpSender
from repro.sharing.ah import ApplicationHost
from repro.sharing.capture import UpdateOp
from repro.sharing.config import PT_REMOTING, SharingConfig
from repro.sharing.encoder import FrameEncoder
from repro.sharing.server import SessionServer
from repro.sharing.transport import PacketTransport


class NullTransport(PacketTransport):
    reliable = False

    def send_packet(self, packet: bytes) -> bool:
        return True

    def receive_packets(self) -> list[bytes]:
        return []


def _photo(seed: int, h: int = 160, w: int = 64) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=(h, w, 4), dtype=np.uint8
    )


def _encoder(pool, obs=None, config=None):
    clock = SimulatedClock()
    sender = RtpSender(PT_REMOTING, now=clock.now)
    return FrameEncoder(
        sender, default_registry(), config or SharingConfig(), clock.now,
        instrumentation=obs, pool=pool,
    )


class TestFrameEncoderPool:
    def test_large_update_routes_through_pool(self):
        obs = Instrumentation()
        with EncodePool(2, obs=obs) as pool:
            encoder = _encoder(pool, obs=obs)
            packets = encoder.encode_update(UpdateOp(1, 0, 0, _photo(1)), 0.0)
            assert packets
            assert obs.registry.total("encode.bands") > 0
            sid = packets[0].update_id
            assert "parallel_encode" in obs.spans.get_open(sid).stages

    def test_small_update_stays_in_process(self):
        obs = Instrumentation()
        with EncodePool(1, obs=obs) as pool:
            encoder = _encoder(pool, obs=obs)
            packets = encoder.encode_update(
                UpdateOp(1, 0, 0, _photo(2, h=16, w=16)), 0.0
            )
            assert packets
            assert obs.registry.total("encode.bands") == 0
            sid = packets[0].update_id
            assert "parallel_encode" not in obs.spans.get_open(sid).stages

    def test_parallel_output_decodes_identically(self):
        pixels = _photo(3)
        with EncodePool(2) as pool:
            with_pool = _encoder(pool)
            without = _encoder(None)
            a = with_pool._encode_pixels(pixels)
            b = without._encode_pixels(pixels)
        assert a[0] == b[0]  # same codec choice
        from repro.codecs.base import default_registry as reg

        codec = reg().by_payload_type(a[0])
        assert np.array_equal(codec.decode(a[1]), codec.decode(b[1]))

    def test_encoders_share_one_pool_from_concurrent_threads(self):
        # More callers than cores and a short switch interval: a lost
        # update on the shared band counter, or bands crossing between
        # callers, would break the two asserts below.
        callers, frames, workers = 4, 6, 2
        obs = Instrumentation()
        codec = default_registry().by_name(SharingConfig().lossless_codec)
        failures: list[str] = []

        def run(index: int, pool: EncodePool) -> None:
            encoder = _encoder(pool, config=SharingConfig(adaptive_codec=False))
            for frame in range(frames):
                pixels = _photo(100 * index + frame)
                _pt, data, pooled = encoder._encode_pixels(pixels)
                if not pooled or not np.array_equal(codec.decode(data), pixels):
                    failures.append(f"caller {index} frame {frame}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EncodePool(workers, obs=obs) as pool:
                threads = [
                    threading.Thread(target=run, args=(i, pool))
                    for i in range(callers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert obs.registry.total("encode.bands") == callers * frames * workers


class TestApplicationHostPool:
    def test_workers_zero_means_no_pool(self):
        ah = ApplicationHost(320, 240, clock=SimulatedClock().now)
        assert ah.encode_pool is None
        ah.close()  # no-op, must not raise

    def test_host_owns_and_shares_one_pool(self):
        config = SharingConfig(encode_workers=1)
        ah = ApplicationHost(
            320, 240, config=config, clock=SimulatedClock().now
        )
        try:
            assert ah.encode_pool is not None
            s1 = ah.add_participant("p1", NullTransport())
            s2 = ah.add_participant("p2", NullTransport())
            assert s1.scheduler.encoder.pool is ah.encode_pool
            assert s2.scheduler.encoder.pool is ah.encode_pool
        finally:
            ah.close()
        assert ah.encode_pool.closed

    def test_close_joins_the_band_threads(self):
        baseline = threading.active_count()
        ah = ApplicationHost(
            320, 240, config=SharingConfig(encode_workers=2),
            clock=SimulatedClock().now,
        )
        encoder = ah.add_participant("p1", NullTransport()).scheduler.encoder
        encoder.encode_update(UpdateOp(1, 0, 0, _photo(4)), 0.0)
        assert threading.active_count() > baseline
        ah.close()
        assert threading.active_count() == baseline

    def test_invalid_worker_config_rejected(self):
        with pytest.raises(ValueError):
            SharingConfig(encode_workers=-2)


class TestHostedSessionPool:
    def test_session_close_tears_down_pool(self):
        async def scenario():
            async with SessionServer() as server:
                code = server.host(
                    screen_width=320, screen_height=240,
                    config=SharingConfig(
                        adaptive_codec=False, encode_workers=1
                    ),
                )
                session = server.session(code)
                pool = session.ah.encode_pool
                assert pool is not None and not pool.closed
                session.close(reason="test")
                assert pool.closed

        asyncio.run(scenario())

    def test_server_stop_joins_the_band_threads(self):
        async def scenario():
            baseline = threading.active_count()
            server = SessionServer()
            await server.start()
            code = server.host(
                screen_width=320, screen_height=240,
                config=SharingConfig(adaptive_codec=False, encode_workers=2),
            )
            encode_png_parallel(
                _photo(5), server.session(code).ah.encode_pool
            )
            assert threading.active_count() > baseline
            await server.stop()
            assert threading.active_count() == baseline

        asyncio.run(scenario())
