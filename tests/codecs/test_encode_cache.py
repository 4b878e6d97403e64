"""Content-addressed encode cache: LRU semantics + encoder integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs.base import default_registry
from repro.codecs.cache import EncodeCache
from repro.obs.instrumentation import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.rtp.session import RtpSender
from repro.sharing.ah import ApplicationHost
from repro.sharing.capture import UpdateOp
from repro.sharing.config import PT_REMOTING, SharingConfig
from repro.sharing.encoder import FrameEncoder
from repro.sharing.transport import PacketTransport


class NullTransport(PacketTransport):
    """Accepts and discards every packet."""

    reliable = False

    def send_packet(self, packet: bytes) -> bool:
        return True

    def receive_packets(self) -> list[bytes]:
        return []


def _pixels(seed: int, shape=(16, 16, 4)) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=shape, dtype=np.uint8
    )


class TestEncodeCache:
    def test_key_depends_on_content_and_shape(self):
        a = _pixels(1)
        assert EncodeCache.key(a) == EncodeCache.key(a.copy())
        assert EncodeCache.key(a) != EncodeCache.key(_pixels(2))
        # Same bytes, different geometry: different encodes.
        flat = a.reshape(8, 32, 4)
        assert EncodeCache.key(a) != EncodeCache.key(flat)

    def test_get_put_and_counters(self):
        cache = EncodeCache(max_entries=4)
        key = EncodeCache.key(_pixels(3))
        assert cache.get(key) is None
        cache.put(key, 96, b"data")
        assert cache.get(key) == (96, b"data")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = EncodeCache(max_entries=2)
        k1, k2, k3 = (
            EncodeCache.key(_pixels(s)) for s in (10, 11, 12)
        )
        cache.put(k1, 1, b"one")
        cache.put(k2, 2, b"two")
        assert cache.get(k1) is not None  # touch k1: k2 is now LRU
        cache.put(k3, 3, b"three")
        assert cache.get(k2) is None  # evicted
        assert cache.get(k1) is not None
        assert cache.get(k3) is not None
        assert len(cache) == 2

    def test_zero_entries_disables(self):
        cache = EncodeCache(max_entries=0)
        key = EncodeCache.key(_pixels(4))
        cache.put(key, 1, b"x")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            EncodeCache(max_entries=-1)

    def test_key_depends_on_params(self):
        a = _pixels(1)
        assert EncodeCache.key(a, b"png:6") == EncodeCache.key(a, b"png:6")
        assert EncodeCache.key(a, b"png:6") != EncodeCache.key(a, b"png:9")
        assert EncodeCache.key(a) != EncodeCache.key(a, b"png:6")

    def test_key_of_view_matches_contiguous_copy(self):
        frame = _pixels(5, shape=(64, 64, 4))
        view = frame[8:40, 16:48]  # a damage rect: non-contiguous
        assert not view.flags.c_contiguous
        assert EncodeCache.key(view) == EncodeCache.key(view.copy())

    def test_key_handles_sliced_channels(self):
        # Rows themselves non-contiguous: the bounded-workspace path.
        frame = _pixels(6, shape=(32, 32, 4))
        view = frame[:, ::2]
        assert not view[0].flags.c_contiguous
        assert EncodeCache.key(view) == EncodeCache.key(
            np.ascontiguousarray(view)
        )

    def test_key_never_copies_the_frame(self):
        """Hit-path lookups must not materialise a full-frame copy."""
        import tracemalloc

        frame = _pixels(7, shape=(512, 512, 4))  # 1 MiB
        view = frame[1:509, 3:500]  # non-contiguous damage rect
        EncodeCache.key(frame)  # warm hashlib/workspace allocations
        EncodeCache.key(view)
        tracemalloc.start()
        EncodeCache.key(frame)
        EncodeCache.key(view)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < view[0].nbytes * 8  # a few rows, not a frame


def _encoder(cache, obs=None):
    clock = SimulatedClock()
    sender = RtpSender(PT_REMOTING, now=clock.now)
    return FrameEncoder(
        sender, default_registry(), SharingConfig(), clock.now,
        instrumentation=obs, cache=cache,
    )


class TestFrameEncoderCaching:
    def test_repeat_update_hits_cache(self):
        cache = EncodeCache()
        encoder = _encoder(cache)
        pixels = _pixels(20)
        update = UpdateOp(1, 0, 0, pixels)
        first = encoder.encode_update(update, 0.0)
        second = encoder.encode_update(update, 1.0)
        assert cache.hits == 1
        assert cache.misses == 1
        # Cached payload is byte-identical: same fragments modulo
        # sequence numbers/timestamps.
        assert [p.packet.payload for p in first] == [
            p.packet.payload for p in second
        ]

    def test_cache_shared_across_encoders(self):
        cache = EncodeCache()
        enc_a = _encoder(cache)
        enc_b = _encoder(cache)
        pixels = _pixels(21)
        enc_a.encode_update(UpdateOp(1, 0, 0, pixels), 0.0)
        enc_b.encode_update(UpdateOp(1, 0, 0, pixels), 0.0)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_misses_flat_as_destinations_scale(self):
        """N destinations collapse to exactly one encode per block."""
        cache = EncodeCache()
        encoders = [_encoder(cache) for _ in range(8)]
        pixels = _pixels(25)
        for encoder in encoders:
            encoder.encode_update(UpdateOp(1, 0, 0, pixels), 0.0)
        assert cache.misses == 1
        assert cache.hits == 7

    def test_different_codec_params_do_not_share_entries(self):
        from repro.codecs.base import CodecRegistry
        from repro.codecs.lossy import LossyDctCodec
        from repro.codecs.png import PngCodec

        cache = EncodeCache()
        clock = SimulatedClock()
        encoders = []
        for level in (1, 9):
            registry = CodecRegistry()
            registry.register(PngCodec(compression_level=level))
            registry.register(LossyDctCodec())
            encoders.append(
                FrameEncoder(
                    RtpSender(PT_REMOTING, now=clock.now), registry,
                    SharingConfig(), clock.now, cache=cache,
                )
            )
        pixels = _pixels(26)
        for encoder in encoders:
            encoder.encode_update(UpdateOp(1, 0, 0, pixels), 0.0)
        # Same pixels, different compression level: distinct entries.
        assert cache.misses == 2
        assert cache.hits == 0

    def test_no_cache_still_encodes(self):
        encoder = _encoder(None)
        packets = encoder.encode_update(UpdateOp(1, 0, 0, _pixels(22)), 0.0)
        assert packets

    def test_hit_miss_instrumentation_counters(self):
        obs = Instrumentation()
        cache = EncodeCache()
        encoder = _encoder(cache, obs=obs)
        pixels = _pixels(23)
        encoder.encode_update(UpdateOp(1, 0, 0, pixels), 0.0)
        encoder.encode_update(UpdateOp(1, 0, 0, pixels), 1.0)
        encoder.encode_update(UpdateOp(1, 0, 0, _pixels(24)), 2.0)
        assert obs.registry.total("encoder.cache_hit") == 1
        assert obs.registry.total("encoder.cache_miss") == 2


class TestApplicationHostSharedCache:
    def test_host_shares_one_cache_across_destinations(self):
        clock = SimulatedClock()
        ah = ApplicationHost(640, 480, clock=clock.now)
        assert ah.encode_cache is not None
        s1 = ah.add_participant("p1", NullTransport())
        s2 = ah.add_participant("p2", NullTransport())
        assert s1.scheduler.encoder.cache is ah.encode_cache
        assert s2.scheduler.encoder.cache is ah.encode_cache
