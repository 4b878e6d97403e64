"""Turns captured frames into RTP packets (the AH send path).

One :class:`FrameEncoder` per destination: it owns the destination's
RTP sequence space and applies codec selection, Table 2 fragmentation,
and the shared-timestamp rule for multi-packet updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs.base import CodecRegistry
from ..codecs.cache import EncodeCache
from ..codecs.selector import CodecSelector
from ..core.mouse_pointer import MousePointerInfo
from ..core.move_rectangle import MoveRectangle
from ..core.registry import MSG_MOUSE_POINTER_INFO, MSG_REGION_UPDATE
from ..core.fragmentation import fragment_update
from ..core.window_info import WindowManagerInfo
from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.packet import RtpPacket
from ..rtp.session import RtpSender
from .capture import CapturedFrame, MoveOp, PointerOp, UpdateOp
from .config import SharingConfig


@dataclass(frozen=True, slots=True)
class StampedPacket:
    """An RTP packet plus the capture time of the content it carries.

    ``update_id`` joins the packet to its causal span (None for
    non-traced packets and with observability off)."""

    packet: RtpPacket
    capture_time: float
    update_id: int | None = None


class FrameEncoder:
    """Encodes capture-pipeline output into this destination's stream."""

    def __init__(
        self,
        sender: RtpSender,
        registry: CodecRegistry,
        config: SharingConfig,
        now,
        instrumentation=None,
        cache: EncodeCache | None = None,
        pool=None,
    ) -> None:
        self.sender = sender
        self.registry = registry
        self.config = config
        self._now = as_now(now)
        self.selector = CodecSelector(
            registry,
            lossless_name=config.lossless_codec,
            allow_lossy=config.adaptive_codec,
        )
        #: Session-wide content-addressed cache (shared across the
        #: per-destination encoders; see ApplicationHost).
        self.cache = cache
        #: Session-wide :class:`repro.codecs.parallel.EncodePool`
        #: (shared like the cache); None keeps encodes in-process.
        self.pool = pool
        # The cache key must cover everything that changes encoded
        # bytes: codec choice inputs and the codecs' own parameters.
        # It is identical for every destination of a session, so the
        # N-destination fan-out still collapses to one encode.
        eligible = [self.selector.lossless]
        if self.selector.lossy is not None:
            eligible.append(self.selector.lossy)
        self._cache_params = repr(
            [(c.name, sorted(vars(c).items())) for c in eligible]
        ).encode()
        self._obs = instrumentation if instrumentation is not None else NULL
        self._spans = self._obs.spans
        self.stats = self._obs.traffic_stats()
        self._c_cache_hit = self._obs.counter("encoder.cache_hit")
        self._c_cache_miss = self._obs.counter("encoder.cache_miss")

    # -- Whole frames -----------------------------------------------------

    def encode_frame(self, frame: CapturedFrame) -> list[StampedPacket]:
        """Encode a frame in protocol order: WMI, moves, updates, pointer.

        WMI must precede updates that reference new windows; moves must
        precede the updates that repaint their exposed bands.
        """
        capture_time = self._now()
        packets: list[StampedPacket] = []
        if frame.window_info is not None:
            packets.extend(self.encode_window_info(frame.window_info, capture_time))
        for move in frame.moves:
            packets.extend(self.encode_move(move, capture_time))
        for update in frame.updates:
            packets.extend(self.encode_update(update, capture_time))
        if frame.pointer is not None:
            packets.extend(self.encode_pointer(frame.pointer, capture_time))
        return packets

    # -- Individual ops -----------------------------------------------------

    def encode_window_info(
        self, info: WindowManagerInfo, capture_time: float
    ) -> list[StampedPacket]:
        payload = info.encode()
        # Single-packet message: Table 2 needs marker=1 + FirstPacket=1
        # to read as Not Fragmented (marker=0 would decode as Start
        # Fragment and strand the receiver's reassembler).
        packet = self.sender.next_packet(payload, marker=True)
        self.stats.window_info.add(len(payload), len(packet))
        return [StampedPacket(packet, capture_time)]

    def encode_move(self, move: MoveOp, capture_time: float) -> list[StampedPacket]:
        message = MoveRectangle(
            window_id=move.window_id,
            source_left=move.source_left,
            source_top=move.source_top,
            width=move.width,
            height=move.height,
            dest_left=move.dest_left,
            dest_top=move.dest_top,
        )
        payload = message.encode()
        # Same Table 2 rule as window info: one packet, marker=1.
        packet = self.sender.next_packet(payload, marker=True)
        self.stats.move_rectangle.add(len(payload), len(packet))
        return [StampedPacket(packet, capture_time)]

    def encode_update(
        self, update: UpdateOp, capture_time: float
    ) -> list[StampedPacket]:
        spans = self._spans
        sid = None
        if spans.enabled:
            sid = spans.begin(window=update.window_id)
            # The schedule stage covers capture/damage until encoding
            # starts, measured against the session clock.
            spans.mark(sid, "schedule", start=capture_time)
        payload_type, data, parallel = self._encode_pixels(update.pixels)
        if sid is not None:
            spans.mark(sid, "encode")
            if parallel:
                # Optional stage: present only on updates the worker
                # pool actually encoded (shares the encode interval).
                spans.mark(sid, "parallel_encode")
        fragments = fragment_update(
            MSG_REGION_UPDATE,
            update.window_id,
            payload_type,
            update.left,
            update.top,
            data,
            self.config.max_rtp_payload,
        )
        if sid is not None:
            spans.mark(sid, "fragment")
        # "the timestamp SHALL be the same for all of those packets"
        timestamp = self.sender.current_timestamp()
        out = []
        for fragment in fragments:
            packet = self.sender.next_packet(
                fragment.payload, marker=fragment.marker, timestamp=timestamp
            )
            self.stats.region_update.add(len(fragment.payload), len(packet))
            out.append(StampedPacket(packet, capture_time, update_id=sid))
        if sid is not None:
            spans.bind_range(
                sid,
                self.sender.ssrc,
                out[0].packet.sequence_number,
                len(out),
                rtp_timestamp=timestamp,
            )
        if self._obs.enabled:
            self._obs.event(
                "update.sent",
                rtp_ts=timestamp,
                window=update.window_id,
                bytes=len(data),
                fragments=len(fragments),
                capture=capture_time,
                update_id=sid,
            )
        return out

    def _encode_pixels(self, pixels: np.ndarray) -> tuple[int, bytes, bool]:
        """Select a codec and encode, going through the shared cache.

        Codec selection is a pure function of the pixels (and session
        config), so identical blocks — repeated damage, or the same
        update fanned out to every destination — reuse one encode.
        Returns ``(payload_type, data, parallel)`` where ``parallel``
        records whether the encode pool carried the encode.
        """
        cache = self.cache
        if cache is None:
            codec = self.selector.select(pixels)
            return (codec.payload_type, *self._codec_encode(codec, pixels))
        key = cache.key(pixels, self._cache_params)
        entry = cache.get(key)
        if entry is not None:
            self._c_cache_hit.inc()
            return (*entry, False)
        codec = self.selector.select(pixels)
        data, parallel = self._codec_encode(codec, pixels)
        cache.put(key, codec.payload_type, data)
        self._c_cache_miss.inc()
        return codec.payload_type, data, parallel

    def _codec_encode(self, codec, pixels: np.ndarray) -> tuple[bytes, bool]:
        """Encode via the band-thread pool when one is attached and
        the codec has a band-parallel form; otherwise in-process."""
        pool = self.pool
        if pool is not None and not pool.closed:
            from ..codecs.lossy import LossyDctCodec
            from ..codecs.parallel import (
                MIN_PARALLEL_ROWS,
                encode_lossy_parallel,
                encode_png_parallel,
            )
            from ..codecs.png import PngCodec

            if type(codec) is PngCodec:
                if pixels.shape[0] >= MIN_PARALLEL_ROWS:
                    return (
                        encode_png_parallel(
                            pixels,
                            pool,
                            compression_level=codec.compression_level,
                            adaptive_filter=codec.adaptive_filter,
                            fixed_filter=codec.fixed_filter,
                        ),
                        True,
                    )
            elif type(codec) is LossyDctCodec:
                if pixels.shape[0] >= MIN_PARALLEL_ROWS:
                    return (
                        encode_lossy_parallel(
                            pixels, pool, quality=codec.quality
                        ),
                        True,
                    )
        return codec.encode(pixels), False

    def encode_pointer(
        self, pointer: PointerOp, capture_time: float
    ) -> list[StampedPacket]:
        lossless = self.registry.by_name(self.config.lossless_codec)
        if pointer.image is not None:
            image_data = lossless.encode(np.ascontiguousarray(pointer.image))
        else:
            image_data = b""
        message = MousePointerInfo(
            window_id=0,
            left=pointer.left,
            top=pointer.top,
            content_pt=lossless.payload_type,
            image_data=image_data,
        )
        fragments = fragment_update(
            MSG_MOUSE_POINTER_INFO,
            message.window_id,
            message.content_pt,
            message.left,
            message.top,
            message.image_data,
            self.config.max_rtp_payload,
        )
        timestamp = self.sender.current_timestamp()
        out = []
        for fragment in fragments:
            packet = self.sender.next_packet(
                fragment.payload, marker=fragment.marker, timestamp=timestamp
            )
            self.stats.pointer.add(len(fragment.payload), len(packet))
            out.append(StampedPacket(packet, capture_time))
        return out
