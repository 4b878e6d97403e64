"""Per-destination update scheduling with backlog-aware coalescing.

The section 7 implementation note is the heart of this module:

    "Application hosts shouldn't blindly send every screen update they
    observed to the participants.  Instead, they should monitor the
    state of their TCP transmission buffers ... and only send the most
    recent screen data when there is no backlog.  This will prevent
    screen latency for rapidly-changing images."

With coalescing on, a frame that cannot be sent immediately is folded
into a pending damage set; when the path clears, the scheduler re-reads
the *current* pixels for that damage — intermediate states are never
transmitted.  With coalescing off (the E4 baseline) every frame queues.
For UDP destinations the same logic runs against a token bucket instead
of a TCP backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.ratecontrol import TokenBucket
from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..surface.geometry import Rect
from ..surface.region import Region
from ..surface.window import WindowManager
from .capture import (
    MAX_UPDATE_RECTS,
    CapturedFrame,
    PointerOp,
    UpdateOp,
    window_manager_info,
)
from .config import SharingConfig
from .encoder import FrameEncoder, StampedPacket
from .retransmit import RetransmitCache
from .transport import PacketTransport

#: Idle-sender RTP keepalive for UDP paths (RFC 6263 shape): a no-op
#: packet after this many seconds of send silence keeps the sequence
#: space moving so receivers detect tail loss and NACK it.
KEEPALIVE_INTERVAL = 0.5


@dataclass(slots=True)
class _Pending:
    """Coalesced state waiting for the path to clear."""

    needs_window_info: bool = False
    #: window_id → damage Region in window-local coordinates.
    damage: dict[int, Region] = field(default_factory=dict)
    pointer: PointerOp | None = None
    #: When the oldest still-unsent damage was captured.
    oldest_capture: float | None = None

    @property
    def is_empty(self) -> bool:
        return (
            not self.needs_window_info
            and not self.damage
            and self.pointer is None
        )


class UpdateScheduler:
    """Owns one destination's send queue, pacing, and retransmissions."""

    def __init__(
        self,
        transport: PacketTransport,
        encoder: FrameEncoder,
        manager: WindowManager,
        config: SharingConfig,
        now,
        rate_limiter: TokenBucket | None = None,
        pixel_reader=None,
        instrumentation=None,
    ) -> None:
        self.transport = transport
        self.encoder = encoder
        self.manager = manager
        self.config = config
        self._now = as_now(now)
        self.rate_limiter = rate_limiter
        #: (window, local_rect) → pixels; overridden by the AH so the
        #: in-band pointer model covers re-reads and full refreshes.
        self._read_pixels = pixel_reader or (
            lambda window, rect: window.surface.read_rect(rect)
        )
        obs = instrumentation if instrumentation is not None else NULL
        self._spans = obs.spans
        self.retransmit_cache = (
            RetransmitCache(instrumentation=obs) if config.retransmissions
            else RetransmitCache(0, instrumentation=obs)
        )
        self._queue: list[StampedPacket] = []  # encoded, awaiting path
        self._pending = _Pending()
        self.frames_coalesced = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.keepalives_sent = 0
        self._last_send_time = self._now()
        self.updates_sent_stale_after: list[float] = []
        self._c_packets = obs.counter("scheduler.packets_sent")
        self._c_bytes = obs.counter("scheduler.bytes_sent")
        self._c_keepalives = obs.counter("scheduler.keepalives_sent")
        self._c_coalesced = obs.counter("scheduler.frames_coalesced")
        self._c_retransmits = obs.counter("scheduler.retransmit_packets")
        self._g_queue = obs.gauge("scheduler.queue_depth")
        self._h_staleness = obs.histogram("scheduler.update_staleness_seconds")

    # -- Submission ------------------------------------------------------------

    def submit(self, frame: CapturedFrame) -> None:
        """Offer a captured frame; send now or coalesce for later."""
        if frame.is_empty:
            return
        if not self.config.backlog_coalescing:
            self._queue.extend(self.encoder.encode_frame(frame))
            self.flush()
            return
        if self._path_clear() and not self._queue and self._pending.is_empty:
            self._queue.extend(self.encoder.encode_frame(frame))
            self.flush()
            return
        self._coalesce(frame)
        self.flush()

    def submit_full_refresh(self) -> None:
        """Queue the full current state (PLI response / new participant)."""
        self._pending = _Pending()  # full refresh supersedes everything
        frame = CapturedFrame(window_info=window_manager_info(self.manager))
        for window in self.manager:
            frame.updates.append(
                UpdateOp(
                    window_id=window.window_id,
                    left=window.rect.left,
                    top=window.rect.top,
                    pixels=self._read_pixels(window, window.local_bounds),
                )
            )
        self._queue.extend(self.encoder.encode_frame(frame))
        self.flush()

    def _coalesce(self, frame: CapturedFrame) -> None:
        """Fold a frame into pending state: keep damage, drop stale data."""
        self.frames_coalesced += 1
        self._c_coalesced.inc()
        pending = self._pending
        if frame.window_info is not None:
            pending.needs_window_info = True
        for move in frame.moves:
            # A move cannot be replayed later against fresher pixels —
            # record its destination as plain damage instead.
            self._add_damage(
                move.window_id,
                Rect(move.dest_left, move.dest_top, move.width, move.height),
            )
        for update in frame.updates:
            h, w = update.pixels.shape[:2]
            self._add_damage(update.window_id, Rect(update.left, update.top, w, h))
        if frame.pointer is not None:
            prior = pending.pointer
            image = frame.pointer.image
            if image is None and prior is not None and prior.image is not None:
                image = prior.image  # do not lose an unsent icon change
            pending.pointer = PointerOp(frame.pointer.left, frame.pointer.top, image)
        if pending.oldest_capture is None:
            pending.oldest_capture = self._now()

    def _add_damage(self, window_id: int, absolute_rect: Rect) -> None:
        if not self.manager.has(window_id):
            return  # window closed while we were backed up
        window = self.manager.get(window_id)
        local = absolute_rect.translated(
            -window.rect.left, -window.rect.top
        ).intersection(window.local_bounds)
        if local.is_empty():
            return
        region = self._pending.damage.get(window_id, Region())
        self._pending.damage[window_id] = region.union_rect(local)

    # -- Draining ----------------------------------------------------------------

    def flush(self) -> int:
        """Push queued packets down the path; returns packets sent."""
        sent = 0
        while self._queue:
            stamped = self._queue[0]
            encoded = stamped.packet.encode()
            if not self._admit(len(encoded)):
                break
            if not self.transport.send_packet(encoded):
                if self.transport.reliable:
                    break  # stream backpressure: retry after drain
                # Datagram path: losses are the network's business.
            self.retransmit_cache.store(
                stamped.packet.sequence_number, encoded
            )
            self._queue.pop(0)
            sent += 1
            self.packets_sent += 1
            self.bytes_sent += len(encoded)
            now = self._now()
            self._last_send_time = now
            stale = now - stamped.capture_time
            self.updates_sent_stale_after.append(stale)
            self._c_packets.inc()
            self._c_bytes.inc(len(encoded))
            self._h_staleness.observe(stale)
            if stamped.update_id is not None:
                # Widens per fragment: send spans first to last packet.
                self._spans.mark(stamped.update_id, "send")
        if sent:
            self._g_queue.set(len(self._queue))
        return sent

    def pump(self) -> int:
        """Periodic service: flush the queue, then materialise pending.

        Pending damage is encoded from the windows' *current* pixels —
        the "most recent screen data" rule.
        """
        sent = self.flush()
        self._maybe_keepalive()
        if not self._queue and not self._pending.is_empty and self._path_clear():
            frame = self._materialise_pending()
            self._queue.extend(self.encoder.encode_frame(frame))
            sent += self.flush()
        self._g_queue.set(len(self._queue))
        return sent

    def _materialise_pending(self) -> CapturedFrame:
        pending = self._pending
        self._pending = _Pending()
        frame = CapturedFrame()
        if pending.needs_window_info:
            frame.window_info = window_manager_info(self.manager)
        for window_id, region in pending.damage.items():
            if not self.manager.has(window_id):
                continue
            window = self.manager.get(window_id)
            for rect in region.simplified(MAX_UPDATE_RECTS):
                clipped = rect.intersection(window.local_bounds)
                if clipped.is_empty():
                    continue
                frame.updates.append(
                    UpdateOp(
                        window_id=window_id,
                        left=window.rect.left + clipped.left,
                        top=window.rect.top + clipped.top,
                        pixels=self._read_pixels(window, clipped),
                    )
                )
        frame.pointer = pending.pointer
        return frame

    def _maybe_keepalive(self) -> None:
        """Keep the RTP sequence space moving on idle unreliable paths.

        Without this, a datagram lost at the *tail* of a burst leaves
        no later packet to reveal the gap, and the receiver stays
        silently stale (RFC 6263 motivates exactly this keepalive).
        The payload is message type 0 — unassigned in the registry, so
        participants ignore it while their gap detectors account for
        the sequence number.
        """
        if self.transport.reliable:
            return
        if self._queue:
            # Not idle — just starved.  A keepalive here would consume
            # a sequence number *between* fragments of one update and
            # trip the reassembler's continuity check downstream.
            return
        now = self._now()
        if now - self._last_send_time < KEEPALIVE_INTERVAL:
            return
        packet = self.encoder.sender.next_packet(b"\x00\x00\x00\x00")
        encoded = packet.encode()
        if self._admit(len(encoded)):
            self.transport.send_packet(encoded)
            self.retransmit_cache.store(packet.sequence_number, encoded)
            self.keepalives_sent += 1
            self._c_keepalives.inc()
            self._last_send_time = now

    # -- Path state -----------------------------------------------------------------

    def _path_clear(self) -> bool:
        if self.transport.reliable:
            return self.transport.backlog_bytes() == 0
        if self.rate_limiter is not None:
            return self.rate_limiter.available() >= self.config.max_rtp_payload
        return True

    def _admit(self, size: int) -> bool:
        if self.transport.reliable:
            return self.transport.can_send(size)
        if self.rate_limiter is not None:
            return self.rate_limiter.try_consume(size)
        return True

    # -- Feedback handling -----------------------------------------------------------

    def retransmit(self, sequence_numbers: list[int]) -> int:
        """Replay cached packets named by a Generic NACK."""
        count = 0
        for encoded in self.retransmit_cache.lookup_many(sequence_numbers):
            if self.transport.send_packet(encoded):
                count += 1
                self.bytes_sent += len(encoded)
                self.encoder.stats.retransmit.add(0, len(encoded))
        if count:
            self._c_retransmits.inc(count)
        return count

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def has_pending(self) -> bool:
        return not self._pending.is_empty
