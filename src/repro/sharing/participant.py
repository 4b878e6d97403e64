"""The participant: receives screen state, renders it, sends HIP events.

Responsibilities per the draft:

* join: send PLI over UDP (section 4.3) — TCP participants are synced
  by the AH on connect (section 4.4);
* maintain local windows from WindowManagerInfo — create on new
  windowID, close on disappearance, **keep the image** across
  resize/relocation (section 5.2.1);
* reassemble fragmented updates (Table 2) through a jitter buffer on
  unreliable paths, decode via the negotiated codec registry, apply
  RegionUpdate / MoveRectangle / MousePointerInfo;
* render with a local layout policy (Figures 3-5);
* report missing packets (Generic NACK) when the AH supports
  retransmissions, and request full refreshes (PLI) when reassembly
  loses updates;
* send mouse/keyboard events as HIP messages in absolute AH
  coordinates.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import numpy as np

from ..codecs.base import CodecError, CodecRegistry, default_registry
from ..core.errors import ProtocolError
from ..core.header import CommonHeader
from ..core.hip import (
    KeyPressed,
    KeyReleased,
    MouseMoved,
    MousePressed,
    MouseReleased,
    MouseWheelMoved,
    split_text_for_key_typed,
)
from ..core.fragmentation import UpdateReassembler
from ..core.move_rectangle import MoveRectangle
from ..core.registry import (
    MSG_MOUSE_POINTER_INFO,
    MSG_MOVE_RECTANGLE,
    MSG_REGION_UPDATE,
    MSG_WINDOW_MANAGER_INFO,
)
from ..core.window_info import WindowManagerInfo, WindowRecord
from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.jitter_buffer import JitterBuffer
from ..rtp.packet import RtpPacket
from ..rtp.reports import DEFAULT_INTERVAL as RTCP_DEFAULT_INTERVAL
from ..rtp.session import RtpSender
from ..surface.framebuffer import BLACK, Framebuffer
from ..surface.geometry import Point, Rect
from .config import PT_HIP, SharingConfig
from .layout import LayoutPolicy, OriginalLayout
from .quarantine import QuarantinePolicy
from .stream import ReceiveLeg
from .transport import PacketTransport, is_rtcp

#: A partial update older than this many seconds is dropped without
#: completing (its END fragment is never coming); the PLI that follows
#: repairs the window.
PARTIAL_UPDATE_DEADLINE = 2.0


@dataclass(slots=True)
class LocalWindow:
    """Participant-side state of one shared window."""

    record: WindowRecord  # AH-side geometry (absolute coordinates)
    local_origin: Point  # where this participant draws it
    surface: Framebuffer  # window-sized pixel store

    @property
    def ah_rect(self) -> Rect:
        r = self.record
        return Rect(r.left, r.top, r.width, r.height)


class Participant:
    """One receiver/controller of a shared session."""

    def __init__(
        self,
        participant_id: str,
        transport: PacketTransport,
        clock=None,
        config: SharingConfig | None = None,
        registry: CodecRegistry | None = None,
        layout: LayoutPolicy | None = None,
        screen_width: int = 1280,
        screen_height: int = 1024,
        reorder_wait: float = 0.25,
        rtcp_interval: float | None = None,
        rng: random.Random | None = None,
        obs=None,
    ) -> None:
        self.id = participant_id
        self.transport = transport
        if clock is None:
            raise TypeError("Participant requires a clock")
        self._now = as_now(clock)
        self._obs = (obs if obs is not None else NULL).scoped(
            peer=participant_id, side="participant"
        )
        #: Shared with the AH side of the session: arriving sequence
        #: numbers resolve to the update span that sent them.
        self._spans = self._obs.spans
        self.config = config or SharingConfig()
        self.registry = registry or default_registry()
        self.layout = layout or OriginalLayout()
        self.screen = Rect(0, 0, screen_width, screen_height)

        r = rng or random.Random(zlib.crc32(participant_id.encode()))
        self.hip_sender = RtpSender(
            PT_HIP, now=self._now, rng=r, instrumentation=self._obs
        )
        self.ssrc = self.hip_sender.ssrc
        #: The remoting stream's receive side: gap tracking, the NACK
        #: retry machine, RRs on the remoting stream and SRs for HIP
        #: (``rtcp_interval`` None keeps the RFC 3550 5 s default).
        self.leg = ReceiveLeg(
            transport, self._now, self.ssrc,
            cname=f"participant/{participant_id}", rng=r,
            sender=self.hip_sender,
            rtcp_interval=(
                RTCP_DEFAULT_INTERVAL if rtcp_interval is None
                else rtcp_interval
            ),
            obs=self._obs,
        )
        # Reordering only matters on unreliable paths; the wait must
        # exceed the path RTT for NACK retransmissions to arrive in time.
        self._jitter = (
            None if transport.reliable
            else JitterBuffer(
                now=self._now, max_wait=reorder_wait,
                instrumentation=self._obs,
            )
        )
        #: Message type → handler(payload, packet) for registered
        #: extension types (section 9); unhandled types are ignored.
        self.extension_handlers: dict = {}
        self.pli_retry_interval = 1.0
        self._last_pli_time = float("-inf")
        #: Decode-time geometry validation against the negotiated
        #: desktop (section 8): update origins outside these bounds are
        #: rejected at ingress, before they reach app dispatch.
        self._desktop_bounds = (
            self.config.max_desktop_width, self.config.max_desktop_height
        )
        self._reassembler = UpdateReassembler(
            MSG_REGION_UPDATE,
            now=self._now,
            max_partial_age=PARTIAL_UPDATE_DEADLINE,
            instrumentation=self._obs.scoped(stream="remoting"),
            bounds=self._desktop_bounds,
        )
        self._pointer_reassembler = UpdateReassembler(
            MSG_MOUSE_POINTER_INFO,
            now=self._now,
            max_partial_age=PARTIAL_UPDATE_DEADLINE,
            instrumentation=self._obs.scoped(stream="pointer"),
            bounds=self._desktop_bounds,
        )
        #: Malformed packets count against the upstream sender's
        #: rejection budget; a tripped budget mutes the uplink for the
        #: cool-down (the participant has one remote: the AH).
        self.quarantine = QuarantinePolicy(
            now=self._now, instrumentation=self._obs
        )

        #: windowID → LocalWindow, plus z-order (bottom first).
        self.windows: dict[int, LocalWindow] = {}
        self.z_order: list[int] = []
        self.pointer_position: tuple[int, int] | None = None
        self.pointer_image: np.ndarray | None = None

        self.stats = self._obs.traffic_stats()
        self.update_latency = self._obs.latency_recorder(
            "participant.update_latency_seconds"
        )
        self.updates_applied = 0
        self.moves_applied = 0
        self.wmi_applied = 0
        self.plis_sent = 0
        self.nacks_sent = 0
        self.malformed_dropped = 0
        self._c_updates = self._obs.counter("participant.updates_applied")
        self._c_moves = self._obs.counter("participant.moves_applied")
        self._c_wmi = self._obs.counter("participant.wmi_applied")
        self._c_plis = self._obs.counter("participant.plis_sent")
        self._c_nacks = self._obs.counter("participant.nacks_sent")
        self._c_malformed = self._obs.counter("participant.malformed_dropped")
        self._dropped_seen = 0
        self._joined = False

    # -- Join -----------------------------------------------------------------

    def join(self) -> None:
        """Announce presence.  UDP participants request the initial full
        state with a PLI (section 4.3); TCP participants just wait for
        the AH's connect-time sync."""
        if not self.transport.reliable:
            self.send_pli()
        self._joined = True

    # -- Receive path ------------------------------------------------------------

    def process_incoming(self) -> int:
        """Drain the transport and apply everything; returns msg count."""
        applied = 0
        for raw in self.transport.receive_packets():
            if self.quarantine.is_quarantined("remote"):
                continue  # hostile upstream: drop unread until cool-down
            if is_rtcp(raw):
                self._handle_rtcp(raw)
                continue
            try:
                packet, recovered = self.leg.receive_rtp(raw)
            except ProtocolError as exc:
                self._reject("rtp", exc)
                continue
            if packet is None:
                continue
            sid = None
            if self._spans.enabled:
                sid = self._spans.resolve(
                    packet.ssrc, packet.sequence_number
                )
                if sid is not None:
                    self._spans.mark(sid, "receive")
            if self._jitter is not None:
                if recovered:
                    self._spans.recovered(sid)
                self._jitter.insert(packet)
            else:
                applied += self._apply_packet(packet)
        if self._jitter is not None:
            for packet in self._jitter.pop_ready():
                applied += self._apply_packet(packet)
            # A partial update whose END fragment is never coming must
            # not stall reassembly forever (deadline expiry policy).
            self._reassembler.expire()
            self._pointer_reassembler.expire()
        self._maybe_request_recovery()
        self._count_rtcp_sent(self.leg.send_report())
        return applied

    def _count_rtcp_sent(self, size: int) -> None:
        if size:
            self.stats.rtcp.add(size, size)

    def _reject(self, surface: str, exc: ProtocolError) -> None:
        """Count one malformed packet against the sender's budget."""
        self.malformed_dropped += 1
        self._c_malformed.inc()
        self.quarantine.record_rejection("remote", surface, exc)

    def _handle_rtcp(self, raw: bytes) -> None:
        """Consume AH-side RTCP (SRs feed our RR's LSR/DLSR fields)."""
        try:
            reports = self.leg.receive_rtcp(raw)
        except ProtocolError as exc:
            self._reject("rtcp", exc)
            return
        for report in reports:
            self.leg.reporter.saw_sender_report(report)

    def _apply_packet(self, packet: RtpPacket) -> int:
        """Apply one remoting packet.

        Malformed input (:class:`ProtocolError`) is counted against the
        sender's rejection budget and dropped; anything else is a local
        bug and propagates — swallowing it here hid real defects.
        """
        try:
            return self._apply_packet_unchecked(packet)
        except ProtocolError as exc:
            self._reject("remoting", exc)
            return 0

    def _apply_packet_unchecked(self, packet: RtpPacket) -> int:
        payload = packet.payload
        if len(payload) < 4:
            return 0
        header = CommonHeader.decode(payload)
        wire = len(packet)
        if header.message_type == MSG_WINDOW_MANAGER_INFO:
            self.stats.window_info.add(len(payload), wire)
            self._apply_window_info(WindowManagerInfo.decode(payload))
            return 1
        if header.message_type == MSG_MOVE_RECTANGLE:
            self.stats.move_rectangle.add(len(payload), wire)
            self._apply_move(
                MoveRectangle.decode(payload, bounds=self._desktop_bounds)
            )
            return 1
        if header.message_type == MSG_REGION_UPDATE:
            self.stats.region_update.add(len(payload), wire)
            sid = None
            if self._spans.enabled:
                sid = self._spans.resolve(
                    packet.ssrc, packet.sequence_number
                )
                # Widens per fragment: reassemble spans first fragment
                # to the completing one.
                self._spans.mark(sid, "reassemble")
            update = self._reassembler.push(
                payload, packet.marker, packet.timestamp,
                sequence_number=packet.sequence_number,
            )
            if update is not None:
                self._apply_region_update(
                    update.window_id, update.content_pt,
                    update.left, update.top, update.data, packet.timestamp,
                    span_id=sid,
                )
                return 1
            return 0
        if header.message_type == MSG_MOUSE_POINTER_INFO:
            self.stats.pointer.add(len(payload), wire)
            update = self._pointer_reassembler.push(
                payload, packet.marker, packet.timestamp,
                sequence_number=packet.sequence_number,
            )
            if update is not None:
                self._apply_pointer(
                    update.left, update.top, update.content_pt, update.data
                )
                return 1
            return 0
        # Registered extension types get their handler; everything else
        # is an unknown type that participants MAY ignore.
        handler = self.extension_handlers.get(header.message_type)
        if handler is not None and handler(payload, packet):
            return 1
        return 0

    # -- Message application ---------------------------------------------------------

    def _apply_window_info(self, info: WindowManagerInfo) -> None:
        self.wmi_applied += 1
        self._c_wmi.inc()
        placements = self.layout.place(list(info.records), self.screen)
        new_windows: dict[int, LocalWindow] = {}
        for record in info.records:
            existing = self.windows.get(record.window_id)
            origin = placements.get(record.window_id, Point(0, 0))
            if existing is None:
                surface = Framebuffer(record.width, record.height, fill=BLACK)
            else:
                surface = existing.surface
                old = existing.record
                if (old.width, old.height) != (record.width, record.height):
                    # Resize keeps the existing image in the overlap.
                    resized = Framebuffer(record.width, record.height, fill=BLACK)
                    keep_w = min(old.width, record.width)
                    keep_h = min(old.height, record.height)
                    resized.write_rect(
                        0, 0, surface.read_rect(Rect(0, 0, keep_w, keep_h))
                    )
                    surface = resized
            new_windows[record.window_id] = LocalWindow(record, origin, surface)
        # Windows absent from the message MUST be closed.
        self.windows = new_windows
        self.z_order = [r.window_id for r in info.records]

    def _apply_move(self, msg: MoveRectangle) -> None:
        window = self.windows.get(msg.window_id)
        if window is None:
            return
        ah = window.ah_rect
        # Both rectangles must lie inside the target window: an origin
        # above/left of it would turn into a negative surface index and
        # silently wrap, a classic hostile-geometry corruption.
        for left, top in (
            (msg.source_left, msg.source_top),
            (msg.dest_left, msg.dest_top),
        ):
            if (left < ah.left or top < ah.top
                    or left + msg.width > ah.left + ah.width
                    or top + msg.height > ah.top + ah.height):
                raise ProtocolError(
                    f"MoveRectangle geometry outside window {msg.window_id}",
                    reason="semantic",
                )
        self.moves_applied += 1
        self._c_moves.inc()
        src = Rect(
            msg.source_left - ah.left,
            msg.source_top - ah.top,
            msg.width,
            msg.height,
        )
        window.surface.copy_rect(
            src, msg.dest_left - ah.left, msg.dest_top - ah.top
        )

    def _apply_region_update(
        self,
        window_id: int,
        content_pt: int,
        left: int,
        top: int,
        data: bytes,
        rtp_timestamp: int,
        span_id: int | None = None,
    ) -> None:
        window = self.windows.get(window_id)
        if window is None:
            self._spans.abandon(span_id, "no_window")
            return
        if not self.registry.supports(content_pt):
            # Un-negotiated codec: cannot render this update.
            self._spans.abandon(span_id, "codec_unsupported")
            return
        try:
            pixels = self.registry.by_payload_type(content_pt).decode(data)
        except CodecError as exc:
            self._reject("codec", exc)
            self._spans.abandon(span_id, "codec_error")
            return  # corrupt payload survived transport checks: skip
        if span_id is not None:
            self._spans.mark(span_id, "decode")
        ah = window.ah_rect
        if left < ah.left or top < ah.top:
            # Negative surface offsets would wrap numpy indexing.
            raise ProtocolError(
                f"update origin {left},{top} above window {window_id}",
                reason="semantic",
            )
        window.surface.write_rect(left - ah.left, top - ah.top, pixels)
        if span_id is not None:
            self._spans.mark(span_id, "apply")
            self._spans.complete(span_id)
        self.updates_applied += 1
        self._c_updates.inc()
        latency = self.leg.latency_of(rtp_timestamp)
        if latency is not None:
            self.update_latency.record(latency)
        if self._obs.enabled:
            self._obs.event(
                "update.applied",
                rtp_ts=rtp_timestamp,
                window=window_id,
                bytes=len(data),
                update_id=span_id,
            )

    def _apply_pointer(
        self, left: int, top: int, content_pt: int, image_data: bytes
    ) -> None:
        self.pointer_position = (left, top)
        if image_data and self.registry.supports(content_pt):
            try:
                self.pointer_image = self.registry.by_payload_type(
                    content_pt
                ).decode(image_data)
            except CodecError as exc:
                # Keep the stored image, per section 5.2.4.
                self._reject("codec", exc)

    # -- Recovery -------------------------------------------------------------------

    def _maybe_request_recovery(self) -> None:
        """NACK fresh gaps; PLI when an update was irrecoverably lost."""
        if self.transport.reliable:
            return
        # A late joiner whose initial PLI was lost retries until the
        # first WindowManagerInfo arrives (section 4.3 join handshake).
        if (
            self._joined
            and self.wmi_applied == 0
            and self._now() - self._last_pli_time >= self.pli_retry_interval
        ):
            self.send_pli()
        # Irrecoverable loss: either the reassembler abandoned a partial
        # update, or the jitter buffer skipped a hole that no NACK
        # retransmission filled in time.  A skipped packet may have been
        # a complete single-packet update, so staleness would otherwise
        # be silent — only a full refresh (PLI) restores correctness.
        dropped = (
            self._reassembler.updates_dropped
            + self._pointer_reassembler.updates_dropped
        )
        if self._jitter is not None:
            dropped += self._jitter.sequences_skipped
        if dropped > self._dropped_seen:
            self._dropped_seen = dropped
            self.send_pli()
        if self._jitter is not None:
            # Holes the jitter buffer already stepped past (timeout or
            # capacity pressure) are beyond saving: a retransmission
            # would arrive as a late drop.  Cancel their retry state and
            # stop reporting them as missing.
            for seq in self._jitter.drain_skipped():
                self.leg.forget(seq)
        if self.config.retransmissions:
            actions = self.leg.poll_recovery()
            if actions.nack_now:
                self.send_nack(actions.nack_now)
            if actions.gave_up:
                # Retries exhausted (the leg has stopped NACKing these
                # sequences): degrade gracefully.  Release the
                # jitter-buffer holes so later packets flow and ask the
                # AH for a full window refresh to repair whatever the
                # lost packets carried.
                if self._spans.enabled:
                    for seq in actions.gave_up:
                        self._spans.abandon(
                            self._spans.resolve(self.leg.media_ssrc, seq),
                            "give_up",
                        )
                self._jitter.abandon(actions.gave_up)
                self.send_pli()

    def send_pli(self) -> None:
        """Request a full refresh of the shared region (section 5.3.1)."""
        self._last_pli_time = self._now()
        self._count_rtcp_sent(self.leg.send_pli())
        self.plis_sent += 1
        self._c_plis.inc()
        if self._obs.enabled:
            self._obs.event("pli.sent")

    def send_nack(self, missing: list[int]) -> None:
        """Report missing RTP packets (section 5.3.2)."""
        sizes = self.leg.send_nacks(missing)
        if not sizes:
            return
        for size in sizes:
            self._count_rtcp_sent(size)
        self.nacks_sent += len(sizes)
        self._c_nacks.inc(len(sizes))
        if self._obs.enabled:
            self._obs.event("nack.sent", count=len(missing))

    # -- HIP send path ------------------------------------------------------------------

    def _send_hip(self, payload: bytes) -> None:
        # HIP messages always fit one packet; Table 2 decodes
        # marker=1 + FirstPacket=1 as Not Fragmented.
        packet = self.hip_sender.next_packet(payload, marker=True)
        encoded = packet.encode()
        if self.transport.send_packet(encoded):
            self.stats.hip.add(len(payload), len(encoded))

    def _to_ah_point(self, window_id: int, local_x: int, local_y: int) -> tuple[int, int]:
        """Window-local participant coordinates → AH absolute coordinates."""
        window = self.windows[window_id]
        return (
            window.record.left + local_x,
            window.record.top + local_y,
        )

    def click(self, window_id: int, local_x: int, local_y: int,
              button: int = 1) -> None:
        """Press+release at a window-local point."""
        self.press_mouse(window_id, local_x, local_y, button)
        self.release_mouse(window_id, local_x, local_y, button)

    def press_mouse(self, window_id: int, local_x: int, local_y: int,
                    button: int = 1) -> None:
        x, y = self._to_ah_point(window_id, local_x, local_y)
        self._send_hip(MousePressed(window_id, button, x, y).encode())

    def release_mouse(self, window_id: int, local_x: int, local_y: int,
                      button: int = 1) -> None:
        x, y = self._to_ah_point(window_id, local_x, local_y)
        self._send_hip(MouseReleased(window_id, button, x, y).encode())

    def move_mouse(self, window_id: int, local_x: int, local_y: int) -> None:
        x, y = self._to_ah_point(window_id, local_x, local_y)
        self._send_hip(MouseMoved(window_id, x, y).encode())

    def wheel(self, window_id: int, local_x: int, local_y: int,
              distance: int) -> None:
        x, y = self._to_ah_point(window_id, local_x, local_y)
        self._send_hip(MouseWheelMoved(window_id, x, y, distance).encode())

    def press_key(self, window_id: int, keycode: int) -> None:
        self._send_hip(KeyPressed(window_id, keycode).encode())

    def release_key(self, window_id: int, keycode: int) -> None:
        self._send_hip(KeyReleased(window_id, keycode).encode())

    def type_text(self, window_id: int, text: str) -> None:
        """Send text as KeyTyped messages, split to fit the payload cap."""
        for message in split_text_for_key_typed(
            window_id, text, self.config.max_rtp_payload
        ):
            self._send_hip(message.encode())

    def send_raw_mouse(self, x: int, y: int, button: int = 1,
                       window_id: int = 0) -> None:
        """Press at raw AH coordinates (legitimacy-check testing)."""
        self._send_hip(MousePressed(window_id, button, x, y).encode())

    # -- Rendering & verification --------------------------------------------------------

    def render_screen(self, include_pointer: bool = True) -> Framebuffer:
        """Composite local windows (z-order) onto the local screen."""
        screen = Framebuffer(self.screen.width, self.screen.height, fill=BLACK)
        for window_id in self.z_order:
            window = self.windows.get(window_id)
            if window is None:
                continue
            screen.write_rect(
                window.local_origin.x,
                window.local_origin.y,
                window.surface.array,
            )
        if (include_pointer and self.pointer_position is not None
                and self.pointer_image is not None):
            x, y = self.pointer_position
            img = self.pointer_image
            target = Rect(x, y, img.shape[1], img.shape[0]).intersection(
                screen.bounds
            )
            if not target.is_empty():
                src = img[: target.height, : target.width]
                dst = screen.array[
                    target.top : target.bottom, target.left : target.right
                ]
                opaque = src[:, :, 3] == 255
                dst[opaque] = src[opaque]
        return screen

    def render_scaled_view(self, max_width: int, max_height: int) -> Framebuffer:
        """A shrunken screen view fitting ``max_width`` × ``max_height``.

        The participant-side scaling enhancement of section 4.2: the
        wire still carries full resolution; only the local presentation
        is reduced, with an integer box filter.
        """
        from ..surface.scale import downscale, fit_factor

        full = self.render_screen()
        factor = fit_factor(full.width, full.height, max_width, max_height)
        return Framebuffer.from_array(downscale(full.array, factor))

    def window_matches(self, window_id: int, reference: Framebuffer) -> bool:
        """Pixel-exact comparison of a local window against a reference."""
        window = self.windows.get(window_id)
        if window is None:
            return False
        return window.surface.identical_to(reference)

    def converged_with(self, manager) -> bool:
        """True when every shared window matches the AH pixel-for-pixel.

        Strict full-surface equality: only reachable when every part of
        every window has been visible at some point (the AH does not
        transmit occluded pixels).  For sessions with persistent
        occlusion use :meth:`screen_converged_with`.
        """
        if set(self.windows) != set(manager.window_ids()):
            return False
        for window_id, local in self.windows.items():
            ah_window = manager.get(window_id)
            if not local.surface.identical_to(ah_window.surface):
                return False
        return True

    def screen_converged_with(self, manager) -> bool:
        """True when the *visible composite* matches the AH's screen.

        The user-facing invariant under the original layout: what this
        participant displays equals what the AH's shared region shows,
        ignoring pixels hidden under higher windows (which the protocol
        deliberately never ships).
        """
        if set(self.windows) != set(manager.window_ids()):
            return False
        if self.z_order != manager.window_ids():
            return False
        ah_screen = manager.composite()
        local_screen = self.render_screen(include_pointer=False)
        if (ah_screen.width, ah_screen.height) != (
            local_screen.width, local_screen.height
        ):
            clip = ah_screen.bounds.intersection(local_screen.bounds)
            return not ah_screen.diff_rect(local_screen, clip)
        return ah_screen.identical_to(local_screen)
