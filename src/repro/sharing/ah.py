"""The Application Host (AH): runs apps, distributes updates, regenerates HIDs.

One :class:`ApplicationHost` owns the virtual window system, the
synthetic applications, the capture pipeline, and a per-destination
:class:`~repro.sharing.sender.UpdateScheduler`.  A single AH serves TCP
participants, UDP participants, and multicast groups in the same
session (section 4.2); each destination keeps its own RTP sequence
space, pacing state and retransmission cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..apps.base import AppHost
from ..codecs.base import CodecRegistry, default_registry
from ..codecs.cache import EncodeCache
from ..core.errors import ProtocolError
from ..health.liveness import LivenessConfig
from ..net.ratecontrol import TokenBucket
from ..obs.clockutil import as_now
from ..obs.instrumentation import NULL
from ..rtp.feedback import GenericNack, PictureLossIndication
from ..rtp.reports import RtcpReporter
from ..rtp.rtcp import RtcpError, decode_compound
from ..rtp.packet import RtpPacket
from ..rtp.session import RtpReceiver, RtpSender
from ..surface.cursor import PointerState
from ..surface.geometry import Rect
from ..surface.window import WindowManager
from .capture import CapturePipeline
from .config import PT_HIP, PT_REMOTING, PointerMode, SharingConfig
from .encoder import FrameEncoder
from .events import EventInjector, FloorCheck
from .sender import UpdateScheduler
from .stream import PeerIngress
from .transport import PacketTransport


@dataclass(slots=True)
class AhSession:
    """AH-side state for one destination (participant or group)."""

    participant_id: str
    transport: PacketTransport
    scheduler: UpdateScheduler
    reporter: RtcpReporter
    hip_receiver: RtpReceiver
    is_group: bool = False

    def send_report(self) -> None:
        """Send the periodic RTCP report if one is due."""
        report = self.reporter.poll()
        if report is not None:
            self.transport.send_packet(report)


class ApplicationHost:
    """The computer that runs the shared application (section 1)."""

    def __init__(
        self,
        screen_width: int = 1280,
        screen_height: int = 1024,
        config: SharingConfig | None = None,
        registry: CodecRegistry | None = None,
        clock=None,
        floor_check: FloorCheck | None = None,
        rng: random.Random | None = None,
        obs=None,
        liveness: LivenessConfig | None = None,
    ) -> None:
        self.config = config or SharingConfig()
        self.registry = registry or default_registry()
        self._now = as_now(clock, default=lambda: 0.0)
        self._rng = rng or random.Random(0)
        self.obs = obs if obs is not None else NULL
        #: One content-addressed encode cache for the whole session:
        #: the same damaged block fanned out to N destinations (or
        #: repeated over time) is encoded once.
        self.encode_cache = EncodeCache()
        #: One band-thread encode pool for the whole session (opt-in
        #: via ``encode_workers``); shared by every per-destination
        #: encoder like the cache.  Owned here: :meth:`close` joins its
        #: threads.
        self.encode_pool = None
        if self.config.encode_workers:
            from ..codecs.parallel import EncodePool

            workers = self.config.encode_workers
            self.encode_pool = EncodePool(
                0 if workers < 0 else workers, obs=self.obs
            )

        self.windows = WindowManager(screen_width, screen_height)
        self.apps = AppHost(self.windows)
        # Both pointer models (section 4.2) keep AH pointer state; the
        # mode decides whether it ships as MousePointerInfo messages or
        # painted into RegionUpdate pixels.
        self.pointer = PointerState()
        self.capture = CapturePipeline(
            self.windows,
            pointer=self.pointer,
            scroll_detection=self.config.scroll_detection,
            pointer_in_band=self.config.pointer_mode is PointerMode.IN_BAND,
        )
        #: The participant feedback loop: the per-participant
        #: quarantine mute, silence-driven eviction (opt-in through
        #: ``liveness``) and removal of closed paths.
        self.ingress = PeerIngress(
            self._now, liveness,
            on_rtcp=self._handle_rtcp,
            on_rtp=self._handle_rtp,
            on_gone=self._participant_gone,
            obs=self.obs,
        )
        self.quarantine = self.ingress.quarantine
        self.liveness = self.ingress.liveness
        self.injector = EventInjector(
            self.windows, self.apps, pointer=self.pointer,
            floor_check=floor_check, instrumentation=self.obs,
            on_malformed=lambda pid, exc: self.quarantine.record_rejection(
                pid, "hip", exc
            ),
        )
        self.sessions: dict[str, AhSession] = {}
        #: Message type → handler(participant_id, payload, packet) for
        #: registered HIP-stream extension types (section 9).
        self.extension_handlers: dict = {}
        self.plis_received = 0
        self.nacks_received = 0
        self.participants_evicted = 0
        self._c_plis = self.obs.counter("ah.plis_received")
        self._c_nacks = self.obs.counter("ah.nacks_received")
        self._c_evicted = self.obs.counter("health.participants_evicted")

    # -- Participant management ------------------------------------------------

    def add_participant(
        self,
        participant_id: str,
        transport: PacketTransport,
        rate_bps: int | None = None,
        is_group: bool = False,
    ) -> AhSession:
        """Register a destination.

        TCP (reliable) destinations receive the window state and full
        image immediately, "right after the TCP connection
        establishment" (section 4.4).  UDP destinations wait for their
        PLI (section 4.3).  ``rate_bps`` attaches a token-bucket tier
        for UDP pacing (section 4.3).
        """
        if participant_id in self.sessions:
            raise ValueError(f"participant {participant_id!r} already present")
        obs = self.obs.scoped(peer=participant_id, side="ah")
        sender = RtpSender(
            PT_REMOTING, now=self._now, rng=self._rng,
            instrumentation=obs,
        )
        encoder = FrameEncoder(
            sender, self.registry, self.config, self._now,
            instrumentation=obs, cache=self.encode_cache,
            pool=self.encode_pool,
        )
        limiter = (
            TokenBucket(rate_bps, now=self._now, instrumentation=obs)
            if rate_bps
            else None
        )
        scheduler = UpdateScheduler(
            transport, encoder, self.windows, self.config, self._now, limiter,
            pixel_reader=self.capture.read_window_rect,
            instrumentation=obs,
        )
        hip_receiver = RtpReceiver(
            now=self._now, instrumentation=obs.scoped(stream="hip"),
        )
        reporter = RtcpReporter(
            self._now, sender=sender, receiver=hip_receiver,
            cname=f"ah/{participant_id}", rng=self._rng,
            instrumentation=obs,
        )
        session = AhSession(
            participant_id, transport, scheduler, reporter, hip_receiver,
            is_group,
        )
        self.sessions[participant_id] = session
        self.ingress.add(participant_id, transport)
        if transport.reliable:
            scheduler.submit_full_refresh()
        return session

    def remove_participant(self, participant_id: str) -> None:
        self.sessions.pop(participant_id, None)
        self.ingress.remove(participant_id)

    # -- Desktop sharing ---------------------------------------------------

    def share_desktop(self, title: str = "desktop"):
        """Switch to *desktop sharing*: one window covering the screen.

        Section 2: "In desktop sharing, a computer distributes all
        screen updates."  On the wire this degenerates to application
        sharing with a single full-screen window — which is exactly how
        the protocol models it.  Returns the desktop window; draw the
        whole screen into it.
        """
        screen = self.windows.screen
        return self.windows.create_window(
            Rect(0, 0, screen.width, screen.height), title=title
        )

    # -- Main loop ------------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """One service round: tick apps, capture, distribute, receive."""
        if dt > 0:
            self.apps.tick_all(dt)
        frame = self.capture.capture()
        for session in self.sessions.values():
            if not frame.is_empty:
                session.scheduler.submit(frame)
            session.scheduler.pump()
            session.send_report()
        self.process_incoming()

    def pump(self) -> None:
        """Service transports without advancing app time."""
        for session in self.sessions.values():
            session.scheduler.pump()
        self.process_incoming()

    # -- Receive path ------------------------------------------------------------------

    def process_incoming(self) -> None:
        self.ingress.drain()

    def poll_liveness(self) -> list[str]:
        """Evict participants silent past the dead threshold.

        Returns the evicted ids so the signalling layer above (the
        session core) can drop the matching calls.  No-op without a
        configured tracker.
        """
        return self.ingress.poll_liveness()

    def _participant_gone(self, participant_id: str, reason: str) -> None:
        self.remove_participant(participant_id)
        if reason == "dead":
            self.participants_evicted += 1
            self._c_evicted.inc()
            if self.obs.enabled:
                self.obs.event(
                    "health.participant_evicted", peer=participant_id
                )

    def _handle_rtp(self, participant_id: str, raw: bytes) -> None:
        session = self.sessions[participant_id]
        try:
            packet = RtpPacket.decode(raw)
        except ProtocolError as exc:
            self.quarantine.record_rejection(participant_id, "rtp", exc)
            return
        if packet.payload_type != PT_HIP:
            return
        session.hip_receiver.receive(packet)
        if len(packet.payload) >= 1:
            handler = self.extension_handlers.get(packet.payload[0])
            if handler is not None:
                try:
                    if handler(participant_id, packet.payload, packet):
                        return
                except ProtocolError as exc:
                    # Malformed extension input counts like any other;
                    # an extension *bug* (non-protocol error) propagates.
                    self.quarantine.record_rejection(
                        participant_id, "extension", exc
                    )
                    return
        self.injector.inject_payload(participant_id, packet.payload)

    def _handle_rtcp(self, participant_id: str, raw: bytes) -> None:
        session = self.sessions[participant_id]
        try:
            messages = decode_compound(raw)
        except RtcpError as exc:
            self.quarantine.record_rejection(participant_id, "rtcp", exc)
            return
        for message in messages:
            if isinstance(message, PictureLossIndication):
                self.plis_received += 1
                self._c_plis.inc()
                if self.obs.enabled:
                    self.obs.event("pli.received", peer=participant_id)
                session.scheduler.submit_full_refresh()
            elif isinstance(message, GenericNack):
                self.nacks_received += 1
                self._c_nacks.inc()
                if self.obs.enabled:
                    self.obs.event(
                        "nack.received",
                        peer=participant_id,
                        count=len(message.sequence_numbers()),
                    )
                if self.config.retransmissions:
                    session.scheduler.retransmit(message.sequence_numbers())

    # -- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release host-owned resources (the encode pool's threads)."""
        if self.encode_pool is not None:
            self.encode_pool.close()

    # -- Introspection -------------------------------------------------------------------

    def total_bytes_sent(self) -> int:
        return sum(s.scheduler.bytes_sent for s in self.sessions.values())

    def total_packets_sent(self) -> int:
        return sum(s.scheduler.packets_sent for s in self.sessions.values())

    def session(self, participant_id: str) -> AhSession:
        return self.sessions[participant_id]
