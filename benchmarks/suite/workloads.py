"""The four workloads: topology, seeded schedule, and the round loop.

Everything runs in one process and one thread on the repo's virtual
clock with default ``SharingConfig`` (a workload that sets a knob says
why).  A workload is a *fixed schedule in virtual time* generated from
the seed: the user types / flips / prints whether or not the host keeps
up (open loop in session time), and the program sees only the generated
inputs.  App mutations run between timed calls (``Meter.generate``).

Sizes are calibrated on the 2-core reference box so that the timed
region of a ``NOMINAL_SECONDS`` run is a little over that long;
``--seconds`` scales the number of waves, never the topology.
"""

from __future__ import annotations

import asyncio
import gc
import random
import string
from time import perf_counter

from measure import Meter, Tracked

from repro.apps.photo_viewer import PhotoViewerApp
from repro.apps.terminal import TerminalApp
from repro.apps.text_editor import TextEditorApp
from repro.net.channel import ChannelConfig, duplex_lossy, duplex_reliable
from repro.relay import build_relay_tree
from repro.relay.tree import attach_viewer, duplex_transport_pair
from repro.rtp.clock import SimulatedClock
from repro.rtp.feedback import PictureLossIndication, nacks_for
from repro.rtp.packet import RtpPacket
from repro.rtp.session import RtpReceiver
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import PT_REMOTING, SharingConfig
from repro.sharing.participant import Participant
from repro.sharing.recovery import RecoveryManager
from repro.sharing.server import SessionServer
from repro.sharing.transport import (
    DatagramTransport,
    StreamTransport,
    is_rtcp,
)
from repro.surface.geometry import Rect

#: The run length the wave counts below are calibrated for.
NOMINAL_SECONDS = 15
#: Rounds run after the first full refresh and before the timed region.
WARMUP_ROUNDS = 50
#: Rounds a join may take to deliver the first full refresh.
SETTLE_LIMIT = 400

_ALPHABET = string.ascii_letters + string.digits + " .,;:()[]<>=+-*/_"


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


class Workload:
    """One workload instance for one seed and wave count."""

    name = ""
    #: Virtual seconds per round.
    dt = 0.02
    #: Waves in a ``NOMINAL_SECONDS`` run.
    nominal_waves = 0
    #: Rounds between consecutive waves.
    period = 1
    #: Wave-free rounds that end the schedule (drain tail).
    tail = 10

    def __init__(self, seed: int, waves: int) -> None:
        self.seed = seed
        self.waves = waves
        self.rng = random.Random(seed)
        self.clock = None
        #: Every real participant, with the AH it must converge with.
        self.tracked: list[Tracked] = []

    # -- What a workload defines -----------------------------------------------

    async def build(self) -> None:
        """Build the topology and join every viewer."""
        raise NotImplementedError

    def mutate(self, wave: int) -> None:
        """Apply wave ``wave``'s app mutation (untimed generator work)."""
        raise NotImplementedError

    def step(self, meter: Meter) -> None:
        """One round of timed calls into the program."""
        meter.timed(self.ah.advance, self.dt)
        meter.timed(self.clock.advance, self.dt)
        self.pump_viewers(meter)

    def pump_viewers(self, meter: Meter) -> None:
        for viewer in self.tracked:
            meter.timed(viewer.participant.process_incoming)
            meter.check(viewer)

    @property
    def viewers(self) -> int:
        return len(self.tracked)

    def hosts(self) -> list[ApplicationHost]:
        return [self.ah]

    def counters(self) -> dict[str, int]:
        """Program-side counters the per-layer table reads as deltas."""
        hosts = self.hosts()
        participants = [viewer.participant for viewer in self.tracked]
        schedulers = [
            session.scheduler for ah in hosts for session in ah.sessions.values()
        ]
        return {
            "cache_hits": sum(ah.encode_cache.hits for ah in hosts),
            "cache_misses": sum(ah.encode_cache.misses for ah in hosts),
            "frames_coalesced": sum(s.frames_coalesced for s in schedulers),
            "reassemble_drops": sum(
                p._reassembler.updates_dropped for p in participants
            ),
            "updates_applied": sum(p.updates_applied for p in participants),
        }

    def due_times(self, jitter: random.Random) -> list[float]:
        """When the wave was due, per tracked viewer: one user acted at
        one instant of the round that just ended, everyone watches."""
        due = self.clock.now() - jitter.random() * self.dt
        return [due] * len(self.tracked)

    def begin_tail(self, meter: Meter) -> None:
        """Hook: the last wave has been issued, the drain tail starts."""

    def final_checks(self, meter: Meter) -> None:
        for viewer in self.tracked:
            meter.final_check(
                f"{viewer.name}: not pixel-equal to the AH after quiesce",
                viewer.converged,
            )

    async def close(self, meter: Meter | None = None) -> None:
        for ah in self.hosts():
            ah.close()

    # -- The shared driver ---------------------------------------------------

    async def round(self, meter: Meter) -> None:
        self.step(meter)

    def egress_bytes(self) -> int:
        return sum(ah.total_bytes_sent() for ah in self.hosts())

    async def settle(self) -> None:
        """Deliver the first full refresh, then run the warm-up rounds."""
        meter = Meter(self.clock.now, self.tracked)
        for _ in range(SETTLE_LIMIT):
            await self.round(meter)
            if all(viewer.converged() for viewer in self.tracked):
                break
        else:
            raise RuntimeError(f"{self.name}: viewers never got a first refresh")
        for _ in range(WARMUP_ROUNDS):
            await self.round(meter)

    async def setup(self, repeats: int) -> list[float]:
        """Set up ``repeats`` times; the last one is the one measured."""
        seconds = []
        for attempt in range(repeats):
            t0 = perf_counter()
            self.rng = random.Random(self.seed)
            self.tracked = []
            await self.build()
            await self.settle()
            gc.collect()
            seconds.append(perf_counter() - t0)
            if attempt + 1 < repeats:
                await self.close()
        return seconds

    async def run(self, meter: Meter) -> None:
        """Drive the schedule: one wave every ``period`` rounds.

        A wave is due at a seeded instant inside the round before the
        one that injects it, so virtual latency is measured from when
        the user acted, not from the round boundary.
        """
        jitter = random.Random(self.seed + 0x5EED)
        for index in range(self.waves * self.period + self.tail):
            wave, phase = divmod(index, self.period)
            if phase == 0 and wave < self.waves:
                meter.generate(self.mutate, wave)
                meter.begin_wave(self.due_times(jitter))
            elif index == self.waves * self.period:
                self.begin_tail(meter)
            await self.round(meter)
            meter.end_round()


# -- desktop-edit ---------------------------------------------------------------


class DesktopEdit(Workload):
    name = "desktop-edit"
    dt = 0.02
    nominal_waves = 620
    period = 5
    tail = 25
    #: Editor keystrokes between forced newlines (fixed, so every seed
    #: reaches the editor's repaint-on-scroll at the same wave).
    line_length = 40

    async def build(self) -> None:
        self.clock = clock = SimulatedClock()
        self.ah = ah = ApplicationHost(
            screen_width=1280, screen_height=1024, clock=clock,
            rng=random.Random(self.seed),
        )
        # Side by side: overlapping windows can never be pixel-equal at
        # the viewer (occluded pixels are not sent).
        self.editor = TextEditorApp(
            ah.windows.create_window(Rect(16, 16, 640, 480))
        )
        self.terminal = TerminalApp(
            ah.windows.create_window(Rect(700, 16, 500, 500))
        )
        ah.apps.attach(self.editor)
        ah.apps.attach(self.terminal)
        self.typed = 0
        self.printed = 0
        # Start with a full terminal so every printed line scrolls.
        for _ in range(self.terminal.rows):
            self._print_line()

        tcp = duplex_reliable(ChannelConfig(delay=0.01), clock.now)
        ah.add_participant("tcp", StreamTransport(tcp.forward, tcp.backward))
        udp = duplex_lossy(
            ChannelConfig(delay=0.02, seed=self.seed * 8 + 2), clock.now
        )
        ah.add_participant("udp", DatagramTransport(udp.forward, udp.backward))
        for participant in (
            Participant(
                "tcp", StreamTransport(tcp.backward, tcp.forward),
                clock=clock, config=ah.config,
                rng=random.Random(self.seed * 8 + 3),
            ),
            Participant(
                "udp", DatagramTransport(udp.backward, udp.forward),
                clock=clock, config=ah.config,
                rng=random.Random(self.seed * 8 + 4),
            ),
        ):
            participant.join()
            self.tracked.append(Tracked(participant, ah.windows))

    def _print_line(self) -> None:
        self.terminal.append_line(
            f"[{self.printed:05d}] " + _text(self.rng, 60)
        )
        self.printed += 1

    def mutate(self, wave: int) -> None:
        """Three keystrokes, then one terminal line."""
        if wave % 4 == 3:
            self._print_line()
            return
        self.typed += 1
        if self.typed % self.line_length == 0:
            self.editor.type_text("\n")
        else:
            self.editor.type_text(self.rng.choice(_ALPHABET))


# -- photo-slideshow --------------------------------------------------------------


class PhotoSlideshow(Workload):
    name = "photo-slideshow"
    dt = 0.02
    nominal_waves = 210
    period = 12
    tail = 25

    async def build(self) -> None:
        self.clock = clock = SimulatedClock()
        # adaptive_codec=False keeps photographs on lossless PNG, so
        # the viewer can be checked pixel for pixel.
        self.ah = ah = ApplicationHost(
            screen_width=1280, screen_height=1024, clock=clock,
            config=SharingConfig(adaptive_codec=False),
            rng=random.Random(self.seed),
        )
        self.viewer_app = PhotoViewerApp(
            ah.windows.create_window(Rect(32, 32, 320, 240)),
            album_seed=self.seed * 100_000,
        )
        ah.apps.attach(self.viewer_app)
        udp = duplex_lossy(
            ChannelConfig(delay=0.02, seed=self.seed * 8 + 2), clock.now
        )
        ah.add_participant("udp", DatagramTransport(udp.forward, udp.backward))
        participant = Participant(
            "udp", DatagramTransport(udp.backward, udp.forward),
            clock=clock, config=ah.config,
            rng=random.Random(self.seed * 8 + 4),
        )
        participant.join()
        self.tracked.append(Tracked(participant, ah.windows))

    def mutate(self, wave: int) -> None:
        self.viewer_app.next_photo()


# -- relay-fanout-lossy -----------------------------------------------------------


class SimViewer:
    """A feedback-faithful viewer without pixel state.

    Real :class:`RtpReceiver` + :class:`RecoveryManager`, so gaps are
    detected, NACKed, retried and given up exactly like a participant;
    nothing is reassembled or painted, which is what lets 10 000 of
    them share one process (same shape as ``bench_relay_tree.py``).
    """

    __slots__ = ("transport", "receiver", "recovery", "ssrc", "media_ssrc")

    def __init__(self, transport, now, ssrc: int) -> None:
        self.transport = transport
        self.receiver = RtpReceiver(now=now)
        self.recovery = RecoveryManager(now=now)
        self.ssrc = ssrc
        self.media_ssrc = 0

    def join(self) -> None:
        """A UDP viewer announces itself with a PLI (section 4.3)."""
        self.transport.send_packet(
            PictureLossIndication(self.ssrc, self.media_ssrc).encode()
        )

    def pump(self) -> None:
        for raw in self.transport.receive_packets():
            if is_rtcp(raw):
                continue
            packet = RtpPacket.decode(raw)
            if packet.payload_type != PT_REMOTING:
                continue
            self.media_ssrc = packet.ssrc
            self.recovery.note_arrival(packet.sequence_number)
            self.receiver.receive(packet)
        actions = self.recovery.poll(self.receiver.missing_sequence_numbers())
        if actions.nack_now:
            nack = nacks_for(self.ssrc, self.media_ssrc, actions.nack_now)
            if nack is not None:
                self.transport.send_packet(nack.encode())
        for seq in actions.gave_up:
            self.receiver.gaps.acknowledge(seq)


class RelayFanoutLossy(Workload):
    name = "relay-fanout-lossy"
    dt = 0.05
    nominal_waves = 26
    period = 2  # one typed word every 0.1 virtual seconds
    #: 3.5 virtual seconds: longer than the whole NACK retry ladder
    #: (0.2 + 0.4 + 0.8 + 1.6 s), so every gap is repaired or given up.
    tail = 70
    fanouts = (10, 10)
    lightweight_per_leaf = 100
    loss = 0.03
    #: The 3-hop NACK round trip at dt = 50 ms outlasts the 0.25 s
    #: default; a hole the jitter buffer skips costs a PLI.
    reorder_wait = 2.0

    async def build(self) -> None:
        self.clock = clock = SimulatedClock()
        self.ah = ah = ApplicationHost(
            screen_width=320, screen_height=240, clock=clock,
            rng=random.Random(self.seed),
        )
        self.editor = TextEditorApp(
            ah.windows.create_window(Rect(8, 8, 280, 200))
        )
        ah.apps.attach(self.editor)
        base = self.seed * 1_000_000
        self.tree = tree = build_relay_tree(
            ah, clock, fanouts=self.fanouts, viewers_per_leaf=0,
            channel_config=ChannelConfig(
                delay=0.01, loss_rate=self.loss, seed=base + 11
            ),
            rng=random.Random(self.seed + 1),
        )
        ssrc = random.Random(self.seed + 2)
        link_seed = base + 100_000
        self.lightweight: list[SimViewer] = []
        for leaf in tree.leaves:
            for i in range(self.lightweight_per_leaf):
                near, far = duplex_transport_pair(
                    ChannelConfig(
                        delay=0.01, loss_rate=self.loss, seed=link_seed
                    ),
                    clock.now,
                )
                link_seed += 2
                leaf.add_downstream(f"{leaf.id}/v{i}", near)
                viewer = SimViewer(far, clock.now, ssrc.randrange(1, 1 << 32))
                viewer.join()
                self.lightweight.append(viewer)
            # One real participant under every leaf, for the samples.
            self.tracked.append(Tracked(attach_viewer(
                leaf, f"{leaf.id}/tracked", clock,
                channel_config=ChannelConfig(
                    delay=0.01, loss_rate=self.loss, seed=link_seed
                ),
                rng=random.Random(link_seed),
                reorder_wait=self.reorder_wait,
            ), ah.windows))
            link_seed += 2

    @property
    def viewers(self) -> int:
        return len(self.lightweight) + len(self.tracked)

    def mutate(self, wave: int) -> None:
        self.editor.type_text(
            _text(self.rng, 8) + ("\n" if wave % 5 == 4 else "")
        )

    def _pump_lightweight(self) -> None:
        for viewer in self.lightweight:
            viewer.pump()

    def step(self, meter: Meter) -> None:
        meter.timed(self.ah.advance, self.dt)
        meter.timed(self.clock.advance, self.dt)
        meter.timed(self.tree.pump)
        meter.timed(self._pump_lightweight)
        self.pump_viewers(meter)

    def counters(self) -> dict[str, int]:
        relays = self.tree.relays
        return {
            **super().counters(),
            "relay_forwarded": sum(r.packets_forwarded for r in relays),
            "relay_absorbed_nacks": sum(r.absorbed_nacks for r in relays),
            "relay_escalated_nacks": sum(r.upstream_nacks for r in relays),
        }

    def begin_tail(self, meter: Meter) -> None:
        """Note the gaps each lightweight viewer has open right now.

        Keepalives keep crossing the lossy hops during the tail, so a
        few viewers always hold a *fresh* gap; what must not survive
        the tail is a gap that was already open when the edits stopped.
        """
        self._open_gaps = meter.verify(lambda: [
            (viewer, gaps)
            for viewer in self.lightweight
            if (gaps := set(viewer.receiver.missing_sequence_numbers()))
        ])

    def final_checks(self, meter: Meter) -> None:
        super().final_checks(meter)
        stuck = {
            id(viewer) for viewer, gaps in self._open_gaps
            if gaps.intersection(viewer.receiver.missing_sequence_numbers())
        }
        for index, viewer in enumerate(self.lightweight):
            meter.final_check(
                f"lightweight viewer {index}: nothing received, or a gap"
                " open before the drain tail is still open after it",
                lambda: viewer.receiver.packets_received > 0
                and id(viewer) not in stuck,
            )


# -- server-sessions ------------------------------------------------------------


class ServerSessions(Workload):
    name = "server-sessions"
    dt = 0.05
    nominal_waves = 13
    period = 10  # one terminal line per session every 0.5 virtual seconds
    tail = 10
    sessions = 220

    async def build(self) -> None:
        self.server = server = SessionServer(
            tick=self.dt, rng=random.Random(self.seed)
        )
        await server.start()
        self.clock = server.clock
        self.terminals: list[TerminalApp] = []
        codes = []
        for _ in range(self.sessions):
            # adaptive_codec=False as in bench_session_server.py:
            # lossless, so each viewer is checked pixel for pixel.
            code = server.host(
                screen_width=160, screen_height=120,
                config=SharingConfig(adaptive_codec=False),
            )
            session = server.session(code)
            terminal = TerminalApp(
                session.ah.windows.create_window(Rect(4, 4, 140, 100))
            )
            session.ah.apps.attach(terminal)
            # Start full, as in desktop-edit: every printed line scrolls.
            for row in range(terminal.rows):
                terminal.append_line(f"[boot] line {row}")
            self.terminals.append(terminal)
            codes.append(code)
        joined = await asyncio.gather(
            *(server.join(code, "viewer", timeout=60) for code in codes)
        )
        self._hosts = [server.session(code).ah for code in codes]
        for viewer, ah in zip(joined, self._hosts):
            self.tracked.append(Tracked(viewer.participant, ah.windows))

    def hosts(self) -> list[ApplicationHost]:
        return self._hosts

    def mutate(self, wave: int) -> None:
        line = f"[{wave:04d}] " + _text(self.rng, 14)
        for terminal in self.terminals:
            terminal.append_line(line)

    def due_times(self, jitter: random.Random) -> list[float]:
        """220 users: each printed at an instant of their own."""
        now = self.clock.now()
        return [now - jitter.random() * self.dt for _ in self.tracked]

    async def round(self, meter: Meter) -> None:
        # One loop turn: the clock pump and every session's signalling,
        # media and RTCP tasks each run one iteration.
        t0 = meter.start()
        await asyncio.sleep(0)
        meter.stop(t0)
        for viewer in self.tracked:
            meter.check(viewer)

    async def close(self, meter: Meter | None = None) -> None:
        await self.server.stop()
        if meter is None:
            return
        meter.final_check(
            "sessions left registered after server.stop()",
            lambda: self.server.session_count() == 0,
        )
        current = asyncio.current_task()
        meter.final_check(
            "asyncio tasks left running after server.stop()",
            lambda: not [
                t for t in asyncio.all_tasks()
                if t is not current and not t.done()
            ],
        )


WORKLOADS = {
    cls.name: cls
    for cls in (DesktopEdit, PhotoSlideshow, RelayFanoutLossy, ServerSessions)
}
