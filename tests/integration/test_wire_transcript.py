"""Seeded wire transcript: refactors must not move a byte or an RNG draw.

One fixed scenario — AH → 2x2 relay tree → eight UDP viewers at 5 % loss
on every hop, plus one TCP viewer straight off the AH — is driven for a
fixed number of rounds, and SHA-256 runs over every packet every
transport sent and every batch it drained, in program order.  The
digest changes when a send moves, a drain moves, or a seeded draw
(loss, SSRC, RTCP interval jitter) is taken in a different order.

It was recorded before the receive side was folded into
``repro.sharing.stream``, on the parent commit plus the one-hunk
``RtpReceiver.receive`` gap-recording fix that shipped with the
refactor.  The scenario trips that bug: at round 129 a relay finally
receives a retransmission more than ``MAX_MISORDER`` behind the head
and the unfixed receiver NACKs it again in the same round (unfixed
digest ``016f2edf...4470``), so the fix is the only thing allowed to
separate this digest from the unfixed parent's.
"""

import hashlib
import random

from repro.apps.text_editor import TextEditorApp
from repro.health.liveness import LivenessConfig
from repro.net.channel import ChannelConfig, duplex_reliable
from repro.net.world import World, receive
from repro.relay import build_relay_tree
from repro.relay.tree import attach_viewer
from repro.rtp.clock import SimulatedClock
from repro.sharing.ah import ApplicationHost
from repro.sharing.config import SharingConfig
from repro.sharing.participant import Participant
from repro.sharing.transport import DatagramTransport, StreamTransport
from repro.surface.geometry import Rect

RECORDED = "a8c00f629051c0a2c86cedab69210bb09e509e6a94ed7278221c9d34a13f1f9d"

ROUNDS = 500
DT = 0.02
#: A typed word every fifth round until here, then a drain tail longer
#: than the whole NACK retry ladder.
LAST_EDIT = 300
#: The round a ninth UDP viewer joins mid-stream (join PLI through the
#: relay's valve) and the round one viewer sends HIP input upstream.
LATE_JOIN = 120
HIP_INPUT = 180


class Transcript:
    """Hashes (transport, direction, packet) for every send and drain.

    Transports are numbered in order of first use, which is itself part
    of the behaviour under test.
    """

    def __init__(self, monkeypatch) -> None:
        self.digest = hashlib.sha256()
        self.packets = 0
        self._numbers: dict[int, int] = {}
        self._alive = []  # keeps ids unique for the run
        for cls in (DatagramTransport, StreamTransport):
            monkeypatch.setattr(
                cls, "send_packet", self._sending(cls.send_packet)
            )
            monkeypatch.setattr(
                cls, "receive_packets", self._draining(cls.receive_packets)
            )

    def _number(self, transport) -> bytes:
        number = self._numbers.get(id(transport))
        if number is None:
            number = self._numbers[id(transport)] = len(self._numbers)
            self._alive.append(transport)
        return number.to_bytes(4, "big")

    def _note(self, transport, tag: bytes, packet: bytes) -> None:
        self.packets += 1
        self.digest.update(self._number(transport) + tag)
        self.digest.update(len(packet).to_bytes(4, "big") + packet)

    def _sending(self, original):
        def send_packet(transport, packet):
            accepted = original(transport, packet)
            self._note(transport, b"S1" if accepted else b"S0", packet)
            return accepted
        return send_packet

    def _draining(self, original):
        def receive_packets(transport):
            packets = original(transport)
            for packet in packets:
                self._note(transport, b"R", packet)
            return packets
        return receive_packets


def build(clock):
    liveness = LivenessConfig(suspect_after=1.5, dead_after=3.0)
    # Raw pixels on the wire: the digest must not depend on which zlib
    # build compressed a PNG.
    ah = ApplicationHost(
        screen_width=640, screen_height=480, clock=clock,
        config=SharingConfig(adaptive_codec=False, lossless_codec="raw"),
        rng=random.Random(21), liveness=liveness,
    )
    editor = TextEditorApp(ah.windows.create_window(Rect(20, 20, 96, 48)))
    ah.apps.attach(editor)
    tree = build_relay_tree(
        ah, clock, fanouts=(2, 2), viewers_per_leaf=0,
        channel_config=ChannelConfig(delay=0.01, loss_rate=0.05, seed=77),
        liveness=liveness,
        rng=random.Random(22),
    )
    viewers = []
    seed = 1000
    for leaf in tree.leaves:
        for i in range(2):
            viewers.append(attach_viewer(
                leaf, f"{leaf.id}/v{i}", clock,
                channel_config=ChannelConfig(
                    delay=0.01, loss_rate=0.05, seed=seed
                ),
                config=ah.config, rng=random.Random(seed),
                rtcp_interval=1.0, reorder_wait=1.0,
            ))
            seed += 2
    tcp = duplex_reliable(ChannelConfig(delay=0.01), clock.now)
    ah.add_participant("tcp", StreamTransport(tcp.forward, tcp.backward))
    tcp_viewer = Participant(
        "tcp", StreamTransport(tcp.backward, tcp.forward), clock=clock,
        config=ah.config, rng=random.Random(23), rtcp_interval=1.0,
    )
    tcp_viewer.join()
    viewers.append(tcp_viewer)
    return ah, editor, tree, viewers


def test_seeded_wire_transcript_is_unchanged(monkeypatch):
    transcript = Transcript(monkeypatch)
    clock = SimulatedClock()
    ah, editor, tree, viewers = build(clock)
    words = random.Random(24)

    def script(_dt):
        index = world.rounds
        if index < LAST_EDIT and index % 5 == 0:
            word = "".join(words.choice("abcdefgh ") for _ in range(12))
            editor.type_text(word + ("\n" if index % 35 == 0 else ""))
        if index == LATE_JOIN:
            viewers.append(attach_viewer(
                tree.leaves[0], "late", clock,
                channel_config=ChannelConfig(
                    delay=0.01, loss_rate=0.05, seed=2000
                ),
                config=ah.config, rng=random.Random(2000),
                rtcp_interval=1.0, reorder_wait=1.0,
            ))
        if index == HIP_INPUT:
            viewers[0].click(editor.window.window_id, 5, 5)

    world = World(clock, DT)
    world.add(
        script, ah.advance, world.tick, lambda _dt: tree.pump(),
        receive(viewers),
    )
    world.run(ROUNDS)
    # The scenario has to exercise what it pins: loss was repaired by
    # NACK at both tiers, heartbeats flowed, and everyone converged.
    assert all(v.converged_with(ah.windows) for v in viewers)
    assert sum(v.nacks_sent for v in viewers) > 0
    assert sum(r.upstream_nacks for r in tree.relays) > 0
    assert sum(r.absorbed_nacks for r in tree.relays) > 0
    assert sum(r.hip_forwarded for r in tree.relays) > 0
    assert transcript.packets > 3000
    assert transcript.digest.hexdigest() == RECORDED
