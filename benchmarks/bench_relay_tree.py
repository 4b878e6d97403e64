"""Relay-tree fan-out benchmark + regression gate.

Answers the scaling question behind ``repro.relay``: what does serving
a huge audience cost the AH *with* a cascade versus direct unicast?

Two arms, one deterministic virtual clock, same edit workload, 2%
loss on every hop:

* **tree** — one AH feeds a 2-level relay tree (``--fanout`` roots,
  ``--fanout`` leaves each, ``--viewers-per-leaf`` lightweight viewers
  per leaf: 10 x 10 x 100 = 10,000 by default).  Viewer NACKs/PLIs
  terminate at the leaf relays; only relay-level escalations reach
  the AH.
* **direct** — the same AH serves ``--direct-viewers`` unicast UDP
  participants (default 1,000).  Egress bytes and AH-heard NACKs are
  *linear in viewer count by construction* (every viewer gets its own
  copy of the stream and NACKs independently at 2% loss), so the
  direct arm extrapolates per-viewer cost to the tree's audience size;
  the factor is reported in the JSON.

Viewers are :class:`SimViewer` — a real RTP receiver + gap detector +
NACK/PLI recovery machine, minus pixel state — so loss detection and
feedback behave exactly like a participant's while 10k of them fit in
one process.

Headline numbers: AH egress bytes/viewer, AH-heard NACKs, the
tree-vs-direct reduction factors, and CPU per viewer-second.

Usage::

    PYTHONPATH=src python benchmarks/bench_relay_tree.py \
        --json BENCH_relay.new.json --baseline BENCH_relay.json

Exits non-zero when the egress or NACK reduction falls below the
baseline's ``gate.min_egress_reduction`` / ``gate.min_nack_reduction``
(the >= 10x claim), the AH spends more than
``gate.max_ah_bytes_per_viewer`` on egress, the AH hears more than
``gate.max_upstream_nack_ratio`` of the viewers' NACKs, or fewer than
``gate.min_complete_fraction`` of tree viewers end with a gap-free
stream.  Refresh the committed seed with ``--json BENCH_relay.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.text_editor import TextEditorApp  # noqa: E402
from repro.net.channel import ChannelConfig  # noqa: E402
from repro.net.world import World  # noqa: E402
from repro.relay import build_relay_tree  # noqa: E402
from repro.relay.tree import duplex_transport_pair  # noqa: E402
from repro.rtp.clock import SimulatedClock  # noqa: E402
from repro.rtp.feedback import (  # noqa: E402
    PictureLossIndication,
    nacks_for,
)
from repro.rtp.packet import RtpPacket  # noqa: E402
from repro.rtp.session import RtpReceiver  # noqa: E402
from repro.sharing.ah import ApplicationHost  # noqa: E402
from repro.sharing.config import PT_REMOTING, SharingConfig  # noqa: E402
from repro.sharing.recovery import RecoveryManager  # noqa: E402
from repro.sharing.transport import is_rtcp  # noqa: E402
from repro.surface.geometry import Rect  # noqa: E402

DT = 0.05  # virtual seconds per simulation round
LOSS = 0.02  # loss rate on every hop
EDIT_EVERY = 0.5  # virtual seconds between edits
SCREEN = (320, 240)
WINDOW = Rect(8, 8, 280, 200)


class SimViewer:
    """A feedback-faithful viewer without pixel state.

    Real :class:`RtpReceiver` + :class:`RecoveryManager`, so gaps are
    detected, NACKed, retried and given up exactly like a participant
    — but nothing is reassembled or painted, which is what lets 10k of
    them share one process.
    """

    __slots__ = (
        "transport", "receiver", "recovery", "ssrc", "media_ssrc",
        "nacks_sent", "plis_sent",
    )

    def __init__(self, transport, now, ssrc: int) -> None:
        self.transport = transport
        self.receiver = RtpReceiver(now=now)
        self.recovery = RecoveryManager(now=now)
        self.ssrc = ssrc
        self.media_ssrc = 0
        self.nacks_sent = 0
        self.plis_sent = 0

    def join(self) -> None:
        """A UDP viewer announces itself with a PLI (section 4.3)."""
        self.transport.send_packet(
            PictureLossIndication(self.ssrc, self.media_ssrc).encode()
        )
        self.plis_sent += 1

    def pump(self) -> None:
        for raw in self.transport.receive_packets():
            if is_rtcp(raw):
                continue
            try:
                packet = RtpPacket.decode(raw)
            except Exception:
                continue
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
                self.nacks_sent += 1
        for seq in actions.gave_up:
            self.receiver.gaps.acknowledge(seq)

    @property
    def complete(self) -> bool:
        """Received something and holds no outstanding gaps."""
        return (
            self.receiver.packets_received > 0
            and not self.receiver.missing_sequence_numbers()
        )


def make_workload(clock) -> tuple[ApplicationHost, TextEditorApp]:
    ah = ApplicationHost(
        screen_width=SCREEN[0], screen_height=SCREEN[1],
        config=SharingConfig(adaptive_codec=False),
        clock=clock,
    )
    window = ah.windows.create_window(WINDOW)
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    return ah, editor


def drive(clock, ah, editor, viewers, middle, sim_seconds: float,
          edit_until: float) -> float:
    """Run the edit workload plus a drain tail; returns CPU seconds.

    One step is edit → AH → ``middle`` entries → viewers → clock tick.
    """
    next_edit = clock.now()

    def edit(_dt):
        nonlocal next_edit
        if clock.now() <= edit_until and clock.now() >= next_edit:
            editor.type_text(f"[{clock.now():6.2f}] shared edit line\n")
            next_edit += EDIT_EVERY

    def pump_viewers(_dt):
        for viewer in viewers:
            viewer.pump()

    world = World(clock, DT)
    world.add(edit, ah.advance, *middle, pump_viewers, world.tick)
    cpu0 = time.process_time()
    world.run_until(lambda: False, timeout=sim_seconds)  # to the deadline
    return time.process_time() - cpu0


def run_tree_arm(fanout: int, viewers_per_leaf: int,
                 sim_seconds: float) -> dict:
    clock = SimulatedClock()
    ah, editor = make_workload(clock)
    tree = build_relay_tree(
        ah, clock, fanouts=(fanout, fanout), viewers_per_leaf=0,
        channel_config=ChannelConfig(delay=0.01, loss_rate=LOSS, seed=11),
    )
    rng = random.Random(97)
    viewers: list[SimViewer] = []
    link_seed = 100_000
    for leaf in tree.leaves:
        for i in range(viewers_per_leaf):
            near, far = duplex_transport_pair(
                ChannelConfig(delay=0.01, loss_rate=LOSS, seed=link_seed),
                clock.now,
            )
            link_seed += 2
            name = f"{leaf.id}/v{i}"
            leaf.add_downstream(name, near)
            viewer = SimViewer(far, clock.now, rng.randrange(1, 1 << 32))
            viewer.join()
            viewers.append(viewer)

    cpu = drive(
        clock, ah, editor, viewers, [lambda _dt: tree.pump()], sim_seconds,
        edit_until=sim_seconds * 0.6,
    )
    viewer_nacks = sum(v.nacks_sent for v in viewers)
    leaf_level = tree.levels[-1]
    return {
        "viewers": len(viewers),
        "relays": len(tree.relays),
        "ah_egress_bytes": ah.total_bytes_sent(),
        "ah_nacks_heard": ah.nacks_received,
        "ah_plis_heard": ah.plis_received,
        "viewer_nacks_sent": viewer_nacks,
        "relay_absorbed_nacks": sum(r.absorbed_nacks for r in tree.relays),
        "relay_deduplicated_nacks": sum(
            r.nacks_deduplicated for r in tree.relays
        ),
        "leaf_plis_received": sum(r.plis_received for r in leaf_level),
        "cpu_s": cpu,
        "complete_viewers": sum(1 for v in viewers if v.complete),
    }


def run_direct_arm(direct_viewers: int, sim_seconds: float) -> dict:
    clock = SimulatedClock()
    ah, editor = make_workload(clock)
    rng = random.Random(53)
    viewers: list[SimViewer] = []
    for i in range(direct_viewers):
        near, far = duplex_transport_pair(
            ChannelConfig(delay=0.01, loss_rate=LOSS, seed=7 + 2 * i),
            clock.now,
        )
        ah.add_participant(f"v{i}", near)
        viewer = SimViewer(far, clock.now, rng.randrange(1, 1 << 32))
        viewer.join()
        viewers.append(viewer)

    cpu = drive(
        clock, ah, editor, viewers, [], sim_seconds,
        edit_until=sim_seconds * 0.6,
    )
    return {
        "viewers": len(viewers),
        "ah_egress_bytes": ah.total_bytes_sent(),
        "ah_nacks_heard": ah.nacks_received,
        "ah_plis_heard": ah.plis_received,
        "viewer_nacks_sent": sum(v.nacks_sent for v in viewers),
        "cpu_s": cpu,
        "complete_viewers": sum(1 for v in viewers if v.complete),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write results to this path")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_relay.json to gate against")
    parser.add_argument("--fanout", type=int, default=10,
                        help="relays per level (tree is fanout x fanout)")
    parser.add_argument("--viewers-per-leaf", type=int, default=100)
    parser.add_argument("--direct-viewers", type=int, default=1000)
    parser.add_argument("--sim-seconds", type=float, default=6.0)
    args = parser.parse_args(argv)

    tree = run_tree_arm(args.fanout, args.viewers_per_leaf, args.sim_seconds)
    direct = run_direct_arm(args.direct_viewers, args.sim_seconds)

    # Direct-unicast cost is linear in viewer count (one stream copy
    # and one independent NACK process per viewer), so per-viewer
    # figures extrapolate to the tree's audience.
    scale = tree["viewers"] / direct["viewers"]
    direct_egress_at_scale = direct["ah_egress_bytes"] * scale
    direct_nacks_at_scale = direct["ah_nacks_heard"] * scale
    egress_reduction = direct_egress_at_scale / max(
        1, tree["ah_egress_bytes"]
    )
    nack_reduction = direct_nacks_at_scale / max(1, tree["ah_nacks_heard"])
    upstream_nack_ratio = tree["ah_nacks_heard"] / max(
        1, tree["viewer_nacks_sent"]
    )
    results = {
        "bench": "relay-tree",
        "gate": {
            "min_viewers": 10_000,
            "min_egress_reduction": 10.0,
            "min_nack_reduction": 10.0,
            "max_ah_bytes_per_viewer": 2_000.0,
            "max_upstream_nack_ratio": 0.10,
            "min_complete_fraction": 0.99,
        },
        "run": {
            "sim_seconds": args.sim_seconds,
            "loss_rate": LOSS,
            "tree": tree,
            "direct": direct,
            "extrapolation_factor": scale,
            "direct_egress_bytes_at_scale": direct_egress_at_scale,
            "direct_nacks_at_scale": direct_nacks_at_scale,
            "egress_reduction": egress_reduction,
            "nack_reduction": nack_reduction,
            "ah_bytes_per_viewer": tree["ah_egress_bytes"] / tree["viewers"],
            "upstream_nack_ratio": upstream_nack_ratio,
            "complete_fraction": tree["complete_viewers"] / tree["viewers"],
            "cpu_s_per_viewer": tree["cpu_s"] / tree["viewers"],
        },
    }
    run = results["run"]

    print(
        f"tree: {tree['viewers']} viewers behind {tree['relays']} relays,"
        f" AH egress {tree['ah_egress_bytes'] / 1e6:.2f} MB"
        f" ({run['ah_bytes_per_viewer']:.0f} B/viewer),"
        f" AH heard {tree['ah_nacks_heard']} NACKs"
        f" of {tree['viewer_nacks_sent']} sent"
        f" (ratio {run['upstream_nack_ratio']:.4f})"
    )
    print(
        f"direct: {direct['viewers']} viewers, AH egress"
        f" {direct['ah_egress_bytes'] / 1e6:.2f} MB,"
        f" {direct['ah_nacks_heard']} NACKs heard"
        f" -> x{scale:.0f} = {direct_egress_at_scale / 1e6:.1f} MB,"
        f" {direct_nacks_at_scale:.0f} NACKs at tree scale"
    )
    print(
        f"reduction: egress x{egress_reduction:.0f},"
        f" NACKs x{nack_reduction:.0f};"
        f" complete {tree['complete_viewers']}/{tree['viewers']};"
        f" cpu {tree['cpu_s']:.1f}s tree / {direct['cpu_s']:.1f}s direct"
    )

    if args.json:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.json}")

    if args.baseline:
        gate = json.loads(args.baseline.read_text()).get("gate", {})
        failures = []
        if tree["viewers"] < gate.get("min_viewers", 0):
            failures.append(
                f"{tree['viewers']} tree viewers below the"
                f" {gate['min_viewers']} floor"
            )
        for key, value, kind in (
            ("min_egress_reduction", egress_reduction, "floor"),
            ("min_nack_reduction", nack_reduction, "floor"),
            ("max_ah_bytes_per_viewer", run["ah_bytes_per_viewer"], "cap"),
            ("max_upstream_nack_ratio", run["upstream_nack_ratio"], "cap"),
            ("min_complete_fraction", run["complete_fraction"], "floor"),
        ):
            bound = gate.get(key)
            if bound is None:
                continue
            bound = float(bound)
            if kind == "floor" and value < bound:
                failures.append(f"{key}: {value:.3f} below the {bound} floor")
            if kind == "cap" and value > bound:
                failures.append(f"{key}: {value:.3f} above the {bound} cap")
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}")
            return 1
        print(
            f"gate ok: x{egress_reduction:.0f} egress,"
            f" x{nack_reduction:.0f} NACK reduction at"
            f" {tree['viewers']} viewers"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
