"""Chaos benchmark: kill a mid-tree relay, measure reconvergence.

Exercises the ``repro.health`` failure-handling path end to end: one
AH feeds a 2-level relay tree (``--fanout`` roots, ``--fanout`` leaves
each, ``--viewers-per-leaf`` viewers per leaf) over 2%-lossy hops,
then a scripted **crash** kills one level-0 relay mid-run — orphaning
a third of the audience behind its child relays.

What must happen next, with no operator in the loop:

1. each orphaned leaf relay's upstream :class:`LivenessTracker` marks
   the dead parent after ``dead_after`` seconds of silence;
2. :meth:`RelayTree.failover_orphans` re-parents the orphans onto the
   nearest alive ancestor (here: the AH) and forces a PLI resync;
3. the AH's own liveness evicts the crashed relay's destination, so
   egress toward the corpse stops;
4. viewers behind the orphaned subtree resynchronise onto the new
   stream (new SSRC + sequence space) and end the run gap-free.

Viewers are the same feedback-faithful :class:`SimViewer` the fan-out
benchmark uses, extended with RFC 3550-style SSRC-change resets so the
post-failover stream restarts their gap tracking.

Headline numbers: fraction of orphaned viewers that reconverge, the
p50/p95 recovery time (crash → orphaned viewer gap-free on the new
stream), failover count, and the unaffected subtrees' health.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --json BENCH_chaos.new.json --baseline BENCH_chaos.json

Exits non-zero when fewer than ``gate.min_reconverged_fraction`` of
the orphaned viewers reconverge, recovery-time p95 exceeds
``gate.max_recovery_p95_s`` virtual seconds, the failover machinery
did not fire, or the unaffected viewers dropped below
``gate.min_unaffected_fraction`` complete.  Refresh the committed seed
with ``--json BENCH_chaos.json``.
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
from repro.health.liveness import LivenessConfig  # noqa: E402
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
from repro.rtp.reports import RtcpReporter  # noqa: E402
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

#: Relay-tier silence thresholds: a parent silent for 2.5 virtual
#: seconds is dead (healthy links carry media + RTCP far more often).
RELAY_LIVENESS = LivenessConfig(suspect_after=1.0, dead_after=2.5)
#: AH-tier thresholds for evicting the crashed relay's destination.
AH_LIVENESS = LivenessConfig(suspect_after=2.0, dead_after=5.0)


class SimViewer:
    """A feedback-faithful viewer that survives an upstream failover.

    Real :class:`RtpReceiver` + :class:`RecoveryManager` (loss is
    detected, NACKed, retried and given up exactly like a
    participant), plus the RFC 3550 restart rule: a new media SSRC
    resets the per-stream state, because the post-failover parent is a
    different RTP sender.
    """

    __slots__ = (
        "transport", "receiver", "recovery", "now", "ssrc", "media_ssrc",
        "reporter", "nacks_sent", "plis_sent", "streams_seen",
    )

    def __init__(self, transport, now, ssrc: int,
                 rtcp_interval: float) -> None:
        self.transport = transport
        self.now = now
        self.receiver = RtpReceiver(now=now)
        self.recovery = RecoveryManager(now=now)
        self.ssrc = ssrc
        self.media_ssrc = 0
        # The liveness heartbeat: without periodic RRs a loss-free
        # viewer sends nothing and the leaf relay's silence thresholds
        # would (correctly!) evict it.
        self.reporter = RtcpReporter(
            now, receiver=self.receiver, cname=f"viewer/{ssrc}",
            interval=rtcp_interval, rng=random.Random(ssrc),
        )
        self.nacks_sent = 0
        self.plis_sent = 0
        self.streams_seen = 0

    def join(self) -> None:
        self.transport.send_packet(
            PictureLossIndication(self.ssrc, self.media_ssrc).encode()
        )
        self.plis_sent += 1

    def _reset_stream(self, new_ssrc: int) -> None:
        self.media_ssrc = new_ssrc
        self.receiver = RtpReceiver(now=self.now)
        self.recovery = RecoveryManager(now=self.now)
        self.reporter.receiver = self.receiver
        self.streams_seen += 1

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
            if packet.ssrc != self.media_ssrc:
                self._reset_stream(packet.ssrc)
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
        report = self.reporter.poll()
        if report is not None:
            self.transport.send_packet(report)

    @property
    def complete(self) -> bool:
        return (
            self.receiver.packets_received > 0
            and not self.receiver.missing_sequence_numbers()
        )


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_chaos(fanout: int, viewers_per_leaf: int, crash_at: float,
              sim_seconds: float) -> dict:
    clock = SimulatedClock()
    ah = ApplicationHost(
        screen_width=SCREEN[0], screen_height=SCREEN[1],
        config=SharingConfig(adaptive_codec=False),
        clock=clock,
        liveness=AH_LIVENESS,
    )
    window = ah.windows.create_window(WINDOW)
    editor = TextEditorApp(window)
    ah.apps.attach(editor)

    tree = build_relay_tree(
        ah, clock, fanouts=(fanout, fanout), viewers_per_leaf=0,
        channel_config=ChannelConfig(delay=0.01, loss_rate=LOSS, seed=11),
        liveness=RELAY_LIVENESS,
    )
    victim = tree.levels[0][0]
    orphan_leaves = {
        relay.id for relay in tree.leaves
        if tree.parent_of[relay.id] == victim.id
    }

    rng = random.Random(97)
    viewers: list[SimViewer] = []
    orphaned: list[SimViewer] = []
    link_seed = 100_000
    for leaf in tree.leaves:
        for i in range(viewers_per_leaf):
            near, far = duplex_transport_pair(
                ChannelConfig(delay=0.01, loss_rate=LOSS, seed=link_seed),
                clock.now,
            )
            link_seed += 2
            leaf.add_downstream(f"{leaf.id}/v{i}", near)
            viewer = SimViewer(
                far, clock.now, rng.randrange(1, 1 << 32),
                rtcp_interval=RELAY_LIVENESS.dead_after / 3.0,
            )
            viewer.join()
            viewers.append(viewer)
            if leaf.id in orphan_leaves:
                orphaned.append(viewer)

    recovery_times: dict[int, float] = {}
    edit_until = clock.now() + sim_seconds - 5.0  # quiet tail: gap-free
    next_edit = clock.now()

    def edit(_dt):
        nonlocal next_edit
        now = clock.now()
        if now <= edit_until and now >= next_edit:
            editor.type_text(f"[{now:6.2f}] shared edit line\n")
            next_edit += EDIT_EVERY

    def pump_viewers(_dt):
        for viewer in viewers:
            viewer.pump()
        if not victim.crashed:
            return
        for index, viewer in enumerate(orphaned):
            if (
                index not in recovery_times
                and viewer.streams_seen > 1
                and viewer.receiver.packets_received > 0
                and viewer.complete
            ):
                recovery_times[index] = clock.now() - crash_at

    world = World(clock, DT)
    world.add(
        edit,
        ah.advance,
        lambda _dt: tree.pump(),  # includes failover_orphans()
        lambda _dt: ah.poll_liveness(),
        pump_viewers,
        world.tick,
    )
    world.at(crash_at, victim.crash)
    cpu0 = time.process_time()
    world.run_until(lambda: False, timeout=sim_seconds)  # to the deadline
    cpu = time.process_time() - cpu0

    unaffected = [v for v in viewers if v not in orphaned]
    reconverged = sum(
        1 for index, viewer in enumerate(orphaned)
        if viewer.streams_seen > 1 and viewer.complete
    )
    times = sorted(recovery_times.values())
    return {
        "viewers": len(viewers),
        "orphaned_viewers": len(orphaned),
        "reconverged_viewers": reconverged,
        "unaffected_viewers": len(unaffected),
        "unaffected_complete": sum(1 for v in unaffected if v.complete),
        "failovers": sum(r.failovers for r in tree.relays),
        "failover_log": [list(entry) for entry in tree.failover_log],
        "downstreams_pruned": sum(r.downstreams_pruned for r in tree.relays),
        "ah_participants_evicted": ah.participants_evicted,
        "recovery_times": times,
        "recovery_p50_s": percentile(times, 0.50),
        "recovery_p95_s": percentile(times, 0.95),
        "cpu_s": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write results to this path")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_chaos.json to gate against")
    parser.add_argument("--fanout", type=int, default=3,
                        help="relays per level (tree is fanout x fanout)")
    parser.add_argument("--viewers-per-leaf", type=int, default=12)
    parser.add_argument("--crash-at", type=float, default=6.0,
                        help="virtual seconds before the level-0 crash")
    parser.add_argument("--sim-seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    run = run_chaos(
        args.fanout, args.viewers_per_leaf, args.crash_at, args.sim_seconds
    )
    reconverged_fraction = run["reconverged_viewers"] / max(
        1, run["orphaned_viewers"]
    )
    unaffected_fraction = run["unaffected_complete"] / max(
        1, run["unaffected_viewers"]
    )
    results = {
        "bench": "chaos-failover",
        "gate": {
            "min_reconverged_fraction": 0.99,
            "max_recovery_p95_s": 8.0,
            "min_failovers": 1,
            "min_unaffected_fraction": 0.99,
        },
        "run": {
            "sim_seconds": args.sim_seconds,
            "crash_at": args.crash_at,
            "loss_rate": LOSS,
            "reconverged_fraction": reconverged_fraction,
            "unaffected_fraction": unaffected_fraction,
            **run,
        },
    }

    print(
        f"chaos: crashed 1 of {args.fanout} level-0 relays at"
        f" t={args.crash_at:.1f}s, orphaning"
        f" {run['orphaned_viewers']}/{run['viewers']} viewers"
        f" behind {len(run['failover_log'])} leaf relays"
    )
    moves = ", ".join(
        f"{orphan}->{parent or 'AH'}" for orphan, parent in run["failover_log"]
    )
    print(
        f"failover: {run['failovers']} re-parents ({moves}),"
        f" {run['downstreams_pruned']} downstreams pruned,"
        f" {run['ah_participants_evicted']} AH eviction(s)"
    )
    print(
        f"reconvergence: {run['reconverged_viewers']}"
        f"/{run['orphaned_viewers']} orphans"
        f" ({reconverged_fraction:.1%}), recovery p50"
        f" {run['recovery_p50_s']:.2f}s / p95 {run['recovery_p95_s']:.2f}s;"
        f" unaffected {run['unaffected_complete']}"
        f"/{run['unaffected_viewers']} complete"
    )

    if args.json:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.json}")

    if args.baseline:
        gate = json.loads(args.baseline.read_text()).get("gate", {})
        failures = []
        for key, value, kind in (
            ("min_reconverged_fraction", reconverged_fraction, "floor"),
            ("max_recovery_p95_s", run["recovery_p95_s"], "cap"),
            ("min_failovers", run["failovers"], "floor"),
            ("min_unaffected_fraction", unaffected_fraction, "floor"),
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
            f"gate ok: {reconverged_fraction:.1%} reconverged,"
            f" p95 {run['recovery_p95_s']:.2f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
