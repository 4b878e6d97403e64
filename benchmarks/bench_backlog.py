"""E4 — backlog-aware coalescing prevents screen latency (section 7).

"Application hosts shouldn't blindly send every screen update ... only
send the most recent screen data when there is no backlog.  This will
prevent screen latency for rapidly-changing images."

A 30 fps animation is pushed into a 2 Mb/s TCP path.  With coalescing,
blocked frames merge and the freshest pixels ship when the pipe clears;
without it, every stale frame queues behind the bottleneck and display
lag grows unboundedly.  Staleness = (send time - capture time) of each
transmitted packet.
"""

import pytest

from repro.apps.animation import AnimationApp
from repro.obs import Instrumentation
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from sessions import session_world, tcp_session

SECONDS = 6.0
DT = 1 / 30


def _animation_session(coalescing: bool):
    config = SharingConfig(backlog_coalescing=coalescing, adaptive_codec=True)
    obs = Instrumentation()
    clock, ah, participant = tcp_session(
        config=config, bandwidth_bps=2_000_000, send_buffer=64 * 1024,
        obs=obs,
    )
    win = ah.windows.create_window(Rect(0, 0, 480, 360))
    ah.apps.attach(AnimationApp(win, fps=30, balls=4))
    rounds = int(SECONDS / DT)
    session_world(clock, ah, [participant], dt=DT).run(rounds)
    scheduler = ah.sessions["p1"].scheduler
    # The scheduler's staleness histogram is maintained by the shared
    # Instrumentation — no hand-built recorder needed.
    (staleness,) = obs.registry.find(
        "scheduler.update_staleness_seconds", peer="p1"
    )
    return scheduler, staleness


@pytest.mark.parametrize("mode", ["coalescing", "queue-all"])
def test_rapid_animation_latency(benchmark, experiment, mode):
    recorder = experiment("E4", "backlog coalescing vs queue-all (30fps anim, 2Mb/s)")
    scheduler, staleness = benchmark.pedantic(
        _animation_session, args=(mode == "coalescing",), rounds=1, iterations=1
    )
    summary = staleness.summary()
    recorder.row(
        mode=mode,
        packets_sent=scheduler.packets_sent,
        frames_coalesced=scheduler.frames_coalesced,
        queue_left=scheduler.queue_depth,
        staleness_p50_ms=summary["p50"] * 1000,
        staleness_p95_ms=summary["p95"] * 1000,
        staleness_max_ms=summary["max"] * 1000,
    )
