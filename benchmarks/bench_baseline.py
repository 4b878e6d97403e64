"""E14 — RTP push sharing vs client-pull remote framebuffer (VNC-style).

The paper's architectural bet: pushing damage-driven RegionUpdates over
RTP beats the incumbent pull model.  Both systems share the same
virtual desktop, workload and simulated 20 ms link; rows compare bytes
moved and update freshness.  Two structural advantages should show:

* the push side knows per-window damage (no whole-screen tile diffing,
  pixels hidden under other windows are never encoded);
* a pull client pays at least one round trip per update, plus its poll
  cadence, before seeing a change.
"""

import pytest

from repro.apps.terminal import TerminalApp
from repro.apps.text_editor import TextEditorApp
from repro.baseline.session import BaselineSession
from repro.net.channel import ChannelConfig, duplex_reliable
from repro.net.world import World
from repro.rtp.clock import SimulatedClock
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect
from repro.surface.window import WindowManager

from sessions import session_world, tcp_session

ROUNDS = 300
DT = 0.01
DELAY = 0.02


def _drive_apps(editor, terminal, i):
    if i % 10 == 0 and i < 200:
        editor.type_text(f"push vs pull {i} ")
    if i % 14 == 0 and i < 200:
        terminal.append_line(f"$ job {i}")


def _rtp_push_session():
    clock, ah, participant = tcp_session(
        config=SharingConfig(adaptive_codec=False), delay=DELAY, bandwidth_bps=0
    )
    editor = TextEditorApp(ah.windows.create_window(Rect(10, 10, 300, 200)))
    terminal = TerminalApp(ah.windows.create_window(Rect(330, 10, 300, 200)))
    ah.apps.attach(editor)
    ah.apps.attach(terminal)
    session_world(clock, ah, [participant], dt=DT).run(30)
    base = ah.total_bytes_sent()

    def drive(i):
        _drive_apps(editor, terminal, i)

    session_world(clock, ah, [participant], dt=DT, per_round=drive).run(ROUNDS)
    session_world(clock, ah, [participant], dt=DT).run(50)
    assert participant.screen_converged_with(ah.windows)
    scheduler = ah.sessions["p1"].scheduler
    staleness = sorted(scheduler.updates_sent_stale_after)
    p95 = staleness[int(0.95 * (len(staleness) - 1))] if staleness else 0.0
    # Push freshness: capture→send lag plus one-way path delay.
    return ah.total_bytes_sent() - base, p95 + DELAY


def _pull_baseline_session():
    clock = SimulatedClock()
    wm = WindowManager(1280, 1024)
    editor = TextEditorApp(wm.create_window(Rect(10, 10, 300, 200)))
    terminal = TerminalApp(wm.create_window(Rect(330, 10, 300, 200)))
    link = duplex_reliable(ChannelConfig(delay=DELAY), clock.now)
    session = BaselineSession(wm, link, clock.now)
    def drive(_dt):
        if 30 <= world.rounds < 30 + ROUNDS:
            _drive_apps(editor, terminal, world.rounds - 30)

    world = World(clock, DT)
    world.add(drive, lambda _dt: session.tick(), world.tick)
    world.run(30)  # warm-up: first full-screen pull
    base = session.server.bytes_sent
    world.run(ROUNDS + 50)
    assert session.client.matches(wm)
    rtts = sorted(session.update_round_trips)
    p95 = rtts[int(0.95 * (len(rtts) - 1))] if rtts else 0.0
    return session.server.bytes_sent - base, p95


@pytest.mark.parametrize("system", ["rtp-push", "pull-baseline"])
def test_push_vs_pull(benchmark, experiment, system):
    recorder = experiment("E14", "RTP push vs client-pull framebuffer")
    runner = _rtp_push_session if system == "rtp-push" else _pull_baseline_session
    sent, freshness_p95 = benchmark.pedantic(runner, rounds=1, iterations=1)
    recorder.row(
        system=system,
        workload_s=ROUNDS * DT,
        sent_kib=sent / 1024,
        update_freshness_p95_ms=freshness_p95 * 1000,
    )
