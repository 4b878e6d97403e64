"""E3 — MoveRectangle for scrolls vs re-encoding (section 5.2.3).

"MoveRectangle instructs the participant to move a region from one
place to another, which is efficient for some drawing operations like
scrolls."  A terminal emitting build output scrolls a 600x400 viewport;
with scroll detection on, each scroll becomes one 28-byte MoveRectangle
plus a one-line RegionUpdate instead of re-encoding the whole viewport.
"""

import pytest

from repro.apps.terminal import TerminalApp
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from sessions import session_world, tcp_session

LINES = 80


def _scroll_session(scroll_detection: bool):
    config = SharingConfig(scroll_detection=scroll_detection)
    clock, ah, participant = tcp_session(config=config)
    win = ah.windows.create_window(Rect(20, 20, 600, 400))
    terminal = TerminalApp(win)
    # Fill the viewport so every further line scrolls.
    terminal.run_build_output(terminal.rows)
    session_world(clock, ah, [participant]).run(30)
    base_bytes = ah.total_bytes_sent()
    emitted = 0

    def drive(i):
        nonlocal emitted
        if i % 2 == 0 and emitted < LINES:
            terminal.run_build_output(1, start=terminal.rows + emitted)
            emitted += 1

    session_world(clock, ah, [participant], per_round=drive).run(LINES * 2 + 40)
    session_world(clock, ah, [participant]).run(60)
    assert participant.converged_with(ah.windows)
    return ah, participant, ah.total_bytes_sent() - base_bytes


@pytest.mark.parametrize("mode", ["move-rectangle", "reencode-all"])
def test_scroll_workload(benchmark, experiment, mode):
    recorder = experiment("E3", "scroll via MoveRectangle vs re-encoding")
    ah, participant, sent = benchmark.pedantic(
        _scroll_session, args=(mode == "move-rectangle",), rounds=1,
        iterations=1,
    )
    recorder.row(
        mode=mode,
        scrolled_lines=LINES,
        moves_applied=participant.moves_applied,
        update_kib=participant.stats.region_update.wire_bytes / 1024,
        move_kib=participant.stats.move_rectangle.wire_bytes / 1024,
        total_sent_kib=sent / 1024,
        kib_per_line=sent / 1024 / LINES,
    )
