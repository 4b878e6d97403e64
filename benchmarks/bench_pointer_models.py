"""E13 — the two mouse-pointer models under cursor motion (section 4.2).

"Mouse pointer images can be transmitted as RegionUpdate messages or
they may be transmitted seperately as MousePointerInfo messages."
A participant waves the mouse across the shared window; rows compare
the bytes each model spends.  Explicit mode ships 12-byte position
messages; in-band mode re-encodes the pixels under the old and new
pointer footprints every move.
"""

import pytest

from repro.apps.whiteboard import WhiteboardApp
from repro.sharing.config import PointerMode, SharingConfig
from repro.surface.geometry import Rect

from sessions import session_world, tcp_session

MOVES = 120


def _wave_session(mode: PointerMode):
    config = SharingConfig(pointer_mode=mode, adaptive_codec=False)
    clock, ah, participant = tcp_session(config=config)
    win = ah.windows.create_window(Rect(50, 50, 500, 400))
    ah.apps.attach(WhiteboardApp(win))
    session_world(clock, ah, [participant]).run(30)
    base = ah.total_bytes_sent()
    step = 0

    def drive(i):
        nonlocal step
        if i % 2 == 0 and step < MOVES:
            x = 10 + (step * 7) % 480
            y = 10 + (step * 5) % 380
            participant.move_mouse(win.window_id, x, y)
            step += 1

    session_world(clock, ah, [participant], per_round=drive).run(MOVES * 2 + 40)
    session_world(clock, ah, [participant]).run(40)
    return ah, participant, ah.total_bytes_sent() - base


@pytest.mark.parametrize("mode", [PointerMode.EXPLICIT, PointerMode.IN_BAND])
def test_pointer_motion_cost(benchmark, experiment, mode):
    recorder = experiment("E13", "pointer models under cursor motion")
    ah, participant, sent = benchmark.pedantic(
        _wave_session, args=(mode,), rounds=1, iterations=1
    )
    recorder.row(
        model=mode.value,
        moves=MOVES,
        pointer_msgs=participant.stats.pointer.packets,
        pointer_kib=participant.stats.pointer.wire_bytes / 1024,
        update_kib=participant.stats.region_update.wire_bytes / 1024,
        total_sent_kib=sent / 1024,
        bytes_per_move=sent / MOVES,
    )
