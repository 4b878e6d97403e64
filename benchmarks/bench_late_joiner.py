"""E6 — late-joiner bootstrap cost (sections 4.3/4.4).

A session runs for a while, then a new participant joins.  UDP joiners
send a PLI and receive WindowManagerInfo plus the full shared image;
TCP joiners get the same sync on connect.  Rows report the time and
bytes from join to the first pixel-exact convergence, as the amount of
pre-join history grows (history should NOT matter — the joiner pays for
current state only).
"""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from sessions import add_tcp_participant, add_udp_participant, session_world, udp_session


def _late_join(history_rounds: int, transport: str):
    clock, ah, early = udp_session(config=SharingConfig(), seed=3)
    win = ah.windows.create_window(Rect(30, 30, 500, 380))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)

    def drive(i):
        if i % 4 == 0:
            editor.type_text(f"history row {i}\n")

    session_world(clock, ah, [early], per_round=drive).run(history_rounds)

    join_time = clock.now()
    if transport == "udp":
        late = add_udp_participant(clock, ah, "late", seed=9)
    else:
        late = add_tcp_participant(clock, ah, "late")

    world = session_world(clock, ah, [early, late])
    assert world.run_until(
        lambda: late.converged_with(ah.windows), timeout=8.0
    ), "late joiner never converged"
    converge_time = clock.now()
    # Everything this session ever sent IS the joiner's sync cost
    # (the TCP connect-time refresh included).
    sync_bytes = ah.sessions["late"].scheduler.bytes_sent
    return converge_time - join_time, sync_bytes


@pytest.mark.parametrize("history_rounds", [50, 200, 600])
@pytest.mark.parametrize("transport", ["udp", "tcp"])
def test_late_joiner(benchmark, experiment, history_rounds, transport):
    recorder = experiment("E6", "late-joiner sync cost vs session history")
    sync_seconds, sync_bytes = benchmark.pedantic(
        _late_join, args=(history_rounds, transport), rounds=1, iterations=1
    )
    recorder.row(
        transport=transport,
        history_s=history_rounds * 0.02,
        time_to_sync_s=sync_seconds,
        sync_kib=sync_bytes / 1024,
    )
