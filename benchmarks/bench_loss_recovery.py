"""E5 — loss recovery: Generic NACK retransmission vs PLI-only (section 5.3).

Sweeps packet loss from 1 % to 10 % over an editing session and
compares the two recovery modes the draft defines: NACK-driven
retransmission (when the AH advertises ``retransmissions=yes``) and
full-refresh PLI as the only tool.  Reports recovery traffic overhead
and whether the participant converges.
"""

import pytest

from repro.apps.text_editor import TextEditorApp
from repro.sharing.config import SharingConfig
from repro.surface.geometry import Rect

from sessions import session_world, udp_session

EDIT_ROUNDS = 360


def _lossy_session(loss_rate: float, retransmissions: bool, seed: int = 33):
    config = SharingConfig(retransmissions=retransmissions)
    clock, ah, participant = udp_session(
        config=config, loss_rate=loss_rate, seed=seed
    )
    win = ah.windows.create_window(Rect(40, 40, 400, 300))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)

    def drive(i):
        if i % 6 == 0 and i < EDIT_ROUNDS - 120:
            editor.type_text(f"line {i} under loss\n")

    session_world(clock, ah, [participant], per_round=drive).run(EDIT_ROUNDS)
    session_world(clock, ah, [participant]).run(200)  # recovery tail
    return ah, participant


@pytest.mark.parametrize("loss_pct", [1, 5, 10])
@pytest.mark.parametrize("mode", ["nack-rtx", "pli-only"])
def test_loss_recovery(benchmark, experiment, loss_pct, mode):
    recorder = experiment("E5", "NACK retransmission vs PLI-only recovery")
    ah, participant = benchmark.pedantic(
        _lossy_session,
        args=(loss_pct / 100, mode == "nack-rtx"),
        rounds=1,
        iterations=1,
    )
    retransmit_kib = sum(
        s.scheduler.encoder.stats.retransmit.wire_bytes
        for s in ah.sessions.values()
    ) / 1024
    recorder.row(
        loss_pct=loss_pct,
        mode=mode,
        converged=participant.converged_with(ah.windows),
        nacks=participant.nacks_sent,
        plis=participant.plis_sent,
        retransmit_kib=retransmit_kib,
        total_sent_kib=ah.total_bytes_sent() / 1024,
        updates_dropped=participant._reassembler.updates_dropped,
    )
