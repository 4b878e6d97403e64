"""E2 — damage tracking vs full-frame shipping (section 2).

"large areas of the screen that remain unchanged for long periods of
time, while others change rapidly" — shipping only damaged rectangles
should beat re-sending the frame by orders of magnitude on an editing
workload.  Includes the tile-size ablation for the pixel-diff detector.
"""

import numpy as np
import pytest

from repro.apps.text_editor import TextEditorApp
from repro.codecs import PngCodec
from repro.sharing.config import SharingConfig
from repro.surface.damage import TileDiffer
from repro.surface.framebuffer import Framebuffer
from repro.surface.geometry import Rect
from repro.surface.window import WindowManager

from sessions import session_world, tcp_session

FRAMES = 120


def _editor_session(damage_tracking: bool):
    """Run an editing session; return bytes sent downstream."""
    clock, ah, participant = tcp_session(config=SharingConfig())
    win = ah.windows.create_window(Rect(50, 50, 640, 480))
    editor = TextEditorApp(win)
    ah.apps.attach(editor)
    session_world(clock, ah, [participant]).run(20)  # initial sync
    base = ah.total_bytes_sent()

    def drive(i):
        if i % 2 == 0:
            editor.type_text("the quick brown fox ")
        if not damage_tracking:
            # Ablation: pretend the capture layer cannot localise the
            # change — the whole window is damaged every frame.
            win.add_damage(win.local_bounds)

    session_world(clock, ah, [participant], per_round=drive).run(FRAMES)
    # Drain the coalesced backlog.
    session_world(clock, ah, [participant]).run(100)
    assert participant.converged_with(ah.windows)
    return ah.total_bytes_sent() - base


@pytest.mark.parametrize("mode", ["damage-rects", "full-window"])
def test_damage_vs_full(benchmark, experiment, mode):
    recorder = experiment("E2", "damage tracking vs full-window shipping")
    total = benchmark.pedantic(
        _editor_session, args=(mode == "damage-rects",), rounds=1, iterations=1
    )
    recorder.row(
        mode=mode,
        frames=FRAMES,
        sent_kib=total / 1024,
        kib_per_frame=total / 1024 / FRAMES,
    )


@pytest.mark.parametrize("tile", [16, 32, 64, 128])
def test_tile_size_ablation(benchmark, experiment, tile):
    """DESIGN.md ablation: tile size for the pixel-diff detector."""
    recorder = experiment("E2a", "tile-size ablation (pixel diff detector)")
    wm = WindowManager(1280, 1024)
    win = wm.create_window(Rect(0, 0, 640, 480))
    editor = TextEditorApp(win)
    codec = PngCodec()
    differ = TileDiffer(640, 480, tile=tile)
    differ.diff(win.surface)  # baseline frame

    def frame_cycle():
        editor.type_text("x")
        return differ.diff(win.surface)

    # Measure detection cost; separately account detected bytes.
    benchmark(frame_cycle)
    editor.type_text("sample line for size accounting")
    damage = differ.diff(win.surface)
    encoded = sum(
        len(codec.encode(win.surface.read_rect(r))) for r in damage
    )
    recorder.row(
        tile_px=tile,
        damage_rects=len(damage),
        damage_area_px=damage.area,
        encoded_bytes=encoded,
    )
