"""E9 — HIP event throughput, latency, and the legitimacy check (sections 4.1, 6).

A participant fires a storm of mouse/keyboard events; rows report
end-to-end event latency over the simulated path, AH-side validation
throughput, and the rejection rate for events falling outside shared
windows.
"""

import pytest

from repro.apps.base import AppHost
from repro.apps.whiteboard import WhiteboardApp
from repro.core.hip import KeyTyped, MouseMoved, MousePressed, MouseReleased
from repro.sharing.config import SharingConfig
from repro.sharing.events import EventInjector
from repro.surface.geometry import Rect
from repro.surface.window import WindowManager

from sessions import session_world, tcp_session

EVENTS = 2000


def test_injector_throughput(benchmark, experiment):
    """Pure AH-side validation + regeneration rate."""
    recorder = experiment("E9", "HIP event processing")
    wm = WindowManager(1280, 1024)
    apps = AppHost(wm)
    win = wm.create_window(Rect(100, 100, 600, 400))
    apps.attach(WhiteboardApp(win))
    injector = EventInjector(wm, apps)
    messages = [
        MouseMoved(win.window_id, 100 + (i % 600), 100 + (i * 7) % 400)
        for i in range(EVENTS)
    ]

    def storm():
        for message in messages:
            injector.inject("p1", message)

    benchmark(storm)
    recorder.row(
        metric="AH validation+regeneration",
        events=injector.stats.accepted,
        rejected=injector.stats.rejected_out_of_window,
    )


def test_legitimacy_rejection_rate(benchmark, experiment):
    """Half the storm aims outside any shared window (must be rejected)."""
    recorder = experiment("E9", "HIP event processing")
    wm = WindowManager(1280, 1024)
    apps = AppHost(wm)
    win = wm.create_window(Rect(100, 100, 200, 200))
    apps.attach(WhiteboardApp(win))
    injector = EventInjector(wm, apps)
    inside = MousePressed(win.window_id, 1, 150, 150)
    outside = MousePressed(win.window_id, 1, 900, 900)

    def storm():
        for i in range(EVENTS):
            injector.inject("p1", inside if i % 2 == 0 else outside)

    benchmark(storm)
    total = injector.stats.accepted + injector.stats.rejected_out_of_window
    recorder.row(
        metric="legitimacy check (50% spoofed)",
        events=total,
        rejected=injector.stats.rejected_out_of_window,
    )


def _event_latency_session():
    clock, ah, participant = tcp_session(delay=0.02)
    win = ah.windows.create_window(Rect(50, 50, 600, 400))
    board = WhiteboardApp(win)
    ah.apps.attach(board)
    session_world(clock, ah, [participant]).run(20)

    # One drag stroke: press, many moves, release; measure time until
    # the AH has handled each batch.
    sent_at = clock.now()
    participant.press_mouse(win.window_id, 10, 10)
    for i in range(100):
        participant.move_mouse(win.window_id, 10 + i, 10 + i % 50)
    participant.release_mouse(win.window_id, 110, 59)
    session_world(clock, ah, [participant], dt=0.005).run_until(
        lambda: board.strokes_completed > 0, timeout=1.0
    )
    latency = clock.now() - sent_at
    return board, latency


def test_event_latency(benchmark, experiment):
    recorder = experiment("E9", "HIP event processing")
    board, latency = benchmark.pedantic(
        _event_latency_session, rounds=1, iterations=1
    )
    assert board.strokes_completed == 1
    recorder.row(
        metric="drag stroke e2e (102 events, 20ms path)",
        events=board.events_handled,
        latency_ms=latency * 1000,
    )


def test_key_typed_encode_decode(benchmark):
    """Wire-level KeyTyped throughput for a paste-sized string."""
    message = KeyTyped(1, "lorem ipsum dolor sit amet " * 8)

    def roundtrip():
        return KeyTyped.decode(message.encode())

    assert benchmark(roundtrip).text == message.text
