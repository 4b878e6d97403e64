"""Traced scenario runner + per-stage latency waterfall reports.

``python -m repro.obs --report <scenario>`` runs one fully seeded
simulated sharing session with span tracing on and renders the
per-stage latency waterfall (p50/p95/p99 per pipeline stage, plus the
end-to-end ``update.e2e_seconds`` distribution split by
``recovered=yes|no``).  Three scenarios:

* ``baseline`` — TCP, clean path (the CI perf-trajectory anchor);
* ``lossy``    — UDP with 5 % i.i.d. loss and NACK retransmissions;
* ``burst``    — UDP under a Gilbert–Elliott burst-loss profile.

Everything is seeded and measured against the simulated clock, so the
numbers are bit-identical across runs and machines — which is what
lets CI fail a pull request when the baseline e2e p95 regresses more
than :data:`REGRESSION_TOLERANCE` against the committed
``BENCH_trace.json`` seed.
"""

from __future__ import annotations

import random

from ..apps.terminal import TerminalApp
from ..apps.text_editor import TextEditorApp
from ..net.channel import ChannelConfig, FaultProfile, duplex_lossy, duplex_reliable
from ..net.world import World, receive
from ..rtp.clock import SimulatedClock
from ..sharing.ah import ApplicationHost
from ..sharing.config import SharingConfig
from ..sharing.participant import Participant
from ..sharing.transport import DatagramTransport, StreamTransport
from ..surface.geometry import Rect
from .instrumentation import Instrumentation
from .spans import STAGES

SCENARIOS = ("baseline", "lossy", "burst")

#: CI gate: fail when the e2e p95 grows past seed * (1 + tolerance).
REGRESSION_TOLERANCE = 0.25

#: Report percentiles (columns of the waterfall table).
PERCENTILES = (50, 95, 99)


def run_scenario(
    name: str,
    rounds: int = 380,
    instrumentation: Instrumentation | None = None,
) -> Instrumentation:
    """Run one traced scenario; returns its :class:`Instrumentation`."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
    clock = SimulatedClock()
    obs = instrumentation if instrumentation is not None else Instrumentation()
    obs.bind_clock(clock)
    obs.spans  # force span tracing on before the session is built
    config = SharingConfig(adaptive_codec=False)
    ah = ApplicationHost(
        config=config, clock=clock, rng=random.Random(3), obs=obs,
    )

    if name == "baseline":
        dt = 0.01
        link = duplex_reliable(
            ChannelConfig(delay=0.02), clock.now, instrumentation=obs
        )
        transport_ah = StreamTransport(link.forward, link.backward)
        transport_p = StreamTransport(link.backward, link.forward)
    else:
        dt = 0.02
        if name == "lossy":
            channel = ChannelConfig(delay=0.02, loss_rate=0.05, seed=42)
            faults = None
        else:  # burst
            channel = ChannelConfig(delay=0.02, seed=42)
            faults = FaultProfile.gilbert_elliott(0.08, mean_burst=4.0)
        link = duplex_lossy(
            channel, clock.now, instrumentation=obs, faults=faults
        )
        transport_ah = DatagramTransport(link.forward, link.backward)
        transport_p = DatagramTransport(link.backward, link.forward)

    ah.add_participant("p1", transport_ah)
    participant = Participant(
        "p1",
        transport_p,
        clock=clock,
        config=config,
        rng=random.Random(7),
        obs=obs,
    )
    participant.join()

    editor = TextEditorApp(ah.windows.create_window(Rect(10, 10, 300, 200)))
    terminal = TerminalApp(ah.windows.create_window(Rect(330, 10, 300, 200)))
    ah.apps.attach(editor)
    ah.apps.attach(terminal)

    def edit(_dt: float) -> None:
        i = world.rounds
        if i >= rounds:
            return
        if i % 10 == 0:
            editor.type_text(f"report {i} ")
        if i % 14 == 0:
            terminal.append_line(f"$ job {i}")

    world = World(clock, dt)
    world.add(edit, ah.advance, world.tick, receive([participant]))
    # A quiet tail of 60 rounds lets in-flight repairs land, so
    # recovered spans close.
    world.run(rounds + 60)
    return obs


# -- Aggregation -------------------------------------------------------------


def _histogram_row(histogram) -> dict:
    if histogram is None or histogram.count == 0:
        return {"count": 0, "p50": None, "p95": None, "p99": None}
    p50, p95, p99 = histogram.percentiles(PERCENTILES)
    return {"count": histogram.count, "p50": p50, "p95": p95, "p99": p99}


def bench_payload(obs: Instrumentation, scenario: str, rounds: int) -> dict:
    """The ``BENCH_trace.json`` document for one scenario run."""
    registry = obs.registry
    stages = {
        stage: _histogram_row(
            registry.get("update.stage_seconds", stage=stage)
        )
        for stage in STAGES
    }
    e2e = {
        label: _histogram_row(
            registry.get("update.e2e_seconds", recovered=label)
        )
        for label in ("no", "yes")
    }
    return {
        "bench": "trace",
        "scenario": scenario,
        "rounds": rounds,
        "stages": stages,
        "e2e": e2e,
        "spans": {
            "started": registry.total("spans.started"),
            "completed": registry.total("spans.completed"),
            "abandoned": registry.total("spans.abandoned"),
        },
    }


def _ms(value: float | None) -> str:
    return "      -" if value is None else f"{value * 1e3:7.2f}"


def render_waterfall(payload: dict) -> str:
    """The per-stage latency waterfall as a fixed-width text table."""
    lines = [
        f"scenario: {payload['scenario']}  rounds: {payload['rounds']}",
        f"spans: {payload['spans']['started']:.0f} started, "
        f"{payload['spans']['completed']:.0f} completed, "
        f"{payload['spans']['abandoned']:.0f} abandoned",
        "",
        f"{'stage':<12} {'count':>6} {'p50 ms':>7} {'p95 ms':>7} {'p99 ms':>7}",
        "-" * 43,
    ]
    for stage in STAGES:
        row = payload["stages"][stage]
        lines.append(
            f"{stage:<12} {row['count']:>6} "
            f"{_ms(row['p50'])} {_ms(row['p95'])} {_ms(row['p99'])}"
        )
    lines.append("-" * 43)
    for label in ("no", "yes"):
        row = payload["e2e"][label]
        lines.append(
            f"{'e2e rec=' + label:<12} {row['count']:>6} "
            f"{_ms(row['p50'])} {_ms(row['p95'])} {_ms(row['p99'])}"
        )
    return "\n".join(lines)


# -- CI regression gate ------------------------------------------------------


def check_regression(
    current: dict, baseline: dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Compare two bench payloads; returns failure messages (empty = ok).

    Gates on ``update.e2e_seconds`` p95 per ``recovered`` label: any
    label the baseline has samples for must stay within
    ``baseline * (1 + tolerance)`` now.
    """
    failures: list[str] = []
    for label, seed_row in baseline.get("e2e", {}).items():
        seed_p95 = seed_row.get("p95")
        if not seed_row.get("count") or seed_p95 is None:
            continue
        row = current.get("e2e", {}).get(label, {})
        p95 = row.get("p95")
        if not row.get("count") or p95 is None:
            failures.append(
                f"e2e recovered={label}: no samples now "
                f"(baseline had {seed_row['count']})"
            )
            continue
        limit = seed_p95 * (1 + tolerance)
        if p95 > limit:
            failures.append(
                f"e2e recovered={label}: p95 {p95 * 1e3:.2f} ms exceeds "
                f"baseline {seed_p95 * 1e3:.2f} ms by more than "
                f"{tolerance:.0%} (limit {limit * 1e3:.2f} ms)"
            )
    return failures
