"""Observability smoke test: ``python -m repro.obs --selftest``.

Asserts the no-op (:data:`repro.obs.NULL`) instrumentation path adds
under 5 % overhead to a bench_baseline-sized session.  Run-vs-run wall
time comparison is noisy at this scale, so the check is constructive
instead:

1. run the session once with live instrumentation to learn how many
   observability operations (counter bumps, histogram records, trace
   events) the workload performs;
2. time the same session with the shared :data:`NULL` object (the
   default every component carries when no instrumentation is given);
3. micro-time one null operation and bound the total instrumentation
   cost as ``ops x per-op cost``, which must stay below 5 % of the
   session's wall time.

Exit status 0 when the bound holds; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..apps.terminal import TerminalApp
from ..apps.text_editor import TextEditorApp
from ..net.channel import ChannelConfig, duplex_reliable
from ..net.world import World, receive
from ..rtp.clock import SimulatedClock
from ..sharing.ah import ApplicationHost
from ..sharing.config import SharingConfig
from ..sharing.participant import Participant
from ..sharing.transport import StreamTransport
from ..surface.geometry import Rect
from . import report
from .instrumentation import NULL, Instrumentation

OVERHEAD_BUDGET = 0.05


def _run_session(instrumentation, rounds: int, dt: float = 0.01) -> float:
    """One bench_baseline-shaped TCP session; returns wall seconds."""
    clock = SimulatedClock()
    if instrumentation is not None:
        instrumentation.bind_clock(clock)
    config = SharingConfig(adaptive_codec=False)
    ah = ApplicationHost(
        config=config, clock=clock, obs=instrumentation
    )
    link = duplex_reliable(
        ChannelConfig(delay=0.02), clock.now, instrumentation=instrumentation
    )
    ah.add_participant("p1", StreamTransport(link.forward, link.backward))
    participant = Participant(
        "p1",
        StreamTransport(link.backward, link.forward),
        clock=clock,
        config=config,
        obs=instrumentation,
    )
    participant.join()
    editor = TextEditorApp(ah.windows.create_window(Rect(10, 10, 300, 200)))
    terminal = TerminalApp(ah.windows.create_window(Rect(330, 10, 300, 200)))
    ah.apps.attach(editor)
    ah.apps.attach(terminal)

    def edit(_dt: float) -> None:
        i = world.rounds
        if i % 10 == 0:
            editor.type_text(f"selftest {i} ")
        if i % 14 == 0:
            terminal.append_line(f"$ job {i}")

    world = World(clock, dt)
    world.add(edit, ah.advance, world.tick, receive([participant]))
    start = time.perf_counter()
    world.run(rounds)
    elapsed = time.perf_counter() - start
    if not participant.windows:
        raise AssertionError("selftest session produced no shared state")
    return elapsed


def _count_ops(obs: Instrumentation) -> int:
    """Observability operations the instrumented run performed.

    Counts *calls*, not accumulated values: a byte counter bumped with
    ``inc(1400)`` once per packet is one no-op-able operation, not
    1400 of them.
    """
    ops = 0
    for metric in obs.registry:
        if metric.kind == "histogram":
            ops += metric.count
        else:
            ops += metric.calls
    ops += len(obs.trace)
    return int(ops)


def _null_op_cost(samples: int = 200_000) -> float:
    """Seconds per no-op observability call, measured on NULL handles."""
    counter = NULL.counter("selftest.noop")
    histogram = NULL.histogram("selftest.noop")
    start = time.perf_counter()
    for _ in range(samples):
        counter.inc()
        histogram.observe(0.0)
        NULL.event("selftest.noop")
    return (time.perf_counter() - start) / (3 * samples)


def selftest(rounds: int = 380, verbose: bool = True) -> bool:
    """The <5 % no-op-overhead assertion; importable from tests."""
    obs = Instrumentation()
    _run_session(obs, rounds)
    ops = _count_ops(obs)

    null_elapsed = _run_session(None, rounds)
    per_op = _null_op_cost()
    bound = ops * per_op
    ratio = bound / null_elapsed if null_elapsed > 0 else 0.0
    ok = ratio < OVERHEAD_BUDGET

    if verbose:
        snap = obs.snapshot()
        print(
            f"instrumented ops: {ops} "
            f"({len(snap['counters'])} counters, "
            f"{len(snap['histograms'])} histograms, "
            f"{snap['trace']['events']} trace events)"
        )
        print(f"null session wall time : {null_elapsed * 1000:.1f} ms")
        print(f"per null-op cost       : {per_op * 1e9:.1f} ns")
        print(
            f"worst-case null overhead: {bound * 1000:.3f} ms "
            f"({ratio:.2%} of session, budget {OVERHEAD_BUDGET:.0%})"
        )
        print("selftest:", "PASS" if ok else "FAIL")
    return ok


def _run_report(args) -> int:
    """--report: waterfall to stdout, optional exports, regression gate."""
    obs = report.run_scenario(args.report, rounds=args.rounds)
    payload = report.bench_payload(obs, args.report, args.rounds)
    print(report.render_waterfall(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench payload written to {args.json}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(obs.export_chrome_trace())
        print(f"chrome trace written to {args.chrome}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(obs.export_prometheus())
        print(f"prometheus exposition written to {args.prom}")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = report.check_regression(payload, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(
            "regression gate: PASS (e2e p95 within "
            f"{report.REGRESSION_TOLERANCE:.0%} of baseline)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Unified observability smoke tests.",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="assert no-op instrumentation stays under the overhead budget",
    )
    parser.add_argument(
        "--rounds", type=int, default=380,
        help="session rounds for the selftest workload (default 380)",
    )
    parser.add_argument(
        "--snapshot", action="store_true",
        help="print the instrumented session's full metrics snapshot (JSON)",
    )
    parser.add_argument(
        "--report", metavar="SCENARIO", choices=report.SCENARIOS,
        help="run a traced scenario (%s) and print the per-stage latency "
             "waterfall" % "/".join(report.SCENARIOS),
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="with --report: also write the BENCH_trace.json payload here",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="with --report: compare against a committed BENCH_trace.json "
             "and exit 1 when e2e p95 regresses more than "
             f"{report.REGRESSION_TOLERANCE:.0%}",
    )
    parser.add_argument(
        "--chrome", metavar="PATH",
        help="with --report: write a chrome://tracing span dump here",
    )
    parser.add_argument(
        "--prom", metavar="PATH",
        help="with --report: write the Prometheus text exposition here",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be a positive integer, got {args.rounds}")

    if args.report:
        return _run_report(args)
    if args.snapshot:
        obs = Instrumentation()
        _run_session(obs, args.rounds)
        print(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
        if not args.selftest:
            return 0
    if args.selftest:
        return 0 if selftest(rounds=args.rounds) else 1
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
