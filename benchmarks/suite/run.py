"""One end-to-end benchmark on the real clock.

    python3 benchmarks/suite/run.py                      # all four workloads
    python3 benchmarks/suite/run.py --workload desktop-edit --seed 3
    python3 benchmarks/suite/run.py --workload photo-slideshow --trace
    python3 benchmarks/suite/run.py --aa 5               # A/A repeatability
    python3 benchmarks/suite/run.py --quick              # smoke only

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with tracing off, the
per-layer metrics with ``--trace``.  Without it each workload runs in
its own subprocess (so ``peak_rss_mib`` does not bleed between them).
Names, units, directions and bounds come from ``BENCHMARK.json``.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
OUT = SUITE / "out"
sys.path.insert(0, str(SUITE))
sys.path.insert(0, str(ROOT / "src"))

from measure import (  # noqa: E402
    Meter,
    highest_supported_percentile,
    percentile,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``--quick`` shrinks the virtual duration to about a tenth.
QUICK_FACTOR = 0.1


def load_catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- One pass over one workload ------------------------------------------------------


@dataclass
class Outcome:
    """What one set-up + timed run + verification produced."""

    workload: object
    meter: Meter
    setup_s: list[float]
    virtual_s: float
    egress_bytes: int
    counters: dict[str, int]


async def one_pass(cls, seed: int, waves: int, setups: int,
                   recorder=None) -> Outcome:
    workload = cls(seed, waves)
    setup_s = await workload.setup(setups)
    meter = Meter(workload.clock.now, workload.tracked, recorder)
    before = workload.counters()
    egress = workload.egress_bytes()
    started = workload.clock.now()
    await workload.run(meter)
    virtual_s = workload.clock.now() - started
    egress = workload.egress_bytes() - egress
    after = workload.counters()
    meter.close_waves()
    workload.final_checks(meter)
    await workload.close(meter)
    counters = {key: after[key] - before[key] for key in after}
    return Outcome(workload, meter, setup_s, virtual_s, egress, counters)


def end_to_end_metrics(outcome: Outcome) -> dict[str, float]:
    meter = outcome.meter
    timed_s = meter.timed_ns / 1e9
    host_ms = [ns / 1e6 for ns in meter.host_ns]
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "viewers_per_core": (
            outcome.workload.viewers * outcome.virtual_s / timed_s
        ),
        "update_host_ms_p50": percentile(host_ms, 50),
        "update_host_ms_p95": percentile(host_ms, 95),
        "update_virtual_ms_p95": percentile(meter.virtual_s, 95) * 1e3,
        "ah_egress_bytes_per_update": outcome.egress_bytes / meter.waves,
        "delivered_fraction": 1.0 - meter.failed / meter.attempted,
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def same_protocol_behaviour(a: Outcome, b: Outcome) -> bool:
    """Tracing must not change what the program does, only how long."""
    return (
        a.egress_bytes == b.egress_bytes
        and a.meter.virtual_s == b.meter.virtual_s
        and a.meter.failed == b.meter.failed
    )


async def execute(cls, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, untraced or traced Outcome)."""
    from workloads import NOMINAL_SECONDS

    waves = max(1, round(cls.nominal_waves * seconds / NOMINAL_SECONDS))
    if not trace:
        outcome = await one_pass(cls, seed, waves, SETUP_REPEATS)
        return end_to_end_metrics(outcome), outcome

    import layers
    from spans import SpanRecorder, install, remove

    plain = await one_pass(cls, seed, waves, 1)
    recorder = SpanRecorder()
    undo = install(recorder, layers.specs())
    try:
        traced = await one_pass(cls, seed, waves, 1, recorder)
    finally:
        remove(undo)
    if not same_protocol_behaviour(plain, traced):
        traced.meter.failed += 1
        traced.meter.failures.append(
            "the traced pass sent different bytes or delivered at"
            " different virtual times than the untraced pass"
        )
    if recorder.calls_of(layers.GENERATOR_SPAN):
        traced.meter.failed += 1
        traced.meter.failures.append(
            "workload generator (glyph/photo rendering) ran inside the"
            " timed region"
        )
    traced.meter.attempted += 2
    recorder.dump(OUT / f"trace-{cls.name}.json")
    return layers.metrics(recorder, traced, plain), traced


# -- Reporting -----------------------------------------------------------------------


def report(name: str, seed: int, metrics: dict, catalogue_rows: list,
           outcome: Outcome, trace: bool) -> None:
    meter = outcome.meter
    samples = len(meter.host_ns)
    timed_s = meter.timed_ns / 1e9
    print(
        f"{name} seed={seed}: {meter.waves} waves,"
        f" {outcome.workload.viewers} viewers,"
        f" {outcome.virtual_s:.2f} virtual s in {timed_s:.2f} timed s"
        f" ({len(meter.round_ns)} rounds)"
    )
    print(
        f"  update samples: {samples} (highest percentile with >= 10"
        f" samples beyond it: p{highest_supported_percentile(samples)})"
    )
    print(
        f"  outside the timed region: generator"
        f" {meter.generator_ns / 1e6:.1f} ms, verify"
        f" {meter.verify_ns / 1e6:.1f} ms"
    )
    print(
        f"  failed_fraction {meter.failed / meter.attempted:.6f}"
        f" ({meter.failed} of {meter.attempted} attempts)"
    )
    for failure in meter.failures[:10]:
        print(f"  FAILED: {failure}")
    if trace:
        import layers

        layers.print_table(metrics, catalogue_rows, outcome)
        print(f"  chrome trace: {OUT / f'trace-{name}.json'}")
        return
    for row in catalogue_rows:
        print(
            f"  {row['name']:<28} {metrics[row['name']]:>14.4f}"
            f" {row['unit']:<8} ({row['better']} is better,"
            f" bound {row['bound']})"
        )


def result_line(metrics: dict, catalogue_rows: list, outcome: Outcome) -> str:
    meter = outcome.meter
    missing = {row["name"] for row in catalogue_rows} ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {missing}")
    return json.dumps({
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {
            row["name"]: {"value": metrics[row["name"]], "unit": row["unit"]}
            for row in catalogue_rows
        },
    })


def run_single(args, catalogue: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to a copy of the program installed elsewhere.
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'}")
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    metrics, outcome = asyncio.run(
        execute(cls, args.seed, args.seconds, bool(args.trace))
    )
    rows = catalogue["per_layer" if args.trace else "end_to_end"]
    report(cls.name, args.seed, metrics, rows, outcome, bool(args.trace))
    print(result_line(metrics, rows, outcome))
    return 0 if outcome.meter.failed == 0 else 1


# -- Several runs: every workload, A/A ---------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int,
          echo: bool) -> dict:
    """Run one workload in its own process; returns its result object."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if not lines:
        raise SystemExit(f"{workload}: no output (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def run_all(args, catalogue: dict) -> int:
    status = 0
    results = {}
    for row in catalogue["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            result = spawn(row["name"], args.seed, args.seconds, trace, True)
            status |= result["exit"]
            results.setdefault(row["name"], {}).update(result["metrics"])
    if args.quick:
        print("--quick: smoke run, not a source of recorded numbers")
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / "results.json"
        path.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "results": results},
            indent=2, sort_keys=True,
        ))
        print(f"wrote {path}")
    return status


def run_aa(args, catalogue: dict) -> int:
    """Two sets of runs of the same code; medians must agree in bound."""
    status = 0
    names = [args.workload] if args.workload else [
        row["name"] for row in catalogue["workloads"]
    ]
    for name in names:
        sets = []
        for label in "AB":
            runs = []
            for index in range(args.aa):
                seed = args.seed + index if args.distinct_seeds else args.seed
                result = spawn(name, seed, args.seconds, 0, False)
                status |= result["exit"]
                runs.append(result)
                print(f"{name} set {label} run {index + 1}/{args.aa}"
                      f" seed={seed} failed={result['failed']}", flush=True)
            sets.append(runs)
        print(f"{name}: {args.aa} runs per set,"
              f" {'distinct seeds' if args.distinct_seeds else 'one seed'}")
        print(f"  {'metric':<28} {'A q1':>11} {'A med':>11} {'A q3':>11}"
              f" {'B med':>11} {'spread':>7} {'shift':>7} {'bound':>6}")
        for row in catalogue["end_to_end"]:
            a, b = (
                [run["metrics"][row["name"]]["value"] for run in runs]
                for runs in sets
            )
            q1, med_a, q3 = statistics.quantiles(a, n=4)
            med_b = statistics.median(b)
            spread = (q3 - q1) / med_a
            worse = (med_b - med_a) / med_a
            if row["better"] == "higher":
                worse = -worse
            verdict = ""
            if abs(worse) > row["bound"]:
                verdict = "  MEDIANS DIFFER"
                status = 1
            elif spread > row["bound"] and row["name"] != "setup_s":
                verdict = "  spread over bound"
            print(f"  {row['name']:<28} {q1:>11.4f} {med_a:>11.4f}"
                  f" {q3:>11.4f} {med_b:>11.4f} {spread:>7.4f}"
                  f" {worse:>+7.4f} {row['bound']:>6}{verdict}")
    if args.quick:
        print("--quick: smoke run, not a source of recorded numbers")
    return status


def main(argv=None) -> int:
    catalogue = load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in catalogue["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue["run_seconds"]),
        help="nominal length of the timed region (scales the wave count)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="traced run: per-layer metrics and a chrome trace",
    )
    parser.add_argument(
        "--aa", nargs="?", type=int, const=5, default=0, metavar="N",
        help="run N times as set A then N times as set B and compare",
    )
    parser.add_argument(
        "--distinct-seeds", action="store_true",
        help="with --aa: run i of each set uses seed + i",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a tenth of the virtual duration; smoke use only",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds *= QUICK_FACTOR
    if args.aa:
        return run_aa(args, catalogue)
    if args.workload is None:
        return run_all(args, catalogue)
    return run_single(args, catalogue)


if __name__ == "__main__":
    raise SystemExit(main())
