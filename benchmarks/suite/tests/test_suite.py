"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

SUITE = Path(__file__).resolve().parent.parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

from measure import (  # noqa: E402
    MAX_PENDING_WAVES,
    Meter,
    Tracked,
    highest_supported_percentile,
    percentile,
)
from spans import SpanRecorder, install, remove  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- Percentiles -----------------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (19, None),      # 9.5 samples above the median: nothing is supported
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (199, 90.0),     # 9.95 samples beyond p95
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond_it(count, expected):
    assert highest_supported_percentile(count) == expected


def test_percentile_is_nearest_rank_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 95) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError):
        percentile([], 50)


# -- Spans -------------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def spend(ns):
        clock.t += ns

    leaf = rec.wrap(lambda ns: spend(ns), "leaf")

    def middle_body():
        spend(5)
        leaf(7)          # nested two deep
        spend(1)

    middle = rec.wrap(middle_body, "middle")

    def outer_body():
        spend(10)
        middle()         # sibling 1: 13 total, 6 self
        spend(2)
        leaf(20)         # sibling 2
        spend(3)

    outer = rec.wrap(outer_body, "outer")

    outer()              # recorder inactive: nothing recorded
    assert rec.spans == 0 and rec.calls_of("outer") == 0

    rec.active = True
    outer()
    rec.active = False
    assert rec.calls_of("outer") == 1
    assert rec.calls_of("middle") == 1
    assert rec.calls_of("leaf") == 2
    assert rec.self_ns("outer") == 15     # 48 total - 13 - 20
    assert rec.self_ns("middle") == 6     # 13 total - 7
    assert rec.self_ns("leaf") == 27
    assert rec.top_ns == 48 == 15 + 6 + 27

    by_index = {span[3]: span for span in rec.kept}
    names = {i: rec.names[s[0]] for i, s in by_index.items()}
    parents = {names[i]: s[4] for i, s in by_index.items() if names[i] != "leaf"}
    assert parents == {"outer": -1, "middle": 0}
    assert sorted(s[4] for s in rec.kept if rec.names[s[0]] == "leaf") == [0, 1]
    events = rec.chrome_trace()["traceEvents"]
    assert len(events) == 4 and all(e["ph"] == "X" for e in events)


def test_same_name_nested_spans_do_not_double_count():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def inner_body():
        clock.t += 4

    inner = rec.wrap(inner_body, "pump")

    def outer_body():
        clock.t += 1
        inner()
        inner()

    outer = rec.wrap(outer_body, "pump")
    rec.active = True
    outer()
    assert rec.calls_of("pump") == 3
    assert rec.self_ns("pump") == 9 == rec.top_ns


def test_after_hook_and_exception_still_close_the_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def hook(recorder, args, result):
        recorder.counts["bytes"] += result

    sized = rec.wrap(lambda n: n, "sized", hook)

    def boom():
        clock.t += 3
        raise KeyError("x")

    failing = rec.wrap(boom, "failing")
    rec.active = True
    assert sized(5) == 5 and sized(6) == 6
    with pytest.raises(KeyError):
        failing()
    assert rec.counts["bytes"] == 11
    assert rec.self_ns("failing") == 3
    assert rec._stack == []


def test_install_patches_importing_module_and_remove_restores():
    library = types.ModuleType("library")
    library.helper = lambda: "real"
    importer = types.ModuleType("importer")
    importer.helper = library.helper          # ``from library import helper``
    importer.use = lambda: importer.helper()

    class Packet:
        def encode(self):
            return b"p"

        @classmethod
        def decode(cls, raw):
            return cls()

    originals = (importer.helper, vars(Packet)["encode"], vars(Packet)["decode"])
    rec = SpanRecorder()
    undo = install(rec, [
        (importer, "helper", "lib.helper", None),
        (Packet, "encode", "packet.encode", None),
        (Packet, "decode", "packet.decode", None),
    ])
    rec.active = True
    assert importer.use() == "real"
    assert Packet().encode() == b"p"
    assert isinstance(Packet.decode(b"p"), Packet)
    rec.active = False
    assert [rec.calls_of(n) for n in
            ("lib.helper", "packet.encode", "packet.decode")] == [1, 1, 1]
    assert library.helper is originals[0]      # the defining module is untouched
    remove(undo)
    assert (importer.helper, vars(Packet)["encode"],
            vars(Packet)["decode"]) == originals


# -- The sample ledger ---------------------------------------------------------------------


class FakeWindow:
    def __init__(self, window_id, value):
        self.window_id = window_id
        self.surface = types.SimpleNamespace(
            array=np.full((2, 2, 4), value, dtype=np.uint8)
        )


class FakeParticipant:
    id = "v"

    def __init__(self):
        self.updates_applied = self.moves_applied = 0
        self.windows = {1: FakeWindow(1, 0)}

    def paint(self, value, counter="updates_applied"):
        self.windows[1].surface.array[:] = value
        setattr(self, counter, getattr(self, counter) + 1)


def test_wave_is_applied_when_the_viewer_shows_that_waves_pixels():
    ah_window = FakeWindow(1, 0)
    manager = [ah_window]
    participant = FakeParticipant()
    viewer = Tracked(participant, manager)
    clock = {"now": 10.0}
    meter = Meter(lambda: clock["now"], [viewer])

    ah_window.surface.array[:] = 1          # wave 1
    meter.timed_ns = 1_000
    meter.begin_wave([9.5])
    ah_window.surface.array[:] = 2          # wave 2, before 1 arrived
    meter.timed_ns = 4_000
    meter.begin_wave([9.9])
    assert meter.attempted == 2

    participant.windows[1].surface.array[:] = 1
    meter.check(viewer)                     # counter did not move: no probe
    assert len(viewer.pending) == 2 and not meter.host_ns

    participant.paint(7)                    # moved, but matches no wave
    meter.check(viewer)
    assert len(viewer.pending) == 2

    participant.paint(1, "moves_applied")   # caught up with wave 1 only
    clock["now"], meter.timed_ns = 10.25, 6_000
    meter.check(viewer)
    assert meter.host_ns == [5_000]
    assert meter.virtual_s == [0.75]
    assert len(viewer.pending) == 1

    ah_window.surface.array[:] = 3          # wave 3 supersedes wave 2
    meter.begin_wave([10.3])
    participant.paint(3)
    clock["now"], meter.timed_ns = 10.5, 9_000
    meter.check(viewer)
    assert meter.host_ns == [5_000, 5_000, 3_000]
    assert meter.virtual_s[1:] == [pytest.approx(0.6), pytest.approx(0.2)]
    assert not viewer.pending

    ah_window.surface.array[:] = 4          # never applied
    meter.begin_wave([11.0])
    meter.close_waves()
    meter.final_check("converged", lambda: True)
    meter.final_check("leak", lambda: False)
    assert (meter.attempted, meter.failed) == (6, 2)
    assert len(meter.failures) == 2


def test_a_viewer_too_far_behind_loses_its_oldest_wave():
    ah_window = FakeWindow(1, 0)
    viewer = Tracked(FakeParticipant(), [ah_window])
    meter = Meter(lambda: 0.0, [viewer])
    for _ in range(MAX_PENDING_WAVES + 3):
        meter.begin_wave([0.0])
    assert len(viewer.pending) == MAX_PENDING_WAVES
    assert meter.failed == 3


# -- BENCHMARK.json and what the runs emit ---------------------------------------------------


def test_catalogue_meets_the_contract_limits():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CATALOGUE["paths"] == ["benchmarks/suite"]
    assert isinstance(CATALOGUE["run_seconds"], int)
    assert 1 <= CATALOGUE["run_seconds"] <= 60
    assert len(CATALOGUE["workloads"]) == 4
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    for row in CATALOGUE["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in CATALOGUE["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in CATALOGUE["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    rows = (
        CATALOGUE["workloads"] + CATALOGUE["end_to_end"]
        + CATALOGUE["per_layer"]
    )
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    setup = next(r for r in CATALOGUE["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in CATALOGUE["end_to_end"])
    assert len(json.dumps(CATALOGUE)) < 64 * 1024


def quick_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"), "--workload", workload,
            "--seed", "7", "--quick", "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize(
    "workload", [row["name"] for row in CATALOGUE["workloads"]]
)
def test_quick_run_is_correct_and_emits_the_catalogue(workload):
    result = quick_run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {row["name"]: row["unit"] for row in CATALOGUE["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    assert all(m["value"] != 0 for m in result["metrics"].values())
    assert result["metrics"]["delivered_fraction"]["value"] == 1.0


def test_traced_quick_run_emits_the_per_layer_catalogue():
    result = quick_run("desktop-edit", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {row["name"]: row["unit"] for row in CATALOGUE["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["harness.generator_calls_in_timed"] == 0
    assert values["harness.unattributed_share"] <= 0.25
    assert values["surface.scroll.calls"] > 0
    trace = json.loads((SUITE / "out" / "trace-desktop-edit.json").read_text())
    assert trace["traceEvents"] and trace["traceEvents"][0]["ph"] == "X"
