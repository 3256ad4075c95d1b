"""Checks of the benchmark harness itself (``pytest benchmarks/wall``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): it runs the
benchmark at a tenth of its size, which takes about half a minute.
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402
import speedprobe  # noqa: E402
import wallspec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("wall") / "quick.json"
    proc = run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    document["stdout"] = proc.stdout
    return document


def test_quick_emits_every_declared_metric(quick_result):
    for workload in wallspec.WORKLOADS:
        result = quick_result["workloads"][workload.name]
        assert result["failed"] == 0, result["problems"]
        assert list(result["end_to_end"]) == [m.name for m in wallspec.END_TO_END]
        assert list(result["per_layer"]) == [m.name for m in wallspec.PER_LAYER]
        for metric in wallspec.END_TO_END + wallspec.PER_LAYER:
            section = "end_to_end" if metric.bound is not None else "per_layer"
            assert result[section][metric.name]["unit"] == metric.unit
            assert f"  {metric.name} " in quick_result["stdout"]
        for metric in wallspec.END_TO_END:
            assert result["end_to_end"][metric.name]["value"] > 0
        assert result["spans"], "the traced run recorded no span"


def test_quick_executor_metrics_read_zero_on_sequential_workloads(quick_result):
    for workload in wallspec.WORKLOADS:
        if workload.parallel:
            continue
        layer = quick_result["workloads"][workload.name]["per_layer"]
        for name, metric in layer.items():
            if name.startswith("mapreduce.executor."):
                assert metric["value"] == 0, name


def test_names_and_limits():
    names = [w.name for w in wallspec.WORKLOADS]
    names += [m.name for m in wallspec.END_TO_END + wallspec.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(wallspec.END_TO_END) <= 16 and len(wallspec.PER_LAYER) <= 128
    assert any(m.name == "setup_s" for m in wallspec.END_TO_END)
    for metric in wallspec.END_TO_END:
        assert 0 < metric.bound <= 0.25


def test_benchmark_json_equals_list():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    listing = wallspec.listing()
    for key in ("workloads", "end_to_end", "per_layer"):
        assert declared[key] == listing[key], key
    printed = run("--list").stdout
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in listing[key]:
            assert f"  {entry['name']}" in printed


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_of_one_workload(trace):
    proc = run("--workload", "self-dblp-par2", "--seed", "11", "--seconds", "1",
               "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = wallspec.PER_LAYER if trace else wallspec.END_TO_END
    assert list(line["metrics"]) == [m.name for m in declared]
    for metric in declared:
        assert set(line["metrics"][metric.name]) == {"value", "unit"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wall",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload", "self-dblp-seq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_self_time():
    # root 0..10 with children 1..4 and 3..6 (overlapping: cover 1..6)
    # and 8..12 (clipped to 8..10); the first child has a child 2..3
    tree = [
        {"id": 0, "parent": None, "name": "root", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "b", "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 0, "name": "c", "start": 8.0, "end": 12.0},
        {"id": 4, "parent": 1, "name": "a.a", "start": 2.0, "end": 3.0},
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_span_recorder_nests_and_disables():
    recorder = spans.SpanRecorder("run-1")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert {s["run"] for s in recorder.spans} == {"run-1"}
    off = spans.SpanRecorder("run-2", enabled=False)
    with off.span("ignored"):
        pass
    assert off.spans == []


def test_speed_scales_to_the_reference_rate():
    # a 4 s section of which the probe had 1 s, at half the reference rate
    speed = speedprobe.Speed(
        wall_s=4.0, probe_cpu_s=1.0, rate=speedprobe.REFERENCE_RATE / 2
    )
    assert speed.cpu(3.0) == pytest.approx(1.5)
    assert speed.wall(4.0) == pytest.approx(1.5)
    unprobed = speedprobe.Speed(wall_s=4.0)
    assert unprobed.cpu(3.0) == 3.0 and unprobed.wall(4.0) == 4.0


def test_probe_counts_on_the_section_cpu_and_stops():
    cpu = min(os.sched_getaffinity(0))
    allowed = os.sched_getaffinity(0)
    with speedprobe.SpeedProbe() as probe:
        pid = probe._proc.pid
        with probe.section(cpu) as speed:
            assert os.sched_getaffinity(pid) == {cpu}
            sum(i * i for i in range(300_000))
        assert os.sched_getaffinity(0) == allowed
        assert speed.rate > 0 and 0 < speed.probe_cpu_s <= speed.wall_s
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def _steady(document: dict) -> dict:
    """The quick run's two samples can be far apart; give every metric a
    spread of zero so that verdicts depend on the medians alone."""
    steady = copy.deepcopy(document)
    for result in steady["workloads"].values():
        for metric in result["end_to_end"].values():
            metric["samples"] = [metric["value"]] * 5
    return steady


def _slowed(document: dict, factor: float) -> dict:
    slowed = copy.deepcopy(document)
    wall = slowed["workloads"]["self-dblp-lowtau"]["end_to_end"]["wall_s"]
    wall["value"] *= factor
    wall["samples"] = [s * factor for s in wall["samples"]]
    return slowed


def test_compare_passes_identical_and_flags_a_slowdown(quick_result):
    quick_result = _steady(quick_result)
    out = io.StringIO()
    assert compare.compare(quick_result, quick_result, out) == 0
    assert "  regressed" not in out.getvalue()

    bound = wallspec.END_TO_END[0].bound
    out = io.StringIO()
    assert compare.compare(quick_result, _slowed(quick_result, 1 + bound + 0.1), out) == 1
    flagged = [line for line in out.getvalue().splitlines() if line.endswith("regressed")]
    assert len(flagged) == 1
    assert flagged[0].split()[:2] == ["self-dblp-lowtau", "wall_s"]

    # neither a slowdown within the bound nor an improvement regresses
    for factor in (1 + bound / 2, 0.8):
        out = io.StringIO()
        assert compare.compare(quick_result, _slowed(quick_result, factor), out) == 0


def test_compare_flags_a_count_that_moved(quick_result):
    moved = copy.deepcopy(quick_result)
    moved["workloads"]["self-dblp-seq"]["per_layer"]["join.stage3.pairs_out"]["value"] += 1
    out = io.StringIO()
    assert compare.compare(quick_result, moved, out) == 1
    assert "join.stage3.pairs_out" in out.getvalue()


def test_compare_reports_wide_spread_as_unresolved():
    metric = wallspec.END_TO_END[0]
    steady = {"value": 1.0, "samples": [0.99, 1.0, 1.0, 1.0, 1.01]}
    noisy = {"value": 1.2, "samples": [0.8, 1.0, 1.2, 1.5, 1.9]}
    assert compare.judge(metric, steady, noisy)[0] == "unresolved"
    faster = {"value": 0.5, "samples": [0.3, 0.4, 0.5, 0.7, 0.9]}
    assert compare.judge(metric, steady, faster)[0] == "ok"
