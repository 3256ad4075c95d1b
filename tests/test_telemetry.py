"""Live telemetry: hub mechanics, progress rendering, the observe-only
differential guarantee, and task credit under injected faults.

The differential matrix is the tentpole contract: with a TelemetryHub
(and progress view) attached, every engine must produce bit-identical
join output and identical telemetry-stripped counters versus the same
run with telemetry off — across both kernels, self and R-S joins.
"""

import io
import re

import pytest

from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.faults import FaultPlan
from repro.obs.telemetry import (
    ProgressView,
    TelemetryHub,
    rusage_watermarks,
    strip_telemetry_counters,
)

DBLP = generate_dblp(150, seed=7)
CITESEERX = generate_citeseerx(100, seed=11, rid_base=10_000_000, shared_with=DBLP)


def _make_cluster(engine: str, fault_plan: FaultPlan | None = None):
    dfs = InMemoryDFS(num_nodes=4, block_bytes=2048)
    config = ClusterConfig(num_nodes=4)
    if engine == "persistent":
        return PersistentParallelCluster(
            config, dfs, workers=2, assume_cores=4, fault_plan=fault_plan
        )
    return SimulatedCluster(config, dfs, fault_plan=fault_plan)


def _run_join(
    engine: str, kernel: str, join: str, telemetry: bool,
    fault_plan: FaultPlan | None = None,
):
    cluster = _make_cluster(engine, fault_plan)
    hub = None
    if telemetry:
        stream = io.StringIO()
        hub = TelemetryHub(view=ProgressView(stream=stream, interval_s=0.0))
        cluster.telemetry = hub
    config = JoinConfig(threshold=0.8, kernel=kernel)
    try:
        if join == "self":
            cluster.dfs.write("records", DBLP)
            report = ssjoin_self(cluster, "records", config)
        else:
            cluster.dfs.write("r", CITESEERX)
            cluster.dfs.write("s", DBLP)
            report = ssjoin_rs(cluster, "r", "s", config)
        pairs = sorted(cluster.dfs.read_all(report.output_file))
    finally:
        if hasattr(cluster, "close"):
            cluster.close()
    if hub is not None:
        hub.close()
    return pairs, report.counters(), hub


@pytest.mark.parametrize("engine", ["sequential", "persistent"])
@pytest.mark.parametrize("kernel", ["bk", "pk"])
@pytest.mark.parametrize("join", ["self", "rs"])
def test_telemetry_is_observe_only(engine, kernel, join):
    pairs_off, counters_off, _ = _run_join(engine, kernel, join, telemetry=False)
    pairs_on, counters_on, hub = _run_join(engine, kernel, join, telemetry=True)
    assert pairs_on == pairs_off
    assert strip_telemetry_counters(counters_on) == strip_telemetry_counters(
        counters_off
    )
    # the run was actually observed, not silently unplugged
    hub_counters = hub.counters()
    assert hub_counters["telemetry.phases"] > 0
    assert hub_counters["telemetry.tasks"] > 0
    # driver folded the hub's counters into the report
    assert counters_on["telemetry.tasks"] == hub_counters["telemetry.tasks"]
    assert pairs_off, "matrix case produced no pairs; weak test"


#: CI's chaos plan (cli-smoke): a worker crash in Stage 2, a raise in
#: Stage 1, a straggler in Stage 3 — attempts are lost and re-run
CHAOS_PLAN = (
    "crash:stage2-*:map:0:0;raise:bto-count:map:0:0;sleep:oprj:reduce:0:0:0.4"
)


@pytest.mark.parametrize("engine", ["sequential", "persistent"])
def test_every_task_is_credited_once_under_chaos(engine):
    """Telemetry under pool respawn and bounded teardown: whatever
    happened to a task's attempts, the hub hears of the task once."""
    pairs_clean, _counters, clean = _run_join(engine, "pk", "self", telemetry=True)
    pairs, counters, hub = _run_join(
        engine, "pk", "self", telemetry=True, fault_plan=FaultPlan.parse(CHAOS_PLAN)
    )
    assert pairs == pairs_clean
    assert counters["fault.injected"] == 3 and counters["task.retries"] >= 1
    if engine == "persistent":
        assert counters["task.lost"] >= 1
    assert len(hub._phases) == hub.counters()["telemetry.phases"]
    for state in hub._phases.values():
        assert state.finished is not None
        assert state.done_tasks == state.total_tasks, state.key
    for name in ("telemetry.tasks", "telemetry.phases"):
        assert hub.counters()[name] == clean.counters()[name]


# ---------------------------------------------------------------------------
# hub mechanics
# ---------------------------------------------------------------------------


def test_hub_tracks_phase_progress_and_records():
    hub = TelemetryHub()
    hub.phase_started("job", "map", 4)
    hub.task_finished("job", "map", 0, records=10)
    hub.task_finished("other", "map", 0, records=10)  # phase never started
    hub.phase_finished("job", "map")
    counters = hub.counters()
    assert counters["telemetry.phases"] == 1
    assert counters["telemetry.tasks"] == 1
    assert counters["telemetry.maxrss_kb"] > 0
    assert re.fullmatch(
        r"telemetry: tasks=1 phases=1 maxrss_kb=[1-9]\d*", hub.summary_line()
    )


def test_rusage_helpers():
    marks = rusage_watermarks()
    assert marks["utime_s"] >= 0.0 and marks["stime_s"] >= 0.0
    assert marks["maxrss_kb"] > 0
    assert set(marks) == {"utime_s", "stime_s", "maxrss_kb"}


def test_strip_telemetry_counters():
    counters = {
        "stage2.pairs_output": 5,
        "telemetry.tasks": 9,
        "hist.telemetry.x.b3": 2,
    }
    assert strip_telemetry_counters(counters) == {"stage2.pairs_output": 5}


# ---------------------------------------------------------------------------
# progress rendering
# ---------------------------------------------------------------------------


def test_progress_view_piped_emits_plain_lines():
    stream = io.StringIO()
    hub = TelemetryHub(
        view=ProgressView(stream=stream, interval_s=0.0, is_tty=False)
    )
    hub.phase_started("stage1", "map", 2)
    hub.task_finished("stage1", "map", 0, records=8)
    hub.task_finished("stage1", "map", 1, records=8)
    hub.phase_finished("stage1", "map")
    hub.close()
    text = stream.getvalue()
    assert "\x1b" not in text and "\r" not in text
    lines = [line for line in text.splitlines() if line]
    assert all(line.startswith("progress: ") for line in lines)
    assert "stage1/map" in lines[-1]
    assert "2/2 tasks" in lines[-1]
    assert "done in" in lines[-1]


def test_progress_view_tty_redraws_in_place():
    stream = io.StringIO()
    view = ProgressView(stream=stream, interval_s=0.0, is_tty=True)
    hub = TelemetryHub(view=view)
    hub.phase_started("stage1", "map", 2)
    hub.task_finished("stage1", "map", 0, records=4)
    hub.phase_finished("stage1", "map")
    hub.close()
    text = stream.getvalue()
    assert "\r\x1b[2K" in text
    assert text.endswith("\n")  # finished phase became a permanent line
    assert "progress:" not in text


@pytest.mark.parametrize("engine", ["sequential", "persistent"])
def test_progress_advances_per_finished_task(engine):
    """Both engines report every finished task, so a phase with several
    tasks shows intermediate ``k/N`` lines between ``0/N`` and the
    closing ``N/N ... done``."""
    stream = io.StringIO()
    cluster = _make_cluster(engine)
    cluster.telemetry = TelemetryHub(
        view=ProgressView(stream=stream, interval_s=0.0, is_tty=False)
    )
    cluster.dfs.write("records", DBLP)
    try:
        ssjoin_self(cluster, "records", JoinConfig(threshold=0.8, kernel="pk"))
    finally:
        cluster.close()
    cluster.telemetry.close()
    by_phase: dict[str, list[tuple[int, int, bool]]] = {}
    for line in stream.getvalue().splitlines():
        match = re.match(r"progress: (\S+)\s+\[.*\] (\d+)/(\d+) tasks", line)
        assert match, line
        by_phase.setdefault(match[1], []).append(
            (int(match[2]), int(match[3]), "done in" in line)
        )
    assert len(by_phase) == cluster.telemetry.counters()["telemetry.phases"]
    for lines in by_phase.values():
        done, total, closed = lines[-1]
        assert done == total and closed
        assert [k for k, _n, _closed in lines] == list(range(total + 1)) + [total]
    assert any(lines[-1][1] > 1 for lines in by_phase.values())
