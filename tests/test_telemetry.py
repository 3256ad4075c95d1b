"""Live telemetry: hub mechanics, progress rendering, and the
observe-only differential guarantee.

The differential matrix is the tentpole contract: with a TelemetryHub
(and progress view) attached, every engine must produce bit-identical
join output and identical telemetry-stripped counters versus the same
run with telemetry off — across both kernels, self and R-S joins.
"""

import io
import time

import pytest

from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import PersistentParallelCluster
from repro.obs.telemetry import (
    HeartbeatEmitter,
    ProgressView,
    TelemetryHub,
    rusage_now,
    rusage_watermarks,
    strip_telemetry_counters,
)

DBLP = generate_dblp(150, seed=7)
CITESEERX = generate_citeseerx(100, seed=11, rid_base=10_000_000, shared_with=DBLP)


def _make_cluster(engine: str):
    dfs = InMemoryDFS(num_nodes=4, block_bytes=2048)
    config = ClusterConfig(num_nodes=4)
    if engine == "persistent":
        return PersistentParallelCluster(config, dfs, workers=2, assume_cores=4)
    return SimulatedCluster(config, dfs)


def _run_join(engine: str, kernel: str, join: str, telemetry: bool):
    cluster = _make_cluster(engine)
    hub = None
    if telemetry:
        stream = io.StringIO()
        hub = TelemetryHub(
            view=ProgressView(stream=stream, interval_s=0.0),
            interval_s=0.01,
        )
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
    assert hub_counters["telemetry.heartbeats"] > 0
    # driver folded the hub's counters into the report
    assert counters_on["telemetry.tasks"] == hub_counters["telemetry.tasks"]
    assert pairs_off, "matrix case produced no pairs; weak test"


def test_persistent_engine_receives_worker_heartbeats():
    _pairs, _counters, hub = _run_join("persistent", "pk", "self", telemetry=True)
    counters = hub.counters()
    assert counters["telemetry.heartbeats"] >= counters["telemetry.tasks"]
    assert counters["telemetry.maxrss_kb"] > 0


# ---------------------------------------------------------------------------
# emitter + hub mechanics
# ---------------------------------------------------------------------------


def test_emitter_finish_always_sends_final_beat():
    beats = []
    emitter = HeartbeatEmitter(beats.append, "job", "map", 3, interval_s=60.0)
    emitter.advance()
    emitter.finish(records=17)
    assert len(beats) == 1
    job, phase, task, pid, records, final, utime, stime, maxrss, _t = beats[0]
    assert (job, phase, task) == ("job", "map", 3)
    assert pid > 0
    assert records == 17
    assert final is True
    assert utime >= 0.0 and stime >= 0.0 and maxrss > 0


def test_emitter_beats_on_interval():
    beats = []
    emitter = HeartbeatEmitter(beats.append, "job", "map", 0, interval_s=0.0)
    for _ in range(100):
        emitter.advance()
    # interval 0: every clock check (once per _CHECK_EVERY calls) emits
    assert len(beats) >= 2
    assert all(beat[5] is False for beat in beats)


def test_hub_ignores_beats_for_unknown_or_finished_phases():
    hub = TelemetryHub(interval_s=0.01)
    emitter = hub.emitter_for("job", "map", 0)
    emitter.finish(records=5)  # phase never started
    hub.phase_started("job", "map", 1)
    hub.phase_finished("job", "map")
    emitter.finish(records=5)  # phase already closed
    assert hub.counters().get("telemetry.heartbeats", 0) == 0


def test_hub_tracks_phase_progress_and_records():
    hub = TelemetryHub(interval_s=0.01)
    hub.phase_started("job", "map", 4)
    hub.emitter_for("job", "map", 0).finish(records=10)
    hub.task_finished("job", "map", 0, records=10)
    hub.phase_finished("job", "map")
    counters = hub.counters()
    assert counters["telemetry.phases"] == 1
    assert counters["telemetry.tasks"] == 1
    assert counters["telemetry.heartbeats"] == 1
    assert "heartbeats=1" in hub.summary_line()


def test_hub_flags_stale_tasks_as_stragglers():
    view = ProgressView(stream=io.StringIO(), interval_s=0.0, is_tty=False)
    hub = TelemetryHub(view=view, interval_s=0.001)
    hub.set_live(True)
    hub.phase_started("job", "reduce", 2)
    hub.emitter_for("job", "reduce", 0).advance(0)  # no beat yet
    hub.heartbeat(("job", "reduce", 0, 1, 5, False, 0.0, 0.0, 100, 0.0))
    time.sleep(hub.stale_after_s * 3)
    hub.heartbeat(("job", "reduce", 1, 1, 5, False, 0.0, 0.0, 100, 0.0))
    assert hub.counters()["telemetry.stragglers"] == 1
    assert "stragglers=1" in hub.summary_line()


def test_rusage_helpers():
    utime, stime, maxrss = rusage_now()
    assert utime >= 0.0 and stime >= 0.0 and maxrss > 0
    marks = rusage_watermarks()
    assert marks["maxrss_kb"] >= maxrss // 2
    assert set(marks) == {"utime_s", "stime_s", "maxrss_kb"}


def test_strip_telemetry_counters():
    counters = {
        "stage2.pairs_output": 5,
        "telemetry.heartbeats": 9,
        "hist.telemetry.x.b3": 2,
    }
    assert strip_telemetry_counters(counters) == {"stage2.pairs_output": 5}


# ---------------------------------------------------------------------------
# progress rendering
# ---------------------------------------------------------------------------


def test_progress_view_piped_emits_plain_lines():
    stream = io.StringIO()
    hub = TelemetryHub(
        view=ProgressView(stream=stream, interval_s=0.0, is_tty=False),
        interval_s=0.01,
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
    hub = TelemetryHub(view=view, interval_s=0.01)
    hub.set_live(True)
    hub.phase_started("stage1", "map", 2)
    hub.task_finished("stage1", "map", 0, records=4)
    hub.phase_finished("stage1", "map")
    hub.close()
    text = stream.getvalue()
    assert "\r\x1b[2K" in text
    assert text.endswith("\n")  # finished phase became a permanent line
    assert "progress:" not in text


def test_sequential_cluster_updates_at_phase_boundaries_only():
    """No pool, no live mode: the piped view renders one line per
    phase start and one per phase end, not per heartbeat."""
    stream = io.StringIO()
    cluster = SimulatedCluster(
        ClusterConfig(num_nodes=4), InMemoryDFS(num_nodes=4, block_bytes=2048)
    )
    cluster.telemetry = TelemetryHub(
        view=ProgressView(stream=stream, interval_s=0.0, is_tty=False),
        interval_s=0.0,
    )
    cluster.dfs.write("records", DBLP)
    ssjoin_self(cluster, "records", JoinConfig(threshold=0.8, kernel="pk"))
    cluster.telemetry.close()
    lines = [line for line in stream.getvalue().splitlines() if line]
    phases = cluster.telemetry.counters()["telemetry.phases"]
    assert len(lines) == 2 * phases
