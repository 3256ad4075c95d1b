"""Live telemetry: hub mechanics, progress rendering, the observe-only
differential guarantee, and task credit under injected faults.

The observe-only contract is a set of differential-matrix cells
(``tests/matrix.py``): with a TelemetryHub (and progress view) attached,
every engine must produce bit-identical join output and identical
counters versus the same run with telemetry off — across both kernels,
self and R-S joins.  The hub keeps its tallies to itself.
"""

import io
import re

import pytest

from repro.cli import main
from repro.data.synthetic import generate_dblp
from repro.obs.telemetry import ProgressView, TelemetryHub, rusage_watermarks

from tests.matrix import BASE, cell, run_join

@pytest.mark.parametrize("engine", ["sequential", "persistent"])
@pytest.mark.parametrize("kernel", ["bk", "pk"])
@pytest.mark.parametrize("join", ["self", "rs"])
def test_telemetry_is_observe_only(make_engine, engine, kernel, join):
    run = cell(
        make_engine, join, BASE.with_options(kernel=kernel),
        engine=engine, observer="telemetry",
    )
    # the run was actually observed, not silently unplugged ...
    assert run.observer.phases > 0 and run.observer.tasks > 0
    # ... and the observation stayed out of the join's counters
    assert not any(name.startswith("telemetry.") for name in run.counters)
    assert run.pairs, "matrix case produced no pairs; weak test"


def test_runs_diff_of_a_progress_run_finds_identical_counters(
    tmp_path, capsys
):
    """``--progress`` is observe-only on the CLI too: its run manifest's
    counters are a plain run's, so ``runs diff`` says so."""
    records = tmp_path / "records.tsv"
    records.write_text("\n".join(generate_dblp(300, seed=7)) + "\n")
    registry = str(tmp_path / "reg")
    ids = []
    for flags in ([], ["--progress"]):
        assert main([
            "selfjoin", str(records), "-o", str(tmp_path / "out.tsv"),
            "--threshold", "0.8", "--runs-dir", registry, *flags,
        ]) == 0
        (ids_line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("run ")
        ]
        ids.append(ids_line.split()[1])
    assert main(["runs", "diff", *ids, "--runs-dir", registry]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "counters: identical"


#: CI's chaos plan (cli-smoke): a worker crash in Stage 2, a raise in
#: Stage 1, a straggler in Stage 3 — attempts are lost and re-run
CHAOS_PLAN = (
    "crash:stage2-*:map:0:0;raise:bto-count:map:0:0;sleep:oprj:reduce:0:0:0.4"
)


@pytest.mark.parametrize("engine", ["sequential", "persistent"])
def test_every_task_is_credited_once_under_chaos(make_engine, engine):
    """Telemetry under a pool death: whatever happened to a task's
    attempts, the hub hears of the task once."""
    clean, chaos = (
        cell(make_engine, engine=engine, faults=faults, observer="telemetry")
        for faults in (None, CHAOS_PLAN)
    )
    counters, hub = chaos.counters, chaos.observer
    assert counters["fault.injected"] == 3 and counters["task.retries"] >= 1
    if engine == "persistent":
        assert counters["task.lost"] >= 1
    assert len(hub._phases) == hub.phases
    for state in hub._phases.values():
        assert state.finished is not None
        assert state.done_tasks == state.total_tasks, state.key
    assert (hub.tasks, hub.phases) == (clean.observer.tasks, clean.observer.phases)


# ---------------------------------------------------------------------------
# hub mechanics
# ---------------------------------------------------------------------------


def test_hub_tracks_phase_progress_and_records():
    hub = TelemetryHub()
    hub.phase_started("job", "map", 4)
    hub.task_finished("job", "map", 0, records=10)
    hub.task_finished("other", "map", 0, records=10)  # phase never started
    hub.phase_finished("job", "map")
    assert (hub.phases, hub.tasks) == (1, 1)
    assert re.fullmatch(
        r"telemetry: tasks=1 phases=1 maxrss_kb=[1-9]\d*", hub.summary_line()
    )


def test_rusage_helpers():
    marks = rusage_watermarks()
    assert marks["utime_s"] >= 0.0 and marks["stime_s"] >= 0.0
    assert marks["maxrss_kb"] > 0
    assert set(marks) == {"utime_s", "stime_s", "maxrss_kb"}


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
def test_progress_advances_per_finished_task(make_engine, engine):
    """Both engines report every finished task, so a phase with several
    tasks shows intermediate ``k/N`` lines between ``0/N`` and the
    closing ``N/N ... done``."""
    stream = io.StringIO()
    cluster = make_engine(engine)
    cluster.telemetry = TelemetryHub(
        view=ProgressView(stream=stream, interval_s=0.0, is_tty=False)
    )
    try:
        run_join(cluster, "self")
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
    assert len(by_phase) == cluster.telemetry.phases
    for lines in by_phase.values():
        done, total, closed = lines[-1]
        assert done == total and closed
        assert [k for k, _n, _closed in lines] == list(range(total + 1)) + [total]
    assert any(lines[-1][1] > 1 for lines in by_phase.values())
