"""Run registry: manifests, listing and diffing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.data.synthetic import generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.obs.metrics import histograms
from repro.obs.runs import (
    build_run_manifest,
    diff_runs,
    list_runs,
    load_run,
    resolve_runs_dir,
    write_run_manifest,
)
from tests.conftest import random_records


def _join_report(rng, threshold=0.8):
    cluster = SimulatedCluster(
        ClusterConfig(num_nodes=4), InMemoryDFS(num_nodes=4, block_bytes=512)
    )
    cluster.dfs.write("records", random_records(rng, 60))
    config = JoinConfig(threshold=threshold)
    return config, ssjoin_self(cluster, "records", config)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_resolve_runs_dir_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
    assert resolve_runs_dir() == ".repro-runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", "/tmp/env-runs")
    assert resolve_runs_dir() == "/tmp/env-runs"
    assert resolve_runs_dir("explicit") == "explicit"


def test_manifest_roundtrip(tmp_path, rng):
    config, report = _join_report(rng)
    doc = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    assert doc["kind"] == "selfjoin"
    assert doc["combo"] == report.combo
    assert doc["pairs"] == report.counters().get("stage3.record_pairs_output", 0)
    assert doc["stage_times_s"]["total"] > 0
    assert doc["rusage"]["maxrss_kb"] > 0
    assert doc["config_digest"]
    assert doc["id"].endswith(doc["config_digest"][:8])

    directory = str(tmp_path / "reg")
    path = write_run_manifest(directory, doc)
    assert json.loads(open(path).read())["id"] == doc["id"]
    runs = list_runs(directory)
    assert [run["id"] for run in runs] == [doc["id"]]
    assert load_run(directory, "latest")["id"] == doc["id"]
    assert load_run(directory, doc["id"][:10])["id"] == doc["id"]
    assert load_run(directory, path)["id"] == doc["id"]


def test_manifest_id_collisions_get_suffixed(tmp_path, rng):
    config, report = _join_report(rng)
    directory = str(tmp_path / "reg")
    docs = []
    for _ in range(3):
        doc = build_run_manifest(
            kind="selfjoin", workload="records", config=config, report=report
        )
        write_run_manifest(directory, doc)
        docs.append(doc)
    ids = [doc["id"] for doc in docs]
    assert len(set(ids)) == 3


def test_manifest_stores_each_number_once(tmp_path, capsys, rng):
    """No ``metrics`` block repeats the counters, stage times or executor
    summary; ``runs show`` derives the histograms from ``counters``."""
    config, report = _join_report(rng)
    doc = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    assert "metrics" not in doc
    assert doc["counters"] == dict(sorted(report.counters().items()))
    assert doc["executor"] == report.executor_summary()
    directory = str(tmp_path / "reg")
    write_run_manifest(directory, doc)
    assert main(["runs", "show", doc["id"], "--runs-dir", directory]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown.pop("histograms") == {
        name: hist.as_dict() for name, hist in histograms(doc["counters"]).items()
    }
    assert shown == doc
    assert shown["counters"]["hist.stage2.group_records.n"] > 0


def test_runs_show_skips_a_document_without_a_string_id(tmp_path, capsys):
    """A JSON file whose ``id`` is not a string is not a manifest: refs
    are matched against the manifests around it."""
    directory = tmp_path / "reg"
    write_run_manifest(str(directory), {"id": "20260101-000000-aaaa"})
    (directory / "stray.json").write_text('{"id": 5}', encoding="utf-8")
    assert [doc["id"] for doc in list_runs(str(directory))] == [
        "20260101-000000-aaaa"
    ]
    assert main(["runs", "show", "2026", "--runs-dir", str(directory)]) == 0
    assert json.loads(capsys.readouterr().out)["id"] == "20260101-000000-aaaa"


def test_runs_list_skips_a_document_whose_created_is_not_a_string(tmp_path, capsys):
    """The list sorts on ``(created, id)``: a stray document with a
    numeric ``created`` is not a manifest and must not break the sort."""
    directory = tmp_path / "reg"
    directory.mkdir()
    (directory / "a.json").write_text(
        '{"id": "20260101-000000-aaaa", "created": "2026-01-01T00:00:00Z"}',
        encoding="utf-8",
    )
    (directory / "b.json").write_text(
        '{"id": "20260101-000000-bbbb", "created": 5}', encoding="utf-8"
    )
    assert main(["runs", "list", "--runs-dir", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "20260101-000000-aaaa" in out
    assert "20260101-000000-bbbb" not in out


def test_load_run_errors(tmp_path):
    directory = str(tmp_path / "reg")
    with pytest.raises(FileNotFoundError):
        load_run(directory, "latest")
    write_run_manifest(directory, {"id": "20260101-000000-aaaa"})
    write_run_manifest(directory, {"id": "20260101-000000-bbbb"})
    with pytest.raises(KeyError, match="no run matching"):
        load_run(directory, "zzz")
    with pytest.raises(KeyError, match="ambiguous"):
        load_run(directory, "20260101")


@pytest.mark.parametrize(
    "registry, ref, message",
    [
        (True, "zzz", "no run matching 'zzz'"),
        (True, "20260101", "ambiguous run ref '20260101'"),
        (False, "latest", "no runs recorded under"),
        (True, "truncated.json", "truncated.json: Unterminated string"),
    ],
    ids=["unknown", "ambiguous", "empty-registry", "truncated-manifest"],
)
@pytest.mark.parametrize("command", ["show", "diff"])
def test_cli_runs_user_errors_exit_2(
    tmp_path, monkeypatch, capsys, registry, ref, message, command
):
    """A ref that names no single readable manifest is the user's error:
    one ``repro runs: error:`` line and exit 2, as ``selfjoin`` does."""
    directory = str(tmp_path / "reg")
    if registry:
        write_run_manifest(directory, {"id": "20260101-000000-aaaa"})
        write_run_manifest(directory, {"id": "20260101-000000-bbbb"})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truncated.json").write_text('{"id": "2026', encoding="utf-8")
    refs = [ref] if command == "show" else ["20260101-000000-aaaa", ref]
    assert main(["runs", command, *refs, "--runs-dir", directory]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro runs: error: ") and message in line


def test_diff_runs(rng):
    config, report = _join_report(rng)
    a = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    config2, report2 = _join_report(rng, threshold=0.5)
    b = build_run_manifest(
        kind="selfjoin", workload="records", config=config2, report=report2
    )
    diff = diff_runs(a, b)
    assert diff["a"] == a["id"] and diff["b"] == b["id"]
    assert not diff["same_config"]
    stages = [row[0] for row in diff["stage_rows"]]
    assert {"stage1", "stage2", "stage3", "total"} <= set(stages)
    assert diff["pairs"][0] is not None and diff["pairs"][1] is not None
    assert diff["counter_rows"], "different runs must change counters"


def _registry_with_pre_retirement_run(tmp_path, rng):
    """A registry holding one current manifest and one written before
    the batch kernels and the shm transport were retired (it still
    carries their counters, and the ``metrics`` block manifests of its
    day stored beside ``counters``, with their gauges)."""
    config, report = _join_report(rng)
    current = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    old = json.loads(json.dumps(current))
    old["id"] = "20250101-000000-" + current["config_digest"][:8]
    old["counters"].update({"plan.batch_size": 64, "stage2.batches": 12})
    old["metrics"] = {
        "counters": {"plan.batch_size": 64, "stage2.batches": 12},
        "gauges": {"shuffle.shm_bytes": 4096.0, "shuffle.fallback_disk": 1.0},
        "histograms": {},
    }
    directory = str(tmp_path / "reg")
    write_run_manifest(directory, old)
    write_run_manifest(directory, current)
    return directory, old["id"], current["id"]


def test_cli_runs_show_tolerates_retired_counters(tmp_path, capsys, rng):
    directory, old_id, _ = _registry_with_pre_retirement_run(tmp_path, rng)
    assert main(["runs", "show", old_id, "--runs-dir", directory]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["counters"]["plan.batch_size"] == 64
    assert shown["metrics"]["gauges"]["shuffle.shm_bytes"] == 4096.0


def test_cli_runs_diff_tolerates_retired_counters(tmp_path, capsys, rng):
    directory, old_id, new_id = _registry_with_pre_retirement_run(tmp_path, rng)
    assert main(["runs", "diff", old_id, new_id, "--runs-dir", directory]) == 0
    text = capsys.readouterr().out
    assert "config: identical" in text
    # the retired counters read 0 on the new side instead of crashing
    rows = {line.split()[0]: line.split()[1:3] for line in text.splitlines()
            if line.startswith(("plan.batch_size", "stage2.batches"))}
    assert rows == {"plan.batch_size": ["64", "0"], "stage2.batches": ["12", "0"]}


def test_wall_times_in_new_manifests_and_absent_from_old_ones(tmp_path, capsys, rng):
    """``wall_times_s`` rides next to ``stage_times_s``; a manifest
    written before it existed still loads, shows and diffs."""
    config, report = _join_report(rng)
    new = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    wall = new["wall_times_s"]
    assert set(wall) == set(new["stage_times_s"])
    assert wall["total"] == pytest.approx(
        wall["stage1"] + wall["stage2"] + wall["stage3"], abs=1e-5
    )
    assert 0 < wall["total"] < new["stage_times_s"]["total"]
    old = json.loads(json.dumps(new))
    del old["wall_times_s"]
    old["id"] = "20250101-000000-" + new["config_digest"][:8]
    directory = str(tmp_path / "reg")
    write_run_manifest(directory, old)
    write_run_manifest(directory, new)

    for run_id, has_wall in ((old["id"], False), (new["id"], True)):
        assert main(["runs", "show", run_id, "--runs-dir", directory]) == 0
        assert ("wall_times_s" in json.loads(capsys.readouterr().out)) == has_wall

    assert main(["runs", "list", "--runs-dir", directory]) == 0
    _header, _rule, old_row, new_row = capsys.readouterr().out.splitlines()
    assert old_row.split()[-2] == "-"
    assert new_row.split()[-2] == f"{wall['total']:.2f}"

    assert diff_runs(old, old)["wall_rows"] == []
    assert [row[0] for row in diff_runs(old, new)["wall_rows"]] == [
        "stage1", "stage2", "stage3", "total",
    ]
    for a, b, shows_wall in (
        (old["id"], old["id"], False),
        (old["id"], new["id"], True),
        (new["id"], new["id"], True),
    ):
        assert main(["runs", "diff", a, b, "--runs-dir", directory]) == 0
        text = capsys.readouterr().out
        assert ("stage times (wall)" in text) == shows_wall
        assert "stage times (simulated)" in text


def test_stage2_shape_in_new_manifests_and_absent_from_old_ones(tmp_path, capsys, rng):
    """Replication and max reducer input are manifest fields with the
    report's values; a manifest written before them shows and diffs."""
    config, report = _join_report(rng)
    new = build_run_manifest(
        kind="selfjoin", workload="records", config=config, report=report
    )
    assert new["stage2_replication"] == round(report.stage2_replication, 6) > 1.0
    assert new["stage2_max_reducer_input"] == report.stage2_max_reducer_input > 0
    old = json.loads(json.dumps(new))
    del old["stage2_replication"], old["stage2_max_reducer_input"]
    old["id"] = "20250101-000000-" + new["config_digest"][:8]
    directory = str(tmp_path / "reg")
    write_run_manifest(directory, old)
    write_run_manifest(directory, new)

    assert main(["runs", "show", old["id"], "--runs-dir", directory]) == 0
    assert "stage2_replication" not in json.loads(capsys.readouterr().out)
    for a, b, line in (
        (old, old, None),
        (old, new, f"stage2_max_reducer_input: None -> {new['stage2_max_reducer_input']}"),
        (new, new, f"stage2_replication: {new['stage2_replication']} -> "
                   f"{new['stage2_replication']}"),
    ):
        assert main(["runs", "diff", a["id"], b["id"], "--runs-dir", directory]) == 0
        text = capsys.readouterr().out
        assert (line in text) if line else ("stage2_" not in text)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def test_runs_subcommands_are_list_show_diff(capsys):
    """The registry is browsed, not gated on: performance is judged by
    ``benchmarks/wall`` alone."""
    with pytest.raises(SystemExit):
        main(["runs", "--help"])
    assert "{list,show,diff}" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--speculate-after", "--rss-cap-mb"])
def test_removed_executor_flags_are_rejected(flag, capsys):
    """A task is never duplicated and real RSS is never policed
    (DESIGN.md §5j): the flags that did are gone, not ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main(["selfjoin", "in.tsv", "-o", "out.tsv", flag, "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "engine", [[], ["--parallel", "2"]], ids=["sequential", "parallel"]
)
def test_manifest_rusage_is_the_whole_process_trees(engine, tmp_path):
    """``RUSAGE_CHILDREN`` counts a pool worker only once it is reaped,
    so the pool is closed before the manifest is built: the recorded
    CPU is what the OS bills the whole CLI process (driver plus
    workers), not the driver's share of it."""
    records_file = tmp_path / "records.tsv"
    records_file.write_text("\n".join(generate_dblp(6000, seed=7)) + "\n")
    registry = str(tmp_path / "reg")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "selfjoin", str(records_file),
         "-o", str(tmp_path / "out.tsv"), "--runs-dir", registry, *engine],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        stderr=subprocess.DEVNULL,
    )
    _pid, status, billed = os.wait4(proc.pid, 0)
    assert status == 0
    (doc,) = list_runs(registry)
    recorded = doc["rusage"]["utime_s"] + doc["rusage"]["stime_s"]
    total = billed.ru_utime + billed.ru_stime
    # only interpreter shutdown comes after the manifest
    assert 0.8 * total <= recorded <= total


def test_cli_selfjoin_writes_manifest_and_diff(tmp_path, capsys, rng):
    records_file = tmp_path / "records.tsv"
    records_file.write_text("\n".join(random_records(rng, 50)) + "\n")
    registry = str(tmp_path / "reg")
    out = tmp_path / "out.tsv"
    for threshold in ("0.8", "0.5"):
        assert main([
            "selfjoin", str(records_file), "-o", str(out),
            "--threshold", threshold, "--runs-dir", registry,
        ]) == 0
    runs = list_runs(registry)
    assert len(runs) == 2
    capsys.readouterr()
    assert main(["runs", "list", "--runs-dir", registry]) == 0
    header, _rule, *listed = capsys.readouterr().out.splitlines()
    # measured wall seconds before the simulated total, as in --stats
    assert header.split()[-2:] == ["wall_s", "total_s"]
    assert [line.split()[0] for line in listed] == [run["id"] for run in runs]
    assert main([
        "runs", "diff", runs[0]["id"], runs[1]["id"], "--runs-dir", registry,
    ]) == 0
    text = capsys.readouterr().out
    assert "config: differs" in text
    assert "stage times (simulated)" in text

    # --no-run-manifest leaves the registry alone
    assert main([
        "selfjoin", str(records_file), "-o", str(out),
        "--threshold", "0.8", "--runs-dir", registry, "--no-run-manifest",
    ]) == 0
    assert len(list_runs(registry)) == 2
