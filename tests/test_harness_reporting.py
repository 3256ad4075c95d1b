"""Tests for the benchmark harness and reporting helpers."""

import math

import pytest

from repro.bench.harness import (
    PAPER_COMBOS,
    make_cluster,
    run_join,
    stage_breakdown,
    sweep,
)
from repro.join.config import JoinConfig
from repro.bench.reporting import format_speedup_series, format_table, rows_to_table
from repro.data.synthetic import generate_citeseerx, generate_dblp

RECORDS = generate_dblp(120, seed=11)
S_RECORDS = generate_citeseerx(120, seed=12, rid_base=50_000, shared_with=RECORDS)


class TestHarness:
    def test_paper_combos(self):
        assert set(PAPER_COMBOS) == {"BTO-BK-BRJ", "BTO-PK-BRJ", "BTO-PK-OPRJ"}
        for label, config in PAPER_COMBOS.items():
            assert config.combo_name == label

    def test_make_cluster(self):
        cluster = make_cluster(4)
        assert cluster.config.num_nodes == 4
        assert cluster.dfs.num_nodes == 4

    def test_run_self_join_report(self):
        report = run_join(RECORDS, PAPER_COMBOS["BTO-PK-BRJ"], num_nodes=2)
        assert report.total_simulated_s > 0

    def test_size_sweep_rows(self):
        rows = sweep(
            [(1, RECORDS, 2)], {"BTO-PK-BRJ": PAPER_COMBOS["BTO-PK-BRJ"]}
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["total_s"] == pytest.approx(
            row["stage1_s"] + row["stage2_s"] + row["stage3_s"]
        )

    def test_speedup_rows_cover_all_nodes(self):
        rows = sweep(
            [(n, RECORDS, n) for n in (2, 4)], {"X": PAPER_COMBOS["BTO-PK-BRJ"]}
        )
        assert [r["key"] for r in rows] == [2, 4]

    def test_stage_breakdown_rows(self):
        rows = stage_breakdown([(2, RECORDS, 2)])
        assert {(r["stage"], r["alg"]) for r in rows} == {
            ("1", "BTO"), ("1", "OPTO"), ("2", "BK"), ("2", "PK"),
            ("3", "BRJ"), ("3", "OPRJ"),
        }

    def test_groups_sweep(self):
        combos = {
            groups or "per-token": JoinConfig(routing="grouped", num_groups=groups)
            for groups in (None, 10)
        }
        rows = sweep([(2, RECORDS, 2)], combos)
        assert [row["combo"] for row in rows] == ["per-token", 10]
        # grouping granularity must not change the answer
        assert rows[0]["pairs"] == rows[1]["pairs"] > 0
        assert rows[0]["stage2_s"] > 0

    def test_rs_scaleup_reports_oom_as_row(self):
        rows = sweep(
            [(2, (RECORDS, S_RECORDS), 2)],
            combos={"BTO-PK-OPRJ": PAPER_COMBOS["BTO-PK-OPRJ"]},
            memory_per_task_mb=0.001,
        )
        assert len(rows) == 1
        assert rows[0]["status"].startswith("OOM")
        assert math.isnan(rows[0]["total_s"])

    def test_rs_join_runs(self):
        report = run_join((RECORDS, S_RECORDS), PAPER_COMBOS["BTO-PK-BRJ"], 2)
        assert report.total_simulated_s > 0


class TestReporting:
    def test_format_table_basic(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", float("nan")]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "2.50" in text
        assert "-" in lines[-1]  # NaN renders as dash

    def test_format_table_title(self):
        text = format_table(["c"], [[1]], title="Table 1")
        assert text.startswith("Table 1")

    def test_rows_to_table(self):
        rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
        text = rows_to_table(rows, ["x", "y"])
        assert "3" in text and "4" in text

    def test_format_speedup_series(self):
        rows = [
            {"combo": "A", "key": 2, "total_s": 100.0},
            {"combo": "A", "key": 4, "total_s": 50.0},
        ]
        text = format_speedup_series(rows, baseline_key=2)
        assert "2.00" in text  # 100/50

    def test_empty_rows(self):
        assert "a" in format_table(["a"], [])

    def test_format_executor_summary(self):
        from repro.bench.reporting import format_executor_summary

        text = format_executor_summary(
            {
                "pools_created": 1, "pooled_phases": 6, "inline_phases": 4,
                "busy_s": 1.0, "pool_wall_s": 2.0, "pool_capacity_s": 4.0,
                "tasks": 10, "chunks": 4,
                "bytes_to_workers": 2048, "bytes_from_workers": 1024,
                "spill_bytes_written": 4096,
            }
        )
        # utilization column: busy / (workers x wall), not busy / wall
        assert "pools" in text and "0.25" in text and "0.50" not in text

    def test_format_executor_summary_sequential(self):
        from repro.bench.reporting import format_executor_summary

        # all-zero summary (sequential run) renders without dividing by 0
        assert "0" in format_executor_summary({})

    def test_format_filter_counters(self):
        from repro.bench.reporting import format_filter_counters

        text = format_filter_counters(
            {
                "candidates": 1000, "length": 400, "bitmap": 350,
                "positional": 50, "suffix": 0, "pairs": 200,
            }
        )
        for column in ("candidates", "length", "bitmap", "positional",
                       "suffix", "pairs"):
            assert column in text
        assert "350" in text and "1000" in text

    def test_format_filter_counters_empty(self):
        from repro.bench.reporting import format_filter_counters

        # missing keys render as zeros, not KeyErrors
        assert "bitmap" in format_filter_counters({})

    def test_join_report_filter_counters_and_summary(self):
        from repro.join.config import JoinConfig
        from repro.join.driver import set_similarity_self_join
        from repro.join.records import make_line

        records = [
            make_line(i, [" ".join(f"w{j}" for j in range(i % 4, i % 4 + 5)), "x"])
            for i in range(20)
        ]
        from tests.conftest import SCHEMA_1, make_cluster

        _, report = set_similarity_self_join(
            records,
            JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk"),
            cluster=make_cluster(),
        )
        pruned = report.filter_counters()
        # BK examines every in-group pair, so prunes + survivors can
        # never exceed the candidates examined
        assert pruned["candidates"] >= pruned["length"] + pruned["bitmap"]
        summary = report.format_summary()
        if any(pruned[k] for k in ("length", "bitmap", "positional", "suffix")):
            assert "pruned:" in summary
            assert "bitmap=" in summary
