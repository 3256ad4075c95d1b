"""Golden-output tests for :mod:`repro.bench.reporting`.

Unlike the substring checks in ``test_harness_reporting.py`` these pin
the *exact* rendered text: the formatters feed CI logs and committed
benchmark reports, so any drift in column layout, rounding or ordering
should be a conscious, reviewed change.
"""

from repro.bench.reporting import (
    format_executor_summary,
    format_filter_counters,
    format_histograms,
    format_runs_diff,
    format_speedup_series,
    format_table,
    rows_to_table,
)
from repro.mapreduce.counters import Counters
from repro.obs.metrics import histograms, observe_into


def test_format_table_golden():
    text = format_table(
        ["combo", "time_s"],
        [["BTO-PK-BRJ", 12.5], ["BTO-BK-BRJ", 13.0]],
        title="totals",
    )
    assert text == (
        "totals\n"
        "combo       time_s\n"
        "----------  ------\n"
        "BTO-PK-BRJ  12.50 \n"
        "BTO-BK-BRJ  13.00 "
    )


def test_format_table_nan_renders_as_dash():
    text = format_table(["x"], [[float("nan")]])
    assert text == "x\n-\n-"


def test_rows_to_table_golden():
    text = rows_to_table(
        [{"a": 1, "b": 2.0}, {"a": 3}],
        columns=["a", "b"],
        title="t",
    )
    assert text == (
        "t\n"
        "a  b   \n"
        "-  ----\n"
        "1  2.00\n"
        "3  None"
    )


def test_format_executor_summary_golden():
    summary = dict(
        pools_created=1, pooled_phases=4, inline_phases=2, tasks=24,
        chunks=8, bytes_to_workers=2048, bytes_from_workers=1024,
        spill_bytes_written=512, busy_s=6.0, pool_wall_s=4.0,
        pool_capacity_s=8.0,  # two workers x pool wall
    )
    assert format_executor_summary(summary) == (
        "executor\n"
        "pools  pooled  inline  tasks  chunks  to_workers_kb  from_workers_kb  "
        "spill_kb  util\n"
        "-----  ------  ------  -----  ------  -------------  ---------------  "
        "--------  ----\n"
        "1      4       2       24     8       2.00           1.00             "
        "0.50      0.75"
    )


def test_format_filter_counters_golden():
    pruned = dict(
        candidates=1000, length=200, foreign=300, bitmap=150, positional=50,
        suffix=25, verified=275, pairs=80, sanitize_checks=12, sanitize_violations=0,
    )
    assert format_filter_counters(pruned) == (
        "stage2 filters\n"
        "candidates  length  foreign  bitmap  positional  suffix  verified  pairs\n"
        "----------  ------  -------  ------  ----------  ------  --------  -----\n"
        "1000        200     300      150     50          25      275       80   \n"
        "sanitize: 12 checks, 0 violations"
    )


def test_format_filter_counters_without_sanitize_has_no_trailer():
    text = format_filter_counters({"candidates": 5, "pairs": 2})
    assert "sanitize" not in text


def test_format_speedup_series_golden():
    rows = [
        {"combo": "BTO-PK-BRJ", "key": 2, "total_s": 100.0},
        {"combo": "BTO-PK-BRJ", "key": 4, "total_s": 60.0},
        {"combo": "BTO-PK-BRJ", "key": 8, "total_s": 40.0},
    ]
    assert format_speedup_series(rows, baseline_key=2) == (
        "relative speedup (vs 2 nodes)\n"
        "combo       2     4     8   \n"
        "----------  ----  ----  ----\n"
        "BTO-PK-BRJ  1.00  1.67  2.50"
    )


def test_format_runs_diff_golden():
    diff = {
        "a": "20260101-000000-aaaaaaaa",
        "b": "20260102-000000-bbbbbbbb",
        "kind": ("selfjoin", "selfjoin"),
        "workload": ("dblp.tsv", "dblp.tsv"),
        "config_digest": ("aaa", "bbb"),
        "same_config": False,
        "pairs": (123, 124),
        "maxrss_kb": (26000, 27000),
        "stage_rows": [
            ("stage1", 37.21, 38.33, 3.02),
            ("total", 96.93, 99.94, 3.11),
        ],
        "counter_rows": [("stage2.pairs_output", 123, 124)],
    }
    assert format_runs_diff(diff) == (
        "runs diff: 20260101-000000-aaaaaaaa -> 20260102-000000-bbbbbbbb\n"
        "  kind: selfjoin\n"
        "  workload: dblp.tsv\n"
        "  config: differs\n"
        "  pairs: 123 -> 124  << DIFFERS\n"
        "  maxrss_kb: 26000 -> 27000\n"
        "stage times (simulated)\n"
        "stage   a_s    b_s    delta_pct\n"
        "------  -----  -----  ---------\n"
        "stage1  37.21  38.33  3.02     \n"
        "total   96.93  99.94  3.11     \n"
        "changed counters\n"
        "counter              a    b  \n"
        "-------------------  ---  ---\n"
        "stage2.pairs_output  123  124"
    )


def test_format_runs_diff_identical_counters_golden():
    diff = {
        "a": "a", "b": "b",
        "kind": ("selfjoin", "rsjoin"),
        "workload": ("x", "y"),
        "config_digest": (None, None),
        "same_config": True,
        "pairs": (None, None),
        "maxrss_kb": (None, None),
        "stage_rows": [],
        "counter_rows": [],
    }
    assert format_runs_diff(diff) == (
        "runs diff: a -> b\n"
        "  kind: selfjoin -> rsjoin\n"
        "  workload: x -> y\n"
        "counters: identical"
    )


def test_format_histograms_golden():
    counters = Counters()
    for value in (1, 2, 4, 8):
        observe_into(counters.increment, "stage2.group_records", value)
    observe_into(counters.increment, "shuffle.partition_bytes", 900)
    assert format_histograms(histograms(counters.as_dict())) == (
        "histograms\n"
        "histogram                n  sum  mean    p50     p99     max<\n"
        "-----------------------  -  ---  ------  ------  ------  ----\n"
        "shuffle.partition_bytes  1  900  900.00  767.50  767.50  1024\n"
        "stage2.group_records     4  15   3.75    2.50    11.50   16  "
    )
