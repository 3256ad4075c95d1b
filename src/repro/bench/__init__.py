"""Experiment harness: canonical workloads, sweep runners and
paper-style reporting for every table and figure in Section 6."""

from __future__ import annotations

from repro.bench.workloads import (
    BASE_DBLP_RECORDS,
    BASE_CITESEERX_RECORDS,
    dblp_times,
    citeseerx_times,
    rs_workload,
)
from repro.bench.harness import (
    PAPER_COMBOS,
    make_cluster,
    oprj_oom_budget_mb,
    run_join,
    stage_breakdown,
    sweep,
)
from repro.bench.reporting import (
    format_executor_summary,
    format_speedup_series,
    format_table,
)

__all__ = [
    "BASE_CITESEERX_RECORDS",
    "BASE_DBLP_RECORDS",
    "PAPER_COMBOS",
    "citeseerx_times",
    "dblp_times",
    "format_executor_summary",
    "format_speedup_series",
    "format_table",
    "make_cluster",
    "oprj_oom_budget_mb",
    "rs_workload",
    "run_join",
    "stage_breakdown",
    "sweep",
]
