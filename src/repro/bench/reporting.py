"""Paper-style text reporting for benchmark rows."""

from __future__ import annotations

import math
from typing import Sequence

from repro.mapreduce.types import utilization


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Fixed-width text table (printed under ``pytest -s``)."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in cells)) if cells else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def rows_to_table(rows: list[dict], columns: Sequence[str], title: str = "") -> str:
    """Render row dicts selecting *columns*."""
    return format_table(columns, [[row.get(c) for c in columns] for row in rows], title)


def format_executor_summary(summary: dict, title: str = "executor") -> str:
    """Render a :meth:`JoinReport.executor_summary` dict as one table row.

    All-zero summaries (sequential runs) render too — the row then just
    shows zero pooled phases.  ``util`` is summed task CPU over summed
    pool capacity (workers x wall), the same definition as
    :attr:`ExecutorPhaseStats.utilization`.
    """
    util = utilization(
        summary.get("busy_s", 0.0), summary.get("pool_capacity_s", 0.0)
    )
    headers = [
        "pools", "pooled", "inline", "tasks", "chunks",
        "to_workers_kb", "from_workers_kb", "spill_kb", "util",
    ]
    row = [
        summary.get("pools_created", 0),
        summary.get("pooled_phases", 0),
        summary.get("inline_phases", 0),
        summary.get("tasks", 0),
        summary.get("chunks", 0),
        summary.get("bytes_to_workers", 0) / 1024.0,
        summary.get("bytes_from_workers", 0) / 1024.0,
        summary.get("spill_bytes_written", 0) / 1024.0,
        util,
    ]
    return format_table(headers, [row], title=title)


def format_filter_counters(pruned: dict, title: str = "stage2 filters") -> str:
    """Render a :meth:`JoinReport.filter_counters` dict as one table row:
    candidates examined, those left to the pair's owning group
    (foreign), prunes per filter stage (length, bitmap, positional,
    suffix), candidates merged (verified) and surviving RID pairs."""
    headers = [
        "candidates", "length", "foreign", "bitmap", "positional", "suffix",
        "verified", "pairs",
    ]
    row = [pruned.get(h, 0) for h in headers]
    text = format_table(headers, [row], title=title)
    checks = pruned.get("sanitize_checks", 0)
    if checks:
        text += (
            f"\nsanitize: {checks:,} checks, "
            f"{pruned.get('sanitize_violations', 0):,} violations"
        )
    return text


def format_histograms(histograms: dict, title: str = "histograms") -> str:
    """Render a :func:`repro.obs.metrics.histograms` dict, one row per
    histogram: observation count, sum, mean, p50, p99 and the largest
    power-of-two bucket bound."""
    headers = ["histogram", "n", "sum", "mean", "p50", "p99", "max<"]
    rows = [
        [name, h.count, h.total, h.mean, float(h.p50), float(h.p99), h.max_bound]
        for name, h in sorted(histograms.items())
    ]
    return format_table(headers, rows, title=title)


def format_runs_diff(diff: dict) -> str:
    """Render a :func:`repro.obs.runs.diff_runs` document as text:
    headline identity facts, the stage-time tables (measured wall
    first, when either manifest carries it, then simulated) and the
    changed counters (unchanged counters are omitted)."""
    lines = [f"runs diff: {diff['a']} -> {diff['b']}"]
    kind_a, kind_b = diff["kind"]
    workload_a, workload_b = diff["workload"]
    lines.append(
        f"  kind: {kind_a}"
        + ("" if kind_a == kind_b else f" -> {kind_b}")
    )
    lines.append(
        f"  workload: {workload_a}"
        + ("" if workload_a == workload_b else f" -> {workload_b}")
    )
    if any(diff["config_digest"]):
        lines.append(
            "  config: identical" if diff["same_config"] else "  config: differs"
        )
    pairs_a, pairs_b = diff["pairs"]
    if pairs_a is not None or pairs_b is not None:
        marker = "" if pairs_a == pairs_b else "  << DIFFERS"
        lines.append(f"  pairs: {pairs_a} -> {pairs_b}{marker}")
    for key in ("maxrss_kb", "stage2_replication", "stage2_max_reducer_input"):
        before, after = diff.get(key, (None, None))
        if before is not None or after is not None:
            lines.append(f"  {key}: {before} -> {after}")
    for key, title in (
        ("wall_rows", "stage times (wall)"),
        ("stage_rows", "stage times (simulated)"),
    ):
        if diff.get(key):
            lines.append(
                format_table(
                    ["stage", "a_s", "b_s", "delta_pct"],
                    [list(row) for row in diff[key]],
                    title=title,
                )
            )
    if diff["counter_rows"]:
        lines.append(
            format_table(
                ["counter", "a", "b"],
                [list(row) for row in diff["counter_rows"]],
                title="changed counters",
            )
        )
    else:
        lines.append("counters: identical")
    return "\n".join(lines)


def format_speedup_series(rows: list[dict], baseline_key: int) -> str:
    """Fig. 10-style relative speedup: time(baseline) / time(n) per combo."""
    by_combo: dict[str, dict[int, float]] = {}
    for row in rows:
        by_combo.setdefault(row["combo"], {})[row["key"]] = row["total_s"]
    headers = ["combo", *sorted({row["key"] for row in rows})]
    table_rows = []
    for combo, series in by_combo.items():
        base = series.get(baseline_key, float("nan"))
        table_rows.append(
            [combo, *(base / series[k] if series.get(k) else float("nan") for k in headers[1:])]
        )
    return format_table(headers, table_rows, title=f"relative speedup (vs {baseline_key} nodes)")
