"""Figure 12 — R-S join running time vs dataset size.

Paper: DBLP×n ⋈ CITESEERX×n (n = 5, 10, 25) on 10 nodes.  Stage 3
becomes a much bigger share than in the self-join because it scans two
datasets and CITESEERX records are ~5x larger; at ×25 the OPRJ variant
runs out of memory loading the RID-pair list.
"""

from repro.bench import format_table, oprj_oom_budget_mb, rs_workload, sweep

from benchmarks.conftest import run_once

FACTORS = (5, 10, 25)


def test_fig12_rsjoin_size(benchmark, record_result):
    cases = [(factor, rs_workload(factor), 10) for factor in FACTORS]
    # OPRJ's RID-pair index fits at x5/x10 but not at x25 (the paper's
    # OOM point for Fig. 12); the BRJ combos peak far below the budget
    budget_mb = oprj_oom_budget_mb()

    rows = run_once(
        benchmark, lambda: sweep(cases, memory_per_task_mb=budget_mb)
    )

    table = format_table(
        ["factor", "combo", "stage1_s", "stage2_s", "stage3_s", "total_s", "status"],
        [
            [r["key"], r["combo"], r["stage1_s"], r["stage2_s"], r["stage3_s"],
             r["total_s"], r["status"]]
            for r in rows
        ],
        title="Figure 12: R-S join DBLPxN x CITESEERXxN on 10 nodes",
    )
    record_result(table)

    def row(combo, factor):
        return next(r for r in rows if r["combo"] == combo and r["key"] == factor)

    # the paper's x25 OPRJ OOM
    assert row("BTO-PK-OPRJ", 5)["status"] == "ok"
    assert row("BTO-PK-OPRJ", 10)["status"] == "ok"
    assert row("BTO-PK-OPRJ", 25)["status"].startswith("OOM")
    # BRJ combinations complete at every size
    for combo in ("BTO-BK-BRJ", "BTO-PK-BRJ"):
        assert all(row(combo, factor)["status"] == "ok" for factor in FACTORS)
    # stage 3 is a significant share (paper Section 6.2: it becomes
    # the most expensive stage at small factors; our cost model places
    # the crossover earlier — see EXPERIMENTS.md)
    r5 = row("BTO-PK-BRJ", 5)
    assert r5["stage3_s"] > 0.5 * r5["stage2_s"]
