"""Figure 14 — R-S join scaleup.

Paper: n nodes with DBLP×2.5n ⋈ CITESEERX×2.5n.  BTO-PK-BRJ scales
best; BTO-PK-OPRJ is fastest while it lasts but runs out of memory
loading the RID-pair list when the datasets are increased 8x and
beyond (the missing points in the paper's figure).
"""

from repro.bench import format_table, oprj_oom_budget_mb, rs_workload, sweep

from benchmarks.conftest import run_once

SCALE = {2: 5, 4: 10, 8: 20, 10: 25}


def test_fig14_rsjoin_scaleup(benchmark, record_result):
    cases = [(nodes, rs_workload(factor), nodes) for nodes, factor in SCALE.items()]
    # OPRJ's RID-pair index stops fitting from the x20 point on,
    # reproducing the paper's missing data points (paper: OOM from 8x
    # onward)
    budget_mb = oprj_oom_budget_mb()

    rows = run_once(
        benchmark, lambda: sweep(cases, memory_per_task_mb=budget_mb)
    )

    table = format_table(
        ["nodes", "factor", "combo", "total_s", "status"],
        [[r["key"], SCALE[r["key"]], r["combo"], r["total_s"], r["status"]] for r in rows],
        title="Figure 14: R-S join scaleup (x2.5n data on n nodes)",
    )
    record_result(table)

    def row(combo, nodes):
        return next(r for r in rows if r["combo"] == combo and r["key"] == nodes)

    # OPRJ completes at small scale, goes OOM at large scale
    assert row("BTO-PK-OPRJ", 2)["status"] == "ok"
    assert row("BTO-PK-OPRJ", 4)["status"] == "ok"
    assert row("BTO-PK-OPRJ", 8)["status"].startswith("OOM")
    assert row("BTO-PK-OPRJ", 10)["status"].startswith("OOM")
    # the BRJ combinations survive everywhere and scale acceptably
    # (BK gets a looser bound: its reducer work grows with the factor,
    # paper Section 6.1.2)
    for combo, bound in (("BTO-BK-BRJ", 5.0), ("BTO-PK-BRJ", 3.0)):
        assert all(row(combo, n)["status"] == "ok" for n in SCALE)
        assert row(combo, 10)["total_s"] < bound * row(combo, 2)["total_s"]
