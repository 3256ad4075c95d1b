"""Figure 13 — R-S join speedup.

Paper: DBLP×10 ⋈ CITESEERX×10 on 2-10 nodes.  BTO-PK-OPRJ starts
fastest but the BRJ combinations speed up better and catch up by 10
nodes (OPRJ's broadcast load is constant in the cluster size).
"""

from repro.bench import (
    format_speedup_series,
    format_table,
    rs_workload,
    sweep,
)

from benchmarks.conftest import run_once

NODES = (2, 4, 8, 10)


def test_fig13_rsjoin_speedup(benchmark, record_result):
    data = rs_workload(10)

    rows = run_once(benchmark, lambda: sweep([(n, data, n) for n in NODES]))

    absolute = format_table(
        ["nodes", "combo", "stage3_s", "total_s"],
        [[r["key"], r["combo"], r["stage3_s"], r["total_s"]] for r in rows],
        title="Figure 13: R-S join DBLPx10 x CITESEERXx10 by cluster size",
    )
    relative = format_speedup_series(rows, baseline_key=2)
    record_result(absolute + "\n\n" + relative)

    by_combo = {}
    stage3 = {}
    for row in rows:
        by_combo.setdefault(row["combo"], {})[row["key"]] = row["total_s"]
        stage3.setdefault(row["combo"], {})[row["key"]] = row["stage3_s"]
    for combo, series in by_combo.items():
        assert series[10] < series[2], combo
    # Stage 3: BRJ speeds up better than OPRJ, whose per-slot broadcast
    # load does not parallelize (paper Section 6.2.1).  The paper sees
    # this dominate the totals because its RID-pair list is huge; at
    # our pair volume the effect is visible at the stage level.
    brj3 = stage3["BTO-PK-BRJ"]
    oprj3 = stage3["BTO-PK-OPRJ"]
    assert brj3[2] / brj3[10] > oprj3[2] / oprj3[10]
