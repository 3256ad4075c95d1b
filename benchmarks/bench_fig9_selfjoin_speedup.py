"""Figures 9 & 10 — self-join speedup.

Paper: DBLP×10 self-joined on 2-10 nodes.  All combinations speed up
sub-linearly (Fig. 10); BTO-PK-OPRJ is the fastest in every setting
(Fig. 9).
"""

from repro.bench import (
    dblp_times,
    format_speedup_series,
    format_table,
    sweep,
)

from benchmarks.conftest import run_once

NODES = (2, 4, 8, 10)


def test_fig9_fig10_selfjoin_speedup(benchmark, record_result):
    records = dblp_times(10)

    rows = run_once(benchmark, lambda: sweep([(n, records, n) for n in NODES]))

    absolute = format_table(
        ["nodes", "combo", "total_s"],
        [[r["key"], r["combo"], r["total_s"]] for r in rows],
        title="Figure 9: self-join DBLPx10, absolute time by cluster size",
    )
    relative = format_speedup_series(rows, baseline_key=2)
    record_result(absolute + "\n\n" + relative)

    by_combo = {}
    for row in rows:
        by_combo.setdefault(row["combo"], {})[row["key"]] = row["total_s"]
    for combo, series in by_combo.items():
        # more nodes, less time...
        assert series[10] < series[2], combo
        # ...but sub-linear: relative speedup below the ideal 5x
        assert series[2] / series[10] < 5.0, combo
    # the paper's fastest combination stays fastest
    for nodes in NODES:
        assert by_combo["BTO-PK-OPRJ"][nodes] <= by_combo["BTO-BK-BRJ"][nodes]
