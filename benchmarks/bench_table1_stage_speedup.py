"""Table 1 — per-stage speedup times for the self-join.

Paper (DBLP×10, 2/4/8/10 nodes): OPTO wins on small clusters, BTO on
large; PK beats BK everywhere with near-perfect kernel speedup; OPRJ
beats BRJ but its broadcast cost is constant in the cluster size.
"""

from repro.bench import dblp_times, format_table, stage_breakdown

from benchmarks.conftest import run_once

NODES = (2, 4, 8, 10)


def test_table1_stage_speedup(benchmark, record_result):
    records = dblp_times(10)

    rows = run_once(
        benchmark, lambda: stage_breakdown([(n, records, n) for n in NODES])
    )

    cells = {}
    for row in rows:
        cells[(row["stage"], row["alg"], row["key"])] = row["time_s"]
    table_rows = []
    for stage, alg in [("1", "BTO"), ("1", "OPTO"), ("2", "BK"), ("2", "PK"),
                       ("3", "BRJ"), ("3", "OPRJ")]:
        table_rows.append(
            [stage, alg, *(cells[(stage, alg, n)] for n in NODES)]
        )
    table = format_table(
        ["stage", "alg", *(f"{n} nodes" for n in NODES)],
        table_rows,
        title="Table 1: per-stage times, self-join DBLPx10 (simulated seconds)",
    )
    record_result(table)

    # PK faster than BK in every setting (paper Section 6.1.1 Stage 2)
    for n in NODES:
        assert cells[("2", "PK", n)] < cells[("2", "BK", n)]
    # kernels speed up well: >2x from 2 to 10 nodes (observed ~3-4.5x;
    # the loose bound absorbs per-run timing noise)
    assert cells[("2", "PK", 2)] / cells[("2", "PK", 10)] > 2.0
    # OPRJ faster than BRJ on this cluster/data combination
    # (aggregate across cluster sizes: single points are noise-prone)
    assert sum(cells[("3", "OPRJ", n)] for n in NODES) < sum(
        cells[("3", "BRJ", n)] for n in NODES
    )
    # stage-1 sort bottleneck: BTO speedup is limited
    assert cells[("1", "BTO", 2)] / cells[("1", "BTO", 10)] < 4.0
