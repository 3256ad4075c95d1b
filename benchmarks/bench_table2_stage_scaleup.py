"""Table 2 — per-stage scaleup times for the self-join.

Paper: BTO scales almost perfectly while OPTO degrades (single
reducer); PK scales better than BK (whose reducer work grows with the
data); BRJ scales almost perfectly while OPRJ degrades (broadcast list
grows with the data).
"""

from repro.bench import dblp_times, format_table, stage_breakdown

from benchmarks.conftest import run_once

SCALE = {2: 5, 4: 10, 8: 20, 10: 25}


def test_table2_stage_scaleup(benchmark, record_result):
    cases = [(nodes, dblp_times(factor), nodes) for nodes, factor in SCALE.items()]

    rows = run_once(benchmark, lambda: stage_breakdown(cases))

    cells = {}
    for row in rows:
        cells[(row["stage"], row["alg"], row["key"])] = row["time_s"]
    nodes = sorted(SCALE)
    table_rows = [
        [stage, alg, *(cells[(stage, alg, n)] for n in nodes)]
        for stage, alg in [("1", "BTO"), ("1", "OPTO"), ("2", "BK"), ("2", "PK"),
                           ("3", "BRJ"), ("3", "OPRJ")]
    ]
    table = format_table(
        ["stage", "alg", *(f"{n}/x{SCALE[n]}" for n in nodes)],
        table_rows,
        title="Table 2: per-stage scaleup times, self-join (simulated seconds)",
    )
    record_result(table)

    def degradation(stage, alg):
        return cells[(stage, alg, 10)] / cells[(stage, alg, 2)]

    # PK scales better than BK (paper: BK reducer complexity grows
    # linearly with the increase factor)
    assert degradation("2", "PK") < degradation("2", "BK")
    # BRJ scales better than OPRJ (paper: OPRJ's broadcast grows)
    assert degradation("3", "BRJ") < degradation("3", "OPRJ")
