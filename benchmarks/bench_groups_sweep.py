"""Section 6.1.1, Stage 2 — effect of the number of token groups.

Paper: "the best performance was achieved when there was one group per
token" — coarser groups spend the same framework effort on grouping
but give the reducer bigger, less-filtered candidate groups.
"""

from repro.bench import dblp_times, format_table, sweep
from repro.join.config import JoinConfig

from benchmarks.conftest import run_once

GROUP_COUNTS = (None, 500, 100, 20, 4)  # None = one group per token


def test_groups_sweep(benchmark, record_result):
    records = dblp_times(10)

    combos = {
        num_groups or "per-token": JoinConfig(routing="grouped", num_groups=num_groups)
        for num_groups in GROUP_COUNTS
    }

    rows = run_once(benchmark, lambda: sweep([(10, records, 10)], combos))

    table = format_table(
        ["num_groups", "stage2_s", "pairs"],
        [[r["combo"], r["stage2_s"], r["pairs"]] for r in rows],
        title="Section 6.1.1: PK kernel time vs number of token groups (DBLPx10, 10 nodes)",
    )
    record_result(table)

    by_groups = {r["combo"]: r["stage2_s"] for r in rows}
    # one group per token beats heavily coarsened grouping
    assert by_groups["per-token"] < by_groups[4]
