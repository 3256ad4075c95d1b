"""Section 6 side claim — "higher similarity thresholds decreased the
running time".

The paper fixes τ = 0.8 as the lower bound used in the literature and
notes that larger thresholds run faster (shorter prefixes → less
replication → fewer candidates).  This bench sweeps τ and verifies the
monotone trend for the recommended combination.
"""

from repro.bench import dblp_times, format_table
from repro.bench.harness import PAPER_COMBOS, run_join

from benchmarks.conftest import run_once

THRESHOLDS = (0.7, 0.8, 0.9, 0.95)


def test_threshold_sweep(benchmark, record_result):
    records = dblp_times(10)

    def run():
        rows = []
        for threshold in THRESHOLDS:
            config = PAPER_COMBOS["BTO-PK-BRJ"].with_options(threshold=threshold)
            report = run_join(records, config, 10)
            counters = report.counters()
            rows.append(
                {
                    "threshold": threshold,
                    "stage2_s": report.stage_times()["stage2"],
                    "total_s": report.total_simulated_s,
                    "pairs": counters.get("stage3.record_pairs_output", 0),
                    "shuffle_mb": report.stage2.shuffle_bytes / 1e6,
                }
            )
        return rows

    rows = run_once(benchmark, run)

    table = format_table(
        ["threshold", "stage2_s", "total_s", "pairs", "shuffle_mb"],
        [[r["threshold"], r["stage2_s"], r["total_s"], r["pairs"], r["shuffle_mb"]]
         for r in rows],
        title="Threshold sweep, BTO-PK-BRJ on DBLPx10 (10 nodes)",
    )
    record_result(table)

    by_threshold = {r["threshold"]: r for r in rows}
    # less replication and fewer answers as tau grows
    assert by_threshold[0.95]["shuffle_mb"] < by_threshold[0.7]["shuffle_mb"]
    assert by_threshold[0.95]["pairs"] < by_threshold[0.7]["pairs"]
    # and the kernel gets cheaper
    assert by_threshold[0.95]["stage2_s"] < by_threshold[0.7]["stage2_s"]
