#!/usr/bin/env python
"""A miniature version of the paper's evaluation (Section 6).

Generates a DBLP-like corpus, increases it with the paper's
token-shift technique, and reports

* running time vs dataset size (Figure 8's shape),
* speedup over cluster sizes (Figure 9/10's shape),
* scaleup with data grown alongside the cluster (Figure 11's shape),

for the three stage combinations the paper sweeps.  The full
regeneration of every table and figure lives in ``benchmarks/``.

Run:  python examples/scaling_study.py
"""

from repro.bench import (
    PAPER_COMBOS,
    dblp_times,
    format_speedup_series,
    format_table,
    sweep,
)


def main() -> None:
    rows = sweep([(factor, dblp_times(factor), 10) for factor in (2, 5, 10)])
    print(format_table(
        ["factor", "combo", "stage1_s", "stage2_s", "stage3_s", "total_s"],
        [[r["key"], r["combo"], r["stage1_s"], r["stage2_s"], r["stage3_s"], r["total_s"]]
         for r in rows],
        title="running time vs dataset size (cf. Figure 8)",
    ))
    print()

    speedup_rows = sweep([(nodes, dblp_times(5), nodes) for nodes in (2, 4, 10)])
    print(format_table(
        ["nodes", "combo", "total_s"],
        [[r["key"], r["combo"], r["total_s"]] for r in speedup_rows],
        title="speedup: fixed data, growing cluster (cf. Figure 9)",
    ))
    print()
    print(format_speedup_series(speedup_rows, baseline_key=2))
    print()

    scaleup_rows = sweep([(nodes, dblp_times(nodes), nodes) for nodes in (2, 4, 10)])
    print(format_table(
        ["nodes", "combo", "total_s"],
        [[r["key"], r["combo"], r["total_s"]] for r in scaleup_rows],
        title="scaleup: data grows with the cluster (cf. Figure 11; flat = perfect)",
    ))
    print()
    print("recommended combination (paper Section 6.1.3): BTO-PK-BRJ")
    print("combos:", ", ".join(PAPER_COMBOS))


if __name__ == "__main__":
    main()
