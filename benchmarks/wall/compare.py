#!/usr/bin/env python3
"""Compare two result files of ``run.py`` (A = parent, B = change).

    python3 benchmarks/wall/compare.py A.json B.json

Per workload and end-to-end metric it prints both medians, B's relative
difference in the *worse* direction and the metric's bound, and marks

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the run-to-run spread of either side (interquartile
  range over median of its samples) is wider than the bound, so the two
  medians cannot be told apart — unless every sample of B is better
  than every sample of A, which is ``ok``.

Every per-layer metric declared exact (counts) must be equal.  Failed
operations count as a regression.  Exits 1 on any ``regressed`` line or
count mismatch, else 0.

A file that holds several sets of runs (``{"sets": [...]}``, as
``results/baseline.json`` does) is addressed as ``file.json:0``,
``file.json:1``; without an index the last set is taken.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import wallspec  # noqa: E402


def load(ref: str) -> dict:
    path, colon, index = ref.rpartition(":")
    if not (colon and index.isdigit()):
        path, index = ref, ""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "sets" in document:
        return document["sets"][int(index) if index else -1]
    return document


def spread(samples: list[float]) -> float:
    """Interquartile range over median; 0 for fewer than two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(metric: wallspec.Metric, a: dict, b: dict) -> tuple[str, float]:
    """Verdict and B's relative change in the worse direction."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    samples_a, samples_b = a.get("samples", []), b.get("samples", [])
    if max(spread(samples_a), spread(samples_b)) > metric.bound:
        if metric.better == "lower":
            all_better = max(samples_b) < min(samples_a)
        else:
            all_better = min(samples_b) > max(samples_a)
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > metric.bound else "ok"), worse


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    bad = 0
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict", file=out)
    for workload in wallspec.WORKLOADS:
        name = workload.name
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:18s} missing from {'A' if wa is None else 'B'}", file=out)
            bad += 1
            continue
        for metric in wallspec.END_TO_END:
            ma, mb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            verdict, worse = judge(metric, ma, mb)
            bad += verdict == "regressed"
            print(f"{name:18s} {metric.name:16s} {ma['value']:12.5g} "
                  f"{mb['value']:12.5g} {worse:+9.1%} {metric.bound:6.0%}  {verdict}",
                  file=out)
        if wb["failed"] > wa["failed"]:
            bad += 1
            print(f"{name:18s} failed operations {wa['failed']}/{wa['attempted']} -> "
                  f"{wb['failed']}/{wb['attempted']}  regressed", file=out)
        for metric in wallspec.PER_LAYER:
            if not metric.exact:
                continue
            va = wa["per_layer"][metric.name]["value"]
            vb = wb["per_layer"][metric.name]["value"]
            if va != vb:
                bad += 1
                print(f"{name:18s} {metric.name}: {va} != {vb}  count differs", file=out)
    print(f"{bad} problem(s)" if bad else
          "nothing regressed and every exact per-layer count is equal", file=out)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    raise SystemExit(main())
