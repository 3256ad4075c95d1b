"""Persistent run registry and the perf-regression checker.

Every join and bench CLI run writes a **run manifest** — a small JSON
document with the run's identity (kind, workload, config digest), its
merged counters and metrics snapshot, per-stage simulated timings, and
process rusage watermarks — into a ``.repro-runs/`` directory (one
file per run, written atomically).  ``python -m repro runs
list|show|diff`` browses the registry; ``runs check`` compares a bench
rows document against a baseline (e.g. the committed
``BENCH_kernel.json``) with noise thresholds and exits nonzero on
sustained slowdowns, which is what the CI perf gate runs.

Metric classification for the checker is by *name convention*, the
same conventions the bench rows already follow:

* ``*_s`` (except ``*_all_s`` sample lists) — times, lower is better;
* ``*speedup*`` / ``*improvement_pct`` — higher is better;
* ``*overhead_pct`` / ``*share_pct`` — scale-free ratios, lower is
  better; these survive ``--ratios-only`` (cross-machine comparisons
  against a committed baseline, where absolute times are meaningless);
* ``*_digest`` strings, booleans, and integers (``pairs``, ``rounds``)
  — identity facts that must match exactly.

Everything else (strings like ``workload``, raw sample lists) is
skipped.  A metric regresses only when its ratio exceeds
``1 + tolerance`` in the bad direction — the tolerance absorbs normal
run-to-run noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, TYPE_CHECKING

from repro.obs.atomicio import atomic_write_json
from repro.obs.telemetry import rusage_watermarks

if TYPE_CHECKING:
    from repro.join.config import JoinConfig
    from repro.join.driver import JoinReport

__all__ = [
    "MANIFEST_VERSION",
    "RUNS_DIR_DEFAULT",
    "RegressionFinding",
    "build_run_manifest",
    "compare_baseline",
    "diff_runs",
    "list_runs",
    "load_run",
    "resolve_runs_dir",
    "write_run_manifest",
]

MANIFEST_VERSION = 1

#: registry directory (relative to the working directory unless the
#: ``REPRO_RUNS_DIR`` environment variable overrides it)
RUNS_DIR_DEFAULT = ".repro-runs"


def resolve_runs_dir(explicit: str | None = None) -> str:
    """The registry directory: CLI flag > ``REPRO_RUNS_DIR`` > default."""
    if explicit:
        return explicit
    return os.environ.get("REPRO_RUNS_DIR") or RUNS_DIR_DEFAULT


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def build_run_manifest(
    *,
    kind: str,
    workload: str,
    config: "JoinConfig | None" = None,
    report: "JoinReport | None" = None,
    rows: dict[str, Any] | None = None,
    argv: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble one run's manifest document (not yet written).

    Join runs pass ``report`` (+ ``config``); bench runs pass their
    ``rows`` document instead.  Rusage watermarks are sampled here, at
    end of run, so they reflect the whole process tree's peak.
    """
    created = datetime.now(timezone.utc)
    doc: dict[str, Any] = {
        "version": MANIFEST_VERSION,
        "created": created.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "kind": kind,
        "workload": workload,
        "rusage": rusage_watermarks(),
    }
    if argv is not None:
        doc["argv"] = list(argv)
    if config is not None:
        # imported lazily: repro.join pulls in repro.obs at package init
        from repro.join.checkpoint import config_digest

        doc["config_digest"] = config_digest(config)
        doc["threshold"] = config.threshold
        doc["kernel"] = config.kernel
    if report is not None:
        counters = report.counters()
        times = report.stage_times()
        times["total"] = report.total_simulated_s
        doc["combo"] = report.combo
        doc["stage_times_s"] = {k: round(v, 6) for k, v in times.items()}
        wall = dict(report.stage_wall_s)
        wall["total"] = sum(wall.values())
        doc["wall_times_s"] = {k: round(v, 6) for k, v in wall.items()}
        doc["pairs"] = counters.get("stage3.record_pairs_output", 0)
        doc["stage2_replication"] = round(report.stage2_replication, 6)
        doc["stage2_max_reducer_input"] = report.stage2_max_reducer_input
        doc["counters"] = dict(sorted(counters.items()))
        doc["metrics"] = report.metrics().snapshot()
        doc["executor"] = report.executor_summary()
    if rows is not None:
        doc["rows"] = rows
    identity = doc.get("config_digest") or _digest_of(doc)
    doc["id"] = f"{created.strftime('%Y%m%d-%H%M%S')}-{identity[:8]}"
    return doc


def _digest_of(doc: dict[str, Any]) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def write_run_manifest(directory: str, doc: dict[str, Any]) -> str:
    """Atomically persist *doc* into the registry; returns its path.

    The id is suffixed on collision (two runs in the same second with
    the same config), so a manifest is never silently overwritten.
    """
    os.makedirs(directory, exist_ok=True)
    base = doc["id"]
    suffix = 1
    while True:
        path = os.path.join(directory, doc["id"] + ".json")
        if not os.path.exists(path):
            break
        suffix += 1
        doc["id"] = f"{base}-{suffix}"
    atomic_write_json(path, doc, indent=2)
    return path


def list_runs(directory: str) -> list[dict[str, Any]]:
    """All manifests in the registry, oldest first (unreadable skipped)."""
    if not os.path.isdir(directory):
        return []
    runs = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, entry), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and "id" in doc:
            runs.append(doc)
    runs.sort(key=lambda d: (d.get("created", ""), d.get("id", "")))
    return runs


def load_run(directory: str, ref: str) -> dict[str, Any]:
    """Resolve *ref* to one manifest: ``latest``, an exact id, a unique
    id prefix, or a path to a manifest/bench-rows JSON file."""
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{ref}: not a JSON object")
        doc.setdefault("id", os.path.basename(ref))
        return doc
    runs = list_runs(directory)
    if not runs:
        raise FileNotFoundError(f"no runs recorded under {directory!r}")
    if ref in ("latest", "-1"):
        return runs[-1]
    matches = [doc for doc in runs if doc["id"] == ref]
    if not matches:
        matches = [doc for doc in runs if doc["id"].startswith(ref)]
    if not matches:
        raise KeyError(f"no run matching {ref!r} under {directory!r}")
    if len(matches) > 1:
        ids = ", ".join(doc["id"] for doc in matches)
        raise KeyError(f"ambiguous run ref {ref!r}: {ids}")
    return matches[0]


# ---------------------------------------------------------------------------
# diffing two runs
# ---------------------------------------------------------------------------


def diff_runs(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Structured comparison of two run manifests.

    Returns stage-time rows on both clocks (simulated ``stage_rows``,
    measured ``wall_rows`` — empty when neither manifest carries
    ``wall_times_s``, as none written before it existed does), changed
    counters, and headline facts (``None`` on the side of a manifest
    older than the fact);
    :func:`repro.bench.reporting.format_runs_diff` renders it.
    """

    def time_rows(key: str) -> list[tuple[str, float, float, float]]:
        rows: list[tuple[str, float, float, float]] = []
        times_a = a.get(key, {})
        times_b = b.get(key, {})
        for stage in sorted(set(times_a) | set(times_b)):
            va = float(times_a.get(stage, 0.0))
            vb = float(times_b.get(stage, 0.0))
            delta_pct = ((vb - va) / va * 100.0) if va else float("nan")
            rows.append((stage, va, vb, delta_pct))
        return rows

    counters_a = a.get("counters", {})
    counters_b = b.get("counters", {})
    counter_rows: list[tuple[str, int, int]] = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va = int(counters_a.get(name, 0))
        vb = int(counters_b.get(name, 0))
        if va != vb:
            counter_rows.append((name, va, vb))

    return {
        "a": a.get("id", "?"),
        "b": b.get("id", "?"),
        "kind": (a.get("kind", "?"), b.get("kind", "?")),
        "workload": (a.get("workload", "?"), b.get("workload", "?")),
        "config_digest": (a.get("config_digest"), b.get("config_digest")),
        "same_config": a.get("config_digest") == b.get("config_digest"),
        "pairs": (a.get("pairs"), b.get("pairs")),
        "maxrss_kb": (
            a.get("rusage", {}).get("maxrss_kb"),
            b.get("rusage", {}).get("maxrss_kb"),
        ),
        **{
            key: (a.get(key), b.get(key))
            for key in ("stage2_replication", "stage2_max_reducer_input")
        },
        "stage_rows": time_rows("stage_times_s"),
        "wall_rows": time_rows("wall_times_s"),
        "counter_rows": counter_rows,
    }


# ---------------------------------------------------------------------------
# baseline regression checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionFinding:
    """One checked metric: where it stands relative to the baseline."""

    section: str
    metric: str
    baseline: Any
    current: Any
    #: slowdown factor in the metric's bad direction (1.0 = unchanged)
    ratio: float
    #: classification: time | memory | higher_better | ratio | identity
    kind: str
    regressed: bool


def _classify(metric: str, value: Any) -> str | None:
    """Metric class by name convention; None = not checkable."""
    if metric.endswith("_all_s"):
        return None
    if isinstance(value, bool):
        return "identity"
    if metric.endswith("_digest"):
        return "identity"
    if metric.endswith(("overhead_pct", "share_pct")):
        return "ratio"
    if "speedup" in metric or metric.endswith("improvement_pct"):
        return "higher_better"
    if metric.endswith("_s") and isinstance(value, (int, float)):
        return "time"
    # memory watermarks: higher is worse, with their own tolerance —
    # must precede the bare-int identity fallback, which would demand
    # byte-exact maxrss across runs
    if metric.endswith("maxrss_kb") and isinstance(value, (int, float)):
        return "memory"
    if isinstance(value, int):
        return "identity"
    return None


def compare_baseline(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float = 0.5,
    *,
    ratios_only: bool = False,
    sections: list[str] | None = None,
    memory_tolerance: float | None = None,
) -> list[RegressionFinding]:
    """Check *current* bench rows against *baseline* rows.

    Both documents are ``{section: {metric: value}}`` (the
    ``BENCH_kernel.json`` shape; run manifests wrap theirs under
    ``"rows"``, unwrapped here).  Only sections present in both are
    compared, and within them only metrics present in both — a new
    metric cannot regress against nothing.  ``ratios_only`` keeps just
    the scale-free ratio class, for comparing a fresh run against a
    baseline measured on different hardware.

    Memory watermarks (``*maxrss_kb``) are a distinct higher-is-worse
    class with their own *memory_tolerance* (defaults to *tolerance*):
    RSS is noisier than simulated time but a blowup is exactly what the
    memory-degradation machinery must prevent.  When both documents
    carry run-manifest ``rusage`` watermarks, the process-tree peak is
    checked too, as the ``run.maxrss_kb`` finding.
    """
    base_rusage = baseline.get("rusage")
    cur_rusage = current.get("rusage")
    baseline = baseline.get("rows", baseline)
    current = current.get("rows", current)
    if memory_tolerance is None:
        memory_tolerance = tolerance
    findings: list[RegressionFinding] = []
    for section in sorted(set(baseline) & set(current)):
        if sections is not None and section not in sections:
            continue
        base_row = baseline[section]
        cur_row = current[section]
        if not isinstance(base_row, dict) or not isinstance(cur_row, dict):
            continue
        for metric in sorted(set(base_row) & set(cur_row)):
            base = base_row[metric]
            cur = cur_row[metric]
            kind = _classify(metric, base)
            if kind is None:
                continue
            if ratios_only and kind != "ratio":
                continue
            tol = memory_tolerance if kind == "memory" else tolerance
            ratio, regressed = _judge(kind, base, cur, tol)
            findings.append(
                RegressionFinding(
                    section=section,
                    metric=metric,
                    baseline=base,
                    current=cur,
                    ratio=ratio,
                    kind=kind,
                    regressed=regressed,
                )
            )
    if (
        not ratios_only
        and (sections is None or "run" in sections)
        and isinstance(base_rusage, dict)
        and isinstance(cur_rusage, dict)
    ):
        base_kb = base_rusage.get("maxrss_kb")
        cur_kb = cur_rusage.get("maxrss_kb")
        if isinstance(base_kb, (int, float)) and isinstance(cur_kb, (int, float)):
            ratio, regressed = _judge(
                "memory", base_kb, cur_kb, memory_tolerance
            )
            findings.append(
                RegressionFinding(
                    section="run",
                    metric="maxrss_kb",
                    baseline=base_kb,
                    current=cur_kb,
                    ratio=ratio,
                    kind="memory",
                    regressed=regressed,
                )
            )
    return findings


def _judge(
    kind: str, base: Any, cur: Any, tolerance: float
) -> tuple[float, bool]:
    """(bad-direction ratio, regressed?) for one metric."""
    if kind == "identity":
        if isinstance(base, bool):
            # a True identity fact (e.g. bit-identical outputs) must stay True
            return (1.0, bool(base) and not bool(cur))
        return (1.0, base != cur)
    base_f = float(base)
    cur_f = float(cur)
    if kind == "higher_better":
        if cur_f <= 0.0:
            return (float("inf"), base_f > 0.0)
        ratio = base_f / cur_f if base_f > 0.0 else 1.0
    else:  # time, memory and ratio classes: lower is better
        if base_f <= 0.0:
            return (1.0, False)
        ratio = cur_f / base_f
    return (ratio, ratio > 1.0 + tolerance)
