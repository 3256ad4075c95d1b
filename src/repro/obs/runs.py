"""Persistent run registry.

Every join CLI run writes a **run manifest** — a small JSON document
with the run's identity (kind, workload, config digest), its merged
counters (histograms included, as ``hist.*`` keys), per-stage timings
on both clocks (measured ``wall_times_s``, simulated
``stage_times_s``), the executor summary and process rusage watermarks
— into a ``.repro-runs/`` directory (one file per run, written
atomically).  Each number is stored once; ``runs show`` derives the
histograms from the counters.  ``python -m repro runs list|show|diff``
browses the registry.  Performance is gated elsewhere, on the wall
clock: ``benchmarks/wall/README.md``.
"""

from __future__ import annotations

import json
import os
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
    "build_run_manifest",
    "diff_runs",
    "dict_field",
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
    argv: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble one run's manifest document (not yet written).

    Rusage watermarks are sampled here, at end of run, so they reflect
    the whole process tree's peak.
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
        # imported here: repro.join.config pulls in repro.mapreduce,
        # whose package init imports repro.obs
        from repro.join.config import config_digest
        from repro.join.memory import apply_degradations

        doc["config_digest"] = config_digest(config)
        doc["threshold"] = config.threshold
        # the kernel that ran: a memory fault may have degraded the plan
        steps = report.memory_steps if report is not None else []
        doc["kernel"] = apply_degradations(config, steps).kernel
    if report is not None:
        counters = report.counters()
        times = report.stage_times()
        times["total"] = report.total_simulated_s
        doc["combo"] = report.combo
        if report.memory_steps:
            doc["memory_steps"] = list(report.memory_steps)
        doc["stage_times_s"] = {k: round(v, 6) for k, v in times.items()}
        wall = dict(report.stage_wall_s)
        wall["total"] = sum(wall.values())
        doc["wall_times_s"] = {k: round(v, 6) for k, v in wall.items()}
        doc["pairs"] = counters.get("stage3.record_pairs_output", 0)
        doc["stage2_replication"] = round(report.stage2_replication, 6)
        doc["stage2_max_reducer_input"] = report.stage2_max_reducer_input
        doc["counters"] = dict(sorted(counters.items()))
        doc["executor"] = report.executor_summary()
    identity = doc.get("config_digest") or _digest_of(doc)
    doc["id"] = f"{created.strftime('%Y%m%d-%H%M%S')}-{identity[:8]}"
    return doc


def _digest_of(doc: dict[str, Any]) -> str:
    from repro.mapreduce.hashing import sha256

    return sha256(
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
        # the id is matched by prefix and the list sorts on (created,
        # id): a document whose id is not a string, or whose created is
        # present but not one, is not a manifest
        if (
            isinstance(doc, dict)
            and isinstance(doc.get("id"), str)
            and isinstance(doc.get("created", ""), str)
        ):
            runs.append(doc)
    runs.sort(key=lambda d: (d.get("created", ""), d["id"]))
    return runs


def dict_field(doc: dict[str, Any], key: str) -> dict[str, Any]:
    """Manifest field *key* when it is a JSON object, else ``{}``: a
    field of another type reads as absent."""
    value = doc.get(key)
    return value if isinstance(value, dict) else {}


def _numbers(doc: dict[str, Any], key: str, kind: type | tuple) -> dict[str, Any]:
    """The entries of :func:`dict_field` *key* whose value is a *kind*
    (never a bool): a value of another type reads as absent."""
    return {
        name: value
        for name, value in dict_field(doc, key).items()
        if isinstance(value, kind) and not isinstance(value, bool)
    }


def load_run(directory: str, ref: str) -> dict[str, Any]:
    """Resolve *ref* to one manifest: ``latest``, an exact id, a unique
    id prefix, or a path to a manifest JSON file."""
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{ref}: {exc}") from exc
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
        times_a = _numbers(a, key, (int, float))
        times_b = _numbers(b, key, (int, float))
        for stage in sorted(set(times_a) | set(times_b)):
            va = float(times_a.get(stage, 0.0))
            vb = float(times_b.get(stage, 0.0))
            delta_pct = ((vb - va) / va * 100.0) if va else float("nan")
            rows.append((stage, va, vb, delta_pct))
        return rows

    counters_a = _numbers(a, "counters", int)
    counters_b = _numbers(b, "counters", int)
    counter_rows: list[tuple[str, int, int]] = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va = counters_a.get(name, 0)
        vb = counters_b.get(name, 0)
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
            dict_field(a, "rusage").get("maxrss_kb"),
            dict_field(b, "rusage").get("maxrss_kb"),
        ),
        **{
            key: (a.get(key), b.get(key))
            for key in ("stage2_replication", "stage2_max_reducer_input")
        },
        "stage_rows": time_rows("stage_times_s"),
        "wall_rows": time_rows("wall_times_s"),
        "counter_rows": counter_rows,
    }
