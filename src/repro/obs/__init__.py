"""Observability layer: span tracing, counter histograms, skew reports.

``repro.obs`` is strictly observe-only — attaching a tracer or a
telemetry hub never changes partitioning, ordering, emitted pairs or
counters (the differential matrix, ``tests/matrix.py``, checks pairs
and every counter with each observer on against it off).

* :mod:`repro.obs.trace` — zero-dependency nested-span tracer with
  Chrome-trace-event JSON export (Perfetto-loadable).
* :mod:`repro.obs.metrics` — log-scale histograms encoded in the job
  counters (they ride the worker→parent counter merge path) and
  decoded from them by one function, :func:`histograms`.
* :mod:`repro.obs.report` — post-run critical-path and reduce-skew
  analyzer behind ``python -m repro trace-report``.
* :mod:`repro.obs.telemetry` — per-phase task progress (the
  ``--progress`` view, which writes nothing into the join's counters)
  and the run's rusage watermarks.
* :mod:`repro.obs.runs` — persistent run-manifest registry
  (``python -m repro runs ...``); a manifest stores each number once.
* :mod:`repro.obs.atomicio` — atomic (tmp + rename) artifact writes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from repro.obs.atomicio import atomic_write_json, atomic_write_text
from repro.obs.metrics import (
    HIST_PREFIX,
    HistogramSnapshot,
    bucket_bounds,
    bucket_of,
    hist_counter,
    histograms,
    observe_into,
)
from repro.obs.runs import (
    build_run_manifest,
    diff_runs,
    list_runs,
    load_run,
    resolve_runs_dir,
    write_run_manifest,
)
from repro.obs.telemetry import (
    ProgressView,
    TelemetryHub,
    make_progress_view,
    rusage_watermarks,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer, trace_span

#: the post-run trace analyzer serves ``repro trace-report`` only
_LAZY = dict.fromkeys(
    ("TraceDigest", "digest_trace", "format_routing_comparison",
     "format_trace_report", "load_trace", "validate_trace"),
    "repro.obs.report",
)
def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "ProgressView",
    "TelemetryHub",
    "make_progress_view",
    "rusage_watermarks",
    "build_run_manifest",
    "diff_runs",
    "list_runs",
    "load_run",
    "resolve_runs_dir",
    "write_run_manifest",
    "HIST_PREFIX",
    "HistogramSnapshot",
    "bucket_bounds",
    "bucket_of",
    "hist_counter",
    "histograms",
    "observe_into",
    "TraceDigest",
    "digest_trace",
    "format_routing_comparison",
    "format_trace_report",
    "load_trace",
    "validate_trace",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "trace_span",
]
