"""Observability layer: span tracing, metrics registry, skew reports.

``repro.obs`` is strictly observe-only — attaching a tracer or reading
metrics never changes partitioning, ordering or emitted pairs (the
differential tests in ``tests/test_obs.py`` enforce bit-identical
output with tracing on vs off).

* :mod:`repro.obs.trace` — zero-dependency nested-span tracer with
  Chrome-trace-event JSON export (Perfetto-loadable).
* :mod:`repro.obs.metrics` — counters/gauges/log-scale histograms
  behind one :class:`MetricsRegistry`; histograms ride the existing
  worker→parent counter merge path.
* :mod:`repro.obs.report` — post-run critical-path and reduce-skew
  analyzer behind ``python -m repro trace-report``.
* :mod:`repro.obs.telemetry` — per-phase task progress (the
  ``--progress`` view) and the run's rusage watermarks.
* :mod:`repro.obs.runs` — persistent run-manifest registry
  (``python -m repro runs ...``).
* :mod:`repro.obs.atomicio` — atomic (tmp + rename) artifact writes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from repro.obs.atomicio import atomic_write_json, atomic_write_text
from repro.obs.metrics import (
    HIST_PREFIX,
    HistogramSnapshot,
    MetricsRegistry,
    bucket_bounds,
    bucket_of,
    hist_counter,
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
    strip_telemetry_counters,
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
    "strip_telemetry_counters",
    "build_run_manifest",
    "diff_runs",
    "list_runs",
    "load_run",
    "resolve_runs_dir",
    "write_run_manifest",
    "HIST_PREFIX",
    "HistogramSnapshot",
    "MetricsRegistry",
    "bucket_bounds",
    "bucket_of",
    "hist_counter",
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
