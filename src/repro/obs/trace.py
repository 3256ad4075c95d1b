"""Zero-dependency span tracing with Chrome-trace-event export.

A :class:`Tracer` records **nested spans** — named intervals measured
with ``time.perf_counter()`` — and exports them as Chrome trace-event
JSON (the format Perfetto / ``chrome://tracing`` loads), so a whole
three-stage join renders as a real timeline:

    join → stage → MR job → map/shuffle/reduce phase → task

Spans carry a category (``"join"``, ``"stage"``, ``"job"``,
``"phase"``, ``"dispatch"``, ``"chunk"``, ``"task"``) and free-form
``args`` (record counts, group sizes, straggler hints) that the
post-run analyzer (:mod:`repro.obs.report`) mines for critical-path
and skew diagnostics.

Tracing is strictly **observe-only**: no span ever influences control
flow, emitted pairs, counters or partitioning — a traced join produces
bit-identical output to an untraced one (differential-tested, like the
sanitizer).

Cross-process collection
------------------------

Worker processes (the pool the pooled executor forks per job) build
their *own* ``Tracer``, and their raw events
travel back to the parent alongside task results; the parent calls
:meth:`Tracer.absorb`.  ``time.perf_counter()`` is CLOCK_MONOTONIC on
the platforms the fork executor supports, so parent and child
timestamps share one timebase.  At export, each distinct worker PID is
mapped to a stable ``tid`` lane ("worker-1", "worker-2", …) under one
process, which is what makes pool utilization and stragglers visible
as parallel tracks on the timeline.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterable

from repro.obs.atomicio import atomic_write_json

__all__ = ["Span", "Tracer", "trace_span", "NULL_SPAN"]

#: microseconds per perf_counter second (Chrome trace ts unit is us)
_US = 1_000_000.0


class Span:
    """One open span; append to the tracer on ``__exit__``.

    Use as a context manager; attach analysis payload with
    :meth:`set` at any point before exit.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start = time.perf_counter()

    def set(self, **args: Any) -> "Span":
        """Attach (or override) analysis args on this span."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        return self

    def close(self) -> None:
        """Record the span now (for call sites not shaped like ``with``)."""
        self.__exit__(None, None, None)

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._tracer._events.append(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "X",
                "ts": self._start * _US,
                "dur": (end - self._start) * _US,
                "pid": self._tracer.pid,
                "tid": 0,
                "args": self.args,
            }
        )


class _NullSpan:
    """No-op stand-in so call sites need no ``if tracer`` nesting."""

    __slots__ = ()

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def close(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = _NullSpan()


def trace_span(
    tracer: "Tracer | None", name: str, cat: str, **args: Any
) -> "Span | _NullSpan":
    """A span on *tracer*, or the shared no-op when tracing is off.

    The single entry point used by runtime code: ``with
    trace_span(tracer, "map", "phase") as sp: ...; sp.set(tasks=n)``.
    """
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name, cat, args)


class Tracer:
    """Collects span events in one process; exports Chrome trace JSON.

    The driver process owns the exporting tracer; worker processes use
    short-lived tracers whose :meth:`raw_events` are shipped back (they
    are plain dicts, cheap to pickle) and merged via :meth:`absorb`.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._t0 = time.perf_counter()
        self._events: list[dict[str, Any]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, cat: str = "", **args: Any) -> Span:
        return Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record a zero-duration marker (pool forks, spill cleanups)."""
        self._events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": time.perf_counter() * _US,
                "pid": self.pid,
                "tid": 0,
                "s": "p",
                "args": args,
            }
        )

    def counter(self, name: str, **values: float) -> None:
        """Record a counter-lane sample (Chrome ``"C"`` event).

        Renders as a stacked-area lane in the trace viewer; telemetry
        uses it for memory watermarks and queue depth over time.
        """
        self._events.append(
            {
                "name": name,
                "cat": "telemetry",
                "ph": "C",
                "ts": time.perf_counter() * _US,
                "pid": self.pid,
                "tid": 0,
                "args": dict(values),
            }
        )

    # -- cross-process merge ----------------------------------------------

    def raw_events(self) -> list[dict[str, Any]]:
        """This tracer's events, suitable for pickling to the parent."""
        return self._events

    def absorb(self, events: Iterable[dict[str, Any]]) -> None:
        """Merge events recorded by another process's tracer."""
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    # -- export -----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The trace as a Chrome trace-event document.

        Timestamps are rebased to the tracer's creation, every event
        lands in one logical process, and each worker PID gets its own
        named thread lane; trace events are sorted by ``ts`` so the
        document validates as monotonic.
        """
        # Stable lane assignment: driver first, then workers by first
        # appearance in (already chronological per process) event order.
        lanes: dict[int, int] = {self.pid: 0}
        for event in self._events:
            lanes.setdefault(event["pid"], len(lanes))

        t0_us = self._t0 * _US
        trace_events: list[dict[str, Any]] = []
        for pid, tid in sorted(lanes.items(), key=lambda item: item[1]):
            lane_name = "driver" if tid == 0 else f"worker-{tid} (pid {pid})"
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": lane_name},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        trace_events.insert(
            0,
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": "repro set-similarity join"},
            },
        )

        spans = []
        for event in self._events:
            out = dict(event)
            out["ts"] = max(0.0, round(event["ts"] - t0_us, 3))
            if "dur" in out:
                out["dur"] = max(0.0, round(out["dur"], 3))
            out["tid"] = lanes[event["pid"]]
            out["pid"] = self.pid
            spans.append(out)
        spans.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        trace_events.extend(spans)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> None:
        """Write the trace to *path* as Chrome trace-event JSON.

        Atomic (temp file + rename): a run killed mid-export leaves
        either no trace or the complete previous one, never a prefix.
        """
        atomic_write_json(path, self.to_json())
