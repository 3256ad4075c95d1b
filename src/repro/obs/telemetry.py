"""Live task telemetry: progress view and resource watermarks.

The trace/report stack (:mod:`repro.obs.trace`) explains a run *after*
it finishes; this module watches it *while it runs*.  Two pieces:

:class:`TelemetryHub`
    Driver-side collector.  Both engines report phase boundaries and
    task completions to it — a task's result is the only thing it sends
    the driver, so a finished task is what progress is counted in.  The
    hub aggregates throughput/ETA per phase, exports a queue-depth
    counter lane into the Chrome trace (when one is attached), tallies
    ``tasks`` and ``phases`` as plain ints of its own, and drives an
    optional :class:`ProgressView`.

:class:`ProgressView`
    ``--progress`` rendering.  On a TTY it redraws a single live bar
    line (carriage return + erase); on a pipe it degrades to periodic
    plain ``progress: ...`` log lines with no ANSI codes.

Everything here is **observe-only**: the hub never influences
scheduling, partitioning, the join's counters, or any output byte.  A
run with telemetry on is bit-identical (pairs and every counter) to a
run with it off — differential-tested across both engines, both
kernels, self and R-S joins.  Which task of a phase ran longest is
read off the trace afterwards (``repro trace-report``).
"""

from __future__ import annotations

import resource
import sys
import time
from typing import TextIO

from repro.obs.trace import Tracer

__all__ = ["ProgressView", "TelemetryHub"]

#: ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; dividing by
#: this gives kilobytes, so manifests agree across platforms
_MAXRSS_UNITS_PER_KB = 1024 if sys.platform == "darwin" else 1


def rusage_watermarks() -> dict[str, float]:
    """Self+children rusage totals for the run manifest.  Children
    count once reaped: close a pooled cluster first."""
    self_u = resource.getrusage(resource.RUSAGE_SELF)
    child_u = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "utime_s": round(self_u.ru_utime + child_u.ru_utime, 6),
        "stime_s": round(self_u.ru_stime + child_u.ru_stime, 6),
        "maxrss_kb": max(int(self_u.ru_maxrss), int(child_u.ru_maxrss))
        // _MAXRSS_UNITS_PER_KB,
    }


class _PhaseState:
    """Progress bookkeeping for one (job, phase)."""

    __slots__ = (
        "job", "phase", "total_tasks", "done_tasks", "records",
        "started", "finished",
    )

    def __init__(self, job: str, phase: str, total_tasks: int, now: float) -> None:
        self.job = job
        self.phase = phase
        self.total_tasks = total_tasks
        self.done_tasks = 0
        #: records credited by finished tasks
        self.records = 0
        self.started = now
        self.finished: float | None = None

    @property
    def key(self) -> str:
        return f"{self.job}/{self.phase}"

    def eta_s(self, now: float) -> float | None:
        """ETA from observed task throughput, None before any signal."""
        if self.done_tasks == 0 or self.total_tasks == 0:
            return None
        elapsed = now - self.started
        if elapsed <= 0:
            return None
        rate = self.done_tasks / elapsed
        return max(0.0, (self.total_tasks - self.done_tasks) / rate)


class TelemetryHub:
    """Driver-side collector of phase and task-completion events."""

    def __init__(
        self,
        view: "ProgressView | None" = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.view = view
        self.tracer = tracer
        self._phases: dict[str, _PhaseState] = {}
        #: phases started and tasks credited: the hub's own tallies,
        #: never written into the join's counters
        self.phases = 0
        self.tasks = 0

    # -- events from the engines -------------------------------------------

    def phase_started(self, job: str, phase: str, total_tasks: int) -> None:
        now = time.perf_counter()
        state = _PhaseState(job, phase, total_tasks, now)
        self._phases[state.key] = state
        self.phases += 1
        if self.tracer is not None:
            self.tracer.counter("telemetry.queue_depth", tasks=total_tasks)
        if self.view is not None:
            self.view.phase_update(state, now, live=False)

    def task_finished(self, job: str, phase: str, task: int, records: int = 0) -> None:
        now = time.perf_counter()
        state = self._phases.get(f"{job}/{phase}")
        if state is None:
            return
        self.tasks += 1
        state.done_tasks += 1
        state.records += records
        if self.tracer is not None:
            self.tracer.counter(
                "telemetry.queue_depth",
                tasks=float(max(0, state.total_tasks - state.done_tasks)),
            )
        if self.view is not None:
            self.view.phase_update(state, now, live=True)

    def phase_finished(self, job: str, phase: str) -> None:
        now = time.perf_counter()
        state = self._phases.get(f"{job}/{phase}")
        if state is None:
            return
        state.finished = now
        if self.view is not None:
            self.view.phase_done(state, now)

    # -- read side ----------------------------------------------------------

    def summary_line(self) -> str:
        """One greppable line for ``--progress`` / CI assertions: the
        tallies and the driver process's own RSS watermark as of this
        call (the workers' is in the manifest's ``rusage``)."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        return (
            f"telemetry: tasks={self.tasks} phases={self.phases} "
            f"maxrss_kb={int(own.ru_maxrss) // _MAXRSS_UNITS_PER_KB}"
        )

    def close(self) -> None:
        if self.view is not None:
            self.view.close()


class ProgressView:
    """Renders hub state to a stream; TTY-aware (see module docstring)."""

    def __init__(
        self,
        stream: TextIO | None = None,
        interval_s: float = 0.2,
        is_tty: bool | None = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if is_tty is None:
            is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.is_tty = is_tty
        #: minimum seconds between redraws (live updates only)
        self.interval_s = interval_s
        self._last_render = 0.0
        self._line_open = False

    # -- hub callbacks ------------------------------------------------------

    def phase_update(self, state: _PhaseState, now: float, *, live: bool) -> None:
        if live and now - self._last_render < self.interval_s:
            return
        self._last_render = now
        self._render(state, now, final=False)

    def phase_done(self, state: _PhaseState, now: float) -> None:
        self._render(state, now, final=True)

    def close(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # -- rendering ----------------------------------------------------------

    def _line(self, state: _PhaseState, now: float, final: bool) -> str:
        total = state.total_tasks
        done = state.done_tasks
        width = 16
        filled = int(width * done / total) if total else width
        bar = "#" * filled + "-" * (width - filled)
        records = state.records
        end = state.finished if final and state.finished is not None else now
        elapsed = max(1e-9, end - state.started)
        rate = records / elapsed
        parts = [
            f"{state.key:<24s} [{bar}] {done}/{total} tasks",
            f"{records} rec ({rate:,.0f}/s)",
        ]
        if final:
            parts.append(f"done in {elapsed:.2f}s")
        else:
            eta = state.eta_s(now)
            parts.append(f"eta {eta:.1f}s" if eta is not None else "eta ?")
        return "  ".join(parts)

    def _render(self, state: _PhaseState, now: float, final: bool) -> None:
        line = self._line(state, now, final)
        if self.is_tty:
            # redraw in place; a finished phase becomes a permanent line
            self.stream.write("\r\x1b[2K" + line)
            if final:
                self.stream.write("\n")
                self._line_open = False
            else:
                self._line_open = True
        else:
            # piped: plain rate-limited log lines, no ANSI
            self.stream.write("progress: " + line + "\n")
        self.stream.flush()


def make_progress_view(
    stream: TextIO | None = None, interval_s: float = 0.2
) -> ProgressView:
    """A :class:`ProgressView` on *stream* (stderr by default)."""
    return ProgressView(stream=stream, interval_s=interval_s)
