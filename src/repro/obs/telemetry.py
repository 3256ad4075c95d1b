"""Live task telemetry: heartbeats, resource profiling, progress view.

The trace/report stack (:mod:`repro.obs.trace`) explains a run *after*
it finishes; this module watches it *while it runs*.  Three pieces:

:class:`HeartbeatEmitter`
    Lives next to a running task (driver-inline or inside a pool
    worker).  ``advance()`` is called once per record (map) or group
    (reduce) and, at most every ``interval_s`` seconds, pushes one
    compact heartbeat tuple into a sink: task identity, records
    processed so far, and ``resource.getrusage`` deltas (utime, stime,
    maxrss).  The hot path is a single integer decrement — the clock
    is consulted only every :data:`_CHECK_EVERY` records.

:class:`TelemetryHub`
    Parent-side collector.  The engines report phase boundaries and
    task completions to it directly; worker heartbeats arrive over a
    ``multiprocessing`` queue drained by the executor's dispatch loop.
    The hub aggregates throughput/ETA per phase, flags stragglers by
    heartbeat staleness, exports memory/queue-depth counter lanes into
    the Chrome trace (when one is attached), accumulates ``telemetry.*``
    counters, and drives an optional :class:`ProgressView`.

:class:`ProgressView`
    ``--progress`` rendering.  On a TTY it redraws a single live bar
    line (carriage return + erase); on a pipe it degrades to periodic
    plain ``progress: ...`` log lines with no ANSI codes.  In the
    sequential engine there are no mid-phase heartbeats from other
    processes, so the view updates at phase boundaries only.

Everything here is **observe-only**: heartbeats never influence
scheduling, partitioning, counters that describe the workload, or any
output byte.  A run with telemetry on is bit-identical (pairs and
telemetry-stripped counters) to a run with it off — differential-tested
across both engines, both kernels, self and R-S joins.

One opt-in exception: constructing the hub with ``rss_cap_kb`` arms a
soft **RSS watchdog** on the maxrss heartbeat lane.  When a beat's
watermark crosses the cap, the hub latches the observation; the engines
poll :meth:`TelemetryHub.consume_pressure` between task attempts and
surface the trip as the *simulated* memory signal
(:class:`repro.mapreduce.types.InsufficientMemoryError`), which the
driver's degradation ladder absorbs — so a join under real memory
pressure degrades its plan instead of dying to the kernel OOM killer.
Output bytes are still untouched: the ladder replays the stage under a
plan that produces identical pairs.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Any, Callable, TextIO

from repro.mapreduce.faults import strip_counters
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "Heartbeat",
    "HeartbeatEmitter",
    "ProgressView",
    "TELEMETRY_COUNTER_PREFIXES",
    "TelemetryHub",
    "rusage_now",
    "strip_telemetry_counters",
]

#: counter-key prefixes produced only by the telemetry machinery —
#: excluded when differentially comparing telemetry-on versus
#: telemetry-off runs
TELEMETRY_COUNTER_PREFIXES = ("telemetry.",)

#: heartbeat wire format (a plain tuple: cheap to pickle over the queue)
#: (job, phase, task, pid, records, final, utime_s, stime_s, maxrss_kb, t)
Heartbeat = tuple[str, str, int, int, int, bool, float, float, int, float]

#: consult the clock only every this many advance() calls
_CHECK_EVERY = 32

#: a task is a straggler once its last heartbeat is this many emit
#: intervals old while the task is still unfinished
_STALE_INTERVALS = 5.0


def strip_telemetry_counters(counters: dict[str, int]) -> dict[str, int]:
    """Counters without telemetry bookkeeping keys — what must be
    identical between a telemetry-on and telemetry-off run."""
    return strip_counters(counters, TELEMETRY_COUNTER_PREFIXES)


def rusage_now() -> tuple[float, float, int]:
    """(utime_s, stime_s, maxrss_kb) of the calling process.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize
    to kilobytes so manifests and heartbeats agree across platforms.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    maxrss = int(usage.ru_maxrss)
    if sys.platform == "darwin":
        maxrss //= 1024
    return (usage.ru_utime, usage.ru_stime, maxrss)


def rusage_watermarks() -> dict[str, float]:
    """Self+children rusage totals for the run manifest."""
    self_u = resource.getrusage(resource.RUSAGE_SELF)
    child_u = resource.getrusage(resource.RUSAGE_CHILDREN)
    scale = 1024 if sys.platform == "darwin" else 1
    return {
        "utime_s": round(self_u.ru_utime + child_u.ru_utime, 6),
        "stime_s": round(self_u.ru_stime + child_u.ru_stime, 6),
        "maxrss_kb": max(int(self_u.ru_maxrss), int(child_u.ru_maxrss)) // scale,
    }


class HeartbeatEmitter:
    """Per-task heartbeat source; see the module docstring.

    ``sink`` is any ``(Heartbeat) -> None`` callable: the hub's
    :meth:`TelemetryHub.heartbeat` when the task runs inline in the
    driver, or ``queue.put`` inside a pool worker.
    """

    __slots__ = (
        "_sink", "_job", "_phase", "_task", "_pid",
        "_interval", "_records", "_countdown", "_deadline",
    )

    def __init__(
        self,
        sink: Callable[[Heartbeat], None],
        job: str,
        phase: str,
        task: int,
        interval_s: float,
    ) -> None:
        import os

        self._sink = sink
        self._job = job
        self._phase = phase
        self._task = task
        self._pid = os.getpid()
        self._interval = interval_s
        self._records = 0
        self._countdown = _CHECK_EVERY
        self._deadline = time.perf_counter() + interval_s

    def advance(self, count: int = 1) -> None:
        """Note *count* more records processed; maybe emit a beat."""
        self._records += count
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = _CHECK_EVERY
        now = time.perf_counter()
        if now >= self._deadline:
            self._deadline = now + self._interval
            self._emit(now, final=False)

    def finish(self, records: int | None = None) -> None:
        """Emit the task's final beat (always sent, even if early)."""
        if records is not None:
            self._records = records
        self._emit(time.perf_counter(), final=True)

    def _emit(self, now: float, *, final: bool) -> None:
        utime, stime, maxrss = rusage_now()
        self._sink(
            (
                self._job,
                self._phase,
                self._task,
                self._pid,
                self._records,
                final,
                utime,
                stime,
                maxrss,
                now,
            )
        )


class _PhaseState:
    """Progress bookkeeping for one (job, phase)."""

    __slots__ = (
        "job", "phase", "total_tasks", "done_tasks", "records",
        "started", "finished", "last_beat", "live_records",
        "stragglers",
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
        #: task -> (last beat wall time, records so far)
        self.last_beat: dict[int, tuple[float, int]] = {}
        #: in-flight record counts from live heartbeats
        self.live_records: dict[int, int] = {}
        #: tasks already flagged as stragglers (count once per task)
        self.stragglers: set[int] = set()

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
    """Parent-side collector of phase events and worker heartbeats."""

    def __init__(
        self,
        view: "ProgressView | None" = None,
        tracer: Tracer | None = None,
        interval_s: float = 0.2,
        rss_cap_kb: int | None = None,
    ) -> None:
        self.view = view
        self.tracer = tracer
        #: heartbeat emit interval handed to task emitters
        self.interval_s = interval_s
        #: beats older than this flag the task as a straggler
        self.stale_after_s = interval_s * _STALE_INTERVALS
        #: arm the soft RSS watchdog at this maxrss watermark
        #: (``None`` = observe-only, the default)
        self.rss_cap_kb = rss_cap_kb
        #: live mode: mid-phase heartbeats are expected (pooled phases);
        #: off → the view renders at phase boundaries only
        self._live = False
        self._phases: dict[str, _PhaseState] = {}
        self._active: _PhaseState | None = None
        self._metrics = MetricsRegistry()
        self._maxrss_kb = 0
        #: latched watchdog trip: (observed_kb, cap_kb) or None
        self._pressure: tuple[int, int] | None = None

    # -- wiring -------------------------------------------------------------

    def set_live(self, live: bool) -> None:
        """Enable/disable live (mid-phase heartbeat) rendering."""
        self._live = live

    def emitter_for(self, job: str, phase: str, task: int) -> HeartbeatEmitter:
        """An inline-path emitter feeding this hub directly."""
        return HeartbeatEmitter(self.heartbeat, job, phase, task, self.interval_s)

    # -- events from the engines -------------------------------------------

    def phase_started(self, job: str, phase: str, total_tasks: int) -> None:
        state = _PhaseState(job, phase, total_tasks, time.perf_counter())
        self._phases[state.key] = state
        self._active = state
        self._metrics.increment("telemetry.phases", 1)
        if self.tracer is not None:
            self.tracer.counter("telemetry.queue_depth", tasks=total_tasks)
        if self.view is not None:
            self.view.phase_update(state, time.perf_counter(), live=self._live)

    def heartbeat(self, beat: Heartbeat) -> None:
        job, phase, task, _pid, records, final, _ut, _st, maxrss_kb, _t = beat
        now = time.perf_counter()
        state = self._phases.get(f"{job}/{phase}")
        if state is None or state.finished is not None:
            return  # beat raced past its phase_finished; ignore
        self._metrics.increment("telemetry.heartbeats", 1)
        if maxrss_kb > self._maxrss_kb:
            self._maxrss_kb = maxrss_kb
        if (
            self.rss_cap_kb is not None
            and maxrss_kb > self.rss_cap_kb
            and self._pressure is None
        ):
            # latch once per trip, then ratchet the cap above the
            # observed watermark: ru_maxrss never goes back down, so a
            # static cap would re-trip forever and starve the ladder
            self._pressure = (maxrss_kb, self.rss_cap_kb)
            self._metrics.increment("telemetry.rss_pressure", 1)
            self.rss_cap_kb = maxrss_kb * 2
        state.last_beat[task] = (now, records)
        if not final:
            state.live_records[task] = records
        if self.tracer is not None:
            self.tracer.counter("telemetry.maxrss_kb", kb=float(maxrss_kb))
        if self.view is not None and self._live and not final:
            self._check_stragglers(state, now)
            self.view.phase_update(state, now, live=True)

    def task_finished(self, job: str, phase: str, task: int, records: int = 0) -> None:
        now = time.perf_counter()
        state = self._phases.get(f"{job}/{phase}")
        if state is None:
            return
        self._metrics.increment("telemetry.tasks", 1)
        state.done_tasks += 1
        state.records += records if records else state.live_records.get(task, 0)
        state.live_records.pop(task, None)
        state.last_beat[task] = (now, state.records)
        if self.tracer is not None:
            self.tracer.counter(
                "telemetry.queue_depth",
                tasks=float(max(0, state.total_tasks - state.done_tasks)),
            )
        if self.view is not None and self._live:
            self.view.phase_update(state, now, live=True)

    def phase_finished(self, job: str, phase: str) -> None:
        now = time.perf_counter()
        state = self._phases.get(f"{job}/{phase}")
        if state is None:
            return
        state.finished = now
        self._check_stragglers(state, now, closing=True)
        if self._active is state:
            self._active = None
        if self.view is not None:
            self.view.phase_done(state, now)

    # -- stragglers ---------------------------------------------------------

    def _check_stragglers(
        self, state: _PhaseState, now: float, closing: bool = False
    ) -> None:
        """Flag unfinished tasks whose last beat has gone stale.

        At phase close the check is skipped: every task completed, so
        silence just means the phase outran the heartbeat interval.
        """
        if closing:
            return
        for task, (seen, _records) in state.last_beat.items():
            if task in state.stragglers:
                continue
            if now - seen > self.stale_after_s:
                state.stragglers.add(task)
                self._metrics.increment("telemetry.stragglers", 1)

    # -- read side ----------------------------------------------------------

    def consume_pressure(self) -> tuple[int, int] | None:
        """Pop the latched RSS-watchdog trip, if any.

        Returns ``(observed_kb, cap_kb)`` once per trip; the engines
        poll this between task attempts and raise the simulated memory
        signal so the driver's degradation ladder takes over.
        """
        pressure = self._pressure
        self._pressure = None
        return pressure

    def counters(self) -> dict[str, int]:
        counters = self._metrics.counters()
        if self._maxrss_kb:
            counters["telemetry.maxrss_kb"] = self._maxrss_kb
        return counters

    def summary_line(self) -> str:
        """One greppable line for ``--stats`` / CI assertions."""
        counters = self.counters()
        return (
            "telemetry: "
            f"heartbeats={counters.get('telemetry.heartbeats', 0)} "
            f"tasks={counters.get('telemetry.tasks', 0)} "
            f"phases={counters.get('telemetry.phases', 0)} "
            f"maxrss_kb={counters.get('telemetry.maxrss_kb', 0)} "
            f"stragglers={counters.get('telemetry.stragglers', 0)}"
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
        records = state.records + sum(state.live_records.values())
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
        if state.stragglers:
            parts.append(f"stragglers={len(state.stragglers)}")
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
