"""Deterministic fault injection and the task-retry vocabulary.

The paper's pipeline ran on Hadoop and inherited its task-level fault
tolerance for free: failed task attempts are retried a bounded number
of times and dead TaskTrackers are blacklisted.  This module supplies
the *vocabulary* both engines use to reproduce that behaviour — and,
crucially, a way to test it deterministically.

A :class:`FaultPlan` is a seeded, fully explicit schedule of faults
keyed by ``(job, phase, task, attempt)``.  Running the same plan twice
injects exactly the same faults at exactly the same points, so chaos
tests can assert the hard invariant: any plan the retry budget can
absorb yields bit-identical join output versus a fault-free run.

Fault kinds (:data:`FAULT_KINDS`):

``raise``
    the attempt raises :class:`FaultInjected` before running.
``crash``
    the worker process hosting the attempt dies abruptly
    (``os._exit``); inline/sequential attempts raise
    :class:`WorkerCrashError` instead so the driver survives.
``corrupt``
    the attempt runs to completion but its output is declared corrupt
    (:class:`CorruptOutputError`) and discarded — models a bad disk or
    a poisoned pickle detected by checksum.
``sleep``
    the attempt stalls for ``sleep_s`` seconds first (straggler): on
    the pooled engine it finishes out of task order, which reassembly
    must survive.
``squeeze``
    the attempt runs under a lowered simulated memory budget of
    ``cap_mb`` megabytes (:func:`squeezed_limit`), deterministically
    forcing :class:`InsufficientMemoryError` on matched attempts so
    chaos tests can drive the driver's memory-degradation ladder
    mid-join.

What a fault does to one attempt, and how any failure of that attempt
is reported, is :func:`run_attempt` — the one definition both engines
run, in the driver or in a pool worker.  Retry budgets live in
:class:`RetryPolicy`; genuine task failures are wrapped in
:class:`TaskError` (job, phase, task, attempt, input key sample) so an
exhausted budget surfaces an actionable error, not a bare pool
traceback.  :data:`NON_RETRYABLE` exceptions (the simulated memory
budget) always propagate raw.
"""

from __future__ import annotations

import fnmatch
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.mapreduce.types import InsufficientMemoryError

_TaskResult = TypeVar("_TaskResult", bound=tuple)

__all__ = [
    "FAULT_KINDS",
    "FAULT_COUNTER_PREFIXES",
    "FAULT_INJECTED",
    "TASK_RETRIES",
    "TASK_LOST",
    "RESUME_STAGES_SKIPPED",
    "NON_RETRYABLE",
    "CorruptOutputError",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "TaskError",
    "WorkerCrashError",
    "apply_fault",
    "mark_worker_process",
    "run_attempt",
    "squeezed_limit",
    "strip_counters",
    "strip_fault_counters",
    "task_error_from",
]

#: recognized fault kinds (see module docstring)
FAULT_KINDS = ("raise", "crash", "corrupt", "sleep", "squeeze")

# -- counter names (merged into the winning attempt's task counters) -------
FAULT_INJECTED = "fault.injected"
TASK_RETRIES = "task.retries"
TASK_LOST = "task.lost"
RESUME_STAGES_SKIPPED = "resume.stages_skipped"

#: counter-key prefixes that only fault-tolerance machinery produces —
#: excluded when comparing a faulted run's counters against a clean run
#: ("memory." covers the driver's replan/escalation bookkeeping and the
#: per-task peak-footprint histogram, both of which legitimately differ
#: once a squeeze fault forces a degraded re-plan)
FAULT_COUNTER_PREFIXES = ("fault.", "task.", "resume.", "memory.")

#: exceptions the retry layer must never absorb: they describe the
#: *workload* (the simulated memory budget), not a transient failure,
#: and tests pin that they propagate raw with their fields intact
NON_RETRYABLE = (InsufficientMemoryError,)

#: True only inside pool worker processes (set by the pool initializer);
#: decides whether a ``crash`` fault may really ``os._exit``
_IN_WORKER = False


def mark_worker_process() -> None:
    """Flag this process as a pool worker (called by pool initializers);
    ``crash`` faults will then terminate the process for real."""
    global _IN_WORKER
    _IN_WORKER = True


# ---------------------------------------------------------------------------
# exceptions
# ---------------------------------------------------------------------------


class FaultInjected(RuntimeError):
    """An attempt failed because a ``raise`` fault matched it."""

    def __init__(self, job: str, phase: str, task: int, attempt: int) -> None:
        super().__init__(
            f"injected fault: job {job!r} {phase} task {task} attempt {attempt}"
        )

    def __reduce__(self) -> tuple:
        return (RuntimeError, (str(self),))


class WorkerCrashError(RuntimeError):
    """A ``crash`` fault hit an attempt running inline (no worker
    process to kill), or a lost attempt was charged to a dead worker."""


class CorruptOutputError(RuntimeError):
    """An attempt completed but its output was declared corrupt
    (``corrupt`` fault) and must be discarded and re-run."""

    def __init__(self, job: str, phase: str, task: int, attempt: int) -> None:
        super().__init__(
            f"corrupt output: job {job!r} {phase} task {task} attempt {attempt}"
        )

    def __reduce__(self) -> tuple:
        return (RuntimeError, (str(self),))


class TaskError(RuntimeError):
    """A task attempt failed; carries everything needed to act on it.

    ``cause`` is the textual rendering of the original exception (the
    exception object itself may not survive pickling back from a
    worker).  ``attempt`` is filled in by the retry layer.  The error
    raised after budget exhaustion is the *last* attempt's TaskError.
    """

    def __init__(
        self,
        job: str,
        phase: str,
        task: int,
        attempt: int = 0,
        key_sample: str | None = None,
        cause: str = "",
        retryable: bool = True,
    ) -> None:
        super().__init__(cause)
        self.job = job
        self.phase = phase
        self.task = task
        self.attempt = attempt
        self.key_sample = key_sample
        self.cause = cause
        self.retryable = retryable

    def __str__(self) -> str:
        where = (
            f"job {self.job!r} {self.phase} task {self.task} "
            f"attempt {self.attempt}"
        )
        sample = f" (input key sample: {self.key_sample})" if self.key_sample else ""
        return f"{where} failed: {self.cause}{sample}"

    def __reduce__(self) -> tuple:
        return (
            type(self),
            (
                self.job,
                self.phase,
                self.task,
                self.attempt,
                self.key_sample,
                self.cause,
                self.retryable,
            ),
        )


def task_error_from(
    job: str,
    phase: str,
    task: int,
    exc: BaseException,
    key_sample: object = None,
    attempt: int = 0,
) -> TaskError:
    """Wrap a genuine task exception, sampling the offending input key."""
    sample = None
    if key_sample is not None:
        text = repr(key_sample)
        sample = text if len(text) <= 120 else text[:117] + "..."
    return TaskError(
        job,
        phase,
        task,
        attempt,
        key_sample=sample,
        cause=f"{type(exc).__name__}: {exc}",
    )


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: which attempts it matches and what happens.

    ``job`` is an ``fnmatch`` pattern against the job name; ``task``
    and ``attempt`` are exact integers or ``"*"``.  Every coordinate
    left out is a wildcard.
    """

    kind: str
    job: str = "*"
    phase: str = "*"
    task: int | str = "*"
    attempt: int | str = "*"
    sleep_s: float = 0.05
    #: lowered simulated budget (megabytes) applied by ``squeeze``
    cap_mb: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.phase not in ("map", "reduce", "*"):
            raise ValueError(f"phase must be 'map', 'reduce' or '*', got {self.phase!r}")
        if self.kind == "squeeze" and self.cap_mb <= 0:
            raise ValueError(f"cap_mb must be > 0, got {self.cap_mb!r}")

    def matches(self, job: str, phase: str, task: int, attempt: int) -> bool:
        return (
            fnmatch.fnmatchcase(job, self.job)
            and self.phase in ("*", phase)
            and self.task in ("*", task)
            and self.attempt in ("*", attempt)
        )

    def compact(self) -> str:
        """The ``kind:job:phase:task:attempt[:sleep_s|cap_mb]`` form."""
        parts = [self.kind, self.job, self.phase, str(self.task), str(self.attempt)]
        if self.kind == "sleep":
            parts.append(repr(self.sleep_s))
        elif self.kind == "squeeze":
            parts.append(repr(self.cap_mb))
        return ":".join(parts)


def _parse_int_or_star(text: str, what: str) -> int | str:
    if text == "*":
        return "*"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer or '*', got {text!r}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` rules (first match wins).

    Plans are immutable and picklable, so one plan object travels to
    pool workers inside chunk payloads and every attempt — parent or
    worker side — consults the same schedule.
    """

    specs: tuple[FaultSpec, ...] = ()

    def lookup(self, job: str, phase: str, task: int, attempt: int) -> FaultSpec | None:
        """The first spec matching this attempt, or None."""
        for spec in self.specs:
            if spec.matches(job, phase, task, attempt):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- parsing -----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact CLI form: ``;``-separated
        ``kind:job:phase:task:attempt[:sleep_s|cap_mb]`` items
        (e.g. ``crash:*:map:1:0;sleep:stage2-*:reduce:*:0:0.3`` or
        ``squeeze:stage2-*:reduce:*:0:0.02``).  The trailing float is
        ``sleep_s`` for ``sleep`` faults and ``cap_mb`` for ``squeeze``
        faults."""
        specs: list[FaultSpec] = []
        for item in text.replace("\n", ";").split(";"):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if not 2 <= len(parts) <= 6:
                raise ValueError(
                    f"bad fault spec {item!r}: expected "
                    "kind:job[:phase[:task[:attempt[:sleep_s|cap_mb]]]]"
                )
            parts += ["*"] * (5 - len(parts)) if len(parts) < 5 else []
            kind, job, phase, task, attempt = parts[:5]
            extras: dict = {}
            if len(parts) == 6:
                if kind == "squeeze":
                    extras["cap_mb"] = float(parts[5])
                else:
                    extras["sleep_s"] = float(parts[5])
            specs.append(
                FaultSpec(
                    kind=kind,
                    job=job,
                    phase=phase,
                    task=_parse_int_or_star(task, "task"),
                    attempt=_parse_int_or_star(attempt, "attempt"),
                    **extras,
                )
            )
        return cls(tuple(specs))

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        num_faults: int = 3,
        kinds: tuple[str, ...] = ("raise", "crash", "corrupt", "sleep"),
        max_task: int = 4,
        sleep_s: float = 0.02,
    ) -> "FaultPlan":
        """A seeded, *absorbable* plan: every fault targets attempt 0
        only, so a retry budget of two attempts already survives it.
        Same seed, same plan — the differential chaos tests sweep
        seeds and assert output identity.  ``squeeze`` is excluded by
        default: memory pressure is absorbed by the driver's replan
        ladder, not by the task-retry budget."""
        rng = random.Random(seed)
        specs = tuple(
            FaultSpec(
                kind=rng.choice(kinds),
                job="*",
                phase=rng.choice(("map", "reduce")),
                task=rng.randrange(max_task),
                attempt=0,
                sleep_s=sleep_s,
            )
            for _ in range(num_faults)
        )
        return cls(specs)


# ---------------------------------------------------------------------------
# applying faults
# ---------------------------------------------------------------------------


def apply_fault(spec: FaultSpec, job: str, phase: str, task: int, attempt: int) -> None:
    """Apply the pre-task effect of *spec* to the current attempt.

    ``corrupt`` has no pre-task effect: :func:`run_attempt` runs the
    task and raises :class:`CorruptOutputError` afterwards, discarding
    the output.  ``crash`` kills the process only inside pool workers;
    inline attempts raise :class:`WorkerCrashError` so the driver
    process survives and treats it as any retryable failure.
    ``squeeze`` also has no pre-task effect here: :func:`run_attempt`
    lowers the attempt's memory budget via :func:`squeezed_limit`.
    """
    if spec.kind == "sleep":
        time.sleep(spec.sleep_s)
    elif spec.kind == "raise":
        raise FaultInjected(job, phase, task, attempt)
    elif spec.kind == "crash":
        if _IN_WORKER:
            os._exit(3)
        raise WorkerCrashError(
            f"injected worker crash: job {job!r} {phase} task {task} "
            f"attempt {attempt}"
        )


def squeezed_limit(spec: FaultSpec | None, limit_bytes: int | None) -> int | None:
    """The effective memory budget for an attempt under *spec*.

    Non-``squeeze`` specs (and no spec at all) leave the limit alone.
    A ``squeeze`` spec lowers it to ``cap_mb`` — or installs that cap
    outright when the task had no budget, so squeeze faults also bite
    on clusters configured without ``memory_per_task_mb``.
    """
    if spec is None or spec.kind != "squeeze":
        return limit_bytes
    cap = max(1, int(spec.cap_mb * 1024 * 1024))
    if limit_bytes is None:
        return cap
    return min(limit_bytes, cap)


def run_attempt(
    plan: FaultPlan | None,
    job: str,
    phase: str,
    task: int,
    attempt: int,
    limit_bytes: int | None,
    run: Callable[[int | None], _TaskResult],
) -> _TaskResult:
    """Run one attempt of one task under *plan* — the attempt contract
    of both engines.

    Looks the attempt up in the plan, applies the fault's pre-task
    effect (:func:`apply_fault`), calls ``run(memory_limit)`` under the
    possibly squeezed budget (:func:`squeezed_limit`) and discards the
    result of a ``corrupt`` attempt.  Every failure leaves as one of two
    things: a :data:`NON_RETRYABLE` error, raw but annotated with the
    attempt, or a :class:`TaskError` carrying the attempt number — what
    the retry loop catches.
    """
    spec = None if plan is None else plan.lookup(job, phase, task, attempt)
    try:
        if spec is not None:
            apply_fault(spec, job, phase, task, attempt)
        result = run(squeezed_limit(spec, limit_bytes))
        if spec is not None and spec.kind == "corrupt":
            # a map attempt's spill file goes with the phase directory
            raise CorruptOutputError(job, phase, task, attempt)
        return result
    except NON_RETRYABLE as exc:
        # the raw error names the attempt that hit the budget by the
        # time the driver (or the user) sees it
        exc.with_context(job, phase, task, attempt)
        raise
    except TaskError as error:
        error.attempt = attempt
        raise
    except Exception as exc:
        # raised without a local name: a name in this frame would hold the
        # error, whose traceback holds this frame — a cycle per attempt
        raise task_error_from(job, phase, task, exc, attempt=attempt) from exc


def strip_counters(
    counters: dict[str, int], prefixes: tuple[str, ...]
) -> dict[str, int]:
    """Counters without any key under *prefixes* (or their ``hist.``
    histogram-encoded variants) — the shared helper behind the fault
    and sanitizer differential comparisons."""
    excluded = prefixes + tuple(f"hist.{prefix}" for prefix in prefixes)
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(excluded)
    }


def strip_fault_counters(counters: dict[str, int]) -> dict[str, int]:
    """Counters without fault-tolerance bookkeeping keys — what must be
    identical between a faulted (absorbed) run and a clean run."""
    return strip_counters(counters, FAULT_COUNTER_PREFIXES)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs shared by both engines.
    Retries are immediate: attempts are deterministic, so waiting before
    one changes nothing it could observe."""

    #: total attempts per task (first run + retries)
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


DEFAULT_RETRY_POLICY = RetryPolicy()
