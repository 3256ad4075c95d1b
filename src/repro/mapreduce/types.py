"""Shared datatypes for the MapReduce runtime."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any


class InsufficientMemoryError(MemoryError):
    """A task exceeded its simulated per-task memory budget.

    Raised by :meth:`repro.mapreduce.job.Context.hold`;
    reproduces the paper's OPRJ out-of-memory failures (Sections 6.2,
    6.2.2) without exhausting real RAM.
    """

    def __init__(self, what: str, needed_bytes: int, limit_bytes: int) -> None:
        super().__init__(
            f"{what}: needs {needed_bytes} bytes, task budget is {limit_bytes}"
        )
        self.what = what
        self.needed_bytes = needed_bytes
        self.limit_bytes = limit_bytes
        self.job: str | None = None
        self.phase: str | None = None
        self.task: int | None = None
        self.attempt: int | None = None

    def with_context(
        self, job: str, phase: str, task: int, attempt: int
    ) -> "InsufficientMemoryError":
        """Attach the (job, phase, task, attempt) that hit the budget.

        Filled in by the retry layer of both engines the moment the
        error crosses a task boundary, so the final traceback (and the
        driver's replan decision) can name the offending attempt.
        Idempotent: the first context attached wins.
        """
        if self.job is None:
            self.job = job
            self.phase = phase
            self.task = task
            self.attempt = attempt
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if self.job is None:
            return base
        return (
            f"{base} [job {self.job!r} {self.phase} task {self.task} "
            f"attempt {self.attempt}]"
        )

    def __reduce__(self) -> tuple:
        # default exception pickling would re-call __init__ with the
        # formatted message only; rebuild from the real fields (and
        # restore the attached task context via the state dict) so the
        # error survives the trip back from a worker process
        return (
            type(self),
            (self.what, self.needed_bytes, self.limit_bytes),
            self.__dict__.copy(),
        )


def approx_bytes(obj: object) -> int:
    """Rough serialized size of a record, for byte accounting.

    Deliberately cheap and deterministic (not ``sys.getsizeof``, which
    varies across builds): strings count their length, numbers 8 bytes,
    containers sum their elements plus 8 bytes of framing each.

    Runs once per shuffled and per written record, so the common shapes
    are dispatched on their *exact* type and the scalar leaves of a
    tuple or list are sized in the loop that visits them.  Everything
    else — subclasses, sets, dicts, plain objects — goes through
    :func:`_approx_bytes_general`, the defining ``isinstance`` chain.
    An exact ``str`` is a ``str`` instance, so both give the same
    number; ``tests/test_mapreduce_core.py`` holds them equal.
    """
    value: Any = obj  # narrowed by the exact-type tests below
    kind = type(value)
    if kind is tuple or kind is list:
        total = 8
        for item in value:
            leaf = type(item)
            if leaf is int or leaf is float:
                total += 8
            elif leaf is str:
                total += len(item)
            elif leaf is array:
                total += 8 + 8 * len(item)
            else:
                total += approx_bytes(item)
        return total
    if kind is str or kind is bytes:
        return len(value)
    if kind is int or kind is float or kind is bool or value is None:
        return 8
    if kind is array:
        # same accounting as a tuple of numbers, so switching the token
        # wire format between tuple[int] and array('i') leaves shuffle
        # byte counts (and therefore simulated times) unchanged
        return 8 + 8 * len(value)
    return _approx_bytes_general(obj)


def _approx_bytes_general(obj: object) -> int:
    """:func:`approx_bytes` for any value: the ``isinstance`` chain that
    defines the sizes, taken by whatever is not exactly one of the
    built-in shapes above."""
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (int, float)) or obj is None:
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 8 + sum(approx_bytes(item) for item in obj)
    if isinstance(obj, array):
        return 8 + 8 * len(obj)
    if isinstance(obj, dict):
        return 8 + sum(
            approx_bytes(k) + approx_bytes(v) for k, v in obj.items()
        )
    # dataclass-ish fallback
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return 8 + sum(approx_bytes(v) for v in attrs.values())
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        return 8 + sum(approx_bytes(getattr(obj, name)) for name in slots)
    return 64


@dataclass
class TaskStats:
    """Measured work of one map or reduce task."""

    task_id: int
    cpu_seconds: float = 0.0
    input_records: int = 0
    output_records: int = 0
    output_bytes: int = 0
    peak_memory_bytes: int = 0
    #: map tasks only: approx shuffled bytes per non-empty partition,
    #: each pair counted as ``approx_bytes((key, value))``, so the sum
    #: is ``output_bytes + 8 * output_records``
    partition_bytes: dict[int, int] = field(default_factory=dict)


@dataclass
class ExecutorPhaseStats:
    """How one map or reduce phase was physically executed.

    Produced by the real-core executor (``repro.mapreduce.executor``);
    ``None`` on :class:`PhaseStats` means the phase ran on the plain
    sequential engine.  All byte figures use
    :func:`approx_bytes` accounting except the spill figures, which are
    real on-disk bytes.
    """

    #: ``"inline"`` (ran in the driver process) or ``"pool"``
    mode: str = "inline"
    #: worker pools this phase forked: 1 when it started the job's pool
    #: (or a fresh one after a dead worker broke it), else 0
    pools_created: int = 0
    workers: int = 0
    tasks: int = 0
    #: task chunks submitted to the pool (one ``submit`` each)
    chunks: int = 0
    #: approx bytes of task payloads crossing parent -> worker
    bytes_to_workers: int = 0
    #: approx bytes of results crossing worker -> parent
    bytes_from_workers: int = 0
    #: real bytes of intermediate (shuffle) data written to spill files
    spill_bytes_written: int = 0
    #: real bytes of spill data read back on the reduce side
    spill_bytes_read: int = 0
    #: wall-clock of the dispatch loop (parent perspective)
    wall_s: float = 0.0
    #: summed task CPU seconds (worker perspective)
    busy_s: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent in task CPU work (see
        :func:`utilization`); 0.0 for inline phases and empty pools."""
        if self.mode != "pool" or self.workers <= 0:
            return 0.0
        return utilization(self.busy_s, self.workers * self.wall_s)


def utilization(busy_s: float, capacity_s: float) -> float:
    """Executor utilisation: task CPU seconds over pool capacity
    (workers x dispatch wall), always within [0, 1].

    Degenerate clocks are clamped instead of silently zeroed: a
    capacity that rounded to ~0 under real CPU work reports 1.0 (fully
    busy for as long as it existed) and negative busy time never
    produces a negative ratio.
    """
    if capacity_s <= 1e-12:
        return 1.0 if busy_s > 0.0 else 0.0
    return min(1.0, max(0.0, busy_s / capacity_s))


#: Aggregate keys reported by ``executor_summary`` (stable, documented).
_EXECUTOR_SUM_FIELDS = (
    "tasks",
    "chunks",
    "bytes_to_workers",
    "bytes_from_workers",
    "spill_bytes_written",
    "spill_bytes_read",
)


def merge_executor_stats(
    summary: dict, phases: "list[ExecutorPhaseStats | None]"
) -> dict:
    """Fold per-phase executor stats into a summary dict (in place)."""
    summary.setdefault("pools_created", 0)
    summary.setdefault("pooled_phases", 0)
    summary.setdefault("inline_phases", 0)
    summary.setdefault("busy_s", 0.0)
    summary.setdefault("pool_wall_s", 0.0)
    summary.setdefault("pool_capacity_s", 0.0)
    for name in _EXECUTOR_SUM_FIELDS:
        summary.setdefault(name, 0)
    for ex in phases:
        if ex is None:
            continue
        if ex.mode == "pool":
            summary["pooled_phases"] += 1
            summary["pools_created"] += ex.pools_created
            summary["busy_s"] += ex.busy_s
            summary["pool_wall_s"] += ex.wall_s
            summary["pool_capacity_s"] += ex.workers * ex.wall_s
        else:
            summary["inline_phases"] += 1
        for name in _EXECUTOR_SUM_FIELDS:
            summary[name] += getattr(ex, name)
    return summary


@dataclass
class PhaseStats:
    """One MapReduce job execution: measured work plus simulated times.

    ``*_makespan_s`` and ``simulated_total_s`` are produced by the
    cluster's scheduler/cost model and are what the benchmarks report;
    the raw per-task measurements stay available for analysis.
    """

    job_name: str
    map_tasks: list[TaskStats] = field(default_factory=list)
    reduce_tasks: list[TaskStats] = field(default_factory=list)
    shuffle_bytes: int = 0
    map_makespan_s: float = 0.0
    shuffle_s: float = 0.0
    reduce_makespan_s: float = 0.0
    startup_s: float = 0.0
    simulated_total_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    #: how the phases were physically executed (None = sequential engine)
    map_executor: ExecutorPhaseStats | None = None
    reduce_executor: ExecutorPhaseStats | None = None

    @property
    def map_output_records(self) -> int:
        return sum(t.output_records for t in self.map_tasks)

    @property
    def reduce_output_records(self) -> int:
        return sum(t.output_records for t in self.reduce_tasks)


@dataclass
class JobStats:
    """Aggregate over the phases (jobs) of one logical stage/pipeline."""

    phases: list[PhaseStats] = field(default_factory=list)

    @property
    def simulated_total_s(self) -> float:
        return sum(p.simulated_total_s for p in self.phases)

    @property
    def shuffle_bytes(self) -> int:
        return sum(p.shuffle_bytes for p in self.phases)

    def counters(self) -> dict[str, int]:
        """Merged counters across phases, keys sorted for byte-stable
        reports."""
        merged: dict[str, int] = {}
        for phase in self.phases:
            for name, value in phase.counters.items():
                merged[name] = merged.get(name, 0) + value
        return dict(sorted(merged.items()))

    def extend(self, other: "JobStats") -> None:
        self.phases.extend(other.phases)
