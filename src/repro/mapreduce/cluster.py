"""Simulated shared-nothing cluster: execution engine + cost model.

:class:`SimulatedCluster` executes a :class:`MapReduceJob` with full
MapReduce semantics (one map task per DFS block, per-task combiners,
hash partitioning on the job's partition key, per-partition sort with
the job's sort key, grouping-comparator reduce calls with lazy value
iterators) while *measuring* the CPU work of every task.

Wall-clock is then *simulated*: tasks are packed onto
``num_nodes × slots`` using list scheduling, and the job time is

    startup + map_makespan + shuffle + reduce_makespan

with shuffle time proportional to shuffled bytes over aggregate
bisection bandwidth.  This keeps every cost driver the paper discusses
— single-reducer bottlenecks (BTO's sort phase, OPTO's lone reducer),
per-task constant overheads (OPRJ's broadcast load), reducer skew
(BRJ's RID-pair hot keys) — while running on one machine.

Task execution itself lives in the module-level functions
:func:`execute_map_task` / :func:`execute_reduce_task`, which are pure
with respect to the cluster (they take everything they need and return
results); :class:`repro.mapreduce.executor.PersistentParallelCluster`
reuses them across worker processes for real multi-core execution.

The paper's Hadoop configuration maps onto :class:`ClusterConfig`:
10 nodes, 4 map + 4 reduce slots per node, 128 MB blocks (scaled
down).  Failed task attempts are re-run on both engines, up to
``RetryPolicy.max_attempts`` — which is why MR functions must be
re-runnable (:mod:`repro.analysis.mrlint`); a slow task is never
duplicated, as in the paper's setup.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterator, TypeVar

from repro.mapreduce.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_BYTES,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    SHUFFLE_BYTES,
    Counters,
)
from repro.mapreduce.dfs import DFSBlock, InMemoryDFS
from repro.mapreduce.faults import (
    DEFAULT_RETRY_POLICY,
    FAULT_INJECTED,
    NON_RETRYABLE,
    TASK_RETRIES,
    FaultPlan,
    RetryPolicy,
    TaskError,
    run_attempt,
    task_error_from,
)
from repro.mapreduce.hashing import stable_hash
from repro.mapreduce.job import Broadcast, Context, MapReduceJob, _identity
from repro.mapreduce.types import (
    ExecutorPhaseStats,
    PhaseStats,
    TaskStats,
    approx_bytes,
)
from repro.obs.metrics import observe_into
from repro.obs.telemetry import TelemetryHub
from repro.obs.trace import Tracer, trace_span

_TaskResult = TypeVar("_TaskResult", bound=tuple)
#: one map task's ``(task_id, input_name, block)``
MapInput = tuple[int, str, DFSBlock]


@dataclass
class ClusterConfig:
    """Cluster topology and cost-model constants.

    Defaults mirror the paper's testbed shape (Section 6): N nodes,
    four map and four reduce slots each.  The time constants are
    calibrated for *shape* comparisons, not absolute seconds
    (see DESIGN.md §5b).
    """

    num_nodes: int = 10
    map_slots_per_node: int = 4
    reduce_slots_per_node: int = 4
    #: fixed cost to launch a job (master coordination, task dispatch)
    job_startup_s: float = 8.0
    #: fixed cost per task (process reuse, split opening)
    task_startup_s: float = 1.0
    #: aggregate shuffle bandwidth per node
    network_mb_per_s: float = 100.0
    #: local disk bandwidth per node (reduce output write)
    disk_mb_per_s: float = 200.0
    #: multiplier applied to measured Python CPU seconds.  Calibrated so
    #: that laptop-scale runs reproduce the paper's time *proportions*:
    #: the testbed processes ~1000x more records than our workloads and
    #: Hadoop executes per-record work much faster than CPython, so a
    #: measured CPU second here stands for ~2000 cluster CPU seconds.
    cpu_scale: float = 2000.0
    #: multiplier applied to byte counts (shuffle, output writes) — the
    #: byte-volume analogue of ``cpu_scale``.
    data_scale: float = 1000.0
    #: simulated per-task memory budget; None disables metering
    memory_per_task_mb: float | None = None

    @property
    def map_slots(self) -> int:
        return self.num_nodes * self.map_slots_per_node

    @property
    def reduce_slots(self) -> int:
        return self.num_nodes * self.reduce_slots_per_node

    @property
    def memory_per_task_bytes(self) -> int | None:
        if self.memory_per_task_mb is None:
            return None
        return int(self.memory_per_task_mb * 1024 * 1024)

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Copy of this config with a different node count (speedup and
        scaleup sweeps).  Uses :func:`dataclasses.replace` so every
        field — including ones added after this method was written —
        survives the copy."""
        return replace(self, num_nodes=num_nodes)


def _mode(executor_stats: ExecutorPhaseStats | None) -> dict[str, str]:
    """Phase-span attribute naming how the phase physically ran."""
    return {} if executor_stats is None else {"mode": executor_stats.mode}


def list_schedule(durations: list[float], num_slots: int) -> float:
    """Makespan of greedy FIFO list scheduling onto *num_slots* slots."""
    if not durations:
        return 0.0
    num_slots = max(1, num_slots)
    slots = [0.0] * min(num_slots, len(durations))
    heapq.heapify(slots)
    for duration in durations:
        finish = heapq.heappop(slots) + duration
        heapq.heappush(slots, finish)
    return max(slots)


# ---------------------------------------------------------------------------
# task execution (pure functions; shared with the parallel executor)
# ---------------------------------------------------------------------------


def execute_map_task(
    job: MapReduceJob,
    task_id: int,
    input_name: str,
    records: list,
    broadcast_data: dict[str, list],
    broadcast_bytes: int,
    broadcast_cpu: float,
    memory_limit_bytes: int | None,
    map_slots: int,
    *,
    tracer: Tracer | None = None,
    key_memo: dict | None = None,
) -> tuple[TaskStats, list[tuple[int, tuple, tuple]], dict[str, int]]:
    """Run one map task (+ combiner + partitioning).

    Returns ``(stats, partitioned, counters)`` where ``partitioned`` is
    a list of ``(partition_index, key, value)`` triples in emission
    order and ``counters`` is the task's counter snapshot.  When a
    *tracer* is attached, the task records a span — observe-only, the
    returned triple is identical either way.

    *key_memo* maps each key already seen to ``(partition, framed key
    bytes, canonical key)``.  The engines pass one dict to every task
    of a map phase in a process, so a key is partitioned and sized
    once per phase and every triple carries that key's one canonical
    object; omitted, the task gets a fresh dict.  The result is equal
    either way.
    """
    span = trace_span(tracer, f"map:{task_id}", "task", job=job.name, task=task_id)
    ctx = Context(
        Counters(), memory_limit_bytes=memory_limit_bytes, broadcast=broadcast_data
    )
    ctx.task_id = task_id
    ctx.input_file = input_name
    t0 = time.perf_counter()
    if broadcast_bytes:
        ctx.hold("broadcast (distributed cache)", broadcast_bytes)
    if job.map_setup is not None:
        job.map_setup(ctx)
    setup_cpu = time.perf_counter() - t0 - ctx.view_built_s
    record = None
    try:
        for record in records:
            job.mapper(record, ctx)
        if job.map_teardown is not None:
            job.map_teardown(ctx)
    except NON_RETRYABLE:
        raise
    except Exception as exc:
        raise task_error_from(
            job.name, "map", task_id, exc, key_sample=record
        ) from exc
    ctx.counters.increment(MAP_INPUT_RECORDS, len(records))
    ctx.counters.increment(MAP_OUTPUT_RECORDS, len(ctx._emitted))

    pairs = ctx._emitted
    if job.combiner is not None and pairs:
        pairs = _combine(job, ctx, pairs, memory_limit_bytes)

    partitioned = []
    # The one place shuffled data is sized: every pair once, totalled
    # per partition the way approx_bytes((key, value)) counts it — key
    # + value + 8 bytes of pair framing; the shuffle handles only add
    # these totals up.
    # Two hot-loop memos.  Keys repeat across records and across the
    # tasks of a phase (route x length is a small domain) and a key's
    # partition and size are pure functions of it, so *key_memo* holds
    # both, once per distinct key per map phase and process, with the
    # key object every later equal key is replaced by: the shuffle then
    # holds one object per distinct key.  Mappers that fan one record
    # out to several routes emit the *same* value object back-to-back,
    # so byte-account it once per object, not once per copy.
    if key_memo is None:
        key_memo = {}
    partition_bytes: dict[int, int] = {}
    last_value_id = 0
    last_value_bytes = 0
    num_reducers = job.num_reducers
    append = partitioned.append
    partition = job.partition
    for key, value in pairs:
        cached = key_memo.get(key)
        if cached is None:
            p = stable_hash(partition(key)) % num_reducers
            cached = key_memo[key] = (p, approx_bytes(key) + 8, key)
        p, framed_key_bytes, key = cached
        append((p, key, value))
        if id(value) != last_value_id:
            # a combiner's counts are ints: approx_bytes' 8, no call
            last_value_bytes = 8 if type(value) is int else approx_bytes(value)
            last_value_id = id(value)
        partition_bytes[p] = (
            partition_bytes.get(p, 0) + framed_key_bytes + last_value_bytes
        )
    output_bytes = sum(partition_bytes.values()) - 8 * len(pairs)
    # JVM reuse: the distributed-cache read, map_setup and the views
    # derived from the cache run once per slot, not once per task (see
    # SimulatedCluster._load_broadcast).  A view is built once per
    # process, so whichever task built it, each of the first map_slots
    # tasks bills its measured build and no later task does.
    cpu = time.perf_counter() - t0 - ctx.view_built_s
    if task_id >= map_slots:
        cpu -= setup_cpu
    else:
        cpu += broadcast_cpu + ctx.view_s

    ctx.counters.increment(MAP_OUTPUT_BYTES, output_bytes)
    if ctx.peak_memory_bytes:
        ctx.observe("memory.peak_bytes", ctx.peak_memory_bytes)
    stats = TaskStats(
        task_id=task_id,
        cpu_seconds=cpu,
        input_records=len(records),
        output_records=len(pairs),
        output_bytes=output_bytes,
        peak_memory_bytes=ctx.peak_memory_bytes,
        partition_bytes=partition_bytes,
    )
    span.set(
        input_records=len(records),
        output_records=len(pairs),
        output_bytes=output_bytes,
    )
    span.close()
    return stats, partitioned, ctx.counters.as_dict()


def _combine(
    job: MapReduceJob,
    map_ctx: Context,
    pairs: list[tuple],
    memory_limit_bytes: int | None,
) -> list[tuple]:
    """Run the local combiner over one map task's output."""
    assert job.combiner is not None
    grouped: dict = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    combine_ctx = Context(map_ctx.counters, memory_limit_bytes=memory_limit_bytes)
    combine_ctx.task_id = map_ctx.task_id
    for key, values in grouped.items():
        job.combiner(key, values, combine_ctx)
    map_ctx.counters.increment(COMBINE_INPUT_RECORDS, len(pairs))
    map_ctx.counters.increment(COMBINE_OUTPUT_RECORDS, len(combine_ctx._emitted))
    return combine_ctx._emitted


def execute_reduce_task(
    job: MapReduceJob,
    partition_index: int,
    bucket: list[tuple],
    memory_limit_bytes: int | None,
    *,
    tracer: Tracer | None = None,
) -> tuple[TaskStats, list, dict[str, int]]:
    """Run one reduce task over its partition's ``(key, value)`` list.

    Returns ``(stats, written_records, counters)``.  The sorted bucket
    is walked once; the group sizes that walk counts feed the
    group-size histogram and (when tracing) the per-task skew payload
    *after* the CPU clock stops, so neither shows up in the cost model.
    """
    span = trace_span(
        tracer, f"reduce:{partition_index}", "task",
        job=job.name, partition=partition_index,
    )
    ctx = Context(Counters(), memory_limit_bytes=memory_limit_bytes)
    ctx.task_id = partition_index
    t0 = time.perf_counter()
    bucket.sort(key=_of_key(job.sort_key))
    if job.reduce_setup is not None:
        job.reduce_setup(ctx)
    group_sizes: list[tuple[Any, int]] = []
    try:
        for group_key, group in groupby(bucket, key=_of_key(job.group_key)):
            ctx.current_key = group_key
            values = _value_iterator(group, group_key, group_sizes)
            job.reducer(group_key, values, ctx)
            for _ in values:  # drain whatever the reducer did not consume
                pass
        if job.reduce_teardown is not None:
            job.reduce_teardown(ctx)
    except NON_RETRYABLE:
        raise
    except Exception as exc:
        raise task_error_from(
            job.name, "reduce", partition_index, exc,
            key_sample=getattr(ctx, "current_key", None),
        ) from exc
    cpu = time.perf_counter() - t0

    # Observability bookkeeping: group-size histogram (always on; rides
    # the counter path) and, when tracing, the hottest groups for the
    # skew report.
    for _, size in group_sizes:
        ctx.observe("reduce.group_records", size)
    if tracer is not None:
        hot = sorted(group_sizes, key=lambda kv: (-kv[1], repr(kv[0])))[:5]
        span.set(top_groups=[(repr(key), size) for key, size in hot])
    if ctx.peak_memory_bytes:
        ctx.observe("memory.peak_bytes", ctx.peak_memory_bytes)

    ctx.counters.increment(REDUCE_INPUT_GROUPS, len(group_sizes))
    ctx.counters.increment(REDUCE_INPUT_RECORDS, len(bucket))
    ctx.counters.increment(REDUCE_OUTPUT_RECORDS, len(ctx._written))
    out_bytes = sum(approx_bytes(r) for r in ctx._written)
    stats = TaskStats(
        task_id=partition_index,
        cpu_seconds=cpu,
        input_records=len(bucket),
        output_records=len(ctx._written),
        output_bytes=out_bytes,
        peak_memory_bytes=ctx.peak_memory_bytes,
    )
    # Deterministic kernel-work proxy for the skew report: the join
    # kernels count every candidate they touch (pruned or surviving),
    # so the sum of non-framework counters tracks the scan/verify work
    # that actually sets task time.  Raw input records cannot serve —
    # a group's work grows with the square of its size, so one large
    # group outweighs the same records spread over many small ones.
    counter_snapshot = ctx.counters.as_dict()
    kernel_work = sum(
        count
        for name, count in counter_snapshot.items()
        if not name.startswith(("framework.", "hist."))
    )
    span.set(
        input_records=len(bucket),
        groups=len(group_sizes),
        output_records=len(ctx._written),
        kernel_work=kernel_work,
    )
    span.close()
    return stats, ctx._written, counter_snapshot


def _of_key(selector: Callable[[Any], Any]) -> Callable[[tuple], Any]:
    """*selector* (a job's ``sort_key``/``group_key``) lifted from keys
    to ``(key, value)`` pairs; the default selector costs no call."""
    if selector is _identity:
        return itemgetter(0)
    return lambda pair: selector(pair[0])


def _value_iterator(
    group: Iterator[tuple], group_key: Any, group_sizes: list
) -> Iterator:
    """Lazy values of one group; once drained, appends ``(group_key,
    size)`` to *group_sizes*."""
    size = 0
    for _key, value in group:
        size += 1
        yield value
    group_sizes.append((group_key, size))


# ---------------------------------------------------------------------------
# the cluster
# ---------------------------------------------------------------------------


class DriverShuffle:
    """One map phase's output held in driver memory — the sequential
    engine's shuffle handle.  The job loop only ever sees the five
    methods below; :class:`repro.mapreduce.executor.MapShuffle` offers
    the same five over spill files.

    Each partition is two parallel lists, keys and values, so a held
    pair costs two list slots and no ``(key, value)`` tuple of its own:
    the Stage-2 shuffle is the largest thing the driver holds, about
    3.2 pairs per input record.  :meth:`load` zips a partition back
    into pairs for its reduce task."""

    def __init__(self, num_reducers: int) -> None:
        self._keys: list[list] = [[] for _ in range(num_reducers)]
        self._values: list[list] = [[] for _ in range(num_reducers)]
        self._partition_bytes = [0] * num_reducers

    def add_task(
        self,
        partitioned: list[tuple[int, tuple, tuple]],
        partition_bytes: dict[int, int],
    ) -> None:
        """Route one map task's ``(partition, key, value)`` triples and
        add up their sizes, ``TaskStats.partition_bytes`` of that task."""
        keys, values = self._keys, self._values
        for p, key, value in partitioned:
            keys[p].append(key)
            values[p].append(value)
        for p, num_bytes in partition_bytes.items():
            self._partition_bytes[p] += num_bytes

    def partition_bytes(self) -> list[int]:
        """Approx shuffled bytes of every partition, empty ones
        included, as the map tasks sized them."""
        return self._partition_bytes

    def nonempty_partitions(self) -> list[int]:
        """The reduce task set, in index order."""
        return [p for p, keys in enumerate(self._keys) if keys]

    def load(self, partition: int) -> list[tuple]:
        """One partition's ``(key, value)`` pairs in map-task order."""
        return list(zip(self._keys[partition], self._values[partition]))

    def cleanup(self) -> None:
        """Nothing outlives the object."""


class TaskLedger:
    """What the parent books for one task across its attempts: the
    ``fault.*`` / ``task.*`` counters and their trace instants.

    A task's first attempt runs in the driver's retry loop
    (:meth:`SimulatedCluster._attempt_task`) or in a pool chunk, which
    settles the ledger itself on success and otherwise hands it, with
    the task, to that loop — where every retry runs.  What an attempt
    *is* both share through :func:`repro.mapreduce.faults.run_attempt`;
    the ledger is settled once, into the winning attempt's counters, so
    chaos bookkeeping rides the existing counter path.
    """

    def __init__(
        self, plan: FaultPlan | None, tracer: Tracer | None,
        job: str, phase: str, task: int,
    ) -> None:
        self._plan = plan
        self._tracer = tracer
        self._where = (job, phase, task)
        self._counters = Counters()

    def count(self, name: str, event: str | None = None, **args: Any) -> None:
        """Count *name* once; with *event*, mark it on the trace
        timeline too (*args* join the task's coordinates)."""
        self._counters.increment(name)
        if event is not None and self._tracer is not None:
            job, phase, task = self._where
            self._tracer.instant(
                event, "fault", job=job, phase=phase, task=task, **args
            )

    def note_fault(self, attempt: int) -> None:
        """Book the fault the plan schedules for *attempt*, if any,
        before the attempt is launched (wherever it will run)."""
        plan = self._plan
        spec = None if plan is None else plan.lookup(*self._where, attempt)
        if spec is not None:
            self.count(f"fault.{spec.kind}")
            self.count(
                FAULT_INJECTED, "fault-injected", attempt=attempt, kind=spec.kind
            )

    def note_retry(self, attempt: int) -> None:
        """Book that *attempt* re-runs a failed attempt."""
        self.count(TASK_RETRIES, "task-retry", attempt=attempt)

    def settle(self, result: tuple, attempt: int) -> None:
        """Fold the ledger into the counters of the winning *attempt*
        (the last element of every task result), with the attempt number
        in the ``task.attempts`` histogram when it was not the first."""
        if attempt > 0:
            self._counters.observe("task.attempts", attempt + 1)
        counters = result[-1]
        for name, value in self._counters:
            counters[name] = counters.get(name, 0) + value


class collector_paused:
    """Keep CPython's cyclic collector off for the length of a ``with``.

    The data path makes no reference cycle (records, keys and values
    are trees of scalars, ``array('i')`` and tuples), so a collection
    during a job frees nothing and re-scans the live shuffle heap
    (DESIGN.md §5).  Leaving re-enables the collector only if it was on
    at entry: a caller that keeps it off, or an enclosing pause, stays.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()


class SimulatedCluster:
    """Executes MapReduce jobs against a DFS under a cost model."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        dfs: InMemoryDFS | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.dfs = dfs or InMemoryDFS(num_nodes=self.config.num_nodes)
        #: attach a :class:`repro.obs.trace.Tracer` to record job,
        #: phase and task spans (observe-only; ``None`` = no tracing)
        self.tracer: Tracer | None = None
        #: attach a :class:`repro.obs.telemetry.TelemetryHub` to receive
        #: phase/task progress events (observe-only; ``None`` = no
        #: telemetry)
        self.telemetry: TelemetryHub | None = None
        #: deterministic fault-injection schedule (``None`` = no faults)
        self.fault_plan = fault_plan
        #: retry knobs; ``None`` = :data:`DEFAULT_RETRY_POLICY`
        self.retry_policy = retry_policy

    # -- public API ---------------------------------------------------------

    def close(self) -> None:
        """Release what the cluster holds outside the DFS (idempotent):
        nothing here, the spill files of a pooled one."""

    def run_job(self, job: MapReduceJob) -> PhaseStats:
        """Run one job; writes ``job.output`` to the DFS and returns stats.

        The only job loop: spans, telemetry phase events, shuffle
        accounting, the output write and the cost model happen here for
        every engine.  *How* a phase's tasks execute is asked of
        :meth:`_run_map_phase` / :meth:`_run_reduce_phase`, and where
        the map output sits in between is hidden behind the shuffle
        handle the map phase returns.
        """
        stats = PhaseStats(job_name=job.name)
        stats.startup_s = self.config.job_startup_s
        job_counters = Counters()
        hub = self.telemetry
        tracer = self.tracer

        with collector_paused(), trace_span(
            tracer, job.name, "job", reducers=job.num_reducers
        ) as job_span:
            broadcast = self._load_broadcast(job)
            map_inputs = self._collect_map_inputs(job)
            shuffle = None
            try:
                with trace_span(tracer, "map", "phase", job=job.name) as phase_span:
                    if hub is not None:
                        hub.phase_started(job.name, "map", len(map_inputs))
                    results, shuffle, stats.map_executor = self._run_map_phase(
                        job, map_inputs, broadcast
                    )
                    for task_stats, counters in results:
                        stats.map_tasks.append(task_stats)
                        job_counters.merge_dict(counters)
                    if hub is not None:
                        hub.phase_finished(job.name, "map")
                    phase_span.set(
                        tasks=len(stats.map_tasks), **_mode(stats.map_executor)
                    )

                with trace_span(tracer, "shuffle", "phase", job=job.name) as phase_span:
                    partition_bytes = shuffle.partition_bytes()
                    for bucket_bytes in partition_bytes:
                        stats.shuffle_bytes += bucket_bytes
                        observe_into(
                            job_counters.increment, "shuffle.partition_bytes",
                            bucket_bytes,
                        )
                    job_counters.increment(SHUFFLE_BYTES, stats.shuffle_bytes)
                    phase_span.set(
                        shuffle_bytes=stats.shuffle_bytes,
                        partitions=len(partition_bytes),
                    )

                partitions = shuffle.nonempty_partitions()
                output_records: list = []
                with trace_span(tracer, "reduce", "phase", job=job.name) as phase_span:
                    if hub is not None:
                        hub.phase_started(job.name, "reduce", len(partitions))
                    results, stats.reduce_executor = self._run_reduce_phase(
                        job, shuffle, partitions
                    )
                    for task_stats, written, counters in results:
                        stats.reduce_tasks.append(task_stats)
                        output_records.extend(written)
                        job_counters.merge_dict(counters)
                    if hub is not None:
                        hub.phase_finished(job.name, "reduce")
                    phase_span.set(
                        tasks=len(stats.reduce_tasks),
                        partitions=job.num_reducers,
                        **_mode(stats.reduce_executor),
                    )

                self.dfs.write(job.output, output_records)
            finally:
                if shuffle is not None:
                    shuffle.cleanup()
            stats.counters = job_counters.as_dict()
            self._simulate_times(stats)
            job_span.set(
                map_tasks=len(stats.map_tasks),
                reduce_tasks=len(stats.reduce_tasks),
                shuffle_bytes=stats.shuffle_bytes,
                simulated_total_s=round(stats.simulated_total_s, 3),
            )
        return stats

    def _collect_map_inputs(self, job: MapReduceJob) -> list[MapInput]:
        """One ``(task_id, input_name, block)`` triple per DFS block.  A
        task reads its block's ``records`` inside each of its attempts,
        so a map phase holds the input of its running tasks only (a
        :class:`~repro.mapreduce.dfs.LineBlock` or a disk block reads
        them from its file; an in-memory block holds them)."""
        map_inputs: list[MapInput] = []
        task_id = 0
        for input_name in job.inputs:
            for block in self.dfs.file(input_name).blocks:
                map_inputs.append((task_id, input_name, block))
                task_id += 1
        return map_inputs

    # -- phase runners (overridden by the parallel executor) --------------

    def _run_map_phase(
        self,
        job: MapReduceJob,
        map_inputs: list[MapInput],
        broadcast: tuple[dict[str, list], int, float],
    ) -> tuple[list[tuple[TaskStats, dict[str, int]]], DriverShuffle, None]:
        """Run every map task in the driver, in task order.

        Returns ``(task_results, shuffle, executor_stats)``:
        ``[(TaskStats, counters), ...]`` in task order, the handle now
        holding the partitioned output, and how the phase was physically
        executed (``None`` = this plain sequential engine).
        """
        slots = self.config.map_slots
        shuffle = DriverShuffle(job.num_reducers)
        # one key memo for the phase; it goes when the phase returns
        key_memo: dict = {}
        results = []
        for task_id, input_name, block in map_inputs:

            def run(
                limit: int | None,
                attempt: int,
                task_id: int = task_id,
                input_name: str = input_name,
                block: DFSBlock = block,
            ) -> tuple:
                return execute_map_task(
                    job, task_id, input_name, block.records, *broadcast, limit,
                    slots, tracer=self.tracer, key_memo=key_memo,
                )

            task_stats, partitioned, counters = self._attempt_task(
                job, "map", task_id, run
            )
            shuffle.add_task(partitioned, task_stats.partition_bytes)
            results.append((task_stats, counters))
        return results, shuffle, None

    def _run_reduce_phase(
        self, job: MapReduceJob, shuffle: DriverShuffle, partitions: list[int]
    ) -> tuple[list[tuple[TaskStats, list, dict[str, int]]], None]:
        """Run one reduce task per entry of *partitions* in the driver,
        loading each bucket from *shuffle*.  Returns ``([(TaskStats,
        written, counters), ...], executor_stats)`` in partition order."""
        results = []
        for partition in partitions:
            bucket = shuffle.load(partition)

            def run(
                limit: int | None,
                attempt: int,
                partition: int = partition,
                bucket: list = bucket,
            ) -> tuple:
                return execute_reduce_task(
                    job, partition, bucket, limit, tracer=self.tracer
                )

            results.append(self._attempt_task(job, "reduce", partition, run))
        return results, None

    def _attempt_task(
        self,
        job: MapReduceJob,
        phase: str,
        task_id: int,
        run: Callable[[int | None, int], _TaskResult],
        ledger: TaskLedger | None = None,
        attempt: int = 0,
        failure: TaskError | None = None,
    ) -> _TaskResult:
        """Run one task under the cluster's fault plan and retry policy —
        the one retry loop of both engines.

        ``run(memory_limit, attempt)`` executes one attempt
        (:func:`repro.mapreduce.faults.run_attempt` wraps it).  Injected
        faults and genuine failures are retried up to the policy's
        attempt budget; fault and retry tallies are merged into the
        winning attempt's counters.  Non-retryable errors (the simulated
        memory budget) propagate raw; an exhausted budget raises the
        last attempt's :class:`TaskError`.  A task whose first attempt
        ran on a pool comes with its *ledger* at ``attempt=1`` and that
        attempt's *failure*, or none when the attempt was lost with its
        worker: a lost attempt is not a retry.
        """
        plan, hub = self.fault_plan, self.telemetry
        policy = self.retry_policy or DEFAULT_RETRY_POLICY
        limit = self.config.memory_per_task_bytes
        where = (job.name, phase, task_id)
        if ledger is None:
            ledger = TaskLedger(plan, self.tracer, *where)
        while True:
            # past attempt 0, *failure* is the last attempt's error (none
            # when a pool lost that attempt with its worker)
            if attempt >= policy.max_attempts:
                try:
                    raise failure or TaskError(
                        *where, attempt=attempt - 1,
                        cause="attempt lost to a dead worker, retry budget spent",
                    )
                finally:
                    failure = None  # the error's traceback holds this frame
            if failure is not None:
                ledger.note_retry(attempt)
                failure = None
            ledger.note_fault(attempt)
            try:
                result = run_attempt(
                    plan, *where, attempt, limit, partial(run, attempt=attempt)
                )
            except TaskError as error:
                attempt, failure = attempt + 1, error
                continue
            ledger.settle(result, attempt)
            if hub is not None:
                hub.task_finished(*where, result[0].input_records)
            return result

    # -- broadcast (distributed cache) ------------------------------------

    def _load_broadcast(
        self, job: MapReduceJob
    ) -> tuple[Broadcast, int, float]:
        """Read broadcast files once.

        Memory for the loaded payload is charged to *every* map task
        (each task holds it).  Load *time* is charged once per map
        slot — the Hadoop JVM-reuse pattern where a static field caches
        the distributed-cache payload across the tasks of one executor.
        The per-slot charge is what keeps OPRJ's broadcast cost constant
        in the cluster size (its speedup limiter, Section 6.1.1) and
        growing with the data (its scaleup limiter, Section 6.1.2).
        The payload also carries the views tasks derive from it
        (:meth:`Context.view`), freed with it when the job ends.
        """
        broadcast_data = Broadcast()
        broadcast_bytes = 0
        t0 = time.perf_counter()
        for name in job.broadcast:
            records = self.dfs.read_all(name)
            broadcast_data[name] = records
            broadcast_bytes += sum(approx_bytes(r) for r in records)
        broadcast_cpu = time.perf_counter() - t0
        return broadcast_data, broadcast_bytes, broadcast_cpu

    # -- cost model ----------------------------------------------------------

    def _simulate_times(self, stats: PhaseStats) -> None:
        cfg = self.config
        map_durations = [
            cfg.task_startup_s + t.cpu_seconds * cfg.cpu_scale for t in stats.map_tasks
        ]
        reduce_durations = [
            cfg.task_startup_s
            + t.cpu_seconds * cfg.cpu_scale
            + t.output_bytes * cfg.data_scale / (cfg.disk_mb_per_s * 1e6)
            for t in stats.reduce_tasks
        ]
        stats.map_makespan_s = list_schedule(map_durations, cfg.map_slots)
        stats.reduce_makespan_s = list_schedule(reduce_durations, cfg.reduce_slots)
        stats.shuffle_s = stats.shuffle_bytes * cfg.data_scale / (
            cfg.network_mb_per_s * 1e6 * cfg.num_nodes
        )
        stats.simulated_total_s = (
            stats.startup_s
            + stats.map_makespan_s
            + stats.shuffle_s
            + stats.reduce_makespan_s
        )
