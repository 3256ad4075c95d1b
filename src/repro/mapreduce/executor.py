"""Pooled multi-core execution engine.

Forking a fresh process pool for every map and reduce phase makes a
three-stage BTO-PK-BRJ pipeline (five MapReduce jobs) pay pool startup
up to ten times, and sends every intermediate ``(key, value)`` pair
across two pickle boundaries: worker → parent after the map phase and
parent → worker again for the reduce phase.

This module pays the first cost once per job and the second never:

* :class:`PersistentParallelCluster` forks **one pool per job** whose
  map phase pools, the way Hadoop reuses a task JVM across the tasks
  of one job, and reuses it for that job's reduce phase.  Jobs carry
  closures (mappers capture the :class:`~repro.join.config.JoinConfig`,
  reducers capture kernels) and cannot be pickled, so the job, its map
  inputs' blocks and its loaded broadcast are the pool initializer's
  arguments — with the ``fork`` start method those are inherited
  through process memory, never pickled.  A map task's dispatch entry
  is then just its id, and the worker reads the task's block itself.
  The pool is shut down when ``run_job`` returns or raises, so no
  job's state outlives it.  The pool runs each task's first attempt
  only; every retry runs in the driver.

* A **zero-repickle shuffle path**: map workers serialize their
  partition buckets exactly once (one pickle blob per partition) into
  one spill file per task attempt and return only small summaries
  (stats, counters, per-partition offsets and byte counts).
  Reduce workers read their partition's bytes straight from those
  files; the parent only routes ``(path, offset, length)`` references.
  The spill directory is created under ``/dev/shm`` when that is
  writable, so the files are RAM-backed tmpfs pages with an ordinary
  file lifecycle: each phase's directory is removed by the shuffle
  handle's ``cleanup()`` (also on phase failure), and the cluster's
  ``close()`` / finalizer removes the whole spill root.

The pool is a :class:`concurrent.futures.ProcessPoolExecutor` on the
``fork`` context, and it is what notices a dead worker: the death fails
every in-flight chunk with :class:`BrokenProcessPool` and kills the
surviving workers, whose queue locks may be left dirty.  Scheduling is
chunked ``submit``: contiguous task chunks go to whichever worker is
free, and results are reassembled in task order before anything is
merged, so partition contents, reduce input order and therefore all
outputs are **byte-identical** to
:class:`~repro.mapreduce.cluster.SimulatedCluster` (asserted by the
determinism test suite).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import traceback
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Callable

from repro.analysis.sanitize import env_sanitize
from repro.mapreduce.cluster import (
    ClusterConfig,
    MapInput,
    SimulatedCluster,
    TaskLedger,
    collector_paused,
    execute_map_task,
    execute_reduce_task,
)
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import (
    NON_RETRYABLE,
    TASK_LOST,
    FaultPlan,
    RetryPolicy,
    TaskError,
    mark_worker_process,
    run_attempt,
    task_error_from,
)
from repro.mapreduce.job import Broadcast, MapReduceJob
from repro.mapreduce.types import ExecutorPhaseStats, PhaseStats, approx_bytes
from repro.obs.trace import Tracer, trace_span

_PICKLE = pickle.HIGHEST_PROTOCOL

#: RAM-backed (tmpfs) directory preferred for the transient shuffle
#: spill files; the system temp directory serves when it is missing
_SHM_DIR = "/dev/shm"

#: chunks a phase's tasks are cut into, per worker: 2 lets a worker that
#: drew a light chunk pick up a second one, while keeping the per-chunk
#: dispatch cost (one pickle round trip) a small share of the phase
_CHUNKS_PER_WORKER = 2

#: bytes a dispatch entry is counted as sending a worker: one map task's
#: id, or one reduce segment's ``(path, offset, length)`` reference
_ENTRY_BYTES = 24

#: fewest tasks a phase needs to be pooled; below it the dispatch round
#: trip costs more than the second core earns
MIN_TASKS_FOR_POOL = 4

#: fewest effective cores for a phase to be pooled: on one core the
#: workers merely time-slice it, so pooling only adds pickling and
#: context switches
MIN_CORES_FOR_POOL = 2


def _effective_cores() -> int:
    """Cores actually available to this process (affinity-aware where
    the platform exposes it)."""
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        return getter() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
# These globals exist only inside worker processes; the parent never
# reads or assigns them.  They are populated by the pool initializer,
# whose arguments are fork-inherited (not pickled), which is what allows
# them to hold the job's closures, its map inputs' blocks and its
# broadcast.

_W_JOB: MapReduceJob | None = None
#: the job's ``(task_id, input_name, block)`` triples, by task id
_W_INPUTS: list[MapInput] = []
#: the job's loaded distributed cache: ``(payload, bytes, load seconds)``
_W_BROADCAST: tuple[Broadcast, int, float] = (Broadcast(), 0, 0.0)
#: the ``key_memo`` of this worker's map tasks (one map phase per pool)
_W_KEY_MEMO: dict = {}


def _worker_init(
    job: MapReduceJob,
    map_inputs: list[MapInput],
    broadcast: tuple[Broadcast, int, float],
) -> None:
    global _W_JOB, _W_INPUTS, _W_BROADCAST, _W_KEY_MEMO
    _W_JOB, _W_INPUTS, _W_BROADCAST = job, map_inputs, broadcast
    _W_KEY_MEMO = {}
    # lets 'crash' faults really kill the process; in the driver a crash
    # fault raises instead
    mark_worker_process()
    # entered and never left: a worker runs nothing but tasks and exits
    # with the pool
    collector_paused().__enter__()


#: partition -> (offset, length) of its pickle blob in the spill file
Segments = dict[int, tuple[int, int]]
#: one reduce-side segment reference: (spill path, offset, length) —
#: the only thing the parent ever routes
SegmentRef = tuple[str, int, int]


def _serialize_buckets(
    partitioned: list, num_reducers: int
) -> tuple[Segments, list[bytes]]:
    """Partition and serialize one map task's output exactly once.

    Each non-empty bucket becomes one pickle blob, laid out back to
    back.  Returns ``(segments, blobs)`` where ``blobs`` is what to
    write to the spill file, in order.
    """
    buckets: list[list] = [[] for _ in range(num_reducers)]
    for p, key, value in partitioned:
        buckets[p].append((key, value))
    segments: Segments = {}
    blobs: list[bytes] = []
    offset = 0
    for p, bucket in enumerate(buckets):
        if not bucket:
            continue
        blob = pickle.dumps(bucket, _PICKLE)
        blobs.append(blob)
        segments[p] = (offset, len(blob))
        offset += len(blob)
    return segments, blobs


def _spill_map_output(
    phase_dir: str, stem: str, partitioned: list, num_reducers: int
) -> tuple[str, Segments]:
    """Write one map task's partitioned output to its spill file.

    ``stem`` names the attempt (``m<task>a<attempt>``) so a retry in
    the driver never reopens the file of an attempt that was lost with
    its worker.
    Returns ``(path, segments)``; the path is ``""`` for a task that
    emitted nothing.
    """
    segments, blobs = _serialize_buckets(partitioned, num_reducers)
    if not segments:
        return "", segments
    os.makedirs(phase_dir, exist_ok=True)
    path = os.path.join(phase_dir, f"{stem}.spill")
    with open(path, "wb") as handle:
        handle.writelines(blobs)
    return path, segments


def _read_segments(refs: list[SegmentRef]) -> list:
    """Concatenate shuffle segments (given in map-task order) into one
    reduce bucket."""
    bucket: list = []
    for path, offset, length in refs:
        with open(path, "rb") as handle:
            handle.seek(offset)
            bucket.extend(pickle.loads(handle.read(length)))
    return bucket


def _map_attempt(
    job: MapReduceJob, task_id: int, attempt: int, limit: int | None,
    tracer: Tracer | None, phase_args: tuple, input_name: str, records: list,
    broadcast: tuple[Broadcast, int, float], key_memo: dict,
) -> tuple:
    """One map attempt, in a worker or in the driver: run the task,
    spill its partitioned output.  Returns ``(stats, path, segments,
    counters)`` — the shuffled bytes ride in ``stats.partition_bytes``,
    and the counters come last, as in every task result."""
    phase_dir, map_slots = phase_args
    stats, partitioned, counters = execute_map_task(
        job, task_id, input_name, records, *broadcast, limit, map_slots,
        tracer=tracer, key_memo=key_memo,
    )
    path, segments = _spill_map_output(
        phase_dir, f"m{task_id}a{attempt}", partitioned, job.num_reducers
    )
    return stats, path, segments, counters


def _map_in_worker(
    job: MapReduceJob, task_id: int, attempt: int, limit: int | None,
    tracer: Tracer | None, phase_args: tuple,
) -> tuple:
    """A worker's map attempt over the block it reads and the broadcast
    it inherited from the driver when it forked."""
    _task_id, input_name, block = _W_INPUTS[task_id]
    return _map_attempt(
        job, task_id, attempt, limit, tracer, phase_args, input_name,
        block.records, _W_BROADCAST, _W_KEY_MEMO,
    )


def _reduce_attempt(
    job: MapReduceJob, partition: int, attempt: int, limit: int | None,
    tracer: Tracer | None, phase_args: tuple, refs: list[SegmentRef],
) -> tuple:
    """One reduce attempt over its partition's spill-file segments."""
    return execute_reduce_task(
        job, partition, _read_segments(refs), limit, tracer=tracer
    )


_ATTEMPT = {"map": _map_in_worker, "reduce": _reduce_attempt}


def _run_chunk(args: tuple) -> tuple:
    """Run the first attempt of each task of one chunk of one phase.

    Each entry of *tasks* is ``(task_id, *payload)`` — the payload is
    empty for a map task (the worker inherited its input's block),
    ``(segment_refs,)`` for a reduce task.  Per-task failures never
    poison the chunk: the return value separates successful attempts
    (``oks``) from failed ones (``errs``), each tagged with its task
    id, so the parent's dispatch loop can act per task.
    """
    chunk_index, phase, common, phase_args, tasks = args
    memory_limit, trace, plan = common
    job = _W_JOB
    assert job is not None
    attempt_fn = _ATTEMPT[phase]
    # When the parent traces, each chunk records its task spans into a
    # worker-local tracer whose raw events ride back with the results
    # (perf_counter is CLOCK_MONOTONIC, shared across the fork).
    tracer = Tracer() if trace else None
    oks: list[tuple[int, tuple]] = []
    errs: list[tuple[int, BaseException]] = []
    for task_id, *payload in tasks:

        def run(limit: int | None) -> tuple:
            return attempt_fn(job, task_id, 0, limit, tracer, phase_args, *payload)

        try:
            oks.append((
                task_id,
                run_attempt(plan, job.name, phase, task_id, 0, memory_limit, run),
            ))
        except (TaskError, *NON_RETRYABLE) as error:
            errs.append((task_id, error))
    events = tracer.raw_events() if tracer is not None else []
    return chunk_index, oks, errs, events


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class MapShuffle:
    """Parent-side handle to one pooled map phase's shuffle output —
    the spill-file counterpart of
    :class:`~repro.mapreduce.cluster.DriverShuffle`, same five methods.

    Holds only segment references and byte counts — never the
    intermediate data itself.  Owns the phase's spill directory:
    :meth:`cleanup` removes it whole, which also reclaims files written
    by attempts whose results never came back (lost to a crashed
    worker).
    """

    def __init__(self, num_reducers: int, phase_dir: str) -> None:
        self.num_reducers = num_reducers
        self._phase_dir = phase_dir
        #: (spill path, segments) per map task, in task order
        self._tasks: list[tuple[str, Segments]] = []
        self._part_bytes: dict[int, int] = {}
        #: real bytes written to spill files
        self.spilled_bytes = 0

    def add_task(
        self, path: str, segments: Segments, partition_bytes: dict[int, int]
    ) -> None:
        """Record one map task's spill file and add up its shuffled
        bytes, ``TaskStats.partition_bytes`` of that task."""
        self._tasks.append((path, segments))
        self.spilled_bytes += sum(length for _off, length in segments.values())
        for p, num_bytes in partition_bytes.items():
            self._part_bytes[p] = self._part_bytes.get(p, 0) + num_bytes

    def partition_bytes(self) -> list[int]:
        """Approx shuffled bytes of every partition, empty ones
        included, as the map workers sized them."""
        return [self._part_bytes.get(p, 0) for p in range(self.num_reducers)]

    def nonempty_partitions(self) -> list[int]:
        """Partitions with at least one pair, in index order — the same
        reduce task set and order as the sequential engine."""
        return sorted(self._part_bytes)

    def refs_for(self, partition: int) -> list[SegmentRef]:
        """Shuffle segment references of one partition, in map-task
        order."""
        refs: list[SegmentRef] = []
        for path, segments in self._tasks:
            segment = segments.get(partition)
            if segment is not None:
                refs.append((path, *segment))
        return refs

    def segment_bytes(self, partition: int) -> int:
        """Spill-file bytes of *partition* (what loading it reads)."""
        return sum(length for _path, _off, length in self.refs_for(partition))

    def load(self, partition: int) -> list:
        """Read one partition's bucket in the driver (inline reduce)."""
        return _read_segments(self.refs_for(partition))

    def cleanup(self) -> None:
        shutil.rmtree(self._phase_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the cluster
# ---------------------------------------------------------------------------


class PersistentParallelCluster(SimulatedCluster):
    """A :class:`SimulatedCluster` running on a worker pool per job.

    Semantics, stats and outputs are byte-identical to the sequential
    engine; only the physical execution differs: the job loop is the
    inherited :meth:`SimulatedCluster.run_job`, and this class overrides
    just its two phase runners (pool when ``_use_*_pool`` says so, else
    the inherited in-driver runner).  ``workers`` defaults to the cores
    this process may run on; phases with fewer tasks than
    :data:`MIN_TASKS_FOR_POOL` run inline, where forking never pays.

    Pooling is also gated on the *effective core count*: below
    :data:`MIN_CORES_FOR_POOL` worker processes merely time-slice one
    core, so every phase runs inline and the engine degrades gracefully
    to (almost) sequential cost.

    Life cycle of the pool: a job whose map phase pools forks it at the
    start of that phase, handing the workers the job, its map inputs'
    blocks and its loaded broadcast; the job's reduce phase reuses it, or
    forks a fresh one when a dead worker broke it, and it is shut down
    when :meth:`run_job` returns or raises.  A job whose map phase runs
    inline forks nothing.

    Use as a context manager (or call :meth:`close`) to remove the
    spill root eagerly; a finalizer covers the rest.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        dfs: InMemoryDFS | None = None,
        workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            config, dfs, fault_plan=fault_plan, retry_policy=retry_policy
        )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "PersistentParallelCluster requires the 'fork' start method; "
                "use SimulatedCluster on this platform"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or _effective_cores()
        self._pool: ProcessPoolExecutor | None = None
        #: the running job's ``(job, map_inputs, broadcast)``, which a
        #: pool forked for it hands its workers
        self._initargs: tuple | None = None
        self._spill_root: str | None = None
        #: removes the spill root once: on close(), else when this
        #: cluster is collected or the interpreter exits (after
        #: concurrent.futures has stopped the workers)
        self._remove_spill_root: weakref.finalize | None = None
        self._phase_seq = 0

    # -- life cycle -------------------------------------------------------

    def run_job(self, job: MapReduceJob) -> PhaseStats:
        """The inherited job loop; the pool its map phase may fork, and
        the job state handed to it, end with the job."""
        try:
            return super().run_job(job)
        finally:
            self._shutdown_pool()
            self._initargs = None

    def _ensure_pool(self) -> bool:
        """Start the running job's pool if absent; returns True when it
        did.  The workers fork on the pool's first ``submit``."""
        if self._pool is not None:
            return False
        if self._spill_root is None:
            # prefer a RAM-backed directory for the shuffle spills;
            # they are transient and re-read within the same phase pair
            writable = os.path.isdir(_SHM_DIR) and os.access(_SHM_DIR, os.W_OK)
            spill_dir = _SHM_DIR if writable else None
            self._spill_root = tempfile.mkdtemp(prefix="repro-shuffle-", dir=spill_dir)
            self._remove_spill_root = weakref.finalize(
                self, shutil.rmtree, self._spill_root, ignore_errors=True
            )
        assert self._initargs is not None
        self._pool = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=self._initargs,
        )
        return True

    def _shutdown_pool(self) -> None:
        """Drop the pool: cancel its queued chunks and wait for the
        running ones, so no spill writer outlives its directory.  Every
        path gets here — the end of a job, ``close()``, phase failure,
        a dead worker; on a broken pool the workers are already killed
        and reaped."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Stop any pool and remove all spill files (idempotent)."""
        self._shutdown_pool()
        if self._remove_spill_root is not None:
            self._remove_spill_root()
            self._remove_spill_root = self._spill_root = None

    def __enter__(self) -> "PersistentParallelCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- phase runners ----------------------------------------------------

    def _use_map_pool(self, num_tasks: int) -> bool:
        """Pool the map phase when it has enough tasks and the host
        enough cores for the workers to earn their fork."""
        return (
            self.workers > 1
            and _effective_cores() >= MIN_CORES_FOR_POOL
            and num_tasks >= MIN_TASKS_FOR_POOL
        )

    def _use_reduce_pool(self, shuffle: object, num_tasks: int) -> bool:
        """Pool the reduce phase only behind a pooled map: the buckets
        then stream worker→disk→worker without the driver re-pickling a
        single pair.  After an inline map the buckets live in driver
        memory and shipping them out is pure overhead."""
        return (
            isinstance(shuffle, MapShuffle)
            and self.workers > 1
            and num_tasks >= MIN_TASKS_FOR_POOL
        )

    def _begin_phase(self, num_tasks: int) -> tuple[ExecutorPhaseStats, float]:
        ex = ExecutorPhaseStats(mode="pool", workers=self.workers, tasks=num_tasks)
        t0 = time.perf_counter()
        ex.pools_created = int(self._ensure_pool())
        return ex, t0

    def _run_map_phase(
        self,
        job: MapReduceJob,
        map_inputs: list[MapInput],
        broadcast: tuple[Broadcast, int, float],
    ) -> tuple[list, object, ExecutorPhaseStats]:
        """Run one map phase on a pool forked for *job* with spilled
        shuffle output (else in the driver); returns ``(task_results,
        shuffle, phase_stats)``, the shuffle referencing the spilled
        partitions."""
        if not self._use_map_pool(len(map_inputs)):
            results, shuffle, _ = super()._run_map_phase(job, map_inputs, broadcast)
            return results, shuffle, ExecutorPhaseStats(
                mode="inline", tasks=len(map_inputs)
            )
        # task ids number the job's blocks from 0, so a worker finds its
        # input by indexing the list it inherited
        self._initargs = (job, map_inputs, broadcast)
        ex, t0 = self._begin_phase(len(map_inputs))
        self._phase_seq += 1
        assert self._spill_root is not None
        phase_dir = os.path.join(self._spill_root, f"p{self._phase_seq}")
        # a task's entry is its id
        task_payloads: dict[int, tuple] = {t: () for t, _name, _b in map_inputs}
        ex.bytes_to_workers += _ENTRY_BYTES * len(task_payloads)
        phase_args = (phase_dir, self.config.map_slots)
        # the driver's own memo for the retries it runs
        key_memo: dict = {}

        def in_driver(task_id: int, limit: int | None, attempt: int) -> tuple:
            _task_id, input_name, block = map_inputs[task_id]
            return _map_attempt(
                job, task_id, attempt, limit, self.tracer, phase_args,
                input_name, block.records, broadcast, key_memo,
            )

        shuffle = MapShuffle(job.num_reducers, phase_dir)
        task_results = []
        try:
            cores = self._dispatch(
                job, "map", ex, phase_args, task_payloads, in_driver
            )
        except BaseException:
            # leak fix: a failing phase must not orphan the spill files
            # of its completed attempts (the pool, and with it every
            # spill writer, has stopped — see _dispatch)
            shuffle.cleanup()
            raise
        for stats, path, segments, counters in cores:
            shuffle.add_task(path, segments, stats.partition_bytes)
            ex.bytes_from_workers += approx_bytes(counters) + 96
            task_results.append((stats, counters))
        ex.spill_bytes_written = shuffle.spilled_bytes
        ex.wall_s = time.perf_counter() - t0
        return task_results, shuffle, ex

    def _run_reduce_phase(
        self, job: MapReduceJob, shuffle: object, partitions: list[int]
    ) -> tuple[list, ExecutorPhaseStats]:
        """Run one reduce task per partition on the pool (else in the
        driver): each reduce worker reads its partition's spill-file
        segments straight from the map output — the zero-repickle path;
        the driver only routes the references.  Returns ``([(TaskStats,
        written, counters), ...], phase_stats)`` in partition order."""
        if not self._use_reduce_pool(shuffle, len(partitions)):
            results, _ = super()._run_reduce_phase(job, shuffle, partitions)
            inline = ExecutorPhaseStats(mode="inline", tasks=len(partitions))
            if isinstance(shuffle, MapShuffle):
                inline.spill_bytes_read = sum(
                    shuffle.segment_bytes(p) for p in partitions
                )
            return results, inline
        assert isinstance(shuffle, MapShuffle)
        ex, t0 = self._begin_phase(len(partitions))
        task_payloads = {p: (shuffle.refs_for(p),) for p in partitions}
        bucket_bytes = {
            p: sum(length for _path, _off, length in refs)
            for p, (refs,) in task_payloads.items()
        }
        ex.spill_bytes_read = sum(bucket_bytes.values())
        ex.bytes_to_workers += _ENTRY_BYTES * sum(
            len(refs) for (refs,) in task_payloads.values()
        )

        def in_driver(partition: int, limit: int | None, attempt: int) -> tuple:
            return _reduce_attempt(
                job, partition, attempt, limit, self.tracer, (),
                *task_payloads[partition],
            )

        # LPT scheduling: submit the heaviest partitions (by shuffled
        # bytes) first so a hot bucket never queues behind a full wave
        # of small ones.  Only the submission order changes — results
        # are reassembled in partition order, so output bytes are
        # unaffected.
        dispatch_order = sorted(bucket_bytes, key=lambda p: (-bucket_bytes[p], p))
        # on failure the map spill files feeding this phase are cleaned
        # by the caller's shuffle handle
        task_results = self._dispatch(
            job, "reduce", ex, (), task_payloads, in_driver, dispatch_order
        )
        for stats, _written, counters in task_results:
            ex.bytes_from_workers += approx_bytes(counters) + stats.output_bytes + 96
        ex.wall_s = time.perf_counter() - t0
        return task_results, ex

    # -- the pooled dispatch loop -----------------------------------------

    def _chunk(self, tasks: list) -> list[list]:
        """Split *tasks* into contiguous chunks (order-preserving)."""
        target = max(1, self.workers * _CHUNKS_PER_WORKER)
        size = max(1, -(-len(tasks) // target))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def _dispatch(
        self,
        job: MapReduceJob,
        phase: str,
        ex: ExecutorPhaseStats,
        phase_args: tuple,
        task_payloads: dict[int, tuple],
        in_driver: Callable[[int, int | None, int], tuple],
        dispatch_order: list[int] | None = None,
    ) -> list[tuple]:
        """Run every task of one phase under a trace span: its first
        attempt on the pool, any later one in the driver.

        The first attempts go out as contiguous task chunks, and the
        loop waits for the first chunk to complete, settling each task
        whose attempt succeeded.  Every other outcome goes to the
        driver's retry loop (:meth:`_attempt_task` over ``in_driver(task,
        limit, attempt)``) from attempt 1, with the task's ledger:

        * a **failed** attempt — a :class:`TaskError` in the worker, or
          a chunk that failed structurally — at once, with its error;
        * a **lost** one: a dead worker (``crash`` faults, real
          segfaults) breaks the pool, which fails every chunk in flight
          with :class:`BrokenProcessPool`.  The pool is shut down, and
          each task still unsatisfied is run in the driver; the job's
          next pooled phase forks a fresh pool.

        *dispatch_order*, when given, reorders only the **chunk
        submission** (longest-processing-time-first for skewed reduce
        partitions, so a hot bucket starts immediately instead of
        queueing behind a full wave).  Reassembly — and therefore every
        output byte — still follows the order of *task_payloads*.

        Results come back in task order, each with the task's
        fault/retry tallies merged into its counters (the last element),
        so chaos bookkeeping rides the existing counter path.  Under
        ``REPRO_SANITIZE=1`` the reassembly is cross-checked: every task
        must be satisfied exactly once.  Sets ``ex.chunks`` and
        ``ex.busy_s``.
        """
        plan, hub, tracer = self.fault_plan, self.telemetry, self.tracer
        common = (self.config.memory_per_task_bytes, tracer is not None, plan)
        order = list(task_payloads)  # task order: reassembly follows it
        results: dict[int, tuple] = {}
        #: in-flight chunks, in submission order, and the tasks each carries
        flights: dict[Future, list[int]] = {}
        #: the ledgers of the tasks no attempt has settled yet
        ledgers = {t: TaskLedger(plan, tracer, job.name, phase, t) for t in order}

        def retry(t: int, failure: TaskError | None = None) -> None:
            results[t] = self._attempt_task(
                job, phase, t, partial(in_driver, t), ledgers.pop(t), 1, failure
            )

        def run_phase() -> None:
            if dispatch_order is not None:
                # deal the size-sorted tasks round-robin over the chunk
                # budget: contiguous chunking would put every heavy task
                # in the same chunk (one worker), defeating the LPT order
                target = max(1, self.workers * _CHUNKS_PER_WORKER)
                n = max(1, min(target, len(dispatch_order)))
                chunks = [dispatch_order[i::n] for i in range(n)]
            else:
                chunks = self._chunk(order)
            for batch in chunks:
                for t in batch:
                    ledgers[t].note_fault(0)
                entries = [(t, *task_payloads[t]) for t in batch]
                payload = (ex.chunks, phase, common, phase_args, entries)
                ex.chunks += 1
                try:
                    future = self._pool.submit(_run_chunk, payload)
                except BrokenProcessPool as exc:
                    # a worker already died: this chunk is lost with the
                    # pool's in-flight ones
                    future = Future()
                    future.set_exception(exc)
                flights[future] = batch

            broken = False
            while flights and not broken:
                done, _ = wait(flights, return_when=FIRST_COMPLETED)
                for future in [f for f in flights if f in done]:
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        broken = True  # lost, with every chunk still out
                        continue
                    batch = flights.pop(future)
                    if isinstance(error, NON_RETRYABLE):
                        raise error
                    if error is not None:
                        # the chunk failed structurally (e.g. its result
                        # would not pickle)
                        for t in batch:
                            retry(t, task_error_from(job.name, phase, t, error))
                        continue
                    _chunk_index, oks, errs, events = future.result()
                    if events and tracer is not None:
                        tracer.absorb(events)
                    for t, core in oks:
                        ledgers.pop(t).settle(core, 0)
                        results[t] = core
                        if hub is not None:
                            hub.task_finished(job.name, phase, t, core[0].input_records)
                    for t, error in errs:
                        if isinstance(error, NON_RETRYABLE):
                            raise error
                        retry(t, error)
            if broken:
                for batch in flights.values():
                    for t in batch:
                        ledgers[t].count(TASK_LOST)
                flights.clear()
                self._shutdown_pool()
                if tracer is not None:
                    tracer.instant("pool-lost", "fault", job=job.name, phase=phase)
                for t in order:
                    if t not in results:
                        retry(t)

            if env_sanitize() and set(results) != set(order):
                raise RuntimeError(
                    f"dispatch satisfied {len(results)} of {len(order)} tasks"
                )

        try:
            with trace_span(
                tracer, f"dispatch-{phase}:{job.name}", "dispatch",
                job=job.name, workers=self.workers,
            ) as span:
                run_phase()
                span.set(chunks=ex.chunks)
        except BaseException as exc:
            # no spill writer may outlive the caller's removal of the
            # phase directory — it could re-create a file after it
            self._shutdown_pool()
            # the finished frames under this one hold the error in
            # their locals (a chunk's results, the retried failure) and
            # the error's traceback holds them
            traceback.clear_frames(exc.__traceback__)
            raise
        cores = [results[t] for t in order]
        ex.busy_s = sum(core[0].cpu_seconds for core in cores)
        return cores
