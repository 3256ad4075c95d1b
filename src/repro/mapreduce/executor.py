"""Persistent multi-core execution engine.

Forking a fresh process pool for every map and reduce phase makes a
three-stage BTO-PK-BRJ pipeline (five MapReduce jobs) pay pool startup
up to ten times, and sends every intermediate ``(key, value)`` pair
across two pickle boundaries: worker → parent after the map phase and
parent → worker again for the reduce phase.

This module removes both costs:

* :class:`PersistentExecutor` owns **one long-lived fork pool** that
  survives across phases and across the chained jobs of a pipeline.
  Job specifications carry closures (mappers capture the
  :class:`~repro.join.config.JoinConfig`, reducers capture kernels) and
  cannot be pickled, so jobs are handed to workers through an explicit
  **per-pool job registry** passed as the pool initializer argument —
  with the ``fork`` start method initializer arguments are inherited
  through process memory, never pickled.  The registry is a plain
  instance attribute: unlike the module-global handoff it replaces,
  abandoning a phase mid-iteration or raising out of one cannot leak
  or corrupt parent-side state.  Registering new jobs after the pool
  forked marks it stale; the next phase transparently re-forks.

* A **zero-repickle shuffle path**: map workers serialize their
  partition buckets exactly once (one pickle blob per partition) into
  one spill file per task attempt and return only small summaries
  (stats, counters, per-partition offsets and byte counts).
  Reduce workers read their partition's bytes straight from those
  files; the parent only routes ``(path, offset, length)`` references.
  The spill directory is created under ``/dev/shm`` when that is
  writable, so the files are RAM-backed tmpfs pages with an ordinary
  file lifecycle: each phase's directory is removed by the shuffle
  handle's ``cleanup()`` (also on phase failure), and the executor's
  ``close()`` / finalizer removes the whole spill root.

Scheduling is chunked ``apply_async``: contiguous task chunks are
dispatched to whichever worker is free, and results are reassembled in
task order before anything is merged, so partition contents, reduce
input order and therefore all outputs are **byte-identical** to
:class:`~repro.mapreduce.cluster.SimulatedCluster` (asserted by the
determinism test suite).

:class:`PersistentParallelCluster` is the drop-in cluster built on the
engine.  ``pipeline.run_pipeline`` and the ``join.driver`` entry points
call :meth:`PersistentParallelCluster.prepare_jobs` with every job of
an end-to-end join before the first phase runs, so one join forks
exactly one pool (asserted via :class:`ExecutorStats` in the tests).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing.pool import AsyncResult
from typing import Iterable, Sequence

from repro.analysis.sanitize import env_sanitize
from repro.mapreduce.cluster import (
    ClusterConfig,
    SimulatedCluster,
    TaskLedger,
    collector_paused,
    execute_map_task,
    execute_reduce_task,
)
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import (
    DEFAULT_RETRY_POLICY,
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
from repro.mapreduce.types import ExecutorPhaseStats, approx_bytes
from repro.obs.telemetry import TelemetryHub
from repro.obs.trace import Tracer, trace_span

_PICKLE = pickle.HIGHEST_PROTOCOL

#: RAM-backed (tmpfs) directory preferred for the transient shuffle
#: spill files; the system temp directory serves when it is missing
_SHM_DIR = "/dev/shm"

#: chunks a phase's tasks are cut into, per worker: 2 lets a worker that
#: drew a light chunk pick up a second one, while keeping the per-chunk
#: dispatch cost (one pickle round trip) a small share of the phase
_CHUNKS_PER_WORKER = 2

#: completion-poll interval of the dispatch loop, seconds — two orders
#: of magnitude under the shortest pooled phase, so polling never shows
_POLL_INTERVAL_S = 0.01


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
# assigns them.  They are populated by the pool initializer, whose
# arguments are fork-inherited (not pickled), which is what allows the
# registry to hold closures.

_W_JOBS: Sequence[MapReduceJob] = ()
_W_DFS: InMemoryDFS | None = None
_W_BCAST_CACHE: dict[str, Broadcast] = {}


def _set_worker_globals(jobs: Sequence[MapReduceJob], dfs: InMemoryDFS | None) -> None:
    global _W_JOBS, _W_DFS
    _W_JOBS = jobs
    _W_DFS = dfs
    _W_BCAST_CACHE.clear()


def _worker_init(jobs: Sequence[MapReduceJob], dfs: InMemoryDFS | None) -> None:
    _set_worker_globals(jobs, dfs)
    # lets 'crash' faults really kill the process; the parent uses
    # _set_worker_globals directly for degraded inline execution, where
    # a crash fault must raise instead
    mark_worker_process()
    # entered and never left: a worker runs nothing but tasks and exits
    # with the pool
    collector_paused().__enter__()


def _resolve_records(spec: tuple) -> list:
    """Materialize one map task's input records.

    ``("data", records)`` carries the records in the task payload;
    ``("ref", file_name, block_index)`` points into the DFS snapshot the
    worker inherited at fork time — the zero-copy path for files that
    already existed when the pool was created (notably the original
    input file, which every stage's map phase re-reads).
    """
    kind, *rest = spec
    if kind == "data":
        return rest[0]
    file_name, block_index = rest
    assert _W_DFS is not None
    return _W_DFS.file(file_name).blocks[block_index].records


def _broadcast_for(path: str | None) -> Broadcast:
    """Load (and cache) one phase's broadcast payload from its spill
    file.  The payload is written once by the parent and unpickled at
    most once per worker process, instead of once per task; the views
    its tasks derive are memoised on the cached payload, so they too
    are built once per worker and freed with it."""
    if not path:
        return Broadcast()
    cached = _W_BCAST_CACHE.get(path)
    if cached is None:
        with open(path, "rb") as handle:
            cached = Broadcast(pickle.load(handle))
        _W_BCAST_CACHE.clear()  # at most one phase's payload stays cached
        _W_BCAST_CACHE[path] = cached
    return cached


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

    ``stem`` names the attempt (``m<task>a<attempt>``) so a retry never
    reopens the file of an attempt that was lost with its worker.
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
    tracer: Tracer | None, phase_args: tuple, input_name: str, spec: tuple,
) -> tuple:
    """One map attempt: run the task, spill its partitioned output.
    Returns ``(stats, path, segments, counters)`` — the shuffled bytes
    ride in ``stats.partition_bytes``, and the counters come last, as in
    every task result."""
    phase_dir, bcast_path, broadcast_bytes, broadcast_cpu, map_slots = phase_args
    stats, partitioned, counters = execute_map_task(
        job, task_id, input_name, _resolve_records(spec),
        _broadcast_for(bcast_path), broadcast_bytes, broadcast_cpu,
        limit, map_slots, tracer=tracer,
    )
    path, segments = _spill_map_output(
        phase_dir, f"m{task_id}a{attempt}", partitioned, job.num_reducers
    )
    return stats, path, segments, counters


def _reduce_attempt(
    job: MapReduceJob, partition: int, attempt: int, limit: int | None,
    tracer: Tracer | None, phase_args: tuple, refs: list[SegmentRef],
) -> tuple:
    """One reduce attempt over its partition's spill-file segments."""
    return execute_reduce_task(
        job, partition, _read_segments(refs), limit, tracer=tracer
    )


_ATTEMPT = {"map": _map_attempt, "reduce": _reduce_attempt}


def _run_chunk(args: tuple) -> tuple:
    """Run one chunk of task attempts of one phase.

    Each entry of *tasks* is ``(task_id, attempt, *payload)`` — the
    payload is ``(input_name, spec)`` for a map task, ``(segment_refs,)``
    for a reduce task.  Per-task failures never poison the chunk: the
    return value separates successful attempts (``oks``) from failed
    ones (``errs``), each tagged with its task id and attempt, so the
    parent's retry engine can act per task.
    """
    chunk_index, jid, phase, common, phase_args, tasks = args
    memory_limit, trace, plan = common
    job = _W_JOBS[jid]
    attempt_fn = _ATTEMPT[phase]
    # When the parent traces, each chunk records its task spans into a
    # worker-local tracer whose raw events ride back with the results
    # (perf_counter is CLOCK_MONOTONIC, shared across the fork).
    tracer = Tracer() if trace else None
    oks: list[tuple[int, int, tuple]] = []
    errs: list[tuple[int, int, BaseException, bool]] = []
    for task_id, attempt, *payload in tasks:

        def run(limit: int | None) -> tuple:
            return attempt_fn(
                job, task_id, attempt, limit, tracer, phase_args, *payload
            )

        try:
            result = run_attempt(
                plan, job.name, phase, task_id, attempt, memory_limit, run
            )
            oks.append((task_id, attempt, result))
        except NON_RETRYABLE as exc:
            errs.append((task_id, attempt, exc, False))
        except TaskError as error:
            errs.append((task_id, attempt, error, True))
    events = tracer.raw_events() if tracer is not None else []
    return chunk_index, oks, errs, events


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


@dataclass
class _Flight:
    """One in-flight chunk: its pool handle and the tasks it carries."""

    handle: AsyncResult
    tasks: list[int]


@dataclass
class ExecutorStats:
    """Lifetime statistics of one :class:`PersistentExecutor`."""

    pools_created: int = 0
    pool_generation: int = 0
    jobs_registered: int = 0
    phases_executed: int = 0
    tasks_dispatched: int = 0
    chunks_dispatched: int = 0
    bytes_to_workers: int = 0
    bytes_from_workers: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    #: task attempts re-dispatched after a retryable failure
    tasks_retried: int = 0
    #: in-flight attempts abandoned when a worker process died
    tasks_lost: int = 0
    #: pools re-forked after detecting a dead worker
    pool_respawns: int = 0
    #: worker processes found dead and blacklisted (never reused)
    workers_blacklisted: int = 0


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

    def __init__(
        self, num_reducers: int, phase_dir: str, bcast_path: str | None
    ) -> None:
        self.num_reducers = num_reducers
        self._phase_dir = phase_dir
        self._bcast_path = bcast_path
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
        """Read one partition's bucket in the parent (inline-reduce path)."""
        return _read_segments(self.refs_for(partition))

    def cleanup(self) -> None:
        shutil.rmtree(self._phase_dir, ignore_errors=True)
        if self._bcast_path:
            try:
                os.remove(self._bcast_path)
            except OSError:
                pass


#: how long a pool teardown waits on ``multiprocessing.Pool`` internals
#: (and then on each worker's exit) before abandoning them
_TEARDOWN_GRACE_S = 2.0


def _terminate_pool(pool, grace_s: float = _TEARDOWN_GRACE_S) -> None:
    """``pool.terminate()`` with a deadline.

    ``Pool.terminate()`` SIGTERMs busy workers, then takes the queues'
    process-shared locks and joins handler threads that need them.  A
    worker killed mid-send (by that SIGTERM, a ``crash`` fault, or the
    OOM killer) dies *holding* such a lock, and CPython then waits on
    it forever.  So ``terminate()`` runs on a daemon helper: once the
    grace period is over every worker still alive is SIGKILLed and
    reaped, and the pool object — helper and handler threads included,
    all daemons — is abandoned.
    """
    workers = list(getattr(pool, "_pool", None) or [])
    helper = threading.Thread(
        target=pool.terminate, name="repro-pool-terminate", daemon=True
    )
    try:
        helper.start()
    except RuntimeError:
        # interpreter shutdown (3.12+ refuses new threads there): the
        # finalizer has no later to protect, terminate directly
        pool.terminate()
        return
    helper.join(grace_s)
    # workers the pool's handler forked after the first snapshot
    workers += [w for w in getattr(pool, "_pool", None) or [] if w not in workers]
    for worker in workers:
        if worker.is_alive():
            worker.kill()
        worker.join(grace_s)
    # a result that never came back (its worker died, or its phase
    # failed first) stays in the pool's cache, and each points back at
    # the pool: drop them, or only a collection frees the pool
    getattr(pool, "_cache", {}).clear()


def _final_cleanup(holder: dict) -> None:
    pool = holder.get("pool")
    if pool is not None:
        _terminate_pool(pool)
    spill = holder.get("spill")
    if spill:
        shutil.rmtree(spill, ignore_errors=True)


class PersistentExecutor:
    """A long-lived fork pool plus the job registry its workers inherit.

    Life cycle: :meth:`register_jobs` is called with every job of an
    end-to-end pipeline *before* the first phase executes; the pool
    forks lazily on the first pooled phase and is reused by every later
    phase of every registered job.  Registering a genuinely new job
    after the fork marks the pool stale and the next phase re-forks —
    correctness is never at risk, only the reuse win.
    """

    def __init__(
        self,
        workers: int | None = None,
        dfs: InMemoryDFS | None = None,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "PersistentExecutor requires the 'fork' start method; "
                "use SimulatedCluster on this platform"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or os.cpu_count() or 2
        self.stats = ExecutorStats()
        #: attach a :class:`repro.obs.trace.Tracer` to collect worker
        #: task spans (set by the owning cluster; observe-only)
        self.tracer: Tracer | None = None
        #: deterministic fault-injection schedule (set by the cluster)
        self.fault_plan: FaultPlan | None = None
        #: retry knobs (set by the cluster; None = defaults)
        self.retry_policy: RetryPolicy | None = None
        #: progress collector, told of every finished task (set by the
        #: cluster; observe-only)
        self.telemetry: TelemetryHub | None = None
        #: True once repeated pool deaths exhausted the respawn budget;
        #: the engine then runs everything inline (sequential fallback)
        self.degraded = False
        self._jobs: list[MapReduceJob] = []
        self._job_ids: dict[int, int] = {}
        self._dfs = dfs
        # DFS state captured at fork time: block-record-list identity ->
        # (file, block index) so map inputs already present in the
        # workers' inherited snapshot cross as tiny references instead
        # of pickled record lists.  _snapshot_files pins the referenced
        # lists so their ids cannot be recycled.
        self._block_refs: dict[int, tuple[str, int]] = {}
        self._snapshot_files: list = []
        self._pool = None
        self._worker_pids: set[int] = set()
        self._stale = False
        self._spill_root: str | None = None
        self._phase_seq = 0
        self._holder: dict = {}
        self._finalizer = weakref.finalize(self, _final_cleanup, self._holder)

    # -- registry ---------------------------------------------------------

    def register_jobs(self, jobs: Iterable[MapReduceJob]) -> None:
        """Add *jobs* to the registry (idempotent per job object).

        Must be called before the pool forks for the jobs to ride the
        fork; late registrations still work but force a pool re-fork.
        """
        added = False
        for job in jobs:
            if id(job) not in self._job_ids:
                self._job_ids[id(job)] = len(self._jobs)
                self._jobs.append(job)
                added = True
        if added:
            self.stats.jobs_registered = len(self._jobs)
            if self._pool is not None:
                self._stale = True

    def _job_id(self, job: MapReduceJob) -> int:
        if id(job) not in self._job_ids:
            self.register_jobs([job])
        return self._job_ids[id(job)]

    def map_ref_fraction(self, map_inputs: list[tuple[int, str, list]]) -> float:
        """Fraction of *map_inputs* the workers can read from their
        fork-inherited DFS snapshot (shipped as references, not data).

        When the pool does not exist yet (or is stale) the next phase
        re-forks and snapshots the current DFS, so every block of an
        existing file will be reference-reachable — the fraction is 1.
        """
        if self._dfs is None:
            return 0.0
        if self._pool is None or self._stale:
            return 1.0
        if not map_inputs:
            return 1.0
        hits = 0
        for _task_id, input_name, records in map_inputs:
            ref = self._block_refs.get(id(records))
            if ref is not None and ref[0] == input_name:
                hits += 1
        return hits / len(map_inputs)

    # -- pool -------------------------------------------------------------

    def _ensure_pool(self) -> bool:
        """Fork the pool if absent or stale; returns True on a fork."""
        if self._pool is not None and self._stale:
            self._teardown_pool()
        if self._pool is not None:
            return False
        if self._spill_root is None:
            # prefer a RAM-backed directory for the shuffle spills;
            # they are transient and re-read within the same phase pair
            writable = os.path.isdir(_SHM_DIR) and os.access(_SHM_DIR, os.W_OK)
            spill_dir = _SHM_DIR if writable else None
            self._spill_root = tempfile.mkdtemp(prefix="repro-shuffle-", dir=spill_dir)
            self._holder["spill"] = self._spill_root
        self._block_refs = {}
        self._snapshot_files = []
        if self._dfs is not None:
            for name in self._dfs.listdir():
                dfs_file = self._dfs.file(name)
                self._snapshot_files.append(dfs_file)
                for index, block in enumerate(dfs_file.blocks):
                    self._block_refs[id(block.records)] = (name, index)
        ctx = multiprocessing.get_context("fork")
        self._pool = ctx.Pool(
            self.workers,
            initializer=_worker_init,
            initargs=(tuple(self._jobs), self._dfs),
        )
        self._holder["pool"] = self._pool
        self._worker_pids = {
            proc.pid
            for proc in getattr(self._pool, "_pool", None) or []
            if proc.pid is not None
        }
        self._stale = False
        self.stats.pools_created += 1
        self.stats.pool_generation += 1
        return True

    def _teardown_pool(self) -> None:
        """Stop the workers and drop the pool; bounded (see
        :func:`_terminate_pool`) on every path that gets here —
        ``close()``, stale re-fork, phase failure, pool-death recovery."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None
            self._worker_pids = set()
            self._holder["pool"] = None

    def _dead_workers(self) -> set[int]:
        """PIDs from the fork-time snapshot that are no longer alive.

        ``multiprocessing.Pool`` replaces dead workers transparently,
        but an attempt consumed by the dead worker is simply gone — its
        ``AsyncResult`` never completes.  Comparing the snapshot against
        the pool's live workers detects that silent loss."""
        if self._pool is None:
            return set()
        alive = {
            proc.pid
            for proc in getattr(self._pool, "_pool", None) or []
            if proc.exitcode is None
        }
        return {pid for pid in self._worker_pids if pid not in alive}

    def close(self) -> None:
        """Terminate the pool and remove all spill files (idempotent)."""
        self._teardown_pool()
        if self._spill_root is not None:
            shutil.rmtree(self._spill_root, ignore_errors=True)
            self._spill_root = None
            self._holder["spill"] = None

    # -- phases -----------------------------------------------------------

    def _chunk(self, tasks: list) -> list[list]:
        """Split *tasks* into contiguous chunks (order-preserving)."""
        target = max(1, self.workers * _CHUNKS_PER_WORKER)
        size = max(1, -(-len(tasks) // target))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def _dispatch(
        self,
        job: MapReduceJob,
        phase: str,
        common: tuple,
        phase_args: tuple,
        task_payloads: dict[int, tuple],
        dispatch_order: list[int] | None = None,
    ) -> tuple[list[tuple], int]:
        """Run every task of one phase on the pool, fault-tolerantly.

        The engine dispatches contiguous task chunks as ``apply_async``
        calls and polls for completion, which — unlike the blocking
        ``imap_unordered`` it replaces — lets it react while attempts
        are still in flight:

        * **retries**: a failed attempt is re-dispatched (bounded by
          the :class:`RetryPolicy` attempt budget); the budget
          exhausting raises the last attempt's :class:`TaskError`.
        * **pool-death recovery**: a worker found dead (``crash``
          faults, real segfaults) blacklists its PID, abandons the
          in-flight attempts, re-forks the pool and re-dispatches every
          unsatisfied task.  Exhausting the respawn budget degrades the
          engine to inline execution in the parent — the sequential
          fallback — for the rest of its life.

        *dispatch_order*, when given, reorders only the **initial chunk
        submission** (longest-processing-time-first for skewed reduce
        partitions, so a hot bucket starts immediately instead of
        queueing behind a full wave).  Reassembly — and therefore every
        output byte — still follows the order of *task_payloads*.

        Results come back in task order, each with the task's
        fault/retry tallies merged into its counters (the last element),
        so chaos bookkeeping rides the existing counter path.  Under
        ``REPRO_SANITIZE=1`` the reassembly is cross-checked: every task
        must be satisfied exactly once.  A task never has two attempts
        in flight: a retry follows the failure it answers, and a pool
        death drops every flight before anything is re-dispatched.
        """
        policy = self.retry_policy or DEFAULT_RETRY_POLICY
        plan = self.fault_plan
        jid = self._job_id(job)
        order = list(task_payloads)  # task order: reassembly follows it
        results: dict[int, tuple] = {}
        #: attempts launched per task; at most one of them is in flight,
        #: so the one that succeeds is the last one launched
        next_attempt: dict[int, int] = {t: 0 for t in order}
        failures: dict[int, TaskError] = {}
        flights: list[_Flight] = []
        chunk_seq = 0
        inline_mode = self.degraded
        hub = self.telemetry
        ledgers = {t: TaskLedger(plan, self.tracer, job.name, phase, t) for t in order}

        def build_payload(batch: list[int]) -> tuple:
            nonlocal chunk_seq
            entries = []
            for t in batch:
                attempt = next_attempt[t]
                next_attempt[t] = attempt + 1
                ledgers[t].note_fault(attempt)
                entries.append((t, attempt, *task_payloads[t]))
            payload = (chunk_seq, jid, phase, common, phase_args, entries)
            chunk_seq += 1
            return payload

        def submit(batch: list[int]) -> None:
            payload = build_payload(batch)
            if inline_mode:
                absorb(_run_chunk(payload))
                return
            handle = self._pool.apply_async(_run_chunk, (payload,))
            flights.append(_Flight(handle, batch))

        def absorb(result: tuple) -> None:
            _chunk_index, oks, errs, events = result
            if events and self.tracer is not None:
                self.tracer.absorb(events)
            for t, _attempt, core in oks:
                results[t] = core
                if hub is not None:
                    hub.task_finished(
                        job.name, phase, t, core[0].input_records
                    )
            for t, _attempt, exc, retryable in errs:
                handle_failure(t, exc, retryable)

        def handle_failure(t: int, error: BaseException, retryable: bool) -> None:
            if not retryable or next_attempt[t] >= policy.max_attempts:
                # raw by contract (e.g. InsufficientMemoryError), or the
                # last attempt's TaskError once the budget is spent
                raise error
            failures[t] = error
            ledgers[t].note_retry(next_attempt[t])
            self.stats.tasks_retried += 1
            submit([t])

        def recover_pool_death(dead: set[int]) -> None:
            nonlocal inline_mode
            self.stats.workers_blacklisted += len(dead)
            self.stats.pool_respawns += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "pool-respawn", "fault", job=job.name, phase=phase,
                    dead_workers=sorted(dead),
                    respawns=self.stats.pool_respawns,
                )
            for flight in flights:
                for t in flight.tasks:
                    ledgers[t].count(TASK_LOST)
                    self.stats.tasks_lost += 1
            flights.clear()
            self._teardown_pool()
            unsatisfied = [t for t in order if t not in results]
            exhausted = [
                t for t in unsatisfied if next_attempt[t] >= policy.max_attempts
            ]
            if exhausted:
                t = exhausted[0]
                raise failures.get(t) or TaskError(
                    job.name, phase, t, attempt=next_attempt[t] - 1,
                    cause="attempt lost to a dead worker, retry budget spent",
                )
            if self.stats.pool_respawns > policy.max_pool_respawns:
                inline_mode = True
                self.degraded = True
                if self.tracer is not None:
                    self.tracer.instant(
                        "executor-degraded", "fault", job=job.name,
                        phase=phase, respawns=self.stats.pool_respawns,
                    )
                _set_worker_globals(tuple(self._jobs), self._dfs)
            else:
                self._ensure_pool()
            for chunk in self._chunk(unsatisfied):
                submit(chunk)

        if inline_mode:
            _set_worker_globals(tuple(self._jobs), self._dfs)
        if dispatch_order is not None:
            # deal the size-sorted tasks round-robin over the chunk
            # budget: contiguous chunking would put every heavy task in
            # the same chunk (one worker), defeating the LPT order
            target = max(1, self.workers * _CHUNKS_PER_WORKER)
            n = max(1, min(target, len(dispatch_order)))
            initial = [dispatch_order[i::n] for i in range(n)]
        else:
            initial = self._chunk(order)
        try:
            for chunk in initial:
                if chunk:
                    submit(chunk)

            while len(results) < len(order):
                if not flights:
                    # inline submits are synchronous and every pooled
                    # flight came back: whatever is still unsatisfied
                    # exhausted its budget en route
                    t = next(t for t in order if t not in results)
                    raise failures.get(t) or TaskError(
                        job.name, phase, t,
                        attempt=max(0, next_attempt[t] - 1),
                        cause=(
                            "task never completed"
                            if inline_mode
                            else "every attempt was lost in flight"
                        ),
                    )
                progressed = False
                for flight in list(flights):
                    if not flight.handle.ready():
                        continue
                    flights.remove(flight)
                    progressed = True
                    try:
                        result = flight.handle.get()
                    except NON_RETRYABLE:
                        raise
                    except Exception as exc:
                        # the chunk failed structurally (result would
                        # not pickle, pool torn down under it); retry
                        # its tasks
                        for t in flight.tasks:
                            handle_failure(
                                t, task_error_from(job.name, phase, t, exc), True
                            )
                        continue
                    absorb(result)
                if len(results) >= len(order):
                    break
                if progressed:
                    continue
                dead = self._dead_workers()
                if dead:
                    recover_pool_death(dead)
                elif flights:
                    flights[0].handle.wait(_POLL_INTERVAL_S)

            if env_sanitize() and set(results) != set(order):
                raise RuntimeError(
                    f"dispatch satisfied {len(results)} of {len(order)} tasks"
                )
            for t in order:
                ledgers[t].settle(results[t], next_attempt[t] - 1)
            return [results[t] for t in order], chunk_seq
        finally:
            # on every way out, reference counting must free the phase:
            # submit -> absorb -> handle_failure -> submit is a cycle of
            # closure cells holding its payloads and results, open once
            # one cell is emptied; and an error leaving through the
            # helpers would reach itself (traceback -> frame -> closure
            # -> failures) if it stayed on file
            del submit
            failures.clear()

    def run_map_phase(
        self,
        job: MapReduceJob,
        map_inputs: list[tuple[int, str, list]],
        broadcast_data: dict[str, list],
        broadcast_bytes: int,
        broadcast_cpu: float,
        memory_limit: int | None,
        map_slots: int,
    ) -> tuple[list, MapShuffle, ExecutorPhaseStats]:
        """Execute one map phase on the pool with spilled shuffle output.

        Returns ``(task_results, shuffle, phase_stats)`` where
        ``task_results`` is ``[(TaskStats, counters), ...]`` in task
        order and ``shuffle`` references the spilled partitions.
        """
        ex, t0 = self._begin_phase(job, len(map_inputs))
        self._phase_seq += 1
        assert self._spill_root is not None
        phase_dir = os.path.join(self._spill_root, f"p{self._phase_seq}")

        bcast_path = None
        if broadcast_data:
            bcast_path = os.path.join(
                self._spill_root, f"p{self._phase_seq}.bcast"
            )
            blob = pickle.dumps(dict(broadcast_data), _PICKLE)
            with open(bcast_path, "wb") as handle:
                handle.write(blob)
            ex.bytes_to_workers += len(blob)

        task_payloads: dict[int, tuple] = {}
        for task_id, input_name, records in map_inputs:
            ref = self._block_refs.get(id(records))
            if ref is not None and ref[0] == input_name:
                # the block is part of the workers' fork-inherited DFS
                # snapshot — ship a reference, not the records
                spec: tuple = ("ref", ref[0], ref[1])
                ex.bytes_to_workers += 24
            else:
                spec = ("data", records)
                ex.bytes_to_workers += 8 + sum(approx_bytes(r) for r in records)
            task_payloads[task_id] = (input_name, spec)

        shuffle = MapShuffle(job.num_reducers, phase_dir, bcast_path)
        task_results = []
        try:
            cores = self._dispatch_phase(
                job, "map", ex, memory_limit,
                (phase_dir, bcast_path, broadcast_bytes, broadcast_cpu, map_slots),
                task_payloads,
            )
        except BaseException:
            # leak fix: a failing phase must not orphan the spill files
            # of its completed attempts (the pool, with any writer still
            # running, is already gone — see _dispatch_phase)
            shuffle.cleanup()
            raise
        for stats, path, segments, counters in cores:
            shuffle.add_task(path, segments, stats.partition_bytes)
            ex.bytes_from_workers += approx_bytes(counters) + 96
            task_results.append((stats, counters))
        ex.spill_bytes_written = shuffle.spilled_bytes
        self._end_phase(ex, t0)
        return task_results, shuffle, ex

    def run_reduce_phase(
        self,
        job: MapReduceJob,
        reduce_tasks: list[tuple[int, list[SegmentRef]]],
        memory_limit: int | None,
    ) -> tuple[list, ExecutorPhaseStats]:
        """Execute one reduce phase on the pool.

        ``reduce_tasks`` is ``[(partition_index, segment_refs), ...]``:
        each reduce worker reads its partition's spill-file segments
        straight from the map output — the zero-repickle path; the
        parent only routes the references.  Returns
        ``([(TaskStats, written, counters), ...], phase_stats)`` in
        partition order.
        """
        ex, t0 = self._begin_phase(job, len(reduce_tasks))
        bucket_bytes = {
            p: sum(length for _path, _off, length in refs)
            for p, refs in reduce_tasks
        }
        ex.spill_bytes_read = sum(bucket_bytes.values())
        ex.bytes_to_workers += 24 * sum(len(refs) for _p, refs in reduce_tasks)
        # LPT scheduling: submit the heaviest partitions (by shuffled
        # bytes) first so a hot bucket never queues behind a full wave
        # of small ones.  Only the submission order changes — results
        # are reassembled in partition order, so output bytes are
        # unaffected.
        dispatch_order = sorted(bucket_bytes, key=lambda p: (-bucket_bytes[p], p))
        # on failure the map spill files feeding this phase are cleaned
        # by the caller's shuffle handle
        task_results = self._dispatch_phase(
            job, "reduce", ex, memory_limit, (),
            {p: (refs,) for p, refs in reduce_tasks}, dispatch_order,
        )
        for stats, _written, counters in task_results:
            ex.bytes_from_workers += approx_bytes(counters) + stats.output_bytes + 96
        self._end_phase(ex, t0)
        return task_results, ex

    def _begin_phase(
        self, job: MapReduceJob, num_tasks: int
    ) -> tuple[ExecutorPhaseStats, float]:
        self._job_id(job)  # a late registration must precede the fork check
        ex = ExecutorPhaseStats(mode="pool", workers=self.workers, tasks=num_tasks)
        t0 = time.perf_counter()
        ex.pool_created = self._ensure_pool()
        ex.pool_generation = self.stats.pool_generation
        return ex, t0

    def _dispatch_phase(
        self,
        job: MapReduceJob,
        phase: str,
        ex: ExecutorPhaseStats,
        memory_limit: int | None,
        phase_args: tuple,
        task_payloads: dict[int, tuple],
        dispatch_order: list[int] | None = None,
    ) -> list[tuple]:
        """Dispatch one phase's tasks under a trace span; returns the
        task results in task order (the order of *task_payloads*)."""
        common = (
            memory_limit,
            self.tracer is not None,
            self.fault_plan,
        )
        try:
            with trace_span(
                self.tracer, f"dispatch-{phase}:{job.name}", "dispatch",
                job=job.name, workers=self.workers,
            ) as span:
                cores, ex.chunks = self._dispatch(
                    job, phase, common, phase_args, task_payloads, dispatch_order,
                )
                span.set(chunks=ex.chunks)
        except BaseException as exc:
            # workers (possibly mid-straggler-sleep) must not keep the
            # fork pool, and no spill writer may outlive the caller's
            # removal of the phase directory — it could re-create a
            # file after it
            self._teardown_pool()
            # the finished frames under this one hold the error in
            # their locals (a chunk's results, handle_failure's
            # argument) and the error's traceback holds them
            traceback.clear_frames(exc.__traceback__)
            raise
        ex.busy_s = sum(core[0].cpu_seconds for core in cores)
        return cores

    def _end_phase(self, ex: ExecutorPhaseStats, t0: float) -> None:
        ex.wall_s = time.perf_counter() - t0
        s = self.stats
        s.phases_executed += 1
        s.tasks_dispatched += ex.tasks
        s.chunks_dispatched += ex.chunks
        s.bytes_to_workers += ex.bytes_to_workers
        s.bytes_from_workers += ex.bytes_from_workers
        s.spill_bytes_written += ex.spill_bytes_written
        s.spill_bytes_read += ex.spill_bytes_read


# ---------------------------------------------------------------------------
# the cluster
# ---------------------------------------------------------------------------


class PersistentParallelCluster(SimulatedCluster):
    """A :class:`SimulatedCluster` running on a persistent worker pool.

    Semantics, stats and outputs are byte-identical to the sequential
    engine; only the physical execution differs: the job loop is the
    inherited :meth:`SimulatedCluster.run_job`, and this class overrides
    just its two phase runners (pool when ``_use_*_pool`` says so, else
    the inherited in-driver runner).  ``workers`` defaults to the
    machine's CPU count; phases with fewer tasks than
    ``min_tasks_for_pool`` run inline, where forking never pays.

    Pooling is also gated on the *effective core count*: when the host
    exposes a single core, worker processes merely time-slice it, so
    dispatching can only add pickling and context-switch overhead —
    every phase then runs inline and the engine degrades gracefully to
    (almost) sequential cost.  ``assume_cores`` overrides detection;
    tests and micro-benchmarks pass a value > 1 to exercise the pooled
    spill path deterministically regardless of host shape.

    Use as a context manager (or call :meth:`close`) to release the
    pool and spill files eagerly; a finalizer covers the rest.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        dfs: InMemoryDFS | None = None,
        workers: int | None = None,
        min_tasks_for_pool: int = 4,
        assume_cores: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            config, dfs, fault_plan=fault_plan, retry_policy=retry_policy
        )
        self.executor = PersistentExecutor(workers=workers, dfs=self.dfs)
        self.workers = self.executor.workers
        self.min_tasks_for_pool = min_tasks_for_pool
        self.effective_cores = assume_cores or _effective_cores()

    # -- life cycle -------------------------------------------------------

    def prepare_jobs(self, jobs: Iterable[MapReduceJob]) -> None:
        """Register the jobs of an upcoming pipeline so one pool serves
        them all.  Called by ``run_pipeline`` and the join drivers."""
        self.executor.register_jobs(jobs)

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "PersistentParallelCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution --------------------------------------------------------

    def _use_map_pool(self, map_inputs: list) -> bool:
        """Pool the map phase when it has enough tasks *and* its inputs
        are mostly readable from the workers' fork-inherited DFS
        snapshot — when most blocks would have to be pickled into the
        task payloads instead, shipping costs more than the cores earn
        (the seed executor's failure mode this engine exists to fix)."""
        return (
            not self.executor.degraded
            and self.workers > 1
            and self.effective_cores > 1
            and len(map_inputs) >= self.min_tasks_for_pool
            and self.executor.map_ref_fraction(map_inputs) >= 0.5
        )

    def _use_reduce_pool(self, shuffle: object, num_tasks: int) -> bool:
        """Pool the reduce phase only behind a pooled map: the buckets
        then stream worker→disk→worker without the parent re-pickling a
        single pair.  After an inline map the buckets live in parent
        memory and shipping them out is pure overhead."""
        return (
            isinstance(shuffle, MapShuffle)
            and not self.executor.degraded
            and self.workers > 1
            and num_tasks >= self.min_tasks_for_pool
        )

    def _pooled(self) -> PersistentExecutor:
        """The executor, wired to this cluster's observers and fault
        knobs."""
        executor = self.executor
        executor.tracer = self.tracer
        executor.fault_plan = self.fault_plan
        executor.retry_policy = self.retry_policy
        executor.telemetry = self.telemetry
        return executor

    def _run_map_phase(
        self, job: MapReduceJob, map_inputs: list, broadcast: tuple
    ) -> tuple[list, object, ExecutorPhaseStats]:
        if not self._use_map_pool(map_inputs):
            results, shuffle, _ = super()._run_map_phase(job, map_inputs, broadcast)
            return results, shuffle, ExecutorPhaseStats(
                mode="inline", tasks=len(map_inputs)
            )
        return self._pooled().run_map_phase(
            job, map_inputs, *broadcast,
            self.config.memory_per_task_bytes, self.config.map_slots,
        )

    def _run_reduce_phase(
        self, job: MapReduceJob, shuffle: object, partitions: list[int]
    ) -> tuple[list, ExecutorPhaseStats]:
        if not self._use_reduce_pool(shuffle, len(partitions)):
            results, _ = super()._run_reduce_phase(job, shuffle, partitions)
            inline = ExecutorPhaseStats(mode="inline", tasks=len(partitions))
            if isinstance(shuffle, MapShuffle):
                inline.spill_bytes_read = sum(
                    shuffle.segment_bytes(p) for p in partitions
                )
            return results, inline
        assert isinstance(shuffle, MapShuffle)
        return self._pooled().run_reduce_phase(
            job,
            [(p, shuffle.refs_for(p)) for p in partitions],
            self.config.memory_per_task_bytes,
        )
