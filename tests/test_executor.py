"""Tests for the persistent execution engine (`repro.mapreduce.executor`).

Covers the tentpole guarantees: byte-identical output to
:class:`SimulatedCluster` across every stage combo for self- and R-S
joins (differential-matrix cells, ``tests/matrix.py``), one pool per
pooled job that never outlives it, `InsufficientMemoryError`
propagating out of pool workers, pool-death recovery with a leaked
queue lock, `ClusterConfig.with_nodes` preserving new fields, and the
rank-vs-string encoding differential.

The ``make_engine`` fixture pools every phase, so the pooled spill path
is exercised regardless of the host's core count (the engine would
otherwise run inline on single-core machines).
"""

import gc
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.reporting import format_executor_summary
from repro.core.ordering import TokenOrder
from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.data.synthetic import generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.mapreduce import cluster as cluster_module, executor as executor_module
from repro.mapreduce.cluster import (
    ClusterConfig,
    DriverShuffle,
    SimulatedCluster,
    execute_map_task,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.diskdfs import LocalDiskDFS
from repro.mapreduce.executor import (
    MapShuffle,
    PersistentParallelCluster,
)
from repro.mapreduce.faults import FaultPlan, TaskError
from repro.mapreduce.job import Broadcast, MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError, approx_bytes
from repro.obs.metrics import observe_into
from repro.obs.trace import Tracer

from tests.conftest import fork_only, make_cluster, small_config
from tests.matrix import BASE, cell, pooled_jobs, reference, run_join

pytestmark = fork_only

COMBOS = [
    (stage1, kernel, stage3)
    for stage1 in ("bto", "opto")
    for kernel in ("bk", "pk")
    for stage3 in ("brj", "oprj")
]


def word_count_job():
    def mapper(record, ctx):
        for token in record.split():
            ctx.emit(token, 1)

    def combiner(key, values, ctx):
        ctx.emit(key, sum(values))

    def reducer(key, values, ctx):
        ctx.write((key, sum(values)))

    return MapReduceJob(
        name="wc", inputs=["docs"], output="counts",
        mapper=mapper, reducer=reducer, combiner=combiner, num_reducers=4,
    )


class TestDeterminism:
    def test_word_count_identical(self, make_engine):
        """A plain combiner job (no join driver) through the pool."""
        sequential, persistent = make_engine("sequential"), make_engine()
        docs = [f"w{i % 17} w{i % 5} w{i % 3}" for i in range(300)]
        with persistent:
            sequential.dfs.write("docs", docs)
            persistent.dfs.write("docs", docs)
            seq_stats = sequential.run_job(word_count_job())
            per_stats = persistent.run_job(word_count_job())
            assert per_stats.map_executor.mode == "pool"
            assert sequential.dfs.read_all("counts") == persistent.dfs.read_all(
                "counts"
            )
            assert seq_stats.counters == per_stats.counters

    @pytest.mark.parametrize("stage1,kernel,stage3", COMBOS)
    def test_selfjoin_identical(self, make_engine, stage1, kernel, stage3):
        config = BASE.with_options(stage1=stage1, kernel=kernel, stage3=stage3)
        cell(make_engine, "self", config, engine="persistent")

    @pytest.mark.parametrize("stage1,kernel,stage3", COMBOS)
    def test_rsjoin_identical(self, make_engine, stage1, kernel, stage3):
        config = BASE.with_options(stage1=stage1, kernel=kernel, stage3=stage3)
        cell(make_engine, "rs", config, engine="persistent")

    def test_counters_identical(self, make_engine):
        stages = cell(make_engine, engine="persistent").report.stages
        for name, stats in reference("self").report.stages.items():
            assert stages[name].counters() == stats.counters()


class TestEngineParity:
    """One job loop: both engines must account a join the same way."""

    @staticmethod
    def _span_tree(tracer):
        """``[(job, [phase, ...]), ...]`` in completion order."""
        tree, phases = [], {}
        for event in tracer.raw_events():
            if event["cat"] == "phase":
                phases.setdefault(event["args"]["job"], []).append(event["name"])
            elif event["cat"] == "job":
                tree.append((event["name"], phases.pop(event["name"])))
        return tree

    @pytest.mark.parametrize("join", ["self", "rs"])
    def test_same_spans_shuffle_bytes_and_counters(self, make_engine, join):
        sequential, persistent = make_engine("sequential"), make_engine()
        reports, trees = [], []
        with persistent:
            for cluster in (sequential, persistent):
                cluster.tracer = Tracer()
                reports.append(run_join(cluster, join).report)
                trees.append(self._span_tree(cluster.tracer))
        # really pooled: one pool per pooled job, none lost
        pooled = reports[1]
        assert pooled.executor_summary()["pools_created"] == pooled_jobs(pooled) > 0
        assert trees[0] == trees[1]
        assert trees[0] and all(
            phases == ["map", "shuffle", "reduce"] for _job, phases in trees[0]
        )
        seq, per = reports
        for stage in seq.stages:
            seq_phases, per_phases = seq.stages[stage].phases, per.stages[stage].phases
            assert [p.job_name for p in seq_phases] == [p.job_name for p in per_phases]
            assert [p.shuffle_bytes for p in seq_phases] == [
                p.shuffle_bytes for p in per_phases
            ]
        assert seq.counters() == per.counters()
        # ... which includes every bucket of the per-partition histogram
        assert any(
            name.startswith("hist.shuffle.partition_bytes.") for name in per.counters()
        )

    @pytest.mark.parametrize("join", ["self", "rs"], ids=["self-static", "rs-static"])
    def test_map_tasks_size_each_pair_once(self, monkeypatch, join):
        """``TaskStats.partition_bytes`` is the per-bucket walk it
        replaced, for every map task of every job of a join: Stage 1
        (combiner), Stage 2 (a record's routes share one value object)
        and Stage 3."""
        checked = []

        def checking_map_task(job, *args, **kwargs):
            stats, partitioned, counters = execute_map_task(job, *args, **kwargs)
            walked: dict[int, int] = {}
            for p, key, value in partitioned:
                walked[p] = walked.get(p, 0) + approx_bytes((key, value))
            assert stats.partition_bytes == walked
            assert stats.output_records == len(partitioned)
            assert (
                sum(walked.values())
                == stats.output_bytes + 8 * stats.output_records
            )
            checked.append((job.name, job.combiner is not None, bool(partitioned)))
            return stats, partitioned, counters

        monkeypatch.setattr(cluster_module, "execute_map_task", checking_map_task)
        report = run_join(make_cluster(), join).report
        jobs = {p.job_name for stats in report.stages.values() for p in stats.phases}
        assert {name for name, _c, nonempty in checked if nonempty} == jobs
        assert any(combiner for _n, combiner, _e in checked)

    def test_shuffle_bytes_pinned_to_the_recursive_walk(self, make_engine):
        """Absolute byte totals of a fixed corpus, measured with the
        two-walk recursive accounting this replaced — "identical to the
        parent" has to outlive the parent."""
        records = generate_dblp(2000, 7)
        sequential = SimulatedCluster()
        persistent = make_engine(config=ClusterConfig(), dfs=InMemoryDFS())
        with persistent:
            for cluster in (sequential, persistent):
                cluster.dfs.write("records", records)
                report = ssjoin_self(
                    cluster, "records", JoinConfig(threshold=0.8, stage3="brj")
                )
                pinned = {
                    name: (
                        stats.counters()["framework.map_output_bytes"],
                        stats.counters()["framework.shuffle_bytes"],
                    )
                    for name, stats in report.stages.items()
                }
                # Stages 1 and 2 are the recursive walk's numbers; Stage 3
                # (BRJ pinned: the walk's numbers are BRJ's) carries the
                # 482 RID pairs once each (1_089_116 / 1_135_004 with one
                # copy per shared prefix token)
                assert pinned == {
                    "stage1": (98_075, 132_003),
                    "stage2": (1_214_640, 1_265_712),
                    "stage3": (958_940, 990_364),
                }
            # really pooled: one pool per pooled job, none lost
            assert report.executor_summary()["pools_created"] == pooled_jobs(report) > 0

    def test_shuffle_handles_size_nothing(self, tmp_path, monkeypatch):
        """Shuffled bytes are computed in ``execute_map_task`` only: the
        handles and the spill path add up what it reports.  Both handles
        then load every partition as the same pairs in the same order."""
        job = word_count_job()
        tasks = [
            execute_map_task(job, task_id, "in", docs, {}, 0, 0.0, None, 4)[:2]
            for task_id, docs in enumerate((["a b a", "c a"], ["b d", "a c e b"]))
        ]
        assert all(stats.partition_bytes for stats, _partitioned in tasks)

        def no_sizing(obj):
            raise AssertionError("shuffle path sized a value again")

        monkeypatch.setattr(cluster_module, "approx_bytes", no_sizing)
        monkeypatch.setattr(executor_module, "approx_bytes", no_sizing)
        driver = DriverShuffle(job.num_reducers)
        spilled = MapShuffle(job.num_reducers, str(tmp_path))
        for task_id, (stats, partitioned) in enumerate(tasks):
            driver.add_task(partitioned, stats.partition_bytes)
            path, segments = executor_module._spill_map_output(
                str(tmp_path), f"m{task_id}a0", partitioned, job.num_reducers
            )
            spilled.add_task(path, segments, stats.partition_bytes)
        expected = [
            sum(stats.partition_bytes.get(p, 0) for stats, _partitioned in tasks)
            for p in range(job.num_reducers)
        ]
        assert driver.partition_bytes() == spilled.partition_bytes() == expected
        assert driver.nonempty_partitions() == spilled.nonempty_partitions()
        for p in range(job.num_reducers):
            assert driver.load(p) == spilled.load(p)
            assert driver.load(p) == [
                (key, value)
                for _stats, partitioned in tasks
                for q, key, value in partitioned
                if q == p
            ]

    def test_driver_shuffle_holds_two_slots_per_pair(self):
        """A held pair costs the driver two list slots — no ``(key,
        value)`` tuple of its own — and ``load`` returns the pairs in
        map-task order."""
        n, num_reducers = 20_000, 4
        partitioned = [(i % num_reducers, (i % 97, 3, 0), (0, i)) for i in range(n)]
        shuffle = DriverShuffle(num_reducers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            shuffle.add_task(partitioned, {p: 1 for p in range(num_reducers)})
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # two 8-byte slots per pair plus list over-allocation (about an
        # eighth); one tuple per pair would add 56 bytes more
        assert grown <= 2 * 8 * n * 1.25
        assert shuffle.load(1) == [(k, v) for p, k, v in partitioned if p == 1]


class _Canary:
    """A key that tells, by weak reference, whether a memo is alive."""


def _recording_jobs(cluster) -> list[MapReduceJob]:
    """Make *cluster* record every job it runs; returns the list."""
    jobs: list[MapReduceJob] = []
    run_job = cluster.run_job

    def recording_run_job(job):
        jobs.append(job)
        return run_job(job)

    cluster.run_job = recording_run_job
    return jobs


class TestKeyMemo:
    """One key memo per map phase per process: a key is partitioned and
    sized once, every triple carries its one canonical object, and the
    memo goes with its phase."""

    @pytest.mark.parametrize("join", ["self", "rs"])
    def test_a_shared_memo_changes_no_result(self, join):
        """Every map task of every job (Stage 1 with its combiner, Stage
        2, Stage 3) returns the same triples, ``TaskStats`` and counters
        under one shared memo as under a fresh one per call — the
        positional call ``benchmarks/wall/probes.py`` makes."""
        cluster = make_cluster()
        jobs = _recording_jobs(cluster)
        run_join(cluster, join)
        dfs, slots = cluster.dfs, cluster.config.map_slots
        assert {job.name for job in jobs} >= {"bto-count", "bto-sort"}
        assert any(job.name.startswith("stage2-") for job in jobs)
        for job in jobs:
            broadcast = Broadcast({name: dfs.read_all(name) for name in job.broadcast})
            memo: dict = {}
            blocks = [
                (name, block.records)
                for name in job.inputs
                for block in dfs.file(name).blocks
            ]
            for task_id, (name, records) in enumerate(blocks):
                args = (job, task_id, name, records, broadcast, 0, 0.0, None, slots)
                fresh = execute_map_task(*args)
                shared = execute_map_task(*args, key_memo=memo)
                assert shared[1] == fresh[1]
                assert shared[2] == fresh[2]
                assert replace(shared[0], cpu_seconds=0.0) == replace(
                    fresh[0], cpu_seconds=0.0
                )
                # interned: each triple carries the memo's own key object
                assert all(key is memo[key][2] for _p, key, _v in shared[1])

    def test_a_combined_count_is_sized_without_a_call(self, monkeypatch):
        """bto-count's combiner emits ``(token, int)``: an exact ``int``
        value is billed approx_bytes' 8 bytes without calling it, and
        the per-task partition sizes, ``framework.map_output_bytes`` and
        the job's ``shuffle.partition_bytes`` histogram are those of a
        call per pair."""
        int_calls: list[str] = []
        running: list[str] = []
        sized = cluster_module.approx_bytes

        def counting_approx_bytes(obj):
            if type(obj) is int and running:
                int_calls.append(running[-1])
            return sized(obj)

        monkeypatch.setattr(cluster_module, "approx_bytes", counting_approx_bytes)
        cluster = make_cluster()
        jobs, stats = [], {}
        run_job = cluster.run_job

        def tracking_run_job(job):
            jobs.append(job)
            running.append(job.name)
            try:
                stats[job.name] = run_job(job)
                return stats[job.name]
            finally:
                running.pop()

        cluster.run_job = tracking_run_job
        run_join(cluster, "self")
        assert "bto-count" not in int_calls
        (job,) = [job for job in jobs if job.name == "bto-count"]
        assert job.combiner is not None
        dfs, slots = cluster.dfs, cluster.config.map_slots
        totals = [0] * job.num_reducers
        output_bytes = 0
        blocks = [block.records for block in dfs.file(job.inputs[0]).blocks]
        for task_id, records in enumerate(blocks):
            task_stats, partitioned, counters = execute_map_task(
                job, task_id, job.inputs[0], records, Broadcast(), 0, 0.0, None, slots
            )
            assert any(type(value) is int for _p, _k, value in partitioned)
            expected: dict[int, int] = {}
            for p, key, value in partitioned:
                expected[p] = expected.get(p, 0) + sized((key, value))
                output_bytes += sized(key) + sized(value)
                totals[p] += sized((key, value))
            assert task_stats.partition_bytes == expected
        job_counters = stats["bto-count"].counters
        assert job_counters["framework.map_output_bytes"] == output_bytes
        reference = Counters()
        for total in totals:
            observe_into(reference.increment, "shuffle.partition_bytes", total)
        assert {
            name: count for name, count in job_counters.items()
            if name.startswith("hist.shuffle.partition_bytes")
        } == reference.as_dict()

    def test_the_driver_shuffle_holds_one_object_per_key(self):
        """After a sequential Stage-2 map phase, equal keys in the
        ``DriverShuffle`` are one object."""
        cluster = make_cluster()
        shuffles = []
        run_map_phase = cluster._run_map_phase

        def keeping_map_phase(job, map_inputs, broadcast):
            results, shuffle, ex = run_map_phase(job, map_inputs, broadcast)
            if job.name.startswith("stage2-"):
                shuffles.append(shuffle)
            return results, shuffle, ex

        cluster._run_map_phase = keeping_map_phase
        run_join(cluster, "self")
        (shuffle,) = shuffles
        held = [key for keys in shuffle._keys for key in keys]
        assert len(held) > len(set(held)) > 0
        assert len({id(key) for key in held}) == len(set(held))

    @pytest.mark.parametrize(
        "engine, faults",
        [
            ("sequential", "corrupt:stage2-*:map:*:0"),
            ("persistent", "crash:stage2-*:map:1:0"),
            ("persistent", "crash:*:map:*:0"),
            ("persistent", "raise:stage2-*:map:1:0"),
        ],
        ids=["sequential-corrupt", "pooled-crash", "pooled-degraded", "pooled-raise"],
    )
    def test_the_memo_lives_for_one_phase(self, make_engine, monkeypatch, engine, faults):
        """Every memo a map task of the driver is handed is gone before
        the job's reduce phase starts, so neither the job nor the cluster
        holds one after ``run_job``; a failed or lost attempt, whose
        keys stay memoised, leaves the join equal to the reference.  On
        the pool, a lost or failed first attempt is retried in the
        driver, with the phase's driver memo ("degraded": every map
        phase loses its pool and the driver runs all of its tasks)."""
        canaries: list[weakref.ref] = []

        def tagging_map_task(*args, key_memo, **kwargs):
            canary = _Canary()
            key_memo[canary] = (0, 0, canary)
            canaries.append(weakref.ref(canary))
            return execute_map_task(*args, key_memo=key_memo, **kwargs)

        for module in (cluster_module, executor_module):
            monkeypatch.setattr(module, "execute_map_task", tagging_map_task)
        reduce_starts = []
        for engine_class in (SimulatedCluster, executor_module.PersistentParallelCluster):

            def checking_reduce_phase(cluster, *args, _run=engine_class._run_reduce_phase):
                reduce_starts.append(all(ref() is None for ref in canaries))
                return _run(cluster, *args)

            monkeypatch.setattr(engine_class, "_run_reduce_phase", checking_reduce_phase)
        run = cell(make_engine, engine=engine, faults=faults)
        assert run.counters["fault.injected"] >= 1
        # the driver ran map tasks (a crashed worker's memo died with it)
        assert canaries and reduce_starts
        assert all(reduce_starts) and all(ref() is None for ref in canaries)
        assert executor_module._W_KEY_MEMO == {}


class TestPoolLifecycle:
    def test_one_pool_per_pooled_job(self, make_engine):
        """A job whose map phase pools forks one pool, and its reduce
        phase runs on that same pool — never one pool per phase."""
        with make_engine() as persistent:
            report = run_join(persistent, "self").report
        summary = report.executor_summary()
        assert summary["pools_created"] == pooled_jobs(report) > 1
        assert summary["pooled_phases"] == 2 * pooled_jobs(report)

    def test_no_pool_outlives_its_job(self, make_engine):
        """Whether ``run_job`` returns or raises, it leaves no pool, no
        worker and no reference to the job's inputs or broadcast in the
        driver — across two joins on one cluster and a failed one."""
        children_before = set(multiprocessing.active_children())
        persistent = make_engine()
        ends, broadcasts = [], []
        run_job, load_broadcast = persistent.run_job, persistent._load_broadcast

        def checked_run_job(job):
            try:
                return run_job(job)
            finally:
                ends.append((job.name, persistent._pool, persistent._initargs))

        def kept_broadcast(job):
            loaded = load_broadcast(job)
            broadcasts.append(weakref.ref(loaded[0]))
            return loaded

        persistent.run_job = checked_run_job
        persistent._load_broadcast = kept_broadcast
        with persistent:
            reports = [
                run_join(persistent, "self", prefix=prefix).report
                for prefix in ("a", "b")
            ]
            persistent.fault_plan = FaultPlan.parse("raise:oprj:map:0:*")
            with pytest.raises(TaskError):
                run_join(persistent, "self", prefix="c")
        jobs = sum(len(stats.phases) for r in reports for stats in r.stages.values())
        assert len(ends) == jobs + 4  # and the failed join's four, OPRJ raising
        assert all(pool is None and state is None for _n, pool, state in ends)
        assert set(multiprocessing.active_children()) <= children_before
        gc.collect()
        assert broadcasts and all(ref() is None for ref in broadcasts)
        for report in reports:
            assert report.executor_summary()["pools_created"] == pooled_jobs(report)

    @pytest.mark.parametrize("stage3", ["oprj", "brj"])
    @pytest.mark.parametrize("disk", [False, True], ids=["memory-dfs", "disk-dfs"])
    def test_every_phase_pools_under_make_engine(
        self, make_engine, tmp_path, stage3, disk
    ):
        """The fixture's promise holds on either DFS: every phase of
        every job runs on the pool, each pooled job forks one, and a map
        task's dispatch entry costs the same bytes whatever the job's
        records or broadcast — none of them crosses a pickle boundary."""
        config = BASE.with_options(stage3=stage3)
        cluster_config = small_config()
        dfs = (
            LocalDiskDFS(tmp_path, num_nodes=cluster_config.num_nodes, block_bytes=512)
            if disk
            else None
        )
        with make_engine(config=cluster_config, dfs=dfs) as persistent:
            run = run_join(persistent, "self", config)
        phases = [p for stats in run.report.stages.values() for p in stats.phases]
        assert [p.job_name for p in phases] == [
            p.job_name
            for stats in reference("self", config).report.stages.values()
            for p in stats.phases
        ]
        modes = {
            (p.job_name, side): ex.mode
            for p in phases
            for side, ex in (("map", p.map_executor), ("reduce", p.reduce_executor))
        }
        assert set(modes.values()) == {"pool"}, modes
        summary = run.report.executor_summary()
        assert summary["pools_created"] == pooled_jobs(run.report) == len(phases)
        per_task = {p.map_executor.bytes_to_workers / p.map_executor.tasks for p in phases}
        assert len(per_task) == 1, per_task
        assert run.pairs == reference("self", config).pairs

    def test_executor_summary_in_report(self, make_engine):
        with make_engine() as persistent:
            report = run_join(persistent, "self").report
        summary = report.executor_summary()
        assert summary["pools_created"] == pooled_jobs(report)
        assert summary["pooled_phases"] > 0
        assert summary["spill_bytes_written"] == summary["spill_bytes_read"]
        # one definition of utilisation: busy / (workers x pool wall)
        assert summary["pool_capacity_s"] == pytest.approx(
            2 * summary["pool_wall_s"]
        )
        util = float(format_executor_summary(summary).split()[-1])
        assert 0.0 <= util <= 1.0

    def test_single_core_host_runs_inline(self, monkeypatch):
        """On a 1-core host worker processes only time-slice, so the
        engine degrades to inline execution — same answers, no pool."""
        monkeypatch.setattr(executor_module, "_effective_cores", lambda: 1)
        monkeypatch.setattr(executor_module, "MIN_TASKS_FOR_POOL", 1)
        persistent = PersistentParallelCluster(
            small_config(), InMemoryDFS(num_nodes=4, block_bytes=512), workers=2
        )
        with persistent:
            run = run_join(persistent, "self")
        assert run.pairs == reference("self").pairs
        summary = run.report.executor_summary()
        assert summary["pools_created"] == summary["pooled_phases"] == 0
        assert summary["inline_phases"] > 0

    def test_workers_default_to_the_effective_cores(self, monkeypatch):
        """Under a CPU-affinity limit the default pool is no larger than
        the cores this process may run on."""
        monkeypatch.setattr(executor_module, "_effective_cores", lambda: 3)
        assert PersistentParallelCluster().workers == 3

    def test_memory_error_propagates_from_pool_worker(self, make_engine):
        persistent = make_engine(config=small_config(memory_per_task_mb=0.0001))
        with persistent:
            with pytest.raises(InsufficientMemoryError) as exc_info:
                run_join(persistent, "self")
            assert exc_info.value.limit_bytes > 0  # fields survived pickling
            # the engine stays usable after a failed phase
            persistent.dfs.write("more", ["0\tx"])

    def test_teardown_survives_a_leaked_queue_lock(self, make_engine):
        """A worker killed mid-send dies holding the result queue's
        process-shared write lock, and no other worker can then report
        a result.  The pool must still break, the driver finish the
        phase, and every worker of the broken pool be reaped.  (Holding
        the lock in the parent and SIGKILLing a worker reproduces this
        deterministically.)"""
        docs = [f"w{i % 17} w{i % 5} w{i % 3}" for i in range(300)]
        sequential = make_engine("sequential")
        sequential.dfs.write("docs", docs)
        sequential.run_job(word_count_job())
        # every first map attempt dawdles, so the phase is mid-flight
        # when the worker dies; the driver's retries do not
        persistent = make_engine(fault_plan=FaultPlan.parse("sleep:wc:map:*:0:0.2"))
        persistent.dfs.write("docs", docs)
        sabotaged = threading.Event()
        broken: dict = {}

        def sabotage():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                pool = persistent._pool
                if pool is not None and len(pool._processes or ()) == 2:
                    broken["pids"] = list(pool._processes)
                    broken["lock"] = pool._result_queue._wlock
                    broken["lock"].acquire()
                    os.kill(broken["pids"][0], signal.SIGKILL)
                    sabotaged.set()
                    return
                time.sleep(0.001)

        saboteur = threading.Thread(target=sabotage, daemon=True)
        saboteur.start()
        started = time.monotonic()
        try:
            stats = persistent.run_job(word_count_job())
            assert time.monotonic() - started < 10
        finally:
            saboteur.join(10)
            if "lock" in broken:
                broken["lock"].release()
        assert not saboteur.is_alive() and sabotaged.is_set()
        # the map phase forked one pool, lost it, and ran every lost
        # task in the driver, from its second attempt
        assert stats.map_executor.pools_created == 1
        lost = stats.counters["task.lost"]
        assert lost >= 1 and "task.retries" not in stats.counters
        assert stats.counters["hist.task.attempts.b2"] == lost
        assert persistent.dfs.read_all("counts") == sequential.dfs.read_all("counts")
        for pid in broken["pids"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestWithNodes:
    def test_with_nodes_preserves_every_field(self):
        config = ClusterConfig(
            num_nodes=4, memory_per_task_mb=7.5, map_slots_per_node=3,
            job_startup_s=0.25,
        )
        scaled = config.with_nodes(9)
        assert scaled.num_nodes == 9
        assert scaled.memory_per_task_mb == 7.5
        assert scaled.map_slots_per_node == 3
        assert scaled.job_startup_s == 0.25
        # the original is untouched (dataclasses.replace, not mutation)
        assert config.num_nodes == 4


token_sets = st.lists(
    st.sets(st.sampled_from([f"tok{i}" for i in range(18)]), min_size=1, max_size=8),
    min_size=2,
    max_size=20,
)


class TestEncodingDifferential:
    """The kernel is order-generic: rank-encoded integer arrays and
    lexicographically sorted string tuples yield the same RID pairs."""

    @given(sets=token_sets, threshold=st.sampled_from([0.5, 0.75]))
    @settings(max_examples=60, deadline=None)
    def test_ppjoin_rank_vs_string(self, sets, threshold):
        freqs = {}
        for s in sets:
            for tok in s:
                freqs[tok] = freqs.get(tok, 0) + 1
        order = TokenOrder.from_frequencies(freqs)
        rank = [Projection(i, order.encode_array(s)) for i, s in enumerate(sets)]
        text = [Projection(i, tuple(sorted(s))) for i, s in enumerate(sets)]
        sim = Jaccard()
        rank_pairs = {p[:2] for p in ppjoin_self_join(rank, sim, threshold)}
        text_pairs = {p[:2] for p in ppjoin_self_join(text, sim, threshold)}
        assert rank_pairs == text_pairs
