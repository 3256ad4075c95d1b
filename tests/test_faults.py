"""Chaos suite for the fault-tolerance layer.

Pins the hard invariant: any fault plan the retry budget can absorb
yields **bit-identical** join output — and identical counters once
fault-tolerance bookkeeping is stripped — versus a fault-free run, on
both engines, both kernels, self and R-S joins.  Each such run is a
cell of the differential matrix (``tests/matrix.py``).

Also covers the fault vocabulary itself (plan parsing, first-match
lookup, seeded generation), retry-budget exhaustion surfacing an
actionable :class:`TaskError`, non-retryable exceptions crossing the
retry layer raw, the persistent engine's hand-over of failed and lost
first attempts to the driver's retry loop, and stage checkpoint/resume
(including identity mismatch and on-disk corruption refusal).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import re
import tempfile
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.join.checkpoint import CheckpointMismatchError, JoinCheckpoint
from repro.join.driver import ssjoin_self
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.diskdfs import LocalDiskDFS
from repro.mapreduce.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    TaskError,
    strip_fault_counters,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError
from repro.obs.metrics import histograms
from repro.obs.trace import Tracer

from tests.conftest import fork_only, random_records, small_config
from tests.matrix import (
    BASE,
    WORKLOADS,
    assert_same_join,
    cell,
    inputs,
    pooled_jobs,
    reference,
    run_join,
)


# ---------------------------------------------------------------------------
# the fault vocabulary itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_compact_form(self):
        plan = FaultPlan.parse("crash:*:map:1:0;sleep:stage2-*:reduce:*:0:0.3")
        assert len(plan.specs) == 2
        crash, sleep = plan.specs
        assert (crash.kind, crash.phase, crash.task, crash.attempt) == (
            "crash", "map", 1, 0,
        )
        assert (sleep.job, sleep.task, sleep.attempt) == ("stage2-*", "*", 0)
        assert sleep.sleep_s == 0.3

    def test_parse_defaults_missing_fields_to_wildcards(self):
        (spec,) = FaultPlan.parse("raise:brj-*").specs
        assert (spec.phase, spec.task, spec.attempt) == ("*", "*", "*")

    @pytest.mark.parametrize(
        "text", ["explode:*:map:0:0", "raise:*:shuffle:0:0", "raise:*:map:x:0", "raise"]
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_lookup_first_match_wins(self):
        plan = FaultPlan.parse("raise:stage2-*:map:*:*;sleep:*:map:*:*")
        spec = plan.lookup("stage2-bk-self", "map", 3, 1)
        assert spec is not None and spec.kind == "raise"
        spec = plan.lookup("bto-count", "map", 0, 0)
        assert spec is not None and spec.kind == "sleep"
        assert plan.lookup("bto-count", "reduce", 0, 0) is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse("raise:*")

    def test_random_is_seed_deterministic_and_absorbable(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        plan = FaultPlan.random(13, num_faults=5)
        assert len(plan.specs) == 5
        # attempt-0-only faults: a budget of two attempts absorbs them
        assert all(spec.attempt == 0 for spec in plan.specs)
        assert all(spec.kind in FAULT_KINDS for spec in plan.specs)

    def test_strip_fault_counters(self):
        counters = {
            "stage2.pairs_output": 9,
            "fault.injected": 3,
            "fault.crash": 1,
            "task.retries": 2,
            "resume.stages_skipped": 1,
            "hist.task.attempts.sum": 2,
            "hist.reduce.group_size.sum": 40,
        }
        assert strip_fault_counters(counters) == {
            "stage2.pairs_output": 9,
            "hist.reduce.group_size.sum": 40,
        }

    def test_retry_policy_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# sequential engine: every fault kind is absorbed
# ---------------------------------------------------------------------------


class TestSequentialFaultKinds:
    @pytest.mark.parametrize(
        "spec",
        [
            "raise:*:map:1:0",
            "raise:stage2-*:reduce:0:0",
            "crash:*:map:0:0",
            "corrupt:*:reduce:1:0",
            "sleep:*:map:0:0:0.0",
        ],
    )
    def test_fault_absorbed_bit_identically(self, make_engine, spec):
        assert cell(make_engine, faults=spec).counters["fault.injected"] >= 1

    def test_retries_counted_and_in_metrics(self, make_engine):
        run = cell(
            make_engine, faults="raise:stage2-*:map:0:0;raise:stage2-*:map:0:1"
        )
        counters = run.counters
        assert counters["fault.injected"] == 2
        assert counters["fault.raise"] == 2
        assert counters["task.retries"] == 2
        # the winning attempt's number rides the task.attempts histogram
        hist = histograms(counters)["task.attempts"]
        assert hist.count >= 1

    def test_fault_events_hit_the_tracer(self, make_engine):
        tracer = cell(
            make_engine, faults="raise:bto-count:map:0:0", observer="trace"
        ).observer
        names = [event["name"] for event in tracer.raw_events()]
        assert "fault-injected" in names
        assert "task-retry" in names
        injected = next(
            e for e in tracer.raw_events() if e["name"] == "fault-injected"
        )
        assert injected["args"]["job"] == "bto-count"
        assert injected["args"]["kind"] == "raise"


# ---------------------------------------------------------------------------
# retry exhaustion and non-retryable errors
# ---------------------------------------------------------------------------


def word_count_job(mapper=None) -> MapReduceJob:
    def count_words(line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def total(key, values, ctx):
        ctx.emit(key, sum(values))

    return MapReduceJob(
        name="wc", inputs=["docs"], output="counts",
        mapper=mapper or count_words, reducer=total, num_reducers=2,
    )


class TestRetryExhaustion:
    def test_persistent_fault_exhausts_budget(self, make_engine):
        cluster = make_engine(
            "sequential",
            fault_plan=FaultPlan.parse("raise:wc:map:0:*"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        cluster.dfs.write("docs", ["a b", "b c"])
        with pytest.raises(TaskError) as exc_info:
            cluster.run_job(word_count_job())
        err = exc_info.value
        assert (err.job, err.phase, err.task) == ("wc", "map", 0)
        assert err.attempt == 2  # the last of max_attempts=3
        assert "FaultInjected" in err.cause or "injected fault" in err.cause
        assert "wc" in str(err) and "attempt 2" in str(err)

    def test_max_attempts_one_means_no_retry(self, make_engine):
        cluster = make_engine(
            "sequential",
            fault_plan=FaultPlan.parse("raise:wc:map:0:0"),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        cluster.dfs.write("docs", ["a b"])
        with pytest.raises(TaskError):
            cluster.run_job(word_count_job())

    def test_genuine_bug_reports_key_sample(self, make_engine):
        def poisoned(line, ctx):
            if "boom" in line:
                raise ValueError("cannot parse record")
            ctx.emit(line, 1)

        cluster = make_engine("sequential", retry_policy=RetryPolicy(max_attempts=2))
        cluster.dfs.write("docs", ["fine one", "boom here", "fine two"])
        with pytest.raises(TaskError) as exc_info:
            cluster.run_job(word_count_job(mapper=poisoned))
        err = exc_info.value
        assert err.cause == "ValueError: cannot parse record"
        assert err.key_sample is not None and "boom" in err.key_sample
        assert "boom" in str(err)

    def test_fault_injected_exception_names_the_attempt(self):
        err = FaultInjected("wc", "map", 3, 1)
        assert "wc" in str(err) and "task 3" in str(err) and "attempt 1" in str(err)

    def test_memory_error_crosses_retry_layer_raw(self, make_engine):
        cluster = make_engine(
            "sequential", small_config(memory_per_task_mb=0.0001),
            fault_plan=FaultPlan.parse("sleep:*:map:0:0:0.0"),
        )
        with pytest.raises(InsufficientMemoryError) as exc_info:
            run_join(cluster, "self")
        assert exc_info.value.limit_bytes > 0


# ---------------------------------------------------------------------------
# persistent engine: crashes, retries in the driver, cleanup
# ---------------------------------------------------------------------------


def _fault_instants(tracer) -> list[str]:
    return [
        event["name"] for event in tracer.raw_events()
        if event["ph"] == "i" and event["cat"] == "fault"
    ]


@fork_only
class TestExecutorChaos:
    def test_worker_crash_forks_a_fresh_pool_and_matches_sequential(self, make_engine):
        run = cell(make_engine, engine="persistent", faults="crash:stage2-*:map:1:0")
        # one pool per pooled job, plus the fresh one stage 2's reduce
        # phase forks after the crash broke its map phase's
        pools = run.report.executor_summary()["pools_created"]
        assert pools == pooled_jobs(run.report) + 1
        assert run.counters["fault.injected"] >= 1
        assert run.counters["task.lost"] >= 1

    def test_crash_while_other_chunks_are_in_flight(self, make_engine):
        """Task 0's worker dies at once while the other worker is still
        inside its chunk (every other first attempt dawdles): the pool
        fails both, and the driver re-runs them.  Nothing outlives
        ``close()``: no spill root, no worker process."""
        roots_before = _spill_roots()
        children_before = set(multiprocessing.active_children())
        run = cell(
            make_engine, engine="persistent",
            faults="crash:stage2-*:map:0:0;sleep:stage2-*:map:*:0:0.05",
        )
        assert run.counters["task.lost"] >= 1
        assert _spill_roots() - roots_before == set()
        assert set(multiprocessing.active_children()) <= children_before

    def test_a_failed_first_attempt_is_retried_in_the_driver(self, make_engine):
        """The pool runs first attempts only: task 1's failed one is
        retried by the driver's loop, which books it as the sequential
        engine does."""

        def where_mapped(line, ctx):
            ctx.emit(line, os.getpid())

        def keep(line, pids, ctx):
            ctx.write((line, *pids))

        job = MapReduceJob(
            name="wc", inputs=["docs"], output="pids",
            mapper=where_mapped, reducer=keep, num_reducers=2,
        )
        booked = []
        for engine in ("sequential", "persistent"):
            cluster = make_engine(
                engine, fault_plan=FaultPlan.parse("raise:wc:map:1:0")
            )
            cluster.dfs.write("docs", [f"line {i:02d} {'x' * 40}" for i in range(40)])
            try:
                stats = cluster.run_job(job)
            finally:
                cluster.close()
            booked.append({
                name: value for name, value in stats.counters.items()
                if name.startswith(("fault.", "task.", "hist.task."))
            })
        assert booked[0] == booked[1]
        assert booked[0]["task.retries"] == 1 and "task.lost" not in booked[0]
        assert stats.map_executor.mode == "pool"
        # only task 1's lines were mapped in the driver
        blocks = cluster.dfs.file("docs").blocks
        assert len(blocks) > 2
        in_driver = {
            line for line, pid in cluster.dfs.read_all("pids") if pid == os.getpid()
        }
        assert in_driver == set(blocks[1].records)

    def test_a_map_phase_pool_death_leaves_the_reduce_phase_a_fresh_pool(
        self, make_engine
    ):
        """The driver finishes the map phase whose pool died; the job's
        reduce phase forks a fresh one — at most one pool per phase."""
        persistent = make_engine(fault_plan=FaultPlan.parse("crash:wc:map:0:0"))
        persistent.dfs.write("docs", [f"w{i} w{i + 1} " * 40 for i in range(40)])
        stats = persistent.run_job(word_count_job())
        assert stats.counters["task.lost"] >= 1
        assert (stats.map_executor.mode, stats.map_executor.pools_created) == ("pool", 1)
        assert (stats.reduce_executor.mode, stats.reduce_executor.pools_created) == (
            "pool", 1,
        )
        assert persistent._pool is None

    @pytest.mark.parametrize(
        "spec, cause",
        [
            ("raise:wc:map:1:0", "injected fault"),
            ("crash:wc:map:1:0", "attempt lost to a dead worker, retry budget spent"),
        ],
        ids=["failed", "lost"],
    )
    def test_max_attempts_one_never_retries_a_pooled_first_attempt(
        self, make_engine, spec, cause
    ):
        tracer = Tracer()
        persistent = make_engine(
            fault_plan=FaultPlan.parse(spec), retry_policy=RetryPolicy(max_attempts=1)
        )
        persistent.tracer = tracer
        persistent.dfs.write("docs", [f"w{i} w{i + 1} " * 40 for i in range(40)])
        with pytest.raises(TaskError) as exc_info:
            persistent.run_job(word_count_job())
        err = exc_info.value
        assert (err.job, err.phase, err.attempt) == ("wc", "map", 0)
        assert cause in err.cause
        assert "task-retry" not in _fault_instants(tracer)
        assert persistent._pool is None

    def test_repeated_pool_death_degrades_to_inline(self, make_engine):
        """Every pooled map phase loses its pool and is finished inline,
        by the driver; no state outlives the phase, so each job forks a
        fresh pool and every later phase is pooled again."""
        run = cell(
            make_engine, engine="persistent", faults="crash:*:map:*:0",
            observer="trace",
        )
        jobs = pooled_jobs(run.report)
        assert jobs > 1
        assert _fault_instants(run.observer).count("pool-lost") == jobs
        phases = [
            phase
            for stats in run.report.stages.values()
            for job in stats.phases
            for phase in (job.map_executor, job.reduce_executor)
        ]
        assert all(phase.pools_created <= 1 for phase in phases)
        assert run.report.executor_summary()["pooled_phases"] == 2 * jobs
        assert run.cluster._pool is None

    def test_degraded_phase_bookkeeping(self, make_engine):
        """A map phase that loses its pool is finished by the driver:
        every first map attempt crashes its worker, so each of the 4
        pooled map phases loses every task in flight (17 in all), and
        the driver runs each from its second attempt — a lost attempt is
        no retry.  Each task books its crash fault once, at submission."""
        run = cell(
            make_engine, engine="persistent", faults="crash:*:map:*:0",
            observer="trace",
        )
        booked = {
            name: value
            for name, value in run.counters.items()
            if name.startswith(("fault.injected", "task.", "hist.task.attempts."))
        }
        assert booked == {
            "fault.injected": 17,
            "task.lost": 17,
            "hist.task.attempts.b2": 17,
            "hist.task.attempts.n": 17,
            "hist.task.attempts.sum": 34,
        }
        instants = _fault_instants(run.observer)
        assert instants.count("pool-lost") == 4
        assert "task-retry" not in instants
        # each map phase forked its job's pool, each reduce phase a fresh one
        assert run.report.executor_summary()["pools_created"] == 8

    def test_degraded_engine_frees_its_dfs_after_close(self, monkeypatch):
        """Nothing of the last phase the driver finished after a pool
        death stays pinned in the driver: once the cluster is closed and
        dropped, so is its DFS."""
        from repro.mapreduce import executor

        monkeypatch.setattr(executor, "MIN_TASKS_FOR_POOL", 1)
        monkeypatch.setattr(executor, "MIN_CORES_FOR_POOL", 1)
        dfs = InMemoryDFS(num_nodes=4, block_bytes=512)
        cluster = executor.PersistentParallelCluster(
            small_config(), dfs, workers=2,
            fault_plan=FaultPlan.parse("crash:*:map:*:0"),
        )
        with cluster:
            dfs.write("r", random_records(random.Random(3), 300))
            report = ssjoin_self(cluster, "r", BASE)
            assert report.counters()["task.lost"] > 0
        dfs_ref = weakref.ref(dfs)
        del cluster, dfs, report
        gc.collect()
        assert dfs_ref() is None

    def test_exhaustion_tears_pool_down_and_engine_stays_usable(self, make_engine):
        persistent = make_engine(
            fault_plan=FaultPlan.parse("raise:stage2-*:map:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with persistent:
            with pytest.raises(TaskError) as exc_info:
                run_join(persistent, "self")
            assert exc_info.value.phase == "map"
            # the failed phase tore the pool down (no orphaned workers)
            assert persistent._pool is None
            # and a fault-free rerun on the same engine still succeeds
            persistent.fault_plan = None
            assert_same_join(run_join(persistent, "self", prefix="retry"), "self")


def _spill_roots(base: str | None = None) -> set[str]:
    """The executors' shuffle spill roots currently present under *base*
    (default: where the executor puts them on this host)."""
    if base is None:
        base = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
    return {
        os.path.join(base, e)
        for e in os.listdir(base)
        if e.startswith("repro-shuffle-")
    }


@fork_only
class TestSpillHygiene:
    """``/dev/shm`` hygiene of the spill shuffle: every scenario — clean,
    chaos, failed phase, phases the driver finished — must leave no shuffle segment
    file behind while the engine lives and no spill root after
    ``close()``."""

    CHAOS_SPECS = [
        "crash:stage2-*:map:1:0",
        "crash:*:map:*:0",
        "corrupt:stage2-*:map:0:0",
        "raise:stage1-*:map:*:0",
    ]

    @staticmethod
    def _assert_roots_empty(before: set[str]) -> None:
        # segment files live only within a job: once the join returns,
        # every per-job shuffle handle has removed its phase directory
        for root in _spill_roots() - before:
            assert os.listdir(root) == []

    def test_clean_run_and_close_leave_no_segments(self, make_engine):
        before = _spill_roots()
        persistent = make_engine()
        with persistent:
            run = run_join(persistent, "self")
            assert len(_spill_roots() - before) == 1
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()
        assert_same_join(run, "self")
        assert run.report.executor_summary()["spill_bytes_written"] > 0
        persistent.close()  # idempotent

    @pytest.mark.parametrize("spec", CHAOS_SPECS)
    def test_chaos_run_leaks_no_segments(self, make_engine, spec):
        before = _spill_roots()
        with make_engine(fault_plan=FaultPlan.parse(spec)) as persistent:
            run = run_join(persistent, "self")
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()
        assert_same_join(run, "self")
        # the shuffle really ran through spill files
        assert run.report.executor_summary()["spill_bytes_written"] > 0

    def test_failed_phase_sweeps_its_segments(self, make_engine):
        before = _spill_roots()
        persistent = make_engine(
            fault_plan=FaultPlan.parse("raise:stage2-*:map:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with persistent:
            with pytest.raises(TaskError):
                run_join(persistent, "self")
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()

    @pytest.mark.parametrize(
        "spec", ["squeeze:oprj:map:*:0:0.00001", "squeeze:stage2-*:reduce:*:0:0.00001"]
    )
    def test_memory_error_sweeps_its_segments(self, make_engine, spec):
        """A pooled phase that dies of ``InsufficientMemoryError`` (no
        ladder to catch it) leaves no spill file: neither its own nor
        those of the map phase feeding it."""
        before = _spill_roots()
        with make_engine(fault_plan=FaultPlan.parse(spec)) as persistent:
            with pytest.raises(InsufficientMemoryError):
                run_join(persistent, "self", BASE.with_options(auto_degrade=False))
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()

    def test_degraded_engine_leaks_no_segments(self, make_engine):
        """Every first attempt, map and reduce, crashes its worker: the
        driver finishes every pooled phase, reading and writing the same
        spill files the workers do."""
        before = _spill_roots()
        persistent = make_engine(fault_plan=FaultPlan.parse("crash:*:*:*:0"))
        with persistent:
            run = run_join(persistent, "self")
            assert run.counters["task.lost"] > 0
            self._assert_roots_empty(before)
        assert_same_join(run, "self")
        assert _spill_roots() - before == set()

    def test_spill_falls_back_when_shm_dir_missing(
        self, make_engine, tmp_path, monkeypatch
    ):
        from repro.mapreduce import executor as ex_mod

        monkeypatch.setattr(ex_mod, "_SHM_DIR", str(tmp_path / "no-shm"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        shm_before = _spill_roots()
        with make_engine() as persistent:
            run = run_join(persistent, "self")
            # the spill root landed in the temp directory, not /dev/shm
            assert len(_spill_roots(str(tmp_path))) == 1
            assert _spill_roots() == shm_before
        assert _spill_roots(str(tmp_path)) == set()
        assert_same_join(run, "self")
        assert run.report.executor_summary()["spill_bytes_written"] > 0


# ---------------------------------------------------------------------------
# differential chaos: random absorbable plans, both engines
# ---------------------------------------------------------------------------


class TestDifferentialChaos:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_plan_self_join_sequential(self, make_engine, seed, kernel):
        cell(make_engine, "self", BASE.with_options(kernel=kernel), faults=FaultPlan.random(seed))

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_random_plan_rs_join_sequential(self, make_engine, seed, kernel):
        cell(make_engine, "rs", BASE.with_options(kernel=kernel), faults=FaultPlan.random(seed))

    @fork_only
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_random_plan_self_join_persistent(self, make_engine, kernel):
        cell(
            make_engine, "self", BASE.with_options(kernel=kernel),
            engine="persistent", faults=FaultPlan.random(11),
        )

    @fork_only
    def test_random_plan_rs_join_persistent(self, make_engine):
        cell(
            make_engine, "rs", BASE.with_options(kernel="bk"),
            engine="persistent", faults=FaultPlan.random(12),
        )

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_absorbable_plan_is_absorbed(self, make_engine, seed):
        cell(
            make_engine, "self", BASE.with_options(kernel="bk"),
            faults=FaultPlan.random(seed, sleep_s=0.0),
        )


# ---------------------------------------------------------------------------
# engine parity: one attempt contract, one retry loop
# ---------------------------------------------------------------------------


def _bookkeeping(report, prefixes):
    """The fault-tolerance counters under *prefixes*, histograms included."""
    wanted = prefixes + tuple(f"hist.{prefix}" for prefix in prefixes)
    return {
        name: value
        for name, value in report.counters().items()
        if name.startswith(wanted)
    }


@fork_only
class TestEngineParity:
    """What a fault does to an attempt and how a failure is reported is
    ``faults.run_attempt`` on both engines, and every retry runs in the
    driver's loop; a plan must therefore book identically whether a
    task's first attempt ran in the driver or on the pool."""

    @pytest.mark.parametrize(
        "spec, prefixes",
        [
            ("raise:stage2-*:map:1:0;raise:stage2-*:map:1:1", ("fault.", "task.")),
            ("raise:brj-join:reduce:0:0", ("fault.", "task.")),
            ("corrupt:stage2-*:reduce:*:0", ("fault.", "task.")),
            ("sleep:*:map:0:0:0.0", ("fault.", "task.")),
            ("squeeze:stage2-*:reduce:*:0:0.005", ("fault.", "task.")),
            # a pooled crash really kills the worker: the attempt is
            # *lost* (with whatever shared its pool), not failed, so
            # only what was injected is comparable
            ("crash:stage2-*:map:1:0", ("fault.",)),
        ],
    )
    def test_absorbed_plan_books_identically(self, make_engine, spec, prefixes):
        # BRJ, so that the plan naming its brj-join job has one to hit
        config = BASE.with_options(stage3="brj")
        seq, pooled = (
            cell(make_engine, "self", config, engine=engine, faults=spec).report
            for engine in ("sequential", "persistent")
        )
        assert pooled.executor_summary()["pools_created"] >= 1
        assert pooled.memory_steps == seq.memory_steps
        booked = _bookkeeping(seq, prefixes)
        assert booked["fault.injected"] >= 1
        assert _bookkeeping(pooled, prefixes) == booked

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_exhausted_budget_raises_the_same_task_error(self, make_engine, poisoned):
        def poison(line, ctx):  # one bad record, so exactly one task fails
            if line.startswith("w7 "):
                raise ValueError("cannot parse record")

        errors = []
        for engine in ("sequential", "persistent"):
            cluster = make_engine(
                engine,
                fault_plan=None if poisoned else FaultPlan.parse("raise:wc:map:1:*"),
                retry_policy=RetryPolicy(max_attempts=3),
            )
            cluster.dfs.write("docs", [f"w{i} w{i + 1} " * 40 for i in range(40)])
            try:
                with pytest.raises(TaskError) as exc_info:
                    cluster.run_job(word_count_job(mapper=poison if poisoned else None))
            finally:
                cluster.close()
            err = exc_info.value
            errors.append(
                (err.job, err.phase, err.task, err.attempt, err.cause, err.key_sample)
            )
        assert errors[0] == errors[1]
        assert errors[0][:2] == ("wc", "map") and errors[0][3] == 2


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    @pytest.fixture()
    def join(self, make_engine, tmp_path):
        """``join(workload="self", resume=False, faults=None, config=BASE,
        prefix="p")``: one checkpointed run on a fresh sequential engine."""

        def run(workload="self", resume=False, faults=None, config=BASE, prefix="p"):
            cluster = make_engine(
                "sequential", fault_plan=faults and FaultPlan.parse(faults)
            )
            return run_join(
                cluster, workload, config, prefix=prefix,
                checkpoint=JoinCheckpoint(tmp_path, resume=resume),
            )

        return run

    def test_resume_after_stage3_kill_is_bit_identical(self, join):
        # the first run dies in Stage 3: every oprj map attempt faults
        with pytest.raises(TaskError):
            join(faults="raise:oprj:map:*:*")
        # a fresh cluster, no faults, resumes from the checkpoint
        run = join(resume=True)
        assert run.pairs == reference("self").pairs
        report = run.report
        assert report.counters()["resume.stages_skipped"] == 2
        # restored stages were not re-run
        assert report.stage1.phases == []
        assert report.stage2.phases == []
        assert report.stage3.phases != []
        wall = report.stage_wall_s
        assert wall["stage1"] == wall["stage2"] == 0.0 < wall["stage3"]

    def test_completed_run_resumes_all_three_stages(self, join):
        join()
        run = join(resume=True)
        assert run.pairs == reference("self").pairs
        assert run.counters["resume.stages_skipped"] == 3

    def test_resume_refuses_changed_config(self, join):
        join()
        with pytest.raises(CheckpointMismatchError, match="config"):
            join(resume=True, config=BASE.with_options(threshold=0.7))

    def test_resume_refuses_changed_input(self, join, monkeypatch):
        join()
        (records,) = inputs("self")
        altered = records[:-1] + [records[-1] + "x"]
        monkeypatch.setitem(WORKLOADS, "altered", lambda: (altered,))
        with pytest.raises(CheckpointMismatchError, match="inputs"):
            join("altered", resume=True)

    def test_resume_refuses_empty_directory(self, join):
        with pytest.raises(CheckpointMismatchError, match="nothing to resume"):
            join(resume=True)

    def test_resume_refuses_version_1_checkpoint(self, join, tmp_path):
        """A version-1 checkpoint's RID-pair file repeats pairs (one copy
        per shared group), which Stage 3 no longer absorbs: refuse it up
        front instead of failing mid-resume."""
        join()
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 2
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointMismatchError, match="version 1 != supported version 2"
        ):
            join(resume=True)

    def test_resume_refuses_corrupted_stage_data(self, join, tmp_path):
        join()
        # flip the checkpointed token order behind the manifest's back
        store = LocalDiskDFS(tmp_path / "data", num_nodes=1)
        tokens = store.read_all("stage1/p.tokens")
        store.write("stage1/p.tokens", list(reversed(tokens)))
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            join(resume=True)

    def test_truncated_metadata_fresh_run_succeeds_resume_refuses(
        self, join, tmp_path
    ):
        """What a kill mid-write used to leave: a block index (or the
        manifest) cut short.  ``--resume`` must refuse naming the file,
        never with a raw ``JSONDecodeError``; a fresh ``--checkpoint``
        run over the same directory must not read it at all."""
        join()
        meta = next((tmp_path / "data").glob("stage1*.meta.json"))
        meta.write_text(meta.read_text()[:20])
        with pytest.raises(CheckpointMismatchError, match=re.escape(meta.name)):
            join(resume=True)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        with pytest.raises(CheckpointMismatchError, match="manifest.json"):
            join(resume=True)
        run = join()
        assert run.pairs == reference("self").pairs
        assert "resume.stages_skipped" not in run.counters
        # and what that run wrote is a whole checkpoint again
        assert join(resume=True).counters["resume.stages_skipped"] == 3

    def test_fresh_checkpoint_discards_previous_contents(self, join):
        join()
        # re-running fresh (resume=False) must not inherit old stages
        report = join().report
        assert "resume.stages_skipped" not in report.counters()
        assert report.stage1.phases != []

    def test_rs_join_checkpoint_roundtrip(self, join):
        with pytest.raises(TaskError):
            join("rs", faults="raise:oprj:*;raise:brj-*:*")
        run = join("rs", resume=True)
        assert run.pairs == reference("rs").pairs
        assert run.counters["resume.stages_skipped"] == 2
