"""Chaos suite for the fault-tolerance layer.

Pins the hard invariant of ISSUE 5: any fault plan the retry budget can
absorb yields **bit-identical** join output — and identical counters
once fault-tolerance bookkeeping (``fault.*``/``task.*``/``resume.*``)
is stripped — versus a fault-free run, on both engines, both kernels,
self and R-S joins.

Also covers the fault vocabulary itself (plan parsing/serialization,
first-match lookup, seeded generation), retry-budget exhaustion
surfacing an actionable :class:`TaskError`, non-retryable exceptions
crossing the retry layer raw, pool-worker crash recovery in the
persistent engine, and stage checkpoint/resume
(including identity mismatch and on-disk corruption refusal).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.join.checkpoint import CheckpointMismatchError, JoinCheckpoint
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.diskdfs import LocalDiskDFS
from repro.mapreduce.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TaskError,
    strip_fault_counters,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError
from repro.obs.trace import Tracer

from tests.conftest import SCHEMA_1, random_records

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

CONFIG = dict(threshold=0.5, schema=SCHEMA_1)


def cluster_config(**cfg):
    defaults = dict(
        num_nodes=4, job_startup_s=0, task_startup_s=0,
        cpu_scale=1.0, data_scale=1.0,
    )
    defaults.update(cfg)
    return ClusterConfig(**defaults)


def make_seq(fault_plan=None, retry_policy=None, **cfg) -> SimulatedCluster:
    return SimulatedCluster(
        cluster_config(**cfg),
        InMemoryDFS(num_nodes=4, block_bytes=512),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )


def run_self(cluster, records, config=None, **kwargs):
    cluster.dfs.write("records", records)
    report = ssjoin_self(
        cluster, "records", config or JoinConfig(**CONFIG), **kwargs
    )
    return cluster.dfs.read_all(report.output_file), report


def run_rs(cluster, r, s, config=None, **kwargs):
    cluster.dfs.write("r", r)
    cluster.dfs.write("s", s)
    report = ssjoin_rs(cluster, "r", "s", config or JoinConfig(**CONFIG), **kwargs)
    return cluster.dfs.read_all(report.output_file), report


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

    def test_json_roundtrip(self):
        plan = FaultPlan.parse("crash:*:map:1:0;sleep:stage2-*:reduce:*:0:0.3")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_inline_and_file(self, tmp_path):
        plan = FaultPlan.parse("raise:bto-*:map:0:0")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(str(path)) == plan
        assert FaultPlan.load("raise:bto-*:map:0:0") == plan

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
    @pytest.fixture()
    def clean(self, rng):
        records = random_records(rng, 60)
        pairs, report = run_self(make_seq(), records)
        return records, pairs, strip_fault_counters(report.counters())

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
    def test_fault_absorbed_bit_identically(self, clean, spec):
        records, clean_pairs, clean_counters = clean
        plan = FaultPlan.parse(spec)
        pairs, report = run_self(make_seq(fault_plan=plan), records)
        assert pairs == clean_pairs
        counters = report.counters()
        assert counters["fault.injected"] >= 1
        assert strip_fault_counters(counters) == clean_counters

    def test_retries_counted_and_in_metrics(self, clean):
        records, clean_pairs, _ = clean
        plan = FaultPlan.parse("raise:stage2-*:map:0:0;raise:stage2-*:map:0:1")
        pairs, report = run_self(make_seq(fault_plan=plan), records)
        assert pairs == clean_pairs
        counters = report.metrics().counters()
        assert counters["fault.injected"] == 2
        assert counters["fault.raise"] == 2
        assert counters["task.retries"] == 2
        # the winning attempt's number rides the task.attempts histogram
        hist = report.metrics().histograms()["task.attempts"]
        assert hist.count >= 1

    def test_fault_events_hit_the_tracer(self, rng):
        records = random_records(rng, 40)
        cluster = make_seq(fault_plan=FaultPlan.parse("raise:bto-count:map:0:0"))
        cluster.tracer = Tracer()
        run_self(cluster, records)
        names = [event["name"] for event in cluster.tracer.raw_events()]
        assert "fault-injected" in names
        assert "task-retry" in names
        injected = next(
            e for e in cluster.tracer.raw_events() if e["name"] == "fault-injected"
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
    def test_persistent_fault_exhausts_budget(self, rng):
        cluster = make_seq(
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

    def test_max_attempts_one_means_no_retry(self):
        cluster = make_seq(
            fault_plan=FaultPlan.parse("raise:wc:map:0:0"),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        cluster.dfs.write("docs", ["a b"])
        with pytest.raises(TaskError):
            cluster.run_job(word_count_job())

    def test_genuine_bug_reports_key_sample(self):
        def poisoned(line, ctx):
            if "boom" in line:
                raise ValueError("cannot parse record")
            ctx.emit(line, 1)

        cluster = make_seq(retry_policy=RetryPolicy(max_attempts=2))
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

    def test_memory_error_crosses_retry_layer_raw(self, rng):
        records = random_records(rng, 80, dup_rate=0.6)
        cluster = make_seq(
            fault_plan=FaultPlan.parse("sleep:*:map:0:0:0.0"),
            memory_per_task_mb=0.0001,
        )
        with pytest.raises(InsufficientMemoryError) as exc_info:
            run_self(cluster, records)
        assert exc_info.value.limit_bytes > 0


# ---------------------------------------------------------------------------
# persistent engine: crashes, degradation, cleanup
# ---------------------------------------------------------------------------


@fork_only
class TestExecutorChaos:
    def test_worker_crash_respawns_pool_and_matches_sequential(self, make_engine, rng):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        persistent = make_engine(
            fault_plan=FaultPlan.parse("crash:stage2-*:map:1:0")
        )
        with persistent:
            pairs, report = run_self(persistent, records)
        assert pairs == clean_pairs
        # the crash broke the first pool; the respawn forked a second
        assert report.executor_summary()["pools_created"] == 2
        counters = report.counters()
        assert counters["fault.injected"] >= 1
        assert counters["task.lost"] >= 1

    def test_crash_while_other_chunks_are_in_flight(self, make_engine, rng):
        """Task 0's worker dies at once while the other worker is still
        inside its chunk (every other first attempt dawdles): the pool
        fails both, and the respawn re-runs them.  Nothing outlives
        ``close()``: no spill root, no worker process."""
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        roots_before = _spill_roots()
        children_before = set(multiprocessing.active_children())
        persistent = make_engine(
            fault_plan=FaultPlan.parse(
                "crash:stage2-*:map:0:0;sleep:stage2-*:map:*:0:0.05"
            )
        )
        with persistent:
            pairs, report = run_self(persistent, records)
        assert pairs == clean_pairs
        assert report.counters()["task.lost"] >= 1
        assert _spill_roots() - roots_before == set()
        assert set(multiprocessing.active_children()) <= children_before

    def test_repeated_pool_death_degrades_to_inline(self, make_engine, rng):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        persistent = make_engine(
            fault_plan=FaultPlan.parse("crash:*:map:*:0"),
            retry_policy=RetryPolicy(max_pool_respawns=0),
        )
        with persistent:
            pairs, _report = run_self(persistent, records)
            assert persistent.executor.degraded
        assert pairs == clean_pairs

    def test_exhaustion_tears_pool_down_and_engine_stays_usable(self, make_engine, rng):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        persistent = make_engine(
            fault_plan=FaultPlan.parse("raise:stage2-*:map:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with persistent:
            with pytest.raises(TaskError) as exc_info:
                run_self(persistent, records)
            assert exc_info.value.phase == "map"
            # the failed phase tore the pool down (no orphaned workers)
            assert persistent.executor._pool is None
            # and a fault-free rerun on the same engine still succeeds
            persistent.fault_plan = None
            pairs, _ = run_self(persistent, records, prefix="retry")
        assert pairs == clean_pairs


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
    chaos, failed phase, degraded engine — must leave no shuffle segment
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

    def test_clean_run_and_close_leave_no_segments(self, make_engine, rng):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        before = _spill_roots()
        persistent = make_engine()
        with persistent:
            pairs, report = run_self(persistent, records)
            assert len(_spill_roots() - before) == 1
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()
        assert pairs == clean_pairs
        assert report.executor_summary()["spill_bytes_written"] > 0
        persistent.close()  # idempotent

    @pytest.mark.parametrize("spec", CHAOS_SPECS)
    def test_chaos_run_leaks_no_segments(self, make_engine, rng, spec):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        before = _spill_roots()
        persistent = make_engine(fault_plan=FaultPlan.parse(spec))
        with persistent:
            pairs, report = run_self(persistent, records)
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()
        assert pairs == clean_pairs
        # the shuffle really ran through spill files
        assert report.executor_summary()["spill_bytes_written"] > 0

    def test_failed_phase_sweeps_its_segments(self, make_engine, rng):
        records = random_records(rng, 70)
        before = _spill_roots()
        persistent = make_engine(
            fault_plan=FaultPlan.parse("raise:stage2-*:map:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with persistent:
            with pytest.raises(TaskError):
                run_self(persistent, records)
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()

    @pytest.mark.parametrize(
        "spec", ["squeeze:oprj:map:*:0:0.00001", "squeeze:stage2-*:reduce:*:0:0.00001"]
    )
    def test_memory_error_sweeps_its_segments(self, make_engine, rng, spec):
        """A pooled phase that dies of ``InsufficientMemoryError`` (no
        ladder to catch it) leaves no spill file: neither its own nor
        those of the map phase feeding it."""
        records = random_records(rng, 70)
        before = _spill_roots()
        persistent = make_engine(fault_plan=FaultPlan.parse(spec))
        with persistent:
            with pytest.raises(InsufficientMemoryError):
                run_self(persistent, records, JoinConfig(auto_degrade=False, **CONFIG))
            self._assert_roots_empty(before)
        assert _spill_roots() - before == set()

    def test_degraded_engine_leaks_no_segments(self, make_engine, rng):
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        before = _spill_roots()
        persistent = make_engine(
            fault_plan=FaultPlan.parse("crash:*:map:*:0"),
            retry_policy=RetryPolicy(max_pool_respawns=0),
        )
        with persistent:
            pairs, _report = run_self(persistent, records)
            assert persistent.executor.degraded
            self._assert_roots_empty(before)
        assert pairs == clean_pairs
        assert _spill_roots() - before == set()

    def test_spill_falls_back_when_shm_dir_missing(
        self, make_engine, rng, tmp_path, monkeypatch
    ):
        from repro.mapreduce import executor as ex_mod

        monkeypatch.setattr(ex_mod, "_SHM_DIR", str(tmp_path / "no-shm"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        records = random_records(rng, 70)
        clean_pairs, _ = run_self(make_seq(), records)
        shm_before = _spill_roots()
        persistent = make_engine()
        with persistent:
            pairs, report = run_self(persistent, records)
            # the spill root landed in the temp directory, not /dev/shm
            assert len(_spill_roots(str(tmp_path))) == 1
            assert _spill_roots() == shm_before
        assert _spill_roots(str(tmp_path)) == set()
        assert pairs == clean_pairs
        assert report.executor_summary()["spill_bytes_written"] > 0


# ---------------------------------------------------------------------------
# differential chaos: random absorbable plans, both engines
# ---------------------------------------------------------------------------

_REFERENCE: dict = {}


def _reference(kind: str, kernel: str = "bk"):
    """Clean-run oracle per (join type, kernel), computed once."""
    key = (kind, kernel)
    if key not in _REFERENCE:
        rng = random.Random(0xC0FFEE)
        config = JoinConfig(kernel=kernel, **CONFIG)
        if kind == "self":
            records = random_records(rng, 50)
            pairs, report = run_self(make_seq(), records, config)
            inputs = (records,)
        else:
            r = random_records(rng, 30)
            s = random_records(rng, 30, rid_base=1000)
            pairs, report = run_rs(make_seq(), r, s, config)
            inputs = (r, s)
        _REFERENCE[key] = (
            inputs, pairs, strip_fault_counters(report.counters())
        )
    return _REFERENCE[key]


class TestDifferentialChaos:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_plan_self_join_sequential(self, seed, kernel):
        (records,), clean_pairs, clean_counters = _reference("self", kernel)
        plan = FaultPlan.random(seed)
        pairs, report = run_self(
            make_seq(fault_plan=plan), records, JoinConfig(kernel=kernel, **CONFIG)
        )
        assert pairs == clean_pairs
        assert strip_fault_counters(report.counters()) == clean_counters

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_random_plan_rs_join_sequential(self, seed, kernel):
        (r, s), clean_pairs, clean_counters = _reference("rs", kernel)
        plan = FaultPlan.random(seed)
        pairs, report = run_rs(
            make_seq(fault_plan=plan), r, s, JoinConfig(kernel=kernel, **CONFIG)
        )
        assert pairs == clean_pairs
        assert strip_fault_counters(report.counters()) == clean_counters

    @fork_only
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_random_plan_self_join_persistent(self, make_engine, kernel):
        (records,), clean_pairs, _ = _reference("self", kernel)
        persistent = make_engine(fault_plan=FaultPlan.random(11))
        with persistent:
            pairs, _report = run_self(
                persistent, records, JoinConfig(kernel=kernel, **CONFIG)
            )
        assert pairs == clean_pairs

    @fork_only
    def test_random_plan_rs_join_persistent(self, make_engine):
        (r, s), clean_pairs, _ = _reference("rs", "bk")
        persistent = make_engine(fault_plan=FaultPlan.random(12))
        with persistent:
            pairs, _report = run_rs(
                persistent, r, s, JoinConfig(kernel="bk", **CONFIG)
            )
        assert pairs == clean_pairs

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_any_absorbable_plan_is_absorbed(self, seed):
        (records,), clean_pairs, clean_counters = _reference("self")
        plan = FaultPlan.random(seed, sleep_s=0.0)
        pairs, report = run_self(
            make_seq(fault_plan=plan), records, JoinConfig(kernel="bk", **CONFIG)
        )
        assert pairs == clean_pairs
        assert strip_fault_counters(report.counters()) == clean_counters


# ---------------------------------------------------------------------------
# engine parity: one attempt contract, two retry loops
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
    ``faults.run_attempt`` on both engines; the sequential loop and the
    pooled dispatch loop must therefore book the same plan identically."""

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
    def test_absorbed_plan_books_identically(self, make_engine, rng, spec, prefixes):
        records = random_records(rng, 70, dup_rate=0.6)
        plan = FaultPlan.parse(spec)
        # BRJ, so that the plan naming its brj-join job has one to hit
        config = JoinConfig(**CONFIG, stage3="brj")
        seq_pairs, seq_report = run_self(make_seq(fault_plan=plan), records, config)
        with make_engine(fault_plan=plan) as persistent:
            pairs, report = run_self(persistent, records, config)
        assert report.executor_summary()["pools_created"] >= 1
        assert pairs == seq_pairs
        assert report.memory_steps == seq_report.memory_steps
        booked = _bookkeeping(seq_report, prefixes)
        assert booked["fault.injected"] >= 1
        assert _bookkeeping(report, prefixes) == booked

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_exhausted_budget_raises_the_same_task_error(self, make_engine, poisoned):
        def poison(line, ctx):  # one bad record, so exactly one task fails
            if line.startswith("w7 "):
                raise ValueError("cannot parse record")

        errors = []
        for make in (make_seq, make_engine):
            cluster = make(
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
    def test_resume_after_stage3_kill_is_bit_identical(self, rng, tmp_path):
        records = random_records(rng, 60)
        clean_pairs, _ = run_self(make_seq(), records)

        # first run dies in Stage 3: every oprj map attempt faults
        fatal = make_seq(fault_plan=FaultPlan.parse("raise:oprj:map:*:*"))
        with pytest.raises(TaskError):
            run_self(fatal, records, checkpoint=JoinCheckpoint(tmp_path))

        # fresh cluster, no faults, resume from the checkpoint
        resumed = make_seq()
        pairs, report = run_self(
            resumed, records, checkpoint=JoinCheckpoint(tmp_path, resume=True)
        )
        assert pairs == clean_pairs
        assert report.counters()["resume.stages_skipped"] == 2
        assert report.metrics().counters()["resume.stages_skipped"] == 2
        # restored stages were not re-run
        assert report.stage1.phases == []
        assert report.stage2.phases == []
        assert report.stage3.phases != []
        wall = report.stage_wall_s
        assert wall["stage1"] == wall["stage2"] == 0.0 < wall["stage3"]

    def test_completed_run_resumes_all_three_stages(self, rng, tmp_path):
        records = random_records(rng, 40)
        clean_pairs, _ = run_self(
            make_seq(), records, checkpoint=JoinCheckpoint(tmp_path)
        )
        pairs, report = run_self(
            make_seq(), records, checkpoint=JoinCheckpoint(tmp_path, resume=True)
        )
        assert pairs == clean_pairs
        assert report.counters()["resume.stages_skipped"] == 3

    def test_resume_refuses_changed_config(self, rng, tmp_path):
        records = random_records(rng, 40)
        run_self(make_seq(), records, checkpoint=JoinCheckpoint(tmp_path))
        with pytest.raises(CheckpointMismatchError, match="config"):
            run_self(
                make_seq(), records,
                config=JoinConfig(threshold=0.7, schema=SCHEMA_1),
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )

    def test_resume_refuses_changed_input(self, rng, tmp_path):
        records = random_records(rng, 40)
        run_self(make_seq(), records, checkpoint=JoinCheckpoint(tmp_path))
        altered = records[:-1] + [records[-1] + "x"]
        with pytest.raises(CheckpointMismatchError, match="inputs"):
            run_self(
                make_seq(), altered,
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )

    def test_resume_refuses_empty_directory(self, rng, tmp_path):
        records = random_records(rng, 40)
        with pytest.raises(CheckpointMismatchError, match="nothing to resume"):
            run_self(
                make_seq(), records,
                checkpoint=JoinCheckpoint(tmp_path / "missing", resume=True),
            )

    def test_resume_refuses_version_1_checkpoint(self, rng, tmp_path):
        """A version-1 checkpoint's RID-pair file repeats pairs (one copy
        per shared group), which Stage 3 no longer absorbs: refuse it up
        front instead of failing mid-resume."""
        records = random_records(rng, 40)
        run_self(make_seq(), records, checkpoint=JoinCheckpoint(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 2
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointMismatchError, match="version 1 != supported version 2"
        ):
            run_self(
                make_seq(), records,
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )

    def test_resume_refuses_corrupted_stage_data(self, rng, tmp_path):
        records = random_records(rng, 40)
        run_self(
            make_seq(), records, prefix="p", checkpoint=JoinCheckpoint(tmp_path)
        )
        # flip the checkpointed token order behind the manifest's back
        store = LocalDiskDFS(tmp_path / "data", num_nodes=1)
        tokens = store.read_all("stage1/p.tokens")
        store.write("stage1/p.tokens", list(reversed(tokens)))
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            run_self(
                make_seq(), records, prefix="p",
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )

    def test_truncated_metadata_fresh_run_succeeds_resume_refuses(
        self, rng, tmp_path
    ):
        """What a kill mid-write used to leave: a block index (or the
        manifest) cut short.  ``--resume`` must refuse naming the file,
        never with a raw ``JSONDecodeError``; a fresh ``--checkpoint``
        run over the same directory must not read it at all."""
        records = random_records(rng, 40)
        clean_pairs, _ = run_self(
            make_seq(), records, prefix="p", checkpoint=JoinCheckpoint(tmp_path)
        )
        meta = next((tmp_path / "data").glob("stage1*.meta.json"))
        meta.write_text(meta.read_text()[:20])
        with pytest.raises(CheckpointMismatchError, match=re.escape(meta.name)):
            run_self(
                make_seq(), records, prefix="p",
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        with pytest.raises(CheckpointMismatchError, match="manifest.json"):
            run_self(
                make_seq(), records, prefix="p",
                checkpoint=JoinCheckpoint(tmp_path, resume=True),
            )
        pairs, report = run_self(
            make_seq(), records, prefix="p", checkpoint=JoinCheckpoint(tmp_path)
        )
        assert pairs == clean_pairs
        assert "resume.stages_skipped" not in report.counters()
        # and what that run wrote is a whole checkpoint again
        _, report = run_self(
            make_seq(), records, prefix="p",
            checkpoint=JoinCheckpoint(tmp_path, resume=True),
        )
        assert report.counters()["resume.stages_skipped"] == 3

    def test_fresh_checkpoint_discards_previous_contents(self, rng, tmp_path):
        records = random_records(rng, 40)
        run_self(make_seq(), records, checkpoint=JoinCheckpoint(tmp_path))
        # re-running fresh (resume=False) must not inherit old stages
        clean_pairs, report = run_self(
            make_seq(), records, checkpoint=JoinCheckpoint(tmp_path)
        )
        assert "resume.stages_skipped" not in report.counters()
        assert report.stage1.phases != []

    def test_rs_join_checkpoint_roundtrip(self, rng, tmp_path):
        r = random_records(rng, 30)
        s = random_records(rng, 30, rid_base=1000)
        clean_pairs, _ = run_rs(make_seq(), r, s)
        fatal = make_seq(fault_plan=FaultPlan.parse("raise:oprj:*;raise:brj-*:*"))
        with pytest.raises(TaskError):
            run_rs(fatal, r, s, checkpoint=JoinCheckpoint(tmp_path))
        pairs, report = run_rs(
            make_seq(), r, s, checkpoint=JoinCheckpoint(tmp_path, resume=True)
        )
        assert pairs == clean_pairs
        assert report.counters()["resume.stages_skipped"] == 2
