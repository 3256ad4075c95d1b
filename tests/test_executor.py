"""Tests for the persistent execution engine (`repro.mapreduce.executor`).

Covers the tentpole guarantees: byte-identical output to
:class:`SimulatedCluster` across every stage combo for self- and R-S
joins, one pool per end-to-end join, `InsufficientMemoryError`
propagating out of pool workers, `ClusterConfig.with_nodes` preserving
new fields, and the rank-vs-string encoding differential.

``assume_cores`` is pinned > 1 so the pooled spill path is exercised
regardless of the host's core count (the engine would otherwise run
inline on single-core machines).
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.reporting import format_executor_summary
from repro.core.ordering import TokenOrder
from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.data.synthetic import generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.mapreduce import cluster as cluster_module, executor as executor_module
from repro.mapreduce.cluster import (
    ClusterConfig,
    DriverShuffle,
    SimulatedCluster,
    execute_map_task,
)
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.executor import (
    MapShuffle,
    PersistentExecutor,
    PersistentParallelCluster,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError, approx_bytes
from repro.obs.telemetry import strip_telemetry_counters
from repro.obs.trace import Tracer

from tests.conftest import SCHEMA_1, random_records

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

COMBOS = [
    (stage1, kernel, stage3)
    for stage1 in ("bto", "opto")
    for kernel in ("bk", "pk")
    for stage3 in ("brj", "oprj")
]


def cluster_config(**cfg):
    defaults = dict(
        num_nodes=4, job_startup_s=0, task_startup_s=0,
        cpu_scale=1.0, data_scale=1.0,
    )
    defaults.update(cfg)
    return ClusterConfig(**defaults)


def make_pair(workers=2, assume_cores=4, **cfg):
    sequential = SimulatedCluster(
        cluster_config(**cfg), InMemoryDFS(num_nodes=4, block_bytes=512)
    )
    persistent = PersistentParallelCluster(
        cluster_config(**cfg),
        InMemoryDFS(num_nodes=4, block_bytes=512),
        workers=workers,
        min_tasks_for_pool=1,
        assume_cores=assume_cores,
    )
    return sequential, persistent


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
    def test_word_count_identical(self):
        """A plain combiner job (no join driver) through the pool."""
        sequential, persistent = make_pair()
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
    def test_selfjoin_identical(self, rng, stage1, kernel, stage3):
        records = random_records(rng, 70)
        sequential, persistent = make_pair()
        config = JoinConfig(
            threshold=0.5, schema=SCHEMA_1,
            stage1=stage1, kernel=kernel, stage3=stage3,
        )
        with persistent:
            sequential.dfs.write("records", records)
            persistent.dfs.write("records", records)
            seq_report = ssjoin_self(sequential, "records", config)
            per_report = ssjoin_self(persistent, "records", config)
            assert sequential.dfs.read_all(
                seq_report.output_file
            ) == persistent.dfs.read_all(per_report.output_file)

    @pytest.mark.parametrize("stage1,kernel,stage3", COMBOS)
    def test_rsjoin_identical(self, rng, stage1, kernel, stage3):
        r = random_records(rng, 40)
        s = random_records(rng, 40, rid_base=1000)
        sequential, persistent = make_pair()
        config = JoinConfig(
            threshold=0.5, schema=SCHEMA_1,
            stage1=stage1, kernel=kernel, stage3=stage3,
        )
        with persistent:
            for cluster in (sequential, persistent):
                cluster.dfs.write("r", r)
                cluster.dfs.write("s", s)
            seq_report = ssjoin_rs(sequential, "r", "s", config)
            per_report = ssjoin_rs(persistent, "r", "s", config)
            assert sequential.dfs.read_all(
                seq_report.output_file
            ) == persistent.dfs.read_all(per_report.output_file)

    def test_counters_identical(self, rng):
        records = random_records(rng, 70)
        sequential, persistent = make_pair()
        with persistent:
            sequential.dfs.write("records", records)
            persistent.dfs.write("records", records)
            config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
            seq_report = ssjoin_self(sequential, "records", config)
            per_report = ssjoin_self(persistent, "records", config)
            for stage in seq_report.stages:
                assert seq_report.stages[stage].counters() == per_report.stages[
                    stage
                ].counters()


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
    def test_same_spans_shuffle_bytes_and_counters(self, rng, join):
        r = random_records(rng, 60)
        s = random_records(rng, 40, rid_base=1000)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        sequential, persistent = make_pair(assume_cores=2)
        reports, trees = [], []
        with persistent:
            for cluster in (sequential, persistent):
                cluster.tracer = Tracer()
                cluster.dfs.write("r", r)
                cluster.dfs.write("s", s)
                if join == "self":
                    reports.append(ssjoin_self(cluster, "r", config))
                else:
                    reports.append(ssjoin_rs(cluster, "r", "s", config))
                trees.append(self._span_tree(cluster.tracer))
        assert persistent.executor.stats.pools_created == 1  # really pooled
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
        assert strip_telemetry_counters(seq.counters()) == strip_telemetry_counters(
            per.counters()
        )
        # ... which includes every bucket of the per-partition histogram
        assert any(
            name.startswith("hist.shuffle.partition_bytes.") for name in per.counters()
        )

    @pytest.mark.parametrize("join", ["self", "rs"], ids=["self-static", "rs-static"])
    def test_map_tasks_size_each_pair_once(self, rng, monkeypatch, join):
        """``TaskStats.partition_bytes`` is the per-bucket walk it
        replaced, for every map task of every job of a join: Stage 1
        (combiner), Stage 2 (a record's routes share one value object)
        and Stage 3."""
        r = random_records(rng, 60)
        s = random_records(rng, 40, rid_base=1000)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
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
        cluster = SimulatedCluster(
            cluster_config(), InMemoryDFS(num_nodes=4, block_bytes=512)
        )
        cluster.dfs.write("r", r)
        cluster.dfs.write("s", s)
        if join == "self":
            report = ssjoin_self(cluster, "r", config)
        else:
            report = ssjoin_rs(cluster, "r", "s", config)
        jobs = {p.job_name for stats in report.stages.values() for p in stats.phases}
        assert {name for name, _c, nonempty in checked if nonempty} == jobs
        assert any(combiner for _n, combiner, _e in checked)

    def test_shuffle_bytes_pinned_to_the_recursive_walk(self):
        """Absolute byte totals of a fixed corpus, measured with the
        two-walk recursive accounting this replaced — "identical to the
        parent" has to outlive the parent."""
        records = generate_dblp(2000, 7)
        sequential = SimulatedCluster()
        persistent = PersistentParallelCluster(
            workers=2, min_tasks_for_pool=1, assume_cores=2
        )
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
            assert persistent.executor.stats.pools_created == 1  # really pooled

    def test_shuffle_handles_size_nothing(self, tmp_path, monkeypatch):
        """Shuffled bytes are computed in ``execute_map_task`` only: the
        handles and the spill path add up what it reports."""
        job = word_count_job()
        stats, partitioned, _counters = execute_map_task(
            job, 0, "in", ["a b a", "c a"], {}, 0, 0.0, None, 4
        )
        assert stats.partition_bytes

        def no_sizing(obj):
            raise AssertionError("shuffle path sized a value again")

        monkeypatch.setattr(cluster_module, "approx_bytes", no_sizing)
        monkeypatch.setattr(executor_module, "approx_bytes", no_sizing)
        driver = DriverShuffle(job.num_reducers)
        driver.add_task(partitioned, stats.partition_bytes)
        path, segments = executor_module._spill_map_output(
            str(tmp_path), "m0a0", partitioned, job.num_reducers
        )
        spilled = MapShuffle(job.num_reducers, str(tmp_path), None)
        spilled.add_task(path, segments, stats.partition_bytes)
        expected = [
            stats.partition_bytes.get(p, 0) for p in range(job.num_reducers)
        ]
        assert driver.partition_bytes() == spilled.partition_bytes() == expected
        assert driver.nonempty_partitions() == spilled.nonempty_partitions()


class TestPoolLifecycle:
    def test_one_pool_per_join(self, rng):
        """The acceptance criterion: a 3-stage pipeline (up to five
        MapReduce jobs) forks exactly one pool."""
        records = random_records(rng, 70)
        _sequential, persistent = make_pair()
        with persistent:
            persistent.dfs.write("records", records)
            ssjoin_self(persistent, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1))
            stats = persistent.executor.stats
            assert stats.pools_created == 1
            assert stats.phases_executed > 1  # the pool really was reused

    def test_pool_reused_across_joins(self, rng):
        """Same registered jobs -> the second run re-uses the pool."""
        records = random_records(rng, 70)
        _sequential, persistent = make_pair()
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        with persistent:
            persistent.dfs.write("records", records)
            ssjoin_self(persistent, "records", config, prefix="a")
            ssjoin_self(persistent, "records", config, prefix="b")
            # the second join's jobs are new closures, so one re-fork is
            # allowed — but never one pool per phase
            assert persistent.executor.stats.pools_created <= 2

    def test_executor_summary_in_report(self, rng):
        records = random_records(rng, 70)
        _sequential, persistent = make_pair()
        with persistent:
            persistent.dfs.write("records", records)
            report = ssjoin_self(
                persistent, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1)
            )
        summary = report.executor_summary()
        assert summary["pools_created"] == 1
        assert summary["pooled_phases"] > 0
        assert summary["spill_bytes_written"] == summary["spill_bytes_read"]
        # one definition of utilisation: busy / (workers x pool wall)
        assert summary["pool_capacity_s"] == pytest.approx(
            2 * summary["pool_wall_s"]
        )
        util = float(format_executor_summary(summary).split()[-1])
        assert 0.0 <= util <= 1.0

    def test_single_core_host_runs_inline(self, rng):
        """On a 1-core host worker processes only time-slice, so the
        engine degrades to inline execution — same answers, no pool."""
        records = random_records(rng, 70)
        _sequential, persistent = make_pair(assume_cores=1)
        with persistent:
            persistent.dfs.write("records", records)
            ssjoin_self(persistent, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1))
            assert persistent.executor.stats.pools_created == 0

    def test_memory_error_propagates_from_pool_worker(self, rng):
        records = random_records(rng, 80, dup_rate=0.6)
        _sequential, persistent = make_pair(memory_per_task_mb=0.0001)
        with persistent:
            persistent.dfs.write("records", records)
            with pytest.raises(InsufficientMemoryError) as exc_info:
                ssjoin_self(
                    persistent, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1)
                )
            assert exc_info.value.limit_bytes > 0  # fields survived pickling
            # the engine stays usable after a failed phase
            persistent.dfs.write("more", records)


    def test_teardown_survives_a_leaked_queue_lock(self):
        """A worker killed mid-send dies holding the result queue's
        process-shared write lock; ``Pool.terminate()`` then blocks on
        it forever.  Teardown must return anyway, with every worker
        dead.  (Holding the lock in the parent reproduces the leak
        deterministically; at the parent commit this never returns.)"""
        executor = PersistentExecutor(workers=2)
        executor._ensure_pool()
        pids = set(executor._worker_pids)
        leaked = executor._pool._outqueue._wlock
        leaked.acquire()
        try:
            started = time.monotonic()
            executor._teardown_pool()
            assert time.monotonic() - started < 10
            assert executor._pool is None
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            leaked.release()  # lets the abandoned helper thread finish
            executor.close()


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
