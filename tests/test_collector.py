"""The cyclic collector is paused while a job runs (DESIGN.md §5).

Three things are pinned: the pause is in force wherever task code runs
(driver, pool workers, the driver's retries of a pooled phase); whatever
state the caller had comes back on every way out of ``run_job``; and
the premise — a join, finished or failed in a pooled phase, leaves no
cyclic garbage to collect.
"""

from __future__ import annotations

import gc
import multiprocessing
from contextlib import closing

import pytest

from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import (
    set_similarity_rs_join,
    set_similarity_self_join,
    ssjoin_self,
)
from repro.mapreduce.cluster import SimulatedCluster, collector_paused
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy, TaskError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError, merge_executor_stats

from tests.conftest import SCHEMA_1, random_records, small_config

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

ENGINES = ["sequential", "pooled"]


def probe_job() -> MapReduceJob:
    """Carries ``gc.isenabled()`` out of every mapper and reducer call."""

    def mapper(record, ctx):
        ctx.emit(record % 7, gc.isenabled())

    def reducer(key, values, ctx):
        ctx.write((key, list(values), gc.isenabled()))

    return MapReduceJob(
        name="probe", inputs=["numbers"], output="seen",
        mapper=mapper, reducer=reducer, num_reducers=4,
    )


def run_probe(cluster: SimulatedCluster):
    """Run :func:`probe_job` over 400 records: its stats, and every flag
    it carried out (one per mapper call, one per reducer call)."""
    cluster.dfs.write("numbers", list(range(400)))
    stats = cluster.run_job(probe_job())
    seen = cluster.dfs.read_all("seen")
    flags = [f for _key, in_mappers, in_reducer in seen for f in (*in_mappers, in_reducer)]
    assert len(flags) == 400 + len(seen)
    return stats, flags


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller_state(request):
    """Run the test with the collector in the given state; put back
    whatever the test session had."""
    session_state = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if session_state else gc.disable)()


class TestPausedWhereTasksRun:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_off_inside_every_mapper_and_reducer(self, make_engine, engine, caller_state):
        cluster = make_engine(engine)
        with closing(cluster):
            stats, flags = run_probe(cluster)
        if engine == "pooled":  # not inline: the flags are the workers'
            phases = [stats.map_executor, stats.reduce_executor]
            assert merge_executor_stats({}, phases)["pooled_phases"] == 2
        assert not any(flags)
        assert gc.isenabled() == caller_state

    def test_off_inside_a_degraded_engines_inline_phases(self, make_engine, rng, caller_state):
        """Every first map attempt crashes its worker, so the driver maps
        every record: the flags the mapper carries out are the driver's."""
        records = random_records(rng, 70)
        cluster = make_engine("pooled", fault_plan=FaultPlan.parse("crash:*:map:*:0"))
        with closing(cluster):
            cluster.dfs.write("records", records)
            ssjoin_self(cluster, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1))
            assert gc.isenabled() == caller_state
            stats, flags = run_probe(cluster)
            assert stats.map_executor.mode == "pool"
            assert stats.counters["task.lost"] == len(stats.map_tasks)
        assert not any(flags)
        assert gc.isenabled() == caller_state


class TestCallerStateComesBack:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_a_fault_exhausts_its_attempts(self, make_engine, engine, caller_state):
        cluster = make_engine(
            engine,
            fault_plan=FaultPlan.parse("raise:probe:reduce:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        with closing(cluster):
            cluster.dfs.write("numbers", list(range(400)))
            with pytest.raises(TaskError):
                cluster.run_job(probe_job())
            assert gc.isenabled() == caller_state

    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_an_undegraded_memory_error(self, make_engine, rng, engine, caller_state):
        records = random_records(rng, 80, dup_rate=0.6)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, auto_degrade=False)
        cluster = make_engine(engine, small_config(memory_per_task_mb=0.0001))
        with closing(cluster):
            cluster.dfs.write("records", records)
            with pytest.raises(InsufficientMemoryError):
                ssjoin_self(cluster, "records", config)
            assert gc.isenabled() == caller_state

    def test_the_pause_nests(self, caller_state):
        with collector_paused():
            with pytest.raises(KeyError):
                with collector_paused():
                    assert not gc.isenabled()
                    raise KeyError("leaves through the inner pause")
            assert not gc.isenabled()  # the inner exit re-enabled nothing
        assert gc.isenabled() == caller_state


class TestTheDataPathIsAcyclic:
    """The premise of pausing: with the collector off for a whole join,
    a full collection afterwards has nothing to free.  If a framework
    object ever needs a cycle, the bound becomes a small constant that
    does not grow with the record count — never a per-record allowance."""

    @staticmethod
    def _unreachable_after(join, cluster) -> int:
        gc.collect()
        with collector_paused():
            with closing(cluster):
                pairs, _report = join(cluster)
            assert pairs
            return gc.collect()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("count", [500, 2000])
    def test_self_join_leaves_nothing_to_collect(self, make_engine, engine, count):
        records = generate_dblp(count, 7)
        assert self._unreachable_after(
            lambda cluster: set_similarity_self_join(records, cluster=cluster),
            make_engine(engine),
        ) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_retried_attempts_leave_nothing_to_collect(self, make_engine, engine):
        """Every task fails twice (its pooled first attempt, if any, and
        its first retry in the driver): no attempt's error outlives it."""
        records = generate_dblp(500, 7)
        cluster = make_engine(
            engine, fault_plan=FaultPlan.parse("raise:*:*:*:0;crash:*:*:*:1")
        )
        assert self._unreachable_after(
            lambda cluster: set_similarity_self_join(records, cluster=cluster),
            cluster,
        ) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("count", [500, 2000])
    def test_rs_join_leaves_nothing_to_collect(self, make_engine, engine, count):
        r = generate_dblp(count, 7)
        s = generate_citeseerx(count, 9, shared_with=r)
        assert self._unreachable_after(
            lambda cluster: set_similarity_rs_join(r, s, cluster=cluster),
            make_engine(engine),
        ) == 0


class TestAFailedPhaseIsAcyclic:
    """A phase that raises frees what it held — chunk results, the
    abandoned flights, every attempt's error — without a collection, on
    either engine."""

    @staticmethod
    def _unreachable_after(cluster, run, error) -> int:
        gc.collect()
        with collector_paused():
            with closing(cluster):
                try:
                    run(cluster)
                except error:
                    pass
                else:
                    pytest.fail(f"{error.__name__} expected")
                if isinstance(cluster, PersistentParallelCluster):
                    # a pool was started: the failed phase was pooled
                    assert cluster._spill_root is not None
            return gc.collect()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_a_fault_exhausts_its_attempts(self, make_engine, engine):
        def run(cluster):
            cluster.dfs.write("numbers", list(range(400)))
            cluster.run_job(probe_job())

        cluster = make_engine(
            engine,
            fault_plan=FaultPlan.parse("raise:probe:reduce:*:*"),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert self._unreachable_after(cluster, run, TaskError) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_an_undegraded_memory_error(self, make_engine, rng, engine):
        records = random_records(rng, 80, dup_rate=0.6)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, auto_degrade=False)

        def run(cluster):
            cluster.dfs.write("records", records)
            ssjoin_self(cluster, "records", config)

        cluster = make_engine(engine, small_config(memory_per_task_mb=0.0001))
        assert self._unreachable_after(cluster, run, InsufficientMemoryError) == 0
