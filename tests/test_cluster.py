"""Tests for the simulated cluster runtime: full MapReduce semantics
plus the cost model."""

import pytest

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster, list_schedule
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import InsufficientMemoryError

from tests.conftest import make_cluster


def word_count_job(num_reducers=2, combiner=True, **kwargs):
    def mapper(record, ctx):
        for token in record.split():
            ctx.emit(token, 1)

    def combine(key, values, ctx):
        ctx.emit(key, sum(values))

    def reducer(key, values, ctx):
        ctx.write((key, sum(values)))

    return MapReduceJob(
        name="wc",
        inputs=["docs"],
        output="counts",
        mapper=mapper,
        reducer=reducer,
        combiner=combine if combiner else None,
        num_reducers=num_reducers,
        **kwargs,
    )


class TestBasicExecution:
    def test_word_count(self, small_cluster):
        small_cluster.dfs.write("docs", ["a b a", "b c", "c c"])
        small_cluster.run_job(word_count_job())
        assert sorted(small_cluster.dfs.read_all("counts")) == [
            ("a", 2), ("b", 2), ("c", 3),
        ]

    def test_without_combiner_same_result(self, small_cluster):
        small_cluster.dfs.write("docs", ["a b a", "b c"])
        small_cluster.run_job(word_count_job(combiner=False))
        with_ = sorted(small_cluster.dfs.read_all("counts"))
        small_cluster.run_job(word_count_job(combiner=True))
        assert sorted(small_cluster.dfs.read_all("counts")) == with_

    def test_combiner_reduces_shuffle(self):
        cluster = make_cluster()
        cluster.dfs.write("docs", ["a a a a a a a a"] * 4)
        no_comb = cluster.run_job(word_count_job(combiner=False))
        with_comb = cluster.run_job(word_count_job(combiner=True))
        assert with_comb.shuffle_bytes < no_comb.shuffle_bytes

    def test_deterministic_across_runs(self, small_cluster):
        small_cluster.dfs.write("docs", [f"w{i % 7} w{i % 3}" for i in range(50)])
        small_cluster.run_job(word_count_job())
        first = small_cluster.dfs.read_all("counts")
        small_cluster.run_job(word_count_job())
        assert small_cluster.dfs.read_all("counts") == first

    def test_framework_counters(self, small_cluster):
        small_cluster.dfs.write("docs", ["a b", "c"])
        stats = small_cluster.run_job(word_count_job())
        assert stats.counters["framework.map_input_records"] == 2
        assert stats.counters["framework.map_output_records"] == 3
        assert stats.counters["framework.reduce_input_groups"] == 3

    def test_one_map_task_per_block(self):
        cluster = make_cluster()
        cluster.dfs.write("docs", ["x" * 400] * 5)  # 400B records, 512B blocks
        stats = cluster.run_job(word_count_job())
        assert len(stats.map_tasks) == len(cluster.dfs.file("docs").blocks)


class TestKeyMachinery:
    def test_custom_partition_groups_route_together(self, small_cluster):
        """Grouping on key[0] must send equal routes to one reducer."""
        small_cluster.dfs.write("in", [("g1", i) for i in range(10)] + [("g2", i) for i in range(10)])

        def mapper(record, ctx):
            ctx.emit(record, record[1])

        seen_groups = []

        def reducer(key, values, ctx):
            seen_groups.append((key, list(values)))
            ctx.write(key)

        job = MapReduceJob(
            name="part", inputs=["in"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=4,
            group_key=lambda k: k[0],
        )
        small_cluster.run_job(job)
        # exactly one reduce call per route
        assert sorted(g for g, _ in seen_groups) == ["g1", "g2"]
        assert all(len(vs) == 10 for _, vs in seen_groups)

    def test_secondary_sort(self, small_cluster):
        small_cluster.dfs.write("in", [("g", 3, "c"), ("g", 1, "a"), ("g", 2, "b")])

        def mapper(record, ctx):
            g, n, payload = record
            ctx.emit((g, n), payload)

        def reducer(key, values, ctx):
            ctx.write(list(values))

        job = MapReduceJob(
            name="sec", inputs=["in"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=2,
            group_key=lambda k: k[0],
        )
        small_cluster.run_job(job)
        assert small_cluster.dfs.read_all("out") == [["a", "b", "c"]]

    def test_multi_input_tagging(self, small_cluster):
        small_cluster.dfs.write("r", ["r1"])
        small_cluster.dfs.write("s", ["s1"])

        def mapper(record, ctx):
            ctx.emit(record, ctx.input_file)

        def reducer(key, values, ctx):
            ctx.write((key, next(iter(values))))

        job = MapReduceJob(
            name="multi", inputs=["r", "s"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=1,
        )
        small_cluster.run_job(job)
        assert sorted(small_cluster.dfs.read_all("out")) == [("r1", "r"), ("s1", "s")]

    def test_reducer_need_not_consume_values(self, small_cluster):
        """The runtime must drain unconsumed group values correctly."""
        small_cluster.dfs.write("in", [("g1", 1), ("g1", 2), ("g2", 3)])

        def mapper(record, ctx):
            ctx.emit(record[0], record[1])

        def reducer(key, values, ctx):
            ctx.write(key)  # never touches values

        job = MapReduceJob(
            name="lazy", inputs=["in"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=1,
        )
        small_cluster.run_job(job)
        assert sorted(small_cluster.dfs.read_all("out")) == ["g1", "g2"]


class TestHooksAndBroadcast:
    def test_setup_teardown_hooks(self, small_cluster):
        small_cluster.dfs.write("in", ["a", "b"])
        events = []

        def mapper(record, ctx):
            ctx.emit(record, 1)

        def reducer(key, values, ctx):
            ctx.write(key)

        job = MapReduceJob(
            name="hooks", inputs=["in"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=1,
            map_setup=lambda ctx: events.append("ms"),
            map_teardown=lambda ctx: events.append("mt"),
            reduce_setup=lambda ctx: events.append("rs"),
            reduce_teardown=lambda ctx: events.append("rt"),
        )
        small_cluster.run_job(job)
        assert events.count("rs") == 1 and events.count("rt") == 1
        assert events.count("ms") == events.count("mt") >= 1

    def test_broadcast_available_in_map(self, small_cluster):
        small_cluster.dfs.write("side", ["lookup"])
        small_cluster.dfs.write("in", ["x"])

        def mapper(record, ctx):
            ctx.emit(ctx.broadcast["side"][0], record)

        def reducer(key, values, ctx):
            ctx.write(key)

        job = MapReduceJob(
            name="bc", inputs=["in"], output="out",
            mapper=mapper, reducer=reducer, num_reducers=1, broadcast=["side"],
        )
        small_cluster.run_job(job)
        assert small_cluster.dfs.read_all("out") == ["lookup"]

    def test_broadcast_charged_against_memory(self):
        cluster = make_cluster(memory_per_task_mb=0.0001)  # ~104 bytes
        cluster.dfs.write("side", ["x" * 4096])
        cluster.dfs.write("in", ["rec"])
        job = MapReduceJob(
            name="bc", inputs=["in"], output="out",
            mapper=lambda r, ctx: None, reducer=lambda k, v, ctx: None,
            num_reducers=1, broadcast=["side"],
        )
        with pytest.raises(InsufficientMemoryError):
            cluster.run_job(job)


class TestJobValidation:
    def test_zero_reducers_rejected(self):
        with pytest.raises(ValueError, match="num_reducers"):
            word_count_job(num_reducers=0)

    def test_no_inputs_rejected(self):
        with pytest.raises(ValueError, match="input"):
            MapReduceJob(
                name="x", inputs=[], output="o",
                mapper=lambda r, c: None, reducer=lambda k, v, c: None,
            )


class TestCostModel:
    def test_list_schedule_single_slot(self):
        assert list_schedule([1.0, 2.0, 3.0], 1) == 6.0

    def test_list_schedule_many_slots(self):
        assert list_schedule([1.0, 2.0, 3.0], 3) == 3.0

    def test_list_schedule_empty(self):
        assert list_schedule([], 4) == 0.0

    def test_list_schedule_greedy(self):
        # 2 slots: [3] and [2,2] -> makespan 4
        assert list_schedule([3.0, 2.0, 2.0], 2) == 4.0

    def test_more_nodes_not_slower(self):
        def run(nodes):
            cluster = make_cluster(num_nodes=nodes, task_startup_s=0.001)
            cluster.dfs.write("docs", [f"w{i % 13} " * 20 for i in range(200)])
            return cluster.run_job(word_count_job(num_reducers=nodes * 4))

        small = run(1).simulated_total_s
        big = run(8).simulated_total_s
        assert big <= small

    def test_startup_included(self):
        cluster = make_cluster(job_startup_s=5.0)
        cluster.dfs.write("docs", ["a"])
        stats = cluster.run_job(word_count_job())
        assert stats.simulated_total_s >= 5.0

    def test_with_nodes_copies_config(self):
        config = ClusterConfig(num_nodes=10, cpu_scale=7.0)
        clone = config.with_nodes(3)
        assert clone.num_nodes == 3
        assert clone.cpu_scale == 7.0
        assert config.num_nodes == 10

    def test_memory_limit_property(self):
        assert ClusterConfig(memory_per_task_mb=None).memory_per_task_bytes is None
        assert ClusterConfig(memory_per_task_mb=1).memory_per_task_bytes == 1024 * 1024


class TestPipeline:
    def test_chaining(self, small_cluster):
        from repro.mapreduce.pipeline import run_pipeline

        small_cluster.dfs.write("docs", ["a b", "b"])
        job1 = word_count_job()
        job2 = MapReduceJob(
            name="invert", inputs=["counts"], output="by_count",
            mapper=lambda rec, ctx: ctx.emit(rec[1], rec[0]),
            reducer=lambda k, vs, ctx: ctx.write((k, sorted(vs))),
            num_reducers=1,
        )
        stats = run_pipeline(small_cluster, [job1, job2])
        assert len(stats.phases) == 2
        assert sorted(small_cluster.dfs.read_all("by_count")) == [(1, ["a"]), (2, ["b"])]
        assert stats.simulated_total_s == pytest.approx(
            sum(p.simulated_total_s for p in stats.phases)
        )
