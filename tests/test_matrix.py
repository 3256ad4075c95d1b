"""The differential matrix's own cells (tests/matrix.py; DESIGN.md,
"Differential matrix"): the join answer must not depend on the cluster
shape or the plan — only costs may change; grouped routing on the
pooled engine survives a squeeze, random faults and the sanitizer; and
the universal assertion catches a silently dropped pair.
"""

import dataclasses

import pytest

from repro.join import driver
from repro.join.blocks import BlockPolicy
from repro.join.stage2 import stage2_self_job
from repro.mapreduce.faults import FaultPlan

from tests.conftest import fork_only
from tests.matrix import BASE, cell, reference, squeeze


class TestClusterShape:
    """Partitioning and replication are performance levers, never
    correctness levers."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 7])
    def test_node_count(self, make_engine, num_nodes):
        cell(make_engine, shape=dict(num_nodes=num_nodes))

    @pytest.mark.parametrize("num_reducers", [1, 3, 17, 64])
    def test_reducer_count(self, make_engine, num_reducers):
        cell(make_engine, plan=dict(num_reducers=num_reducers))

    @pytest.mark.parametrize("block_bytes", [64, 4096, 10**6])
    def test_block_size(self, make_engine, block_bytes):
        cell(make_engine, shape=dict(block_bytes=block_bytes))

    @pytest.mark.parametrize("num_groups", [1, 2, 13, 1000])
    def test_routing_granularity(self, make_engine, num_groups):
        cell(make_engine, plan=dict(routing="grouped", num_groups=num_groups))

    def test_kernel_choice(self, make_engine):
        cell(make_engine, plan=dict(kernel="bk"))

    def test_stage_algorithm_choices(self, make_engine):
        cell(make_engine, plan=dict(stage1="opto", stage3="oprj"))

    @pytest.mark.parametrize("strategy", ["map", "reduce"])
    def test_block_processing(self, make_engine, strategy):
        cell(make_engine, plan=dict(kernel="bk", blocks=BlockPolicy(strategy, num_blocks=3)))

    @pytest.mark.parametrize("num_nodes, num_reducers", [(1, 1), (9, 5)])
    def test_rs_node_and_reducer_count(self, make_engine, num_nodes, num_reducers):
        cell(
            make_engine, "rs",
            shape=dict(num_nodes=num_nodes), plan=dict(num_reducers=num_reducers),
        )


#: grouped routing at a group count that really merges tokens
GROUPED = BASE.with_options(routing="grouped", num_groups=3)


@fork_only
class TestGroupedRoutingOnThePool:
    """Grouped routing under each thing that can re-run part of a join,
    on the persistent engine."""

    def test_squeeze_ladder(self, make_engine):
        run = cell(
            make_engine, "skewed", GROUPED, engine="persistent",
            faults=squeeze("skewed", GROUPED),
        )
        assert run.report.memory_steps[0] == "routing:individual"
        assert run.counters["memory.replans"] == len(run.report.memory_steps)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_fault_plan(self, make_engine, seed):
        run = cell(
            make_engine, "self", GROUPED, engine="persistent",
            faults=FaultPlan.random(seed),
        )
        assert run.counters["fault.injected"] >= 1

    def test_squeezed_oprj_reruns_as_brj(self, make_engine):
        run = cell(
            make_engine, "self", GROUPED, engine="persistent",
            faults="squeeze:oprj:map:*:0:0.00001",
        )
        assert run.report.memory_steps == ["stage3:brj"]

    @pytest.mark.parametrize("workload", ["self", "rs"])
    def test_sanitize(self, make_engine, workload):
        cell(make_engine, workload, GROUPED, engine="persistent", observer="sanitize")


def test_the_universal_assertion_catches_a_silently_dropped_pair(make_engine, monkeypatch):
    """A Stage-2 reducer that loses one true pair trips no run-time
    guard; the matrix assertion must still refuse the join."""
    reference("self")

    def dropping_job(*args, **kwargs):
        job = stage2_self_job(*args, **kwargs)
        dropped = []

        def reducer(key, values, ctx):
            before = len(ctx._written)
            job.reducer(key, values, ctx)
            if not dropped and len(ctx._written) > before:
                dropped.append(ctx._written.pop())

        return dataclasses.replace(job, reducer=reducer)

    monkeypatch.setattr(driver, "stage2_self_job", dropping_job)
    with pytest.raises(AssertionError):
        cell(make_engine, "self")
