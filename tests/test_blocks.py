"""Tests for Section 5 block processing: correctness under both
strategies, spill accounting, and the memory bound it exists to honor."""

import pytest

from repro.core.naive import naive_rs_join, naive_self_join
from repro.join.blocks import SPILL_READ, SPILL_WRITTEN, BlockPolicy
from repro.join.config import JoinConfig
from repro.join.stage1 import stage1_jobs
from repro.join.stage2 import stage2_self_job
from repro.join.stage2_rs import stage2_rs_job
from repro.mapreduce.pipeline import run_pipeline

from tests.conftest import (
    SCHEMA_1,
    make_cluster,
    oracle_projections,
    pair_keys,
    random_records,
)


def run_self(records, config, **cluster_kwargs):
    cluster = make_cluster(**cluster_kwargs)
    cluster.dfs.write("records", records)
    run_pipeline(cluster, stage1_jobs(config, ["records"], "tokens", 4))
    stats = cluster.run_job(stage2_self_job(config, "records", "tokens", "pairs", 4))
    return cluster.dfs.read_all("pairs"), stats


def run_rs(r, s, config, **cluster_kwargs):
    cluster = make_cluster(**cluster_kwargs)
    cluster.dfs.write("r", r)
    cluster.dfs.write("s", s)
    run_pipeline(cluster, stage1_jobs(config, ["r"], "tokens", 4))
    stats = cluster.run_job(stage2_rs_job(config, "r", "s", "tokens", "pairs", 4))
    return cluster.dfs.read_all("pairs"), stats


def config_with_blocks(strategy, num_blocks, threshold=0.5, sanitize=False):
    return JoinConfig(
        threshold=threshold,
        schema=SCHEMA_1,
        kernel="bk",
        blocks=BlockPolicy(strategy=strategy, num_blocks=num_blocks),
        sanitize=sanitize,
    )


def assert_sanitized_clean(counters):
    """The prune-admissibility oracle ran on this path and found nothing."""
    assert counters.get("sanitize.checks", 0) > 0
    assert counters.get("sanitize.violations", 0) == 0


@pytest.mark.parametrize("strategy", ["map", "reduce"])
@pytest.mark.parametrize("num_blocks", [1, 2, 4])
class TestBlockCorrectness:
    def test_self_join_matches_oracle(self, rng, strategy, num_blocks):
        records = random_records(rng, 60)
        config = config_with_blocks(strategy, num_blocks, sanitize=True)
        pairs, stats = run_self(records, config)
        expected = naive_self_join(oracle_projections(records), config.sim, 0.5)
        assert pair_keys(pairs) == pair_keys(expected)
        assert_sanitized_clean(stats.counters)

    def test_rs_join_matches_oracle(self, rng, strategy, num_blocks):
        r = random_records(rng, 35)
        s = random_records(rng, 35, rid_base=1000)
        config = config_with_blocks(strategy, num_blocks, sanitize=True)
        pairs, stats = run_rs(r, s, config)
        expected = naive_rs_join(
            oracle_projections(r), oracle_projections(s), config.sim, 0.5
        )
        assert sorted(set(p[:2] for p in pairs)) == sorted(p[:2] for p in expected)
        assert_sanitized_clean(stats.counters)


class TestStrategyTradeoffs:
    def test_map_based_replicates_more(self, rng):
        """Map-based sends copies through the shuffle; reduce-based
        sends each record once."""
        records = random_records(rng, 50)
        _, stats_map = run_self(records, config_with_blocks("map", 3))
        _, stats_reduce = run_self(records, config_with_blocks("reduce", 3))
        assert (
            stats_map.counters["framework.map_output_records"]
            > stats_reduce.counters["framework.map_output_records"]
        )

    def test_reduce_based_spills_to_disk(self, rng):
        records = random_records(rng, 50)
        _, stats = run_self(records, config_with_blocks("reduce", 3))
        assert stats.counters.get(SPILL_WRITTEN, 0) > 0
        assert stats.counters.get(SPILL_READ, 0) >= stats.counters[SPILL_WRITTEN]

    def test_map_based_never_spills(self, rng):
        records = random_records(rng, 50)
        _, stats = run_self(records, config_with_blocks("map", 3))
        assert stats.counters.get(SPILL_WRITTEN, 0) == 0

    def test_single_block_degenerates_to_plain_bk(self, rng):
        records = random_records(rng, 40)
        plain = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk")
        pairs_plain, _ = run_self(records, plain)
        pairs_blocks, _ = run_self(records, config_with_blocks("reduce", 1))
        assert pair_keys(pairs_blocks) == pair_keys(pairs_plain)


class TestMemoryBound:
    def test_blocks_cap_reducer_memory(self, rng):
        """Peak reducer memory with B blocks must be well below the
        un-blocked BK peak (only the loaded block is held)."""
        records = random_records(rng, 80, dup_rate=0.7)
        plain = JoinConfig(threshold=0.4, schema=SCHEMA_1, kernel="bk")
        _, stats_plain = run_self(records, plain)
        peak_plain = max(t.peak_memory_bytes for t in stats_plain.reduce_tasks)
        _, stats_blocks = run_self(records, config_with_blocks("reduce", 4, 0.4))
        peak_blocks = max(t.peak_memory_bytes for t in stats_blocks.reduce_tasks)
        assert peak_blocks < peak_plain

    def test_blocks_fit_under_budget_where_bk_ooms(self, rng):
        """The Section-5 scenario: plain BK exceeds the task budget,
        block processing completes."""
        from repro.mapreduce.types import InsufficientMemoryError

        records = random_records(rng, 80, dup_rate=0.7)
        budget_mb = 0.003  # ~3 KB per task
        plain = JoinConfig(threshold=0.4, schema=SCHEMA_1, kernel="bk")
        with pytest.raises(InsufficientMemoryError):
            run_self(records, plain, memory_per_task_mb=budget_mb)
        blocked = config_with_blocks("reduce", 8, 0.4)
        pairs, _ = run_self(records, blocked, memory_per_task_mb=budget_mb)
        expected = naive_self_join(oracle_projections(records), plain.sim, 0.4)
        assert pair_keys(pairs) == pair_keys(expected)
