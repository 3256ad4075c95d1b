"""Tests for Section 5 block processing: correctness under both
strategies (as differential-matrix cells), spill accounting, and the
memory bound it exists to honor."""

import pytest

from repro.core.naive import naive_self_join
from repro.join.blocks import SPILL_READ, SPILL_WRITTEN, BlockPolicy

from tests.conftest import (
    oracle_projections,
    pair_keys,
    random_records,
    run_stage2,
)
from tests.matrix import BASE, cell


def blocked(strategy, num_blocks):
    """The plan change that turns on Section 5 block processing."""
    return dict(kernel="bk", blocks=BlockPolicy(strategy=strategy, num_blocks=num_blocks))


def config_with_blocks(strategy, num_blocks, threshold=0.5):
    return BASE.with_options(threshold=threshold, **blocked(strategy, num_blocks))


@pytest.mark.parametrize("strategy", ["map", "reduce"])
@pytest.mark.parametrize("num_blocks", [1, 2, 4])
class TestBlockCorrectness:
    """Matrix cells (``tests/matrix.py``) under the sanitizer."""

    def test_self_join_matches_oracle(self, make_engine, strategy, num_blocks):
        cell(make_engine, "self", plan=blocked(strategy, num_blocks), observer="sanitize")

    def test_rs_join_matches_oracle(self, make_engine, strategy, num_blocks):
        cell(make_engine, "rs", plan=blocked(strategy, num_blocks), observer="sanitize")


class TestStrategyTradeoffs:
    def test_map_based_replicates_more(self, rng):
        """Map-based sends copies through the shuffle; reduce-based
        sends each record once."""
        records = random_records(rng, 50)
        _, stats_map = run_stage2(records, config_with_blocks("map", 3))
        _, stats_reduce = run_stage2(records, config_with_blocks("reduce", 3))
        assert (
            stats_map.counters["framework.map_output_records"]
            > stats_reduce.counters["framework.map_output_records"]
        )

    def test_reduce_based_spills_to_disk(self, rng):
        records = random_records(rng, 50)
        _, stats = run_stage2(records, config_with_blocks("reduce", 3))
        assert stats.counters.get(SPILL_WRITTEN, 0) > 0
        assert stats.counters.get(SPILL_READ, 0) >= stats.counters[SPILL_WRITTEN]

    def test_map_based_never_spills(self, rng):
        records = random_records(rng, 50)
        _, stats = run_stage2(records, config_with_blocks("map", 3))
        assert stats.counters.get(SPILL_WRITTEN, 0) == 0

    def test_single_block_degenerates_to_plain_bk(self, make_engine):
        cell(make_engine, plan=blocked("reduce", 1))


class TestMemoryBound:
    def test_blocks_cap_reducer_memory(self, rng):
        """Peak reducer memory with B blocks must be well below the
        un-blocked BK peak (only the loaded block is held)."""
        records = random_records(rng, 80, dup_rate=0.7)
        plain = BASE.with_options(threshold=0.4, kernel="bk")
        _, stats_plain = run_stage2(records, plain)
        peak_plain = max(t.peak_memory_bytes for t in stats_plain.reduce_tasks)
        _, stats_blocks = run_stage2(records, config_with_blocks("reduce", 4, 0.4))
        peak_blocks = max(t.peak_memory_bytes for t in stats_blocks.reduce_tasks)
        assert peak_blocks < peak_plain

    def test_blocks_fit_under_budget_where_bk_ooms(self, rng):
        """The Section-5 scenario: plain BK exceeds the task budget,
        block processing completes."""
        from repro.mapreduce.types import InsufficientMemoryError

        records = random_records(rng, 80, dup_rate=0.7)
        budget_mb = 0.003  # ~3 KB per task
        plain = BASE.with_options(threshold=0.4, kernel="bk")
        with pytest.raises(InsufficientMemoryError):
            run_stage2(records, plain, memory_per_task_mb=budget_mb)
        pairs, _ = run_stage2(
            records, config_with_blocks("reduce", 8, 0.4), memory_per_task_mb=budget_mb
        )
        expected = naive_self_join(oracle_projections(records), plain.sim, 0.4)
        assert pair_keys(pairs) == pair_keys(expected)
