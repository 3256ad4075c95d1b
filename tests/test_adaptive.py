"""Tests for skew-adaptive Stage-2 planning and hot-group splitting.

The adaptive layer (ISSUE 7) must be *plan-transparent*: whatever
routing or hot-group splits the planner picks, the join's
output pairs and filter counters are bit-identical to the static plan
— splitting only moves work between reducer partitions.  The
differential suite here forces hand-built plans (including degenerate
and chaotic ones) through the full pipeline and compares against the
static run; unit tests pin the sampler, cost model, split resolution
and shard placement.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ordering import TokenOrder
from repro.data.synthetic import generate_skewed
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_rs, ssjoin_self
from repro.join.estimate import sample_prefix_frequencies
from repro.join.planner import SPLIT_FACTOR, Stage2Plan, _pick_splits, plan_stage2
from repro.join.stage2 import resolve_splits
from repro.mapreduce.executor import PersistentParallelCluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.hashing import shard_of, shard_partition

from tests.conftest import SCHEMA_1, make_cluster, random_records

CONFIG = dict(threshold=0.5, schema=SCHEMA_1)


def _run_self(records, config, cluster=None, **kwargs):
    cluster = cluster or make_cluster()
    try:
        cluster.dfs.write("records", records)
        report = ssjoin_self(cluster, "records", config, **kwargs)
        pairs = sorted(cluster.dfs.read_all(report.output_file))
        return pairs, report
    finally:
        if hasattr(cluster, "close"):
            cluster.close()


def _run_rs(r, s, config, cluster=None, **kwargs):
    cluster = cluster or make_cluster()
    try:
        cluster.dfs.write("r", r)
        cluster.dfs.write("s", s)
        report = ssjoin_rs(cluster, "r", "s", config, **kwargs)
        pairs = sorted(cluster.dfs.read_all(report.output_file))
        return pairs, report
    finally:
        if hasattr(cluster, "close"):
            cluster.close()


def _force_plan(plan):
    """Patch the driver's planner to return *plan* regardless of the
    sample — the differential tests' way of steering the adaptive path
    into every corner (absurd split factors, unknown tokens, …)."""
    return mock.patch(
        "repro.join.driver.plan_stage2", lambda sample, config, reducers: plan
    )


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


class TestPrefixSampler:
    def test_deterministic(self, rng):
        records = random_records(rng, 300)
        config = JoinConfig(**CONFIG)
        a = sample_prefix_frequencies(records, config, seed=5)
        b = sample_prefix_frequencies(records, config, seed=5)
        assert a == b

    def test_small_input_falls_back_to_prefix(self, rng):
        records = random_records(rng, 20)
        sample = sample_prefix_frequencies(records, JoinConfig(**CONFIG))
        # Bernoulli at 10% would keep ~2 lines; the fallback takes all
        assert sample.records_sampled == 20
        assert sample.records_total == 20
        assert sample.scale == 1.0

    def test_scale_reflects_effective_rate(self, rng):
        records = random_records(rng, 2000)
        sample = sample_prefix_frequencies(records, JoinConfig(**CONFIG))
        assert 0 < sample.records_sampled < 2000
        assert sample.scale == 2000 / sample.records_sampled

    def test_order_is_ascending_frequency(self, rng):
        # 50 records < min_sample, so the sample is the whole input and
        # the order can be recounted exactly
        records = random_records(rng, 50)
        config = JoinConfig(**CONFIG)
        sample = sample_prefix_frequencies(records, config)
        assert sample.records_sampled == 50
        counts: dict[str, int] = {}
        from repro.join.records import join_value

        for line in records:
            for token in config.tokenizer.tokenize(join_value(line, SCHEMA_1)):
                counts[token] = counts.get(token, 0) + 1
        freqs = [counts[t] for t in sample.order]
        assert freqs == sorted(freqs)
        # ties broken by token string
        for (t1, f1), (t2, f2) in zip(
            zip(sample.order, freqs), list(zip(sample.order, freqs))[1:]
        ):
            if f1 == f2:
                assert t1 < t2

    def test_rank_of_unseen_token_is_len_order(self, rng):
        records = random_records(rng, 100)
        sample = sample_prefix_frequencies(records, JoinConfig(**CONFIG))
        assert sample.rank("never-a-token") == len(sample.order)
        assert sample.rank(sample.order[0]) == 0

    def test_rs_order_is_built_on_r_only(self):
        r = ["0\talpha beta\tx", "1\talpha gamma\tx"]
        s = ["9\tzulu alpha\tx"]
        sample = sample_prefix_frequencies(r, JoinConfig(**CONFIG), s_lines=s)
        assert "zulu" not in sample.order  # S-only tokens dropped
        assert sample.records_sampled == len(r) + len(s)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_prefix_frequencies(["0\ta\tx"], JoinConfig(**CONFIG), sample_rate=0.0)


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


def _sample_for(records, config=None):
    return sample_prefix_frequencies(records, config or JoinConfig(**CONFIG))


class TestPlanner:
    def test_empty_sample_echoes_static_config(self):
        config = JoinConfig(routing="grouped", num_groups=7, **CONFIG)
        sample = _sample_for([])
        plan = plan_stage2(sample, config, 8)
        assert plan == Stage2Plan(
            routing="grouped", num_groups=7, splits=(), sampled_records=0,
        )

    def test_uniform_workload_does_not_split(self, rng):
        records = random_records(rng, 200, vocab_size=200, dup_rate=0.0)
        plan = plan_stage2(_sample_for(records), JoinConfig(**CONFIG), 4)
        assert plan.splits == ()

    def test_hot_token_splits(self):
        # every record routes on the same rare-ish token "hot"
        records = [f"{i}\thot w{i % 4} w{(i + 1) % 4} filler{i}\tx" for i in range(300)]
        config = JoinConfig(**CONFIG)
        plan = plan_stage2(_sample_for(records, config), config, 32)
        assert plan.splits, "expected at least one hot group"
        assert all(k == SPLIT_FACTOR for _t, k in plan.splits)
        assert plan.counters()["plan.split_factor"] == SPLIT_FACTOR
        assert plan.counters()["plan.splits"] == len(plan.splits)

    def test_pick_splits_floor_and_threshold(self):
        work = {0: 1000.0, 1: 10.0, 2: 10.0, 3: 30.0}
        assert _pick_splits(work, work, 4) == [0]
        # a dominating but tiny route stays unsplit (min-record floor)
        assert _pick_splits({0: 50.0, 1: 1.0}, {0: 50.0, 1: 1.0}, 4) == []
        # ...even when its *work* is huge but its record count is small
        assert _pick_splits({0: 5000.0, 1: 10.0}, {0: 10.0, 1: 10.0}, 4) == []
        assert _pick_splits({}, {}, 4) == []

    def test_pick_splits_heaviest_first_and_capped(self):
        work = {i: 1000.0 + i for i in range(40)}
        hot = _pick_splits(work, work, 1000)
        assert len(hot) == 16  # _MAX_SPLIT_TOKENS
        assert hot[0] == 39  # heaviest first

    def test_counters_shape(self):
        plan = Stage2Plan(
            routing="grouped", num_groups=12,
            splits=(("a", 4), ("b", 2)), sampled_records=77,
        )
        assert plan.counters() == {
            "plan.num_groups": 12,
            "plan.routing_grouped": 1,
            "plan.sampled_records": 77,
            "plan.split_factor": 4,
            "plan.splits": 2,
        }


# ---------------------------------------------------------------------------
# split resolution and shard placement
# ---------------------------------------------------------------------------


class TestResolveSplits:
    ORDER = TokenOrder(["rare", "mid", "hot"])

    def test_rank_encoding_resolves_to_rank(self):
        plan = Stage2Plan("individual", None, splits=(("hot", 4),))
        config = JoinConfig(**CONFIG)
        assert resolve_splits(plan, config, self.ORDER) == {self.ORDER.rank("hot"): 4}

    def test_grouped_collapses_to_group_with_max_factor(self):
        plan = Stage2Plan("grouped", 2, splits=(("rare", 2), ("hot", 5)))
        config = JoinConfig(routing="grouped", num_groups=2, **CONFIG)
        # ranks 0 and 2 both land in group 0: larger shard count wins
        assert resolve_splits(plan, config, self.ORDER) == {0: 5}

    def test_unknown_tokens_and_trivial_factors_dropped(self):
        plan = Stage2Plan(
            "individual", None, splits=(("never-seen", 4), ("hot", 1))
        )
        assert resolve_splits(plan, JoinConfig(**CONFIG), self.ORDER) == {}
        assert resolve_splits(None, JoinConfig(**CONFIG), self.ORDER) == {}


class TestShardPlacement:
    def test_unsplit_routes_keep_legacy_partition(self):
        from repro.mapreduce.hashing import stable_hash

        for route in ("hot", 17, ("a", 3)):
            assert shard_partition(route, -1, 8) == stable_hash(route) % 8
            assert shard_partition(route, 0, 8) == stable_hash(route) % 8

    def test_shards_scatter_deterministically(self):
        from repro.mapreduce.hashing import stable_hash

        for route in ("hot", 42):
            for shard in range(1, 6):
                p = shard_partition(route, shard, 8)
                assert 0 <= p < 8
                assert p == stable_hash(stable_hash((route, shard))) % 8
                assert p == shard_partition(route, shard, 8)  # stable

    def test_colocated_routes_do_not_stack_their_shards(self):
        # two distinct routes sharing a home partition must not march
        # their shard ranges across the same reducers in lockstep
        n = 64
        homes = {}
        for route in range(2000):
            homes.setdefault(shard_partition(route, -1, n), []).append(route)
        a, b = next(v[:2] for v in homes.values() if len(v) >= 2)
        shards_a = [shard_partition(a, s, n) for s in range(1, 5)]
        shards_b = [shard_partition(b, s, n) for s in range(1, 5)]
        assert shards_a != shards_b

    def test_shard_of_is_stable_and_bounded(self):
        assert shard_of(123, 4) == shard_of(123, 4)
        assert all(0 <= shard_of(rid, 5) < 5 for rid in range(200))


# ---------------------------------------------------------------------------
# differential: forced plans through the full pipeline
# ---------------------------------------------------------------------------

#: hand-built split sets over the conftest vocabulary (w0..w29); an
#: unknown token rides along to prove resolution skips it silently
SPLIT_SETS = [
    (("w0", 2),),
    (("w0", 2), ("w1", 3), ("w2", 4), ("no-such-token", 4)),
    tuple((f"w{i}", 3) for i in range(12)),
]


class TestForcedPlanDifferential:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    @pytest.mark.parametrize("routing", ["individual", "grouped"])
    def test_self_join_splits_identical(self, rng, kernel, routing):
        records = random_records(rng, 80)
        num_groups = 8 if routing == "grouped" else None
        static = JoinConfig(kernel=kernel, routing=routing, num_groups=num_groups, **CONFIG)
        pairs, report = _run_self(records, static)
        base = pairs, report.filter_counters()
        for splits in SPLIT_SETS:
            plan = Stage2Plan(routing, num_groups, splits=splits)
            with _force_plan(plan):
                apairs, areport = _run_self(
                    records, static.with_options(adaptive=True)
                )
            assert (apairs, areport.filter_counters()) == base, (
                kernel, routing, splits,
            )

    # the ids these legs had next to the deleted string-encoding ones
    @pytest.mark.parametrize("kernel", ["bk", "pk"], ids=["rank-bk", "rank-pk"])
    def test_rs_join_splits_identical(self, rng, kernel):
        r = random_records(rng, 50)
        s = random_records(rng, 50, rid_base=1000)
        static = JoinConfig(kernel=kernel, **CONFIG)
        pairs, report = _run_rs(r, s, static)
        base = pairs, report.filter_counters()
        for splits in SPLIT_SETS:
            plan = Stage2Plan("individual", None, splits=splits)
            with _force_plan(plan):
                apairs, areport = _run_rs(r, s, static.with_options(adaptive=True))
            assert (apairs, areport.filter_counters()) == base, (kernel, splits)

    def test_grouped_rs_splits_identical(self, rng):
        r = random_records(rng, 50)
        s = random_records(rng, 50, rid_base=1000)
        static = JoinConfig(routing="grouped", num_groups=6, **CONFIG)
        pairs, report = _run_rs(r, s, static)
        plan = Stage2Plan("grouped", 6, splits=(("w0", 3), ("w3", 2)))
        with _force_plan(plan):
            apairs, areport = _run_rs(r, s, static.with_options(adaptive=True))
        assert apairs == pairs
        assert areport.filter_counters() == report.filter_counters()

    def test_parallel_engine_matches_sequential(self, rng):
        records = random_records(rng, 80)
        static = JoinConfig(**CONFIG)
        pairs, report = _run_self(records, static)
        plan = Stage2Plan("individual", None, splits=SPLIT_SETS[1])
        for make in (
            lambda: make_cluster(),
            lambda: PersistentParallelCluster(
                workers=2, min_tasks_for_pool=1, assume_cores=4
            ),
        ):
            with _force_plan(plan):
                apairs, areport = _run_self(
                    records, static.with_options(adaptive=True), cluster=make()
                )
            assert apairs == pairs
            assert areport.filter_counters() == report.filter_counters()

    def test_chaos_plan_with_faults_stays_identical(self, rng):
        records = random_records(rng, 60)
        static = JoinConfig(**CONFIG)
        pairs, report = _run_self(records, static)
        plan = Stage2Plan("individual", None, splits=SPLIT_SETS[2])
        cluster = make_cluster()
        cluster.fault_plan = FaultPlan.parse("crash:stage2-*:reduce:0:0")
        cluster.retry_policy = RetryPolicy(max_attempts=4)
        with _force_plan(plan):
            apairs, areport = _run_self(
                records, static.with_options(adaptive=True), cluster=cluster
            )
        assert apairs == pairs
        assert areport.filter_counters() == report.filter_counters()
        assert areport.counters().get("fault.injected", 0) >= 1

    @given(
        seed=st.integers(0, 10_000),
        factor=st.integers(2, 5),
        kernel=st.sampled_from(["bk", "pk"]),
        split_count=st.integers(1, 8),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_any_split_is_transparent(self, seed, factor, kernel, split_count):
        rng = random.Random(seed)
        records = random_records(rng, 40)
        static = JoinConfig(kernel=kernel, **CONFIG)
        pairs, report = _run_self(records, static)
        splits = tuple((f"w{i}", factor) for i in range(split_count))
        plan = Stage2Plan("individual", None, splits=splits)
        with _force_plan(plan):
            apairs, areport = _run_self(records, static.with_options(adaptive=True))
        assert apairs == pairs
        assert areport.filter_counters() == report.filter_counters()


# ---------------------------------------------------------------------------
# end to end: the planner's own choices on a skewed corpus
# ---------------------------------------------------------------------------


class TestAdaptiveEndToEnd:
    def test_skewed_corpus_identical_with_splits(self):
        # 1200 records: large enough that the cost model finds splits
        # worthwhile (at ~600 the replication penalty is a wash)
        records = generate_skewed(1200, seed=7)
        static_cfg = JoinConfig(num_reducers=40)
        pairs, report = _run_self(records, static_cfg)
        assert pairs, "skewed corpus must have a non-trivial join answer"
        apairs, areport = _run_self(records, static_cfg.with_options(adaptive=True))
        assert apairs == pairs
        assert areport.filter_counters() == report.filter_counters()
        counters = areport.counters()
        assert counters["plan.splits"] >= 1
        assert counters["plan.sampled_records"] > 0
        assert counters["plan.split_factor"] >= 2

    def test_plan_counters_absent_on_static_runs(self, rng):
        records = random_records(rng, 40)
        _pairs, report = _run_self(records, JoinConfig(**CONFIG))
        assert not any(k.startswith("plan.") for k in report.counters())
