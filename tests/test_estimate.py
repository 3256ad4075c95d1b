"""Tests for sampling-based join-cardinality estimation and the
plan-time prefix sampler memory admission reads."""

import random

import pytest

from repro.core.naive import naive_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.join.config import JoinConfig
from repro.join.estimate import (
    estimate_self_join_cardinality,
    sample_prefix_frequencies,
)

from tests.conftest import SCHEMA_1, random_records

CONFIG = dict(threshold=0.5, schema=SCHEMA_1)


def duplicate_heavy_corpus(num_clusters=200, cluster_size=4, seed=3):
    """Clusters of identical sets: exact cardinality is known."""
    rng = random.Random(seed)
    projs = []
    rid = 0
    for _ in range(num_clusters):
        tokens = tuple(sorted(rng.sample(range(10_000), 10)))
        for _ in range(cluster_size):
            projs.append(Projection(rid, tokens))
            rid += 1
    return projs


class TestEstimate:
    def test_full_sample_is_exact(self):
        projs = duplicate_heavy_corpus(num_clusters=30)
        exact = len(naive_self_join(projs, Jaccard(), 0.8))
        estimate, sampled = estimate_self_join_cardinality(
            projs, Jaccard(), 0.8, sample_rate=1.0
        )
        assert estimate == sampled == exact

    def test_estimate_within_factor(self):
        projs = duplicate_heavy_corpus()
        exact = len(naive_self_join(projs, Jaccard(), 0.8))
        estimate, sampled = estimate_self_join_cardinality(
            projs, Jaccard(), 0.8, sample_rate=0.3, seed=11
        )
        assert sampled > 0
        assert exact / 3 <= estimate <= exact * 3

    def test_deterministic(self):
        projs = duplicate_heavy_corpus(num_clusters=50)
        first = estimate_self_join_cardinality(projs, Jaccard(), 0.8, 0.5, seed=7)
        second = estimate_self_join_cardinality(projs, Jaccard(), 0.8, 0.5, seed=7)
        assert first == second

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            estimate_self_join_cardinality([], Jaccard(), 0.8, sample_rate=0.0)

    def test_sparse_answer_flagged_by_zero_sample(self):
        rng = random.Random(5)
        projs = [
            Projection(i, tuple(sorted(rng.sample(range(100_000), 10))))
            for i in range(200)
        ]
        estimate, sampled = estimate_self_join_cardinality(
            projs, Jaccard(), 0.9, sample_rate=0.05, seed=1
        )
        assert sampled == 0
        assert estimate == 0


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

    def test_rs_order_is_built_on_r_only(self):
        r = ["0\talpha beta\tx", "1\talpha gamma\tx"]
        s = ["9\tzulu alpha\tx"]
        sample = sample_prefix_frequencies(r, JoinConfig(**CONFIG), s_lines=s)
        # R-sample order: beta, gamma, alpha; S-only "zulu" is dropped
        assert sample.token_rank_lists == ((0, 2), (1, 2), (2,))
        assert sample.records_sampled == len(r) + len(s)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_prefix_frequencies(["0\ta\tx"], JoinConfig(**CONFIG), sample_rate=0.0)
