"""Tests for sampling-based join-cardinality estimation."""

import random

import pytest

from repro.core.naive import naive_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.join.estimate import estimate_self_join_cardinality


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
