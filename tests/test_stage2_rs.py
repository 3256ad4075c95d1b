"""Tests for Stage 2, R-S case: relation tagging, S-token dropping,
length-class streaming."""

import pytest

from repro.join.config import JoinConfig
from repro.join.records import make_line
from repro.join.stage2_rs import _length_class
from repro.join.records import REL_R, REL_S

from tests.conftest import (
    SCHEMA_1,
    assert_pk_funnel_closes,
    oracle_rs_pairs as oracle,
    random_records,
    run_stage2_rs,
)


@pytest.mark.parametrize("kernel", ["bk", "pk"])
class TestRSKernels:
    def test_matches_oracle(self, rng, kernel):
        r = random_records(rng, 40)
        s = random_records(rng, 40, rid_base=1000)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel=kernel)
        pairs, stats = run_stage2_rs(r, s, config)
        assert sorted(p[:2] for p in pairs) == sorted(
            p[:2] for p in oracle(r, s, config)
        )
        if kernel == "pk":
            assert_pk_funnel_closes(stats.counters)

    def test_overlapping_rid_spaces(self, rng, kernel):
        """R and S may reuse RIDs; pairs must keep direction (r, s)."""
        r = [make_line(1, ["a b c d", "x"])]
        s = [make_line(1, ["a b c d", "y"])]
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, kernel=kernel)
        pairs, _ = run_stage2_rs(r, s, config)
        assert [p[:2] for p in pairs] == [(1, 1)]

    def test_s_only_tokens_dropped_similarity_exact(self, rng, kernel):
        """An S record with tokens outside R's dictionary must still be
        compared against its ORIGINAL size."""
        r = [make_line(1, ["a b c d", "x"])]
        s = [make_line(2, ["a b c d zonly", "y"])]  # true jaccard = 4/5
        config = JoinConfig(threshold=0.75, schema=SCHEMA_1, kernel=kernel)
        pairs, _ = run_stage2_rs(r, s, config)
        # the two records share every prefix token; one group owns the pair
        assert [p[:2] for p in pairs] == [(1, 2)]
        assert pairs[0][2] == pytest.approx(4 / 5)

    def test_s_only_tokens_high_threshold_excluded(self, rng, kernel):
        r = [make_line(1, ["a b c d", "x"])]
        s = [make_line(2, ["a b c d z1 z2", "y"])]  # true jaccard = 4/6
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, kernel=kernel)
        pairs, _ = run_stage2_rs(r, s, config)
        assert pairs == []

    def test_empty_s(self, rng, kernel):
        r = random_records(rng, 10)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel=kernel)
        pairs, _ = run_stage2_rs(r, [], config)
        assert pairs == []

    def test_pairs_directed_r_first(self, rng, kernel):
        r = random_records(rng, 30)
        s = random_records(rng, 30, rid_base=1000)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel=kernel)
        pairs, _ = run_stage2_rs(r, s, config)
        for r_rid, s_rid, _sim in pairs:
            assert r_rid < 1000 <= s_rid


class TestLengthClasses:
    def test_s_class_is_actual_length(self):
        config = JoinConfig(threshold=0.8)
        assert _length_class(REL_S, 10, config) == 10

    def test_r_class_is_lower_bound(self):
        config = JoinConfig(threshold=0.8)
        # Jaccard lb(10) = ceil(8) = 8
        assert _length_class(REL_R, 10, config) == 8

    def test_streaming_invariant(self):
        """Every R record that can join an S record must sort before it:
        class(R) <= class(S) whenever len(R) <= ub(len(S))."""
        config = JoinConfig(threshold=0.8)
        sim, t = config.sim, config.threshold
        for ls in range(1, 60):
            lo, hi = sim.length_bounds(ls, t)
            for lr in range(1, 80):
                if lo <= lr <= hi:  # a possible partner
                    assert _length_class(REL_R, lr, config) <= _length_class(
                        REL_S, ls, config
                    ), (lr, ls)

    def test_same_class_r_sorts_first(self):
        """Relation tags break class ties with R before S."""
        assert REL_R < REL_S


class TestDifferentThresholds:
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_pk_oracle_sweep(self, rng, threshold):
        r = random_records(rng, 35)
        s = random_records(rng, 35, rid_base=1000)
        config = JoinConfig(threshold=threshold, schema=SCHEMA_1, kernel="pk")
        pairs, _ = run_stage2_rs(r, s, config)
        assert sorted(p[:2] for p in pairs) == sorted(
            p[:2] for p in oracle(r, s, config)
        )

    @pytest.mark.parametrize("similarity", ["cosine", "dice"])
    def test_other_similarities(self, rng, similarity):
        r = random_records(rng, 30)
        s = random_records(rng, 30, rid_base=1000)
        config = JoinConfig(
            similarity=similarity, threshold=0.6, schema=SCHEMA_1, kernel="pk"
        )
        pairs, _ = run_stage2_rs(r, s, config)
        assert sorted(p[:2] for p in pairs) == sorted(
            p[:2] for p in oracle(r, s, config)
        )
