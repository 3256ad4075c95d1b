"""Tests for similarity functions and their filter bounds.

The bound properties (prefix, length, overlap threshold) are the
correctness foundation of every kernel, so they get property-based
coverage: no bound may ever admit a false negative.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.similarity import (
    Bounds,
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    bounds_for,
    get_similarity_function,
)

ALL_SIMS = [Jaccard(), Cosine(), Dice()]
THRESHOLDS = [0.5, 0.6, 0.75, 0.8, 0.9, 0.95]

sets_strategy = st.sets(st.integers(min_value=0, max_value=40), max_size=20)
threshold_strategy = st.sampled_from(THRESHOLDS)


class TestJaccardValues:
    def test_paper_example(self):
        # "I will call back" vs "I will call you soon" = 3/6 (Section 2)
        x = {"i", "will", "call", "back"}
        y = {"i", "will", "call", "you", "soon"}
        assert Jaccard().similarity(x, y) == pytest.approx(0.5)

    def test_identical(self):
        assert Jaccard().similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert Jaccard().similarity({"a"}, {"b"}) == 0.0

    def test_empty_is_zero(self):
        assert Jaccard().similarity(set(), set()) == 0.0
        assert Jaccard().similarity(set(), {"a"}) == 0.0

    def test_accepts_lists(self):
        assert Jaccard().similarity(["a", "b"], ["b", "a"]) == 1.0


class TestCosineDiceOverlapValues:
    def test_cosine(self):
        assert Cosine().similarity({"a", "b"}, {"a", "c"}) == pytest.approx(0.5)

    def test_dice(self):
        assert Dice().similarity({"a", "b"}, {"a", "c"}) == pytest.approx(0.5)

    def test_overlap(self):
        assert Overlap().similarity({"a", "b", "c"}, {"b", "c", "d"}) == 2.0

    def test_empty_zero(self):
        for sim in (Cosine(), Dice(), Overlap()):
            assert sim.similarity(set(), {"a"}) == 0.0


class TestClosedForms:
    def test_jaccard_prefix_length_tau08(self):
        # n=10, tau=0.8: prefix = 10 - ceil(8) + 1 = 3
        assert Jaccard().prefix_length(10, 0.8) == 3

    def test_jaccard_prefix_no_float_noise(self):
        # 0.8*5 = 4.000000000000001 must ceil to 4, not 5
        assert Jaccard().prefix_length(5, 0.8) == 2

    def test_jaccard_index_prefix_shorter(self):
        sim = Jaccard()
        for n in range(1, 60):
            assert sim.index_prefix_length(n, 0.8) <= sim.prefix_length(n, 0.8)

    def test_jaccard_length_bounds_tau08(self):
        assert Jaccard().length_bounds(10, 0.8) == (8, 12)

    def test_jaccard_overlap_threshold(self):
        # alpha = ceil(0.8/1.8 * 20) = ceil(8.888) = 9
        assert Jaccard().overlap_threshold(10, 10, 0.8) == 9

    def test_zero_size(self):
        for sim in ALL_SIMS:
            assert sim.prefix_length(0, 0.8) == 0
            assert sim.length_bounds(0, 0.8) == (0, 0)

    def test_overlap_function_bounds(self):
        sim = Overlap()
        assert sim.overlap_threshold(5, 9, 3) == 3
        assert sim.prefix_length(5, 3) == 3
        lo, hi = sim.length_bounds(5, 3)
        assert lo == 3 and hi >= 10**6


class TestSimilarityFromOverlap:
    @given(sets_strategy, sets_strategy)
    def test_matches_direct_computation(self, x, y):
        for sim in ALL_SIMS + [Overlap()]:
            inter = len(x & y)
            assert sim.similarity_from_overlap(len(x), len(y), inter) == pytest.approx(
                sim.similarity(x, y)
            )


class TestBoundSoundness:
    """No bound may reject a truly similar pair (no false negatives)."""

    @given(sets_strategy, sets_strategy, threshold_strategy)
    def test_overlap_threshold_sound(self, x, y, t):
        for sim in ALL_SIMS:
            if x and y and sim.similarity(x, y) >= t:
                assert len(x & y) >= sim.overlap_threshold(len(x), len(y), t)

    @given(sets_strategy, sets_strategy, threshold_strategy)
    def test_length_bounds_sound(self, x, y, t):
        for sim in ALL_SIMS:
            if x and y and sim.similarity(x, y) >= t:
                lo, hi = sim.length_bounds(len(x), t)
                assert lo <= len(y) <= hi

    @given(sets_strategy, sets_strategy, threshold_strategy)
    def test_prefix_filter_sound(self, x, y, t):
        """Similar sets share a token within their probing prefixes
        under any shared total order (we use ascending ints)."""
        for sim in ALL_SIMS:
            if not (x and y) or sim.similarity(x, y) < t:
                continue
            xs, ys = sorted(x), sorted(y)
            px = set(xs[: sim.prefix_length(len(xs), t)])
            py = set(ys[: sim.prefix_length(len(ys), t)])
            assert px & py, (xs, ys, t, sim.name)

    @given(sets_strategy, sets_strategy, threshold_strategy)
    def test_index_prefix_sound_for_shorter_partner(self, x, y, t):
        """Probe prefix of the longer set must intersect the *index*
        (mid) prefix of the shorter — the PPJoin invariant."""
        sim = Jaccard()
        if not (x and y) or sim.similarity(x, y) < t:
            return
        longer, shorter = (x, y) if len(x) >= len(y) else (y, x)
        ls, ss = sorted(longer), sorted(shorter)
        probe = set(ls[: sim.prefix_length(len(ls), t)])
        index = set(ss[: sim.index_prefix_length(len(ss), t)])
        assert probe & index

    @given(st.integers(min_value=1, max_value=200), threshold_strategy)
    def test_prefix_length_in_range(self, n, t):
        for sim in ALL_SIMS:
            assert 1 <= sim.prefix_length(n, t) <= n

    @given(st.integers(min_value=1, max_value=200), threshold_strategy)
    def test_length_bounds_contain_n(self, n, t):
        for sim in ALL_SIMS:
            lo, hi = sim.length_bounds(n, t)
            assert lo <= n <= hi


class TestRegistry:
    @pytest.mark.parametrize("name", ["jaccard", "cosine", "dice", "overlap"])
    def test_lookup(self, name):
        assert get_similarity_function(name).name == name

    def test_case_insensitive(self):
        assert get_similarity_function("Jaccard").name == "jaccard"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown similarity"):
            get_similarity_function("levenshtein")

    def test_repr(self):
        assert repr(Jaccard()) == "Jaccard()"


class TestThresholdOne:
    """tau = 1.0 means exact set equality."""

    def test_prefix_length_is_one(self):
        assert Jaccard().prefix_length(10, 1.0) == 1

    def test_length_bounds_degenerate(self):
        assert Jaccard().length_bounds(10, 1.0) == (10, 10)

    def test_overlap_threshold_is_n(self):
        assert Jaccard().overlap_threshold(10, 10, 1.0) == 10

    def test_cosine_sqrt_rounding(self):
        # alpha = ceil(t * sqrt(nx*ny)); sqrt(4*9)=6 exactly
        assert Cosine().overlap_threshold(4, 9, 1.0) == 6
        assert math.isclose(Cosine().similarity({"a"}, {"a"}), 1.0)


class TestBoundsMemo:
    """The memo tables hold exactly what the methods return."""

    @pytest.mark.parametrize(
        "sim,threshold",
        [(sim, t) for sim in (*ALL_SIMS,) for t in (0.5, 0.7, 0.8, 0.9)]
        + [(Overlap(), t) for t in (1, 2, 5)],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_tables_equal_direct_calls(self, sim, threshold):
        bounds = Bounds(sim, threshold)
        for n in range(201):
            assert bounds.length_bounds[n] == sim.length_bounds(n, threshold)
            assert bounds.prefix_length[n] == sim.prefix_length(n, threshold)
            assert bounds.index_prefix_length[n] == sim.index_prefix_length(
                n, threshold
            )
            for m in range(201):
                assert bounds.alpha[n, m] == sim.overlap_threshold(n, m, threshold)
        # second lookups are plain dict hits on the stored values
        assert len(bounds.alpha) == 201 * 201
        assert bounds.alpha[200, 200] == sim.overlap_threshold(200, 200, threshold)

    def test_one_memo_per_function_and_threshold(self):
        sim = get_similarity_function("jaccard")
        assert bounds_for(sim, 0.8) is bounds_for(sim, 0.8)
        assert bounds_for(sim, 0.8) is not bounds_for(sim, 0.7)
        assert bounds_for(sim, 0.8) is not bounds_for(Cosine(), 0.8)
