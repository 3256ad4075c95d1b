"""Bitmap-signature filter: admissibility properties and differential
end-to-end tests.

The filter (arXiv:1711.07295) is only allowed to *prune*, never to
change the answer: ``overlap_upper_bound`` must dominate the exact
intersection size for every width and token encoding, and the full
pipeline must emit bit-identical RID pairs with the filter on or off,
across both kernels, self and R-S joins.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bitmaps import DEFAULT_WIDTH, overlap_upper_bound, passes, signature
from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.ppjoin import ppjoin_rs_join, ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.join.config import JoinConfig
from repro.join.driver import set_similarity_rs_join, set_similarity_self_join
from repro.join.records import make_line

from tests.conftest import SCHEMA_1, make_cluster

heavy = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

int_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=20)
str_sets = st.sets(
    st.sampled_from([f"tok{i}" for i in range(40)]), max_size=12
)
widths = st.sampled_from([1, 8, 32, 64, 128])


def _ordered(s):
    return tuple(sorted(s))


class TestSignature:
    def test_empty(self):
        assert signature(()) == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            signature((1, 2), width=0)

    def test_deterministic_across_orders(self):
        assert signature((3, 1, 2)) == signature((1, 2, 3))

    def test_width_bounds_signature(self):
        sig = signature(tuple(range(100)), width=8)
        assert 0 < sig < (1 << 8)

    @given(int_sets, widths)
    @heavy
    def test_popcount_bounded_by_set_size(self, s, width):
        assert signature(_ordered(s), width).bit_count() <= len(s)

    @given(str_sets, widths)
    @heavy
    def test_string_popcount_bounded_by_set_size(self, s, width):
        assert signature(_ordered(s), width).bit_count() <= len(s)


class TestAdmissibility:
    """The bound may overestimate but never underestimate the overlap."""

    @given(int_sets, int_sets, widths)
    @heavy
    def test_bound_dominates_exact_overlap_ints(self, x, y, width):
        sx, sy = signature(_ordered(x), width), signature(_ordered(y), width)
        exact = len(x & y)
        assert overlap_upper_bound(len(x), len(y), sx, sy) >= exact

    @given(str_sets, str_sets, widths)
    @heavy
    def test_bound_dominates_exact_overlap_strings(self, x, y, width):
        sx, sy = signature(_ordered(x), width), signature(_ordered(y), width)
        exact = len(x & y)
        assert overlap_upper_bound(len(x), len(y), sx, sy) >= exact

    @given(int_sets, int_sets)
    @heavy
    def test_passes_never_rejects_true_pair(self, x, y):
        sx, sy = signature(_ordered(x)), signature(_ordered(y))
        exact = len(x & y)
        # any alpha the pair actually meets must pass the filter
        for alpha in (exact, max(0, exact - 1)):
            assert passes(len(x), len(y), sx, sy, alpha)

    def test_default_width(self):
        assert DEFAULT_WIDTH == 64


class TestKernelDifferential:
    """Single-node kernels: bitmap on == bitmap off, == naive oracle."""

    @pytest.mark.parametrize("width", [1, 8, 64])
    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    def test_self_join(self, width, threshold):
        rng = random.Random(width * 1000 + int(threshold * 10))
        sets = [set(rng.sample(range(30), rng.randint(0, 12))) for _ in range(60)]
        projs = [Projection(i, _ordered(s)) for i, s in enumerate(sets)]
        sim = Jaccard()
        plain = ppjoin_self_join(projs, sim, threshold)
        filtered = ppjoin_self_join(
            projs, sim, threshold, use_suffix=False, bitmap_width=width
        )
        assert filtered == plain
        assert filtered == naive_self_join(projs, sim, threshold)

    @pytest.mark.parametrize("width", [1, 64])
    def test_rs_join(self, width):
        rng = random.Random(width)
        r = [Projection(i, _ordered(set(rng.sample(range(25), rng.randint(0, 10)))))
             for i in range(40)]
        s = [Projection(1000 + i, _ordered(set(rng.sample(range(25), rng.randint(0, 10)))))
             for i in range(40)]
        sim = Jaccard()
        plain = ppjoin_rs_join(r, s, sim, 0.5)
        filtered = ppjoin_rs_join(r, s, sim, 0.5, use_suffix=False, bitmap_width=width)
        assert filtered == plain
        assert filtered == naive_rs_join(r, s, sim, 0.5)

    def test_precomputed_signatures_match_on_the_fly(self):
        rng = random.Random(7)
        sets = [set(rng.sample(range(30), rng.randint(1, 10))) for _ in range(40)]
        bare = [Projection(i, _ordered(s)) for i, s in enumerate(sets)]
        pre = [
            Projection(p.rid, p.tokens, signature(p.tokens, 64)) for p in bare
        ]
        sim = Jaccard()
        assert ppjoin_self_join(pre, sim, 0.8, bitmap_width=64) == ppjoin_self_join(
            bare, sim, 0.8, bitmap_width=64
        )


words = st.sampled_from([f"t{i}" for i in range(18)])
titles = st.lists(words, min_size=0, max_size=8).map(" ".join)
corpora = st.lists(titles, min_size=0, max_size=25)


def to_records(titles_list, base=0):
    return [
        make_line(base + i, [title, "payload"]) for i, title in enumerate(titles_list)
    ]


class TestPipelineDifferential:
    """Full MapReduce pipeline: the filter must not change one RID pair."""

    @given(
        corpora,
        st.sampled_from([0.5, 0.8]),
        st.sampled_from(["bk", "pk"]),
    )
    @heavy
    def test_self_join_on_equals_off(self, titles_list, threshold, kernel):
        records = to_records(titles_list)
        base = JoinConfig(
            threshold=threshold,
            schema=SCHEMA_1,
            kernel=kernel,
            bitmap_filter=False,
        )
        on = base.with_options(bitmap_filter=True)
        p_off, _ = set_similarity_self_join(records, base, cluster=make_cluster())
        p_on, _ = set_similarity_self_join(records, on, cluster=make_cluster())
        assert sorted(p_on) == sorted(p_off)

    @given(corpora, corpora, st.sampled_from(["bk", "pk"]))
    @heavy
    def test_rs_join_on_equals_off(self, r_titles, s_titles, kernel):
        r = to_records(r_titles)
        s = to_records(s_titles, base=1000)
        base = JoinConfig(
            threshold=0.5, schema=SCHEMA_1, kernel=kernel, bitmap_filter=False
        )
        on = base.with_options(bitmap_filter=True)
        p_off, _ = set_similarity_rs_join(r, s, base, cluster=make_cluster())
        p_on, _ = set_similarity_rs_join(r, s, on, cluster=make_cluster())
        assert sorted(p_on) == sorted(p_off)

    def test_filter_counters_reported(self):
        rng = random.Random(3)
        titles_list = []
        for _ in range(40):
            words_ = [f"t{rng.randrange(12)}" for _ in range(rng.randint(2, 8))]
            titles_list.append(" ".join(words_))
        records = to_records(titles_list)
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, kernel="pk")
        pairs, report = set_similarity_self_join(
            records, config, cluster=make_cluster()
        )
        pruned = report.filter_counters()
        assert set(pruned) == {
            "candidates", "length", "foreign", "bitmap", "positional", "suffix",
            "verified", "pairs", "sanitize_checks", "sanitize_violations",
        }
        # sanitizer off by default: no checks, no violations
        assert pruned["sanitize_checks"] == 0
        assert pruned["sanitize_violations"] == 0
        # the shipped PK config replaces the suffix filter with the bitmap
        assert pruned["suffix"] == 0
        # each pair is emitted by its one owning group
        assert pruned["pairs"] == len(pairs)

    def test_bk_filter_counters_reported(self):
        rng = random.Random(4)
        titles_list = [
            " ".join(f"t{rng.randrange(10)}" for _ in range(rng.randint(2, 8)))
            for _ in range(40)
        ]
        records = to_records(titles_list)
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, kernel="bk")
        _, report = set_similarity_self_join(records, config, cluster=make_cluster())
        pruned = report.filter_counters()
        # BK sees every in-group pair: length + bitmap prunes are visible
        assert pruned["candidates"] > 0
        assert pruned["length"] + pruned["bitmap"] > 0
