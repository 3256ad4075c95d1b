"""Tests for the PPJoin+ kernel, including differential testing
against the naive oracle (the library's strongest correctness check)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.ppjoin import PPJoinIndex, ppjoin_rs_join, ppjoin_self_join
from repro.core.prefixes import REL_R, REL_S, Owner, Projection, routes_of
from repro.core.similarity import Cosine, Dice, Jaccard, bounds_for


def projections(list_of_sets, base=0):
    return [
        Projection(base + i, tuple(sorted(s))) for i, s in enumerate(list_of_sets)
    ]


proj_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=25), max_size=12),
    max_size=25,
)


class TestPPJoinIndexBasics:
    def test_probe_then_add_finds_pair(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        index.add(1, (1, 2, 3))
        results = index.probe(2, (1, 2, 3))
        assert results == [(1, 1.0)]

    def test_probe_empty_index(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        assert index.probe(1, (1, 2)) == []

    def test_empty_tokens_noop(self):
        index = PPJoinIndex(Jaccard(), 0.5)
        index.add(1, ())
        assert index.probe(2, ()) == []
        assert index.live_entries == 0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), 0.5, mode="both")

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), -0.5)

    def test_unsorted_add_rejected_with_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.5, evict=True)
        index.add(1, (1, 2, 3))
        with pytest.raises(ValueError, match="non-decreasing"):
            index.add(2, (1,))

    def test_unsorted_add_allowed_without_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.5, evict=False)
        index.add(1, (1, 2, 3))
        index.add(2, (1,))  # fine

    def test_true_size_smaller_than_tokens_rejected(self):
        index = PPJoinIndex(Jaccard(), 0.5, mode="rs", evict=False)
        index.add(1, (1, 2))
        with pytest.raises(ValueError, match="true_size"):
            index.probe(2, (1, 2, 3), true_size=2)


class TestEvictionAndMemory:
    def test_eviction_drops_short_entries(self):
        index = PPJoinIndex(Jaccard(), 0.9)
        index.add(1, tuple(range(2)))
        index.add(2, tuple(range(20)))
        # probing with a long record makes size-2 entries unreachable
        index.probe(3, tuple(range(100, 120)))
        assert index.live_entries == 1

    def test_live_bytes_tracks_eviction(self):
        index = PPJoinIndex(Jaccard(), 0.9)
        index.add(1, tuple(range(4)))
        before = index.live_bytes
        assert before > 0
        index.probe(2, tuple(range(50, 80)))
        assert index.live_bytes < before

    def test_peak_live_entries(self):
        index = PPJoinIndex(Jaccard(), 0.8)
        for i in range(5):
            index.add(i, tuple(range(10)))
        assert index.peak_live_entries == 5

    def test_eviction_never_loses_results(self):
        """Differential check with sizes crafted to trigger eviction."""
        rng = random.Random(5)
        sets = [set(rng.sample(range(30), rng.randint(1, 3))) for _ in range(20)]
        sets += [set(rng.sample(range(30), rng.randint(10, 14))) for _ in range(20)]
        projs = projections(sets)
        assert ppjoin_self_join(projs, Jaccard(), 0.6) == naive_self_join(
            projs, Jaccard(), 0.6
        )


class TestSelfJoinDifferential:
    @pytest.mark.parametrize("sim", [Jaccard(), Cosine(), Dice()])
    @pytest.mark.parametrize("threshold", [0.5, 0.8, 0.95])
    def test_random_corpus(self, sim, threshold):
        rng = random.Random(hash((sim.name, threshold)) & 0xFFFF)
        sets = [
            set(rng.sample(range(25), rng.randint(0, 10))) for _ in range(80)
        ]
        # inject near-duplicates
        for i in range(0, 80, 4):
            dup = set(sets[i])
            if dup and rng.random() < 0.5:
                dup.pop()
            sets.append(dup)
        projs = projections(sets)
        expected = naive_self_join(projs, sim, threshold)
        got = ppjoin_self_join(projs, sim, threshold)
        assert [p[:2] for p in got] == [p[:2] for p in expected]
        for (_, _, s1), (_, _, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2)

    @given(proj_sets, st.sampled_from([0.5, 0.7, 0.8, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, sets, threshold):
        projs = projections(sets)
        sim = Jaccard()
        assert [p[:2] for p in ppjoin_self_join(projs, sim, threshold)] == [
            p[:2] for p in naive_self_join(projs, sim, threshold)
        ]

    def test_filters_off_still_correct(self):
        rng = random.Random(9)
        sets = [set(rng.sample(range(20), rng.randint(1, 8))) for _ in range(50)]
        projs = projections(sets)
        base = naive_self_join(projs, Jaccard(), 0.6)
        for pos, suf in [(False, False), (True, False), (False, True)]:
            got = ppjoin_self_join(
                projs, Jaccard(), 0.6, use_positional=pos, use_suffix=suf
            )
            assert [p[:2] for p in got] == [p[:2] for p in base]


class TestRSJoinDifferential:
    @given(proj_sets, proj_sets, st.sampled_from([0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_oracle(self, r_sets, s_sets, threshold):
        r = projections(r_sets)
        s = projections(s_sets, base=1000)
        sim = Jaccard()
        assert [p[:2] for p in ppjoin_rs_join(r, s, sim, threshold)] == [
            p[:2] for p in naive_rs_join(r, s, sim, threshold)
        ]

    def test_true_size_probe(self):
        """Dropped S-only tokens: similarity must use the original size."""
        index = PPJoinIndex(Jaccard(), 0.5, mode="rs", evict=False)
        index.add(1, (1, 2, 3, 4))
        # S record originally had 5 tokens; one was S-only and dropped
        results = index.probe(2, (1, 2, 3, 4), true_size=5)
        assert results == [(1, pytest.approx(4 / 5))]

    def test_true_size_excludes_near_miss(self):
        index = PPJoinIndex(Jaccard(), 0.9, mode="rs", evict=False)
        index.add(1, (1, 2, 3, 4))
        # with true size 6 the best possible jaccard is 4/6 < 0.9
        assert index.probe(2, (1, 2, 3, 4), true_size=6) == []


class TestBitmapIndex:
    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PPJoinIndex(Jaccard(), 0.5, bitmap_width=0)

    def test_eviction_accounting_balanced_with_signatures(self):
        """Regression: ``_entry_bytes`` must charge the signature word
        on add AND on evict — a one-sided charge drifts ``live_bytes``
        and eventually over- or under-evicts the memory meter."""
        index = PPJoinIndex(Jaccard(), 0.9, bitmap_width=64)
        for i in range(10):
            index.add(i, tuple(range(3)))
        assert index.live_bytes == 10 * (8 * 3 + 32 + 8)
        # a long probe makes every size-3 entry evictable
        index.probe(99, tuple(range(100, 140)))
        assert index.live_entries == 0
        assert index.live_bytes == 0

    def test_live_bytes_never_negative_mixed_sizes(self):
        rng = random.Random(11)
        index = PPJoinIndex(Jaccard(), 0.8, bitmap_width=64)
        size = 1
        for i in range(50):
            size += rng.randint(0, 2)
            index.add(i, tuple(range(size)))
            index.probe(1000 + i, tuple(range(size)))
            assert index.live_bytes >= 0

    def test_filter_stats_keys_and_bitmap_prunes(self):
        index = PPJoinIndex(Jaccard(), 0.5, bitmap_width=64, use_suffix=False)
        assert set(index.filter_stats) == {
            "candidates", "length", "foreign", "bitmap", "positional", "suffix",
            "verified",
        }
        # same prefix token, disjoint suffixes: survives the length
        # filter, dies on the bitmap bound before verification
        index.add(1, (0, 1, 2, 3))
        index.probe(2, (0, 10, 11, 12))
        assert index.filter_stats["bitmap"] == 1
        assert index.filter_stats["suffix"] == 0

    @pytest.mark.parametrize("bitmap_width", [None, 64])
    @pytest.mark.parametrize("mode", ["self", "rs"])
    def test_candidate_funnel_closes(self, bitmap_width, mode):
        """candidates == bitmap + positional + suffix prunes + the
        candidates that reached the merge, whichever filters are on (an
        index that owns everything tallies no ``foreign``)."""
        rng = random.Random(13)
        sets = [set(rng.sample(range(40), rng.randint(1, 12))) for _ in range(120)]
        projs = sorted(projections(sets), key=lambda p: (p.size, p.rid))
        index = PPJoinIndex(
            Jaccard(), 0.5, mode=mode, evict=mode == "self",
            use_suffix=bitmap_width is None, bitmap_width=bitmap_width,
        )
        if mode == "rs":
            for proj in projs[::2]:
                index.add(proj.rid, proj.tokens)
            for proj in projs[1::2]:
                index.probe(proj.rid, proj.tokens)
        else:
            for proj in projs:
                index.probe(proj.rid, proj.tokens)
                index.add(proj.rid, proj.tokens)
        stats = index.filter_stats
        assert stats["verified"] > 0
        assert stats["bitmap"] + stats["positional"] + stats["suffix"] > 0
        assert stats["foreign"] == 0
        assert stats["candidates"] == (
            stats["bitmap"] + stats["positional"] + stats["suffix"] + stats["verified"]
        )

    def test_bitmap_never_prunes_true_pair(self):
        rng = random.Random(12)
        sets = [set(rng.sample(range(200), rng.randint(1, 10))) for _ in range(60)]
        projs = projections(sets)
        for width in (1, 2, 64):
            assert ppjoin_self_join(
                projs, Jaccard(), 0.5, use_suffix=False, bitmap_width=width
            ) == naive_self_join(projs, Jaccard(), 0.5)


class TestDeterminism:
    def test_output_sorted(self):
        rng = random.Random(2)
        sets = [set(rng.sample(range(15), rng.randint(1, 6))) for _ in range(40)]
        projs = projections(sets)
        result = ppjoin_self_join(projs, Jaccard(), 0.5)
        assert result == sorted(result)

    def test_repeat_runs_identical(self):
        rng = random.Random(3)
        sets = [set(rng.sample(range(15), rng.randint(1, 6))) for _ in range(40)]
        projs = projections(sets)
        assert ppjoin_self_join(projs, Jaccard(), 0.5) == ppjoin_self_join(
            projs, Jaccard(), 0.5
        )


class TestGroupCall:
    """``join_group`` runs a whole reduce group in one loop; ``probe`` /
    ``add`` are that loop over one record.  Driving a group either way
    must leave the same answers, tallies and index state — and both
    must agree with the naive oracle, under every owner shape and filter
    set the Stage-2 reducers build."""

    FUNNEL_ENDS = ("foreign", "bitmap", "positional", "suffix", "verified")

    @staticmethod
    def stream(projections, mode, threshold):
        """One group's Stage-2 value stream, in reduce-key order: set size
        for a self-join; for R-S, Section 4's length class (the lower
        bound for R, the size for S), then the relation."""
        lower = bounds_for(Jaccard(), threshold).length_bounds
        values = []
        for rel, proj in projections:
            n = proj.size
            cls = lower[n][0] if mode == "rs" and rel == REL_R else n
            values.append(((cls, rel, n, proj.rid), (rel, proj.rid, n, None, proj.tokens)))
        return [value for _key, value in sorted(values)]

    @staticmethod
    def routed(projections, routing, threshold):
        """``(owner, the records routed to it)``: one owner-less index
        over everything, or one per route as the Stage-2 mappers send."""
        if routing is None:
            return [(None, projections)]
        num_groups = None if routing == "token" else routing
        routes = routes_of(num_groups)
        prefix_length = bounds_for(Jaccard(), threshold).prefix_length
        groups: dict[int, list] = {}
        for rel, proj in projections:
            for route in routes(proj.tokens[: prefix_length[proj.size]]):
                groups.setdefault(route, []).append((rel, proj))
        return [(Owner(route, num_groups), groups[route]) for route in sorted(groups)]

    @pytest.mark.parametrize("evict", [True, False])
    @pytest.mark.parametrize("bitmap", [True, False], ids=["bitmap", "suffix"])
    @pytest.mark.parametrize("routing", [None, "token", 3], ids=["ownerless", "token", "grouped3"])
    @pytest.mark.parametrize("mode", ["self", "rs"])
    @given(
        r_sets=proj_sets, s_sets=proj_sets, threshold=st.sampled_from([0.5, 0.7, 0.9])
    )
    @settings(max_examples=12, deadline=None)
    def test_group_call_equals_per_record_calls_and_the_oracle(
        self, mode, routing, bitmap, evict, r_sets, s_sets, threshold
    ):
        sim = Jaccard()
        r = projections(r_sets)
        s = projections(s_sets, base=1000) if mode == "rs" else []
        tagged = [(REL_R, p) for p in r] + [(REL_S, p) for p in s]
        options = dict(
            mode=mode, evict=evict, use_suffix=not bitmap, bitmap_width=16 if bitmap else None
        )
        by_group, by_record = [], []
        for owner, members in self.routed(tagged, routing, threshold):
            values = self.stream(members, mode, threshold)
            grouped = PPJoinIndex(sim, threshold, owner=owner, **options)
            by_group += grouped.join_group(values)
            single = PPJoinIndex(sim, threshold, owner=owner, **options)
            for rel, rid, n, sig, tokens in values:
                if mode == "self" or rel == REL_S:
                    by_record += [
                        (other, rid, similarity)
                        for other, similarity in single.probe(rid, tokens, n, sig)
                    ]
                if mode == "self" or rel == REL_R:
                    single.add(rid, tokens, sig)
            assert grouped.filter_stats == single.filter_stats
            stats = grouped.filter_stats
            assert stats["candidates"] == sum(stats[end] for end in self.FUNNEL_ENDS)
            if owner is None:
                assert stats["foreign"] == 0
            assert (grouped.live_bytes, grouped.peak_live_entries, grouped.live_entries) == (
                single.live_bytes, single.peak_live_entries, single.live_entries
            )
            assert grouped.records_seen == len(values)
        assert by_group == by_record
        if mode == "self":
            got = sorted((min(a, b), max(a, b)) for a, b, _s in by_group)
            oracle = naive_self_join(r, sim, threshold)
        else:
            got = sorted((a, b) for a, b, _s in by_group)
            oracle = naive_rs_join(r, s, sim, threshold)
        assert got == [pair[:2] for pair in oracle]

    def test_a_probe_on_an_empty_index_checks_nothing_else(self):
        """As a one-record call, a probe that can meet nothing returns
        before the size-order check — exactly what ``probe`` always did."""
        index = PPJoinIndex(Jaccard(), 0.5)
        assert index.probe(1, (1, 2, 3, 4)) == []
        assert index.probe(2, (1,)) == []  # smaller, but nothing is stored yet
        index.add(3, (1, 2))
        with pytest.raises(ValueError, match="non-decreasing"):
            index.join_group([(REL_R, 4, 3, None, (1, 2, 5)), (REL_R, 5, 1, None, (1,))])

    def test_the_meter_follows_live_bytes_and_is_released(self):
        """``hold`` sees the group's high-water mark of ``live_bytes``
        each time it rises, record by record, and 0 at the end."""
        events = []
        index = PPJoinIndex(Jaccard(), 0.9)
        values = [(REL_R, rid, n, None, tuple(range(n))) for rid, n in enumerate((2, 2, 20, 21))]
        index.join_group(values, events.append)
        # two 2-token entries (48 B each), evicted by the 20-token probe
        # in the same step that stores its own 192 B entry, then 200 B
        assert events == [48, 96, 192, 392, 0]
        assert index.live_bytes == 392

    def test_the_meter_holds_the_high_water_mark_through_an_eviction(self):
        """An eviction lowers ``live_bytes`` but not what is held: the
        group's peak is its high-water mark."""
        events = []
        index = PPJoinIndex(Jaccard(), 0.9)
        values = [(REL_R, rid, n, None, tuple(range(n))) for rid, n in enumerate((8, 8, 20))]
        index.join_group(values, events.append)
        # two 8-token entries (96 B each) make 192 B; the 20-token probe
        # evicts both and stores its own 192 B entry: no rise, no call
        assert events == [96, 192, 0]
        assert index.live_bytes == 192
