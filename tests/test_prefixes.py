"""Tests for record projections, prefixes and token grouping."""

from array import array

import pytest

from repro.core.ordering import TokenOrder
from repro.core.prefixes import (
    Projection,
    index_prefix,
    probe_prefix,
    route_of,
    routes_of,
)
from repro.core.similarity import Jaccard


class TestProjection:
    def test_size(self):
        assert Projection(1, (3, 5, 9)).size == 3

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Projection(1, ()).rid = 2

    def test_equality(self):
        assert Projection(1, (2,)) == Projection(1, (2,))


class TestPrefixes:
    def test_probe_prefix_tau08(self):
        tokens = tuple(range(10))
        assert probe_prefix(tokens, Jaccard(), 0.8) == (0, 1, 2)

    def test_index_prefix_never_longer(self):
        sim = Jaccard()
        for n in range(1, 40):
            tokens = tuple(range(n))
            assert len(index_prefix(tokens, sim, 0.8)) <= len(
                probe_prefix(tokens, sim, 0.8)
            )

    def test_empty(self):
        assert probe_prefix((), Jaccard(), 0.8) == ()

    def test_prefix_takes_lowest_ranks(self):
        # tokens are rank-sorted, so the prefix is the rarest tokens
        tokens = (2, 7, 11, 30, 31)
        assert probe_prefix(tokens, Jaccard(), 0.8) == (2, 7)


class TestTokenGrouping:
    def test_round_robin(self):
        order = TokenOrder([f"t{i}" for i in range(6)])
        group_of = route_of(3)
        assert [group_of(order.rank(f"t{i}")) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_group_of_rank(self):
        group_of = route_of(2)
        assert group_of(0) == 0
        assert group_of(3) == 1  # the virtual rank of an unknown token

    def test_one_group_per_token(self):
        assert [route_of(None)(rank) for rank in range(3)] == [0, 1, 2]  # identity
        assert routes_of(None)([2, 0, 2, 1]) == [2, 0, 1]

    def test_groups_of_ranks_distinct_first_seen(self):
        assert routes_of(2)([0, 2, 1, 4]) == [0, 1]
        assert routes_of(2)(array("i", [5, 0])) == [1, 0]

    def test_invalid_group_count(self):
        with pytest.raises(ValueError):
            route_of(0)
        with pytest.raises(ValueError):
            routes_of(0)

    def test_balances_frequency_sum(self):
        """Round-robin over the ascending-frequency order balances the
        sum of frequencies across groups (the paper's stated goal)."""
        freqs = {f"t{i}": i + 1 for i in range(100)}
        order = TokenOrder.from_frequencies(freqs)
        group_of = route_of(4)
        sums = [0.0] * 4
        for token, freq in freqs.items():
            sums[group_of(order.rank(token))] += freq
        assert max(sums) - min(sums) <= 100  # within one max-frequency step
