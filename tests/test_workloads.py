"""Tests for the canonical benchmark workloads."""

from repro.bench.workloads import (
    BASE_DBLP_RECORDS,
    citeseerx_times,
    dblp_times,
    rs_workload,
)
from repro.join.records import rid_of


class TestDBLPTimes:
    def test_size_scales_with_factor(self):
        assert len(dblp_times(1)) == BASE_DBLP_RECORDS
        assert len(dblp_times(3)) == 3 * BASE_DBLP_RECORDS

    def test_memoized(self):
        assert dblp_times(2) is dblp_times(2)

    def test_prefix_is_base(self):
        base = dblp_times(1)
        assert dblp_times(2)[: len(base)] == base

    def test_rids_unique(self):
        rids = [rid_of(line) for line in dblp_times(4)]
        assert len(rids) == len(set(rids))


class TestRSWorkload:
    def test_shapes(self):
        r, s = rs_workload(2)
        assert len(r) == 2 * BASE_DBLP_RECORDS
        assert len(s) == 2 * BASE_DBLP_RECORDS

    def test_rid_spaces_disjoint(self):
        r, s = rs_workload(2)
        r_rids = {rid_of(line) for line in r}
        s_rids = {rid_of(line) for line in s}
        assert not (r_rids & s_rids)

    def test_cross_matches_grow_linearly(self):
        """The shared shift order must preserve cross-dataset matches
        in every copy — the reason rs_workload exists."""
        from repro.bench.harness import run_join, PAPER_COMBOS

        counts = {}
        for factor in (1, 2):
            report = run_join(
                rs_workload(factor), PAPER_COMBOS["BTO-PK-BRJ"], num_nodes=2
            )
            counts[factor] = report.counters().get("stage3.record_pairs_output", 0)
        assert counts[1] > 0
        assert counts[2] == 2 * counts[1]

    def test_differs_from_standalone_increase(self):
        """citeseerx_times uses CITESEERX's own order; rs_workload uses
        the union order — shifted copies differ."""
        _r, s_shared = rs_workload(2)
        s_own = citeseerx_times(2)
        assert list(s_shared) != list(s_own)
