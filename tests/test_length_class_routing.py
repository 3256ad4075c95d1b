"""Tests for the length-filter-as-secondary-routing-criterion feature
(Section 5, first paragraph)."""

import pytest

from repro.core.naive import naive_self_join
from repro.join.config import JoinConfig
from repro.join.driver import set_similarity_self_join
from repro.join.records import rid_of

from tests.conftest import (
    SCHEMA_1,
    make_cluster,
    oracle_projections,
    pair_keys,
    random_records,
)


def run(records, **config_kwargs):
    config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk", **config_kwargs)
    pairs, report = set_similarity_self_join(records, config, cluster=make_cluster())
    return pair_keys((rid_of(a), rid_of(b), s) for a, b, s in pairs), report


class TestCorrectness:
    @pytest.mark.parametrize("width", [1, 2, 4, 50])
    def test_matches_oracle(self, rng, width):
        records = random_records(rng, 70)
        got, report = run(records, length_class_width=width, sanitize=True)
        expected = pair_keys(
            naive_self_join(oracle_projections(records), JoinConfig().sim, 0.5)
        )
        assert got == expected
        # the prune-admissibility oracle runs on the length-class path too
        checked = report.filter_counters()
        assert checked["sanitize_checks"] > 0
        assert checked["sanitize_violations"] == 0

    def test_matches_plain_bk(self, rng):
        records = random_records(rng, 60)
        plain, _ = run(records)
        classed, _ = run(records, length_class_width=3)
        assert classed == plain


class TestMemoryReduction:
    def test_reducer_peak_reduced(self, rng):
        """The point of the feature: each reduce step holds one length
        class instead of the whole token group."""
        records = random_records(rng, 150, dup_rate=0.6)
        _, plain_report = run(records, routing="grouped", num_groups=2)
        _, classed_report = run(
            records, routing="grouped", num_groups=2, length_class_width=1
        )

        def peak(report):
            return max(
                t.peak_memory_bytes
                for p in report.stage2.phases
                for t in p.reduce_tasks
            )

        assert peak(classed_report) < peak(plain_report)

    def test_extra_replication_is_the_price(self, rng):
        """Probing copies replicate records across classes — more map
        output than plain BK (the paper's 'partitions the data even
        further' trade-off)."""
        records = random_records(rng, 80)
        _, plain_report = run(records)
        _, classed_report = run(records, length_class_width=1)
        plain_out = plain_report.stage2.counters()["framework.map_output_records"]
        classed_out = classed_report.stage2.counters()["framework.map_output_records"]
        assert classed_out >= plain_out


class TestValidation:
    def test_requires_bk(self):
        with pytest.raises(ValueError, match="BK"):
            from repro.join.stage2 import stage2_self_job

            stage2_self_job(
                JoinConfig(kernel="pk", length_class_width=2), "r", "t", "o", 2
            )

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="length_class_width"):
            JoinConfig(length_class_width=0)

    def test_exclusive_with_blocks(self):
        from repro.join.blocks import BlockPolicy

        with pytest.raises(ValueError, match="alternative"):
            JoinConfig(
                kernel="bk", length_class_width=2, blocks=BlockPolicy("reduce", 2)
            )
