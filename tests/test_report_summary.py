"""Tests for JoinReport.format_summary."""

from repro.join.config import JoinConfig
from repro.join.driver import set_similarity_self_join

from tests.conftest import SCHEMA_1, make_cluster, random_records


def test_format_summary(rng):
    records = random_records(rng, 30)
    _, report = set_similarity_self_join(
        records, JoinConfig(threshold=0.5, schema=SCHEMA_1), cluster=make_cluster()
    )
    summary = report.format_summary()
    assert "BTO-PK-OPRJ" in summary
    assert "stage1" in summary and "stage2" in summary and "stage3" in summary
    assert "record pairs" in summary
    assert "shuffled" in summary


def test_format_summary_lists_phase_names(rng):
    records = random_records(rng, 20)
    _, report = set_similarity_self_join(
        records,
        JoinConfig(threshold=0.5, schema=SCHEMA_1, stage1="opto", stage3="oprj"),
        cluster=make_cluster(),
    )
    summary = report.format_summary()
    assert "opto" in summary
    assert "oprj" in summary
