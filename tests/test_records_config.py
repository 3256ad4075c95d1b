"""Tests for the record line format and JoinConfig validation."""

import pytest

from repro.join.blocks import BlockPolicy
from repro.join.config import JoinConfig, config_digest
from repro.join.records import (
    RecordSchema,
    join_value,
    make_line,
    parse_fields,
    rid_of,
)


class TestRecordLines:
    def test_roundtrip(self):
        line = make_line(7, ["Title Words", "Some Author", "rest"])
        assert rid_of(line) == 7
        assert parse_fields(line) == ["7", "Title Words", "Some Author", "rest"]

    def test_join_value_default_schema(self):
        line = make_line(1, ["a title", "an author", "junk"])
        assert join_value(line, RecordSchema()) == "a title an author"

    def test_join_value_single_field(self):
        line = make_line(1, ["a title", "an author"])
        assert join_value(line, RecordSchema((2,))) == "an author"

    def test_join_value_missing_field_ignored(self):
        line = make_line(1, ["only title"])
        assert join_value(line, RecordSchema((1, 2))) == "only title"

    def test_tab_in_field_rejected(self):
        with pytest.raises(ValueError, match="separator"):
            make_line(1, ["has\ttab"])

    def test_newline_in_field_rejected(self):
        with pytest.raises(ValueError):
            make_line(1, ["has\nnewline"])

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            RecordSchema(())
        with pytest.raises(ValueError, match="RID"):
            RecordSchema((0, 1))

    def test_rid_of_trailing_newline(self):
        assert rid_of("5\tx\n") == 5


class TestJoinConfig:
    def test_defaults(self):
        config = JoinConfig()
        assert config.combo_name == "BTO-PK-OPRJ"
        assert config.sim.name == "jaccard"
        assert config.threshold == 0.8

    def test_similarity_by_name(self):
        assert JoinConfig(similarity="cosine").sim.name == "cosine"

    def test_similarity_by_instance(self):
        from repro.core.similarity import Dice

        assert JoinConfig(similarity=Dice()).sim.name == "dice"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("stage1", "xxx"),
            ("kernel", "ppjoin"),
            ("routing", "tokens"),
            ("stage3", "both"),
        ],
    )
    def test_invalid_algorithms(self, field, value):
        with pytest.raises(ValueError):
            JoinConfig(**{field: value})

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            JoinConfig(threshold=0.0)

    @pytest.mark.parametrize("similarity", ["jaccard", "cosine", "dice"])
    def test_threshold_above_what_the_similarity_can_reach(self, similarity):
        assert JoinConfig(similarity=similarity, threshold=1.0).threshold == 1.0
        with pytest.raises(ValueError, match=f"at most 1.0 for {similarity}"):
            JoinConfig(similarity=similarity, threshold=1.5)

    def test_overlap_thresholds_are_counts(self):
        assert JoinConfig(similarity="overlap", threshold=3).threshold == 3

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            JoinConfig(num_groups=0)

    def test_with_options(self):
        base = JoinConfig()
        changed = base.with_options(kernel="bk", stage3="brj")
        assert changed.combo_name == "BTO-BK-BRJ"
        assert base.combo_name == "BTO-PK-OPRJ"  # original untouched

    def test_combo_name_all(self):
        assert JoinConfig(stage1="opto", kernel="bk", stage3="oprj").combo_name == (
            "OPTO-BK-OPRJ"
        )

    def test_config_digest_does_not_move(self):
        # run manifests diff as ``same_config`` and checkpoints resume
        # across versions only while this value holds
        from repro.join import checkpoint

        assert checkpoint.config_digest is config_digest
        assert config_digest(JoinConfig(threshold=0.8)) == (
            "29c0c5603aca4f4fef40610156e04c8975ccf142f80deedde69399ad7ee000b0"
        )


class TestBlockPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPolicy(strategy="disk")
        with pytest.raises(ValueError):
            BlockPolicy(num_blocks=0)

    def test_block_of_deterministic(self):
        policy = BlockPolicy(num_blocks=3)
        assert policy.block_of(42) == policy.block_of(42)
        assert 0 <= policy.block_of(42) < 3

    def test_replication_schedule(self):
        policy = BlockPolicy(strategy="map", num_blocks=3)
        # block 0: loaded once, never streamed
        assert policy.replication_schedule(0) == [(0, 0)]
        # block 2: streamed in steps 0 and 1, loaded in step 2
        assert policy.replication_schedule(2) == [(0, 1), (1, 1), (2, 0)]

    def test_replication_factor(self):
        policy = BlockPolicy(strategy="map", num_blocks=4)
        for b in range(4):
            assert len(policy.replication_schedule(b)) == b + 1

    def test_rs_stream_schedule(self):
        policy = BlockPolicy(strategy="map", num_blocks=2)
        assert policy.rs_stream_schedule() == [(0, 1), (1, 1)]
