"""End-to-end driver tests: every stage combination's matrix reference
(tests/matrix.py) must agree with the record-level oracle, and reports
must carry coherent stats."""

import itertools
import time

import pytest

from repro.core.naive import naive_self_join
from repro.join.config import JoinConfig
from repro.join.driver import (
    set_similarity_rs_join,
    set_similarity_self_join,
    ssjoin_self,
)
from repro.join.records import rid_of

from tests.conftest import (
    SCHEMA_1,
    make_cluster,
    oracle_projections,
    pair_keys,
    random_records,
)
from tests.matrix import BASE, assert_same_join, reference

ALL_SELF_COMBOS = list(
    itertools.product(("bto", "opto"), ("bk", "pk"), ("brj", "oprj"))
)


class TestSelfJoinEndToEnd:
    @pytest.mark.parametrize("stage1,kernel,stage3", ALL_SELF_COMBOS)
    def test_all_combos_match_oracle(self, stage1, kernel, stage3):
        config = BASE.with_options(stage1=stage1, kernel=kernel, stage3=stage3)
        assert_same_join(reference("self", config), "self", config)

    def test_no_duplicate_record_pairs(self, rng):
        """Stage 3 must deduplicate what Stage 2 multiplied."""
        records = random_records(rng, 60)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        pairs, _ = set_similarity_self_join(records, config, cluster=make_cluster())
        keys = [(rid_of(a), rid_of(b)) for a, b, _ in pairs]
        assert len(keys) == len(set(keys))

    def test_output_contains_full_records(self, rng):
        records = random_records(rng, 40)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        pairs, _ = set_similarity_self_join(records, config, cluster=make_cluster())
        originals = set(records)
        for line1, line2, _sim in pairs:
            assert line1 in originals and line2 in originals

    def test_report_structure(self, rng):
        records = random_records(rng, 30)
        cluster = make_cluster()
        _, report = set_similarity_self_join(
            records, JoinConfig(threshold=0.5, schema=SCHEMA_1), cluster=cluster
        )
        times = report.stage_times()
        assert set(times) == {"stage1", "stage2", "stage3"}
        assert report.total_simulated_s == pytest.approx(sum(times.values()))
        assert report.counters()["framework.map_input_records"] > 0

    def test_stage_wall_is_measured_next_to_the_simulated_clock(self, rng):
        cluster = make_cluster()
        cluster.dfs.write("records", random_records(rng, 60))
        started = time.perf_counter()
        report = ssjoin_self(
            cluster, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1)
        )
        elapsed = time.perf_counter() - started
        assert set(report.stage_wall_s) == set(report.stage_times())
        assert all(seconds > 0 for seconds in report.stage_wall_s.values())
        assert 0 < sum(report.stage_wall_s.values()) <= elapsed

    def test_ssjoin_self_writes_named_outputs(self, rng):
        cluster = make_cluster()
        cluster.dfs.write("mydata", random_records(rng, 20))
        report = ssjoin_self(
            cluster, "mydata", JoinConfig(threshold=0.5, schema=SCHEMA_1)
        )
        assert report.output_file == "mydata.selfjoin.joined"
        assert cluster.dfs.exists("mydata.selfjoin.tokens")
        assert cluster.dfs.exists("mydata.selfjoin.ridpairs")

    def test_default_config_is_paper_recommendation(self, rng):
        records = random_records(rng, 20)
        _, report = set_similarity_self_join(records, cluster=make_cluster())
        # BTO-PK-OPRJ, the paper's fastest plan; BRJ, its robust one, is
        # the Stage-3 memory rung (test_memory_model)
        assert report.combo == "BTO-PK-OPRJ"


class TestRSJoinEndToEnd:
    @pytest.mark.parametrize("kernel,stage3", itertools.product(("bk", "pk"), ("brj", "oprj")))
    def test_combos_match_oracle(self, kernel, stage3):
        config = BASE.with_options(kernel=kernel, stage3=stage3)
        assert_same_join(reference("rs", config), "rs", config)

    def test_r_record_first_in_output(self, rng):
        r = random_records(rng, 25)
        s = random_records(rng, 25, rid_base=1000)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        pairs, _ = set_similarity_rs_join(r, s, config, cluster=make_cluster())
        for r_line, s_line, _sim in pairs:
            assert rid_of(r_line) < 1000 <= rid_of(s_line)


class TestFullRecordAblation:
    def test_matches_three_stage_pipeline(self, rng):
        from repro.join.fullrecord import full_record_self_join

        records = random_records(rng, 50)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        cluster = make_cluster()
        cluster.dfs.write("records", records)
        report = full_record_self_join(cluster, "records", config)
        got = pair_keys(
            (rid_of(a), rid_of(b), s)
            for a, b, s in cluster.dfs.read_all(report.output_file)
        )
        expected = pair_keys(
            naive_self_join(oracle_projections(records), config.sim, 0.5)
        )
        assert got == expected

    def test_shuffles_more_bytes_than_projection_pipeline(self, rng):
        """Full records ride the shuffle — the reason the paper
        rejected the one-stage design."""
        from repro.join.fullrecord import full_record_self_join

        records = random_records(rng, 60)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        cluster = make_cluster()
        cluster.dfs.write("records", records)
        full = full_record_self_join(cluster, "records", config)
        three_stage = ssjoin_self(make_cluster_with(records), "records", config)
        assert full.stage2.shuffle_bytes > three_stage.stage2.shuffle_bytes


def make_cluster_with(records):
    cluster = make_cluster()
    cluster.dfs.write("records", records)
    return cluster
