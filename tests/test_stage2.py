"""Tests for Stage 2 (self-join RID-pair generation)."""

from array import array

import pytest

from repro.core.ordering import TokenOrder
from repro.join.config import JoinConfig
from repro.join.fullrecord import full_record_job
from repro.join.records import REL_R, REL_S, make_line
from repro.join.stage2 import CANDIDATE_PAIRS, PAIRS_OUTPUT, stage2_self_job
from repro.join.stage2_rs import stage2_rs_job
from repro.mapreduce.cluster import execute_map_task
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Broadcast, Context

from tests.conftest import (
    SCHEMA_1,
    assert_pk_funnel_closes,
    oracle_self_pairs as oracle_pairs,
    pair_keys,
    random_records,
    run_stage2,
)


@pytest.mark.parametrize("kernel", ["bk", "pk"])
@pytest.mark.parametrize("routing", ["individual", "grouped"])
class TestKernelsMatchOracle:
    def test_random_corpus(self, rng, kernel, routing):
        records = random_records(rng, 70)
        config = JoinConfig(
            threshold=0.5,
            schema=SCHEMA_1,
            kernel=kernel,
            routing=routing,
            num_groups=5 if routing == "grouped" else None,
        )
        pairs, stats = run_stage2(records, config)
        assert pair_keys(pairs) == pair_keys(oracle_pairs(records, config))
        if kernel == "pk":
            assert_pk_funnel_closes(stats.counters)

    def test_high_threshold(self, rng, kernel, routing):
        records = random_records(rng, 60)
        config = JoinConfig(
            threshold=0.9, schema=SCHEMA_1, kernel=kernel, routing=routing
        )
        pairs, _ = run_stage2(records, config)
        assert pair_keys(pairs) == pair_keys(oracle_pairs(records, config))


class TestStage2Behaviour:
    def test_similarity_values_exact(self, rng):
        records = random_records(rng, 50)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        pairs, _ = run_stage2(records, config)
        expected = {p[:2]: p[2] for p in oracle_pairs(records, config)}
        for rid1, rid2, similarity in pairs:
            assert similarity == pytest.approx(expected[(rid1, rid2)])

    def test_duplicates_possible_but_consistent(self, rng):
        """No pair ever carries two similarity values (that there is
        exactly one copy of it is ``tests/test_ownership.py``'s subject)."""
        records = random_records(rng, 60)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk")
        pairs, _ = run_stage2(records, config)
        by_pair = {}
        for rid1, rid2, similarity in pairs:
            by_pair.setdefault((rid1, rid2), set()).add(round(similarity, 12))
        assert all(len(sims) == 1 for sims in by_pair.values())

    def test_counters_emitted(self, rng):
        records = random_records(rng, 40)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel="bk")
        _, stats = run_stage2(records, config)
        assert stats.counters.get(CANDIDATE_PAIRS, 0) > 0
        assert stats.counters.get(PAIRS_OUTPUT, 0) > 0

    def test_pk_verifies_fewer_candidates_than_bk(self, rng):
        """The PK index prunes; BK cross-products.  (PK's candidate
        count is implicit, so compare via pairs/candidates ratio.)"""
        records = random_records(rng, 80)
        config_bk = JoinConfig(threshold=0.8, schema=SCHEMA_1, kernel="bk")
        _, stats_bk = run_stage2(records, config_bk)
        pairs_bk, candidates_bk = (
            stats_bk.counters.get(PAIRS_OUTPUT, 0),
            stats_bk.counters.get(CANDIDATE_PAIRS, 0),
        )
        assert candidates_bk >= pairs_bk

    def test_empty_join_attribute_skipped(self):
        from repro.join.records import make_line

        records = [make_line(1, ["", "x"]), make_line(2, ["", "x"])]
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
        pairs, _ = run_stage2(records, config)
        assert pairs == []

    def test_single_record_no_pairs(self):
        from repro.join.records import make_line

        records = [make_line(1, ["a b c", "x"])]
        pairs, _ = run_stage2(records, JoinConfig(threshold=0.5, schema=SCHEMA_1))
        assert pairs == []

    def test_identical_records_pair(self):
        from repro.join.records import make_line

        records = [make_line(1, ["a b c", "x"]), make_line(2, ["a b c", "y"])]
        pairs, _ = run_stage2(records, JoinConfig(threshold=0.9, schema=SCHEMA_1))
        assert pair_keys(pairs) == [(1, 2)]
        assert pairs[0][2] == 1.0

    def test_blocks_with_pk_rejected(self):
        from repro.join.blocks import BlockPolicy

        config = JoinConfig(kernel="pk", blocks=BlockPolicy())
        with pytest.raises(ValueError, match="BK kernel"):
            stage2_self_job(config, "r", "t", "o", 2)


class TestGroupedRouting:
    def test_fewer_groups_fewer_replicas(self, rng):
        """Grouping reduces replication (record emitted once per
        distinct group, not per token)."""
        records = random_records(rng, 60)
        base = JoinConfig(threshold=0.5, schema=SCHEMA_1, routing="individual")
        _, stats_individual = run_stage2(records, base)
        grouped = base.with_options(routing="grouped", num_groups=2)
        _, stats_grouped = run_stage2(records, grouped)
        assert (
            stats_grouped.counters["framework.map_output_records"]
            <= stats_individual.counters["framework.map_output_records"]
        )

    def test_one_group_still_correct(self, rng):
        records = random_records(rng, 50)
        config = JoinConfig(
            threshold=0.5, schema=SCHEMA_1, kernel="bk", routing="grouped", num_groups=1
        )
        pairs, _ = run_stage2(records, config)
        assert pair_keys(pairs) == pair_keys(oracle_pairs(records, config))


@pytest.mark.parametrize("kernel", ["bk", "pk"])
def test_one_reducer_serves_self_groups_and_rs_groups(kernel):
    """The seam: per kernel there is one reducer.  A self-join job's
    ``reducer`` is that loop itself (no dispatch closure in between);
    the R-S job runs the same code under the R-S relation policy."""
    config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel=kernel)
    self_job = stage2_self_job(config, "records", "tokens", "out", 4)
    rs_job = stage2_rs_job(config, "r", "s", "tokens", "out", 4)
    loop = f"make_{kernel}_reducer.<locals>.reducer"
    for job in (self_job, rs_job):
        assert job.reducer.__qualname__ == loop
        assert job.reducer.__code__ is self_job.reducer.__code__

    a, b = (1, 2, 3, 4), (1, 2, 3, 5)  # Jaccard 3/5; routing prefixes (1, 2, 3)

    def reduce(job, key, values):
        ctx = Context(Counters())
        job.reducer(key, iter(values), ctx)
        return ctx._written

    # self group: both records probe, then are stored
    plain = [(REL_R, 10, 4, None, a), (REL_R, 20, 4, None, b)]
    assert reduce(self_job, 1, plain) == [(10, 20, 0.6)]
    # R-S group: R is stored, S probes; output keeps (r_rid, s_rid)
    rs = [(REL_R, 20, 4, None, a), (REL_S, 10, 4, None, b)]
    assert reduce(rs_job, 1, rs) == [(20, 10, 0.6)]
    # the pair's smallest common prefix token is 1: the groups of the
    # other shared tokens meet the pair too, and leave it to its owner
    for job, key, values in ((self_job, 2, plain), (rs_job, 3, rs)):
        assert reduce(job, key, values) == []


class TestRoutesAreSharedInts:
    """Every Stage-2 mapper builds its keys' routes from the token
    order's own rank ints, so records meeting in a group hold one route
    object between them — the driver keeps ~3.2 keys per record, and a
    route read back out of the shipped ``array('i')`` would be a new
    ``int`` in each.  Ranks here are above 256, past CPython's
    small-int cache, so ``is`` tells the two apart."""

    # "shared" is the rarest token of both records, their whole prefix
    ORDER = TokenOrder([f"f{i}" for i in range(1000)] + ["shared", *"abcdef"])

    def _emitted(self, job, tasks):
        broadcast = Broadcast({"tokens": self.ORDER.to_lines()})
        emitted = []
        for task_id, (input_name, lines) in enumerate(tasks):
            _stats, partitioned, _counters = execute_map_task(
                job, task_id, input_name, lines, broadcast, 0, 0.0, None, 1
            )
            emitted += [(key, value) for _p, key, value in partitioned]
        return emitted

    @pytest.mark.parametrize("shape", ["self", "rs", "fullrecord"])
    def test_records_sharing_a_prefix_token_share_its_route(self, shape):
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1)
        x, y = make_line(1, ["shared a b c"]), make_line(2, ["shared d e f"])
        if shape == "rs":
            job = stage2_rs_job(config, "r", "s", "tokens", "out", 4)
            emitted = self._emitted(job, [("r", [x]), ("s", [y])])
        else:
            build = stage2_self_job if shape == "self" else full_record_job
            job = build(config, "records", "tokens", "out", 4)
            emitted = self._emitted(job, [("records", [x, y])])
        (key_x, value_x), (key_y, value_y) = emitted
        assert key_x[0] == key_y[0] == 1000
        assert key_x[0] is key_y[0]
        for value in (value_x, value_y):
            tokens = value[1] if shape == "fullrecord" else value[4]
            assert isinstance(tokens, array) and tokens.typecode == "i"
