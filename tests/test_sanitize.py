"""Runtime sanitizer: unit tests for each invariant check plus the
end-to-end guarantee that sanitized joins are observe-only.

The core contract is the e2e one: with ``sanitize=True`` (or
``REPRO_SANITIZE=1``) the join must produce bit-identical pairs to a
plain run, report zero violations on correct code, and count the checks
it performed.  The unit tests force each check to fire by feeding it
deliberately broken inputs.
"""

import random

import pytest

from repro.analysis import Sanitizer, env_sanitize, make_sanitizer, sanitize_active
from repro.core.prefixes import Owner
from repro.core.similarity import Jaccard
from repro.join.blocks import BlockPolicy
from repro.join.config import JoinConfig
from repro.join.driver import set_similarity_rs_join, set_similarity_self_join
from repro.join.records import make_line
from repro.mapreduce.counters import Counters

from tests.conftest import SCHEMA_1, make_cluster, run_stage2
from tests.matrix import BASE, run_join


def make_sanitizer_for_test(threshold=0.8, sample_every=1):
    counters = Counters()
    return Sanitizer(Jaccard(), threshold, counters, sample_every=sample_every), counters


class TestActivation:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1)
        assert not env_sanitize()
        assert not sanitize_active(config)
        assert make_sanitizer(config, Counters()) is None

    def test_config_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, sanitize=True)
        assert sanitize_active(config)
        assert isinstance(make_sanitizer(config, Counters()), Sanitizer)

    @pytest.mark.parametrize("value,active", [("1", True), ("0", False), ("", False)])
    def test_env_flag(self, monkeypatch, value, active):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1)
        assert env_sanitize() is active
        assert sanitize_active(config) is active

    @pytest.mark.parametrize("kernel", ["pk", "bk"])
    @pytest.mark.parametrize("engine", ["sequential", "persistent"])
    def test_env_flag_set_before_the_join_reaches_every_group(
        self, make_engine, monkeypatch, engine, kernel
    ):
        """The Stage-2 reducer factories read the flag once, when the job
        is built; the reducers they make sanitize every group, in the
        driver and in pool workers alike."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        run = run_join(make_engine(engine), "self", BASE.with_options(kernel=kernel))
        assert run.counters.get("sanitize.checks", 0) > 0
        assert run.counters.get("sanitize.violations", 0) == 0

    def test_no_counters_no_sanitizer(self):
        config = JoinConfig(threshold=0.8, schema=SCHEMA_1, sanitize=True)
        assert make_sanitizer(config, None) is None


class TestPruneOracle:
    def test_admissible_prune_passes(self):
        sanitizer, counters = make_sanitizer_for_test(threshold=0.8)
        # jaccard(abc, xyz) = 0: pruning this pair is always admissible
        sanitizer.check_prune("length", ["a", "b", "c"], 3, ["x", "y", "z"], 3)
        assert counters.get("sanitize.checks") == 1
        assert counters.get("sanitize.violations") == 0

    def test_inadmissible_prune_detected(self):
        sanitizer, counters = make_sanitizer_for_test(threshold=0.8)
        # identical sets, similarity 1.0 >= 0.8: pruning would drop a
        # true result pair
        sanitizer.check_prune("bitmap", ["a", "b", "c"], 3, ["a", "b", "c"], 3)
        assert counters.get("sanitize.violations") == 1
        assert counters.get("sanitize.false_negative.bitmap") == 1

    def test_sampling_checks_every_nth(self):
        sanitizer, counters = make_sanitizer_for_test(sample_every=4)
        for _ in range(8):
            sanitizer.check_prune("length", ["a"], 1, ["x"], 1)
        assert counters.get("sanitize.checks") == 2

    def test_true_sizes_not_projection_sizes(self):
        sanitizer, counters = make_sanitizer_for_test(threshold=0.8)
        # prefix projections overlap fully, but the true sets are large
        # and mostly disjoint: similarity_from_overlap must use the true
        # sizes, so this prune is admissible
        sanitizer.check_prune("positional", ["a", "b"], 20, ["a", "b"], 20)
        assert counters.get("sanitize.violations") == 0


class TestOwnershipOracle:
    """Routing prefixes at τ = 0.5: the first 3 of 5 tokens, so x and y
    below share the prefix tokens 3 and 4 — the pair belongs to the
    route of token 3."""

    X, Y = (1, 3, 4, 8, 9), (2, 3, 4, 8, 9)

    def check(self, route, emitted, num_groups=None, x=X, y=Y, **kwargs):
        counters = Counters()
        sanitizer = Sanitizer(
            Jaccard(), 0.5, counters, sample_every=1, route=route, num_groups=num_groups
        )
        sanitizer.check_owner(x, y, emitted, **kwargs)
        return counters

    def test_right_decisions_pass(self):
        assert self.check(3, True).get("sanitize.violations") == 0
        counters = self.check(4, False)  # 4's group meets the pair, skips it
        assert counters.get("sanitize.checks") == 1
        assert counters.get("sanitize.violations") == 0

    def test_pair_emitted_by_a_group_that_does_not_own_it(self):
        counters = self.check(4, True)
        assert counters.get("sanitize.violations") == 1
        assert counters.get("sanitize.misowned_pair") == 1

    def test_pair_skipped_by_its_owner(self):
        assert self.check(3, False).get("sanitize.violations") == 1

    def test_grouped_routing_owns_by_group(self):
        # token 3 lives in group 3 % 2 == 1
        assert self.check(1, True, num_groups=2).get("sanitize.violations") == 0
        assert self.check(0, True, num_groups=2).get("sanitize.violations") == 1

    def test_emitting_a_pair_without_a_common_prefix_token(self):
        counters = self.check(8, True, x=(1, 2, 3, 8, 9), y=(4, 5, 6, 8, 9))
        assert counters.get("sanitize.violations") == 1

    def test_no_route_no_check(self):
        assert self.check(None, True).get("sanitize.checks") == 0

    def test_skips_are_sampled_emissions_are_not(self):
        counters = Counters()
        sanitizer = Sanitizer(Jaccard(), 0.5, counters, sample_every=4, route=4)
        for _ in range(8):
            sanitizer.check_owner(self.X, self.Y, False)
        assert counters.get("sanitize.checks") == 2
        for _ in range(8):
            sanitizer.check_owner(self.X, self.Y, False, sample=False)
        assert counters.get("sanitize.checks") == 10


class TestSortedValues:
    def test_sorted_stream_clean(self):
        sanitizer, counters = make_sanitizer_for_test()
        values = [("r", 1, 2), ("r", 2, 3), ("r", 3, 3)]
        out = list(sanitizer.sorted_values(iter(values), lambda v: v[2]))
        assert out == values  # pass-through, order untouched
        assert counters.get("sanitize.checks") == 3
        assert counters.get("sanitize.violations") == 0

    def test_unsorted_stream_flagged(self):
        sanitizer, counters = make_sanitizer_for_test()
        values = [("r", 1, 5), ("r", 2, 3)]
        out = list(sanitizer.sorted_values(iter(values), lambda v: v[2]))
        assert out == values
        assert counters.get("sanitize.violations") == 1
        assert counters.get("sanitize.unsorted_reduce_input") == 1

    def test_grouped_streams_checked_independently(self):
        sanitizer, counters = make_sanitizer_for_test()
        # R and S interleave; each relation is sorted on its own, so the
        # drop from R's 9 to S's 2 is not a violation
        values = [(0, "r1", 4), (0, "r2", 9), (1, "s1", 2), (1, "s2", 7)]
        list(sanitizer.sorted_values(iter(values), lambda v: v[2], group_of=lambda v: v[0]))
        assert counters.get("sanitize.violations") == 0

    def test_grouped_regression_flagged(self):
        sanitizer, counters = make_sanitizer_for_test()
        values = [(0, "r1", 4), (1, "s1", 7), (1, "s2", 2)]
        list(sanitizer.sorted_values(iter(values), lambda v: v[2], group_of=lambda v: v[0]))
        assert counters.get("sanitize.violations") == 1


class TestIndexAccounting:
    class FakeIndex:
        def __init__(self, live, expected):
            self.live_bytes = live
            self._expected = expected

        def expected_live_bytes(self):
            return self._expected

    def test_balanced_books_clean(self):
        sanitizer, counters = make_sanitizer_for_test()
        sanitizer.check_index_accounting(self.FakeIndex(128, 128))
        assert counters.get("sanitize.checks") == 1
        assert counters.get("sanitize.violations") == 0

    def test_drift_flagged(self):
        sanitizer, counters = make_sanitizer_for_test()
        sanitizer.check_index_accounting(self.FakeIndex(128, 96))
        assert counters.get("sanitize.violations") == 1
        assert counters.get("sanitize.index_bytes_drift") == 1


def corpus(rng, count, base=0):
    records = []
    for rid in range(base, base + count):
        words = [f"t{rng.randrange(14)}" for _ in range(rng.randint(2, 9))]
        records.append(make_line(rid, [" ".join(words), "payload"]))
    return records


class TestEndToEnd:
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_self_join_observe_only(self, kernel):
        records = corpus(random.Random(11), 60)
        base = JoinConfig(threshold=0.7, schema=SCHEMA_1, kernel=kernel)
        sanitized = base.with_options(sanitize=True)
        p_off, r_off = set_similarity_self_join(records, base, cluster=make_cluster())
        p_on, r_on = set_similarity_self_join(records, sanitized, cluster=make_cluster())
        assert p_on == p_off  # bit-identical output
        on = r_on.filter_counters()
        assert on["sanitize_checks"] > 0
        assert on["sanitize_violations"] == 0
        assert r_off.filter_counters()["sanitize_checks"] == 0

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_rs_join_observe_only(self, kernel):
        rng = random.Random(12)
        r, s = corpus(rng, 40), corpus(rng, 50, base=1000)
        base = JoinConfig(threshold=0.7, schema=SCHEMA_1, kernel=kernel)
        sanitized = base.with_options(sanitize=True)
        p_off, _ = set_similarity_rs_join(r, s, base, cluster=make_cluster())
        p_on, r_on = set_similarity_rs_join(r, s, sanitized, cluster=make_cluster())
        assert p_on == p_off
        on = r_on.filter_counters()
        assert on["sanitize_checks"] > 0
        assert on["sanitize_violations"] == 0

    @pytest.mark.parametrize("routing,num_groups", [("individual", None), ("grouped", 4)])
    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_ownership_checked_and_clean(self, kernel, routing, num_groups):
        records = corpus(random.Random(11), 60)
        config = JoinConfig(
            threshold=0.5, schema=SCHEMA_1, kernel=kernel, sanitize=True,
            routing=routing, num_groups=num_groups,
        )
        pairs, stats = run_stage2(records, config)
        counters = stats.counters
        assert counters.get("sanitize.violations", 0) == 0
        assert counters["stage2.pruned_foreign"] > 0
        # every emitted pair is checked, on top of everything else
        plain, _ = run_stage2(records, config.with_options(sanitize=False))
        assert plain == pairs and len(pairs) > 0
        assert counters["sanitize.checks"] >= len(pairs) + len(records)

    @pytest.mark.parametrize("kernel", ["bk", "pk"])
    def test_wrong_owner_is_caught(self, kernel, monkeypatch):
        """Plant the paper's rule — every group owns every pair it meets
        — in place of ours: the surplus copies are flagged one by one."""
        import repro.join.stage2 as stage2

        records = corpus(random.Random(11), 60)
        config = JoinConfig(threshold=0.5, schema=SCHEMA_1, kernel=kernel, sanitize=True)
        honest, stats = run_stage2(records, config)
        assert stats.counters.get("sanitize.violations", 0) == 0
        # one group that every token routes to, claimed by every group
        monkeypatch.setattr(stage2, "owner_of", lambda config, route: Owner(0, num_groups=1))
        pairs, stats = run_stage2(records, config)
        surplus = len(pairs) - len(honest)
        assert surplus > 0
        assert stats.counters["sanitize.violations"] == surplus
        assert stats.counters["sanitize.misowned_pair"] == surplus

    def test_env_var_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        records = corpus(random.Random(13), 30)
        config = JoinConfig(threshold=0.7, schema=SCHEMA_1, kernel="pk")
        _, report = set_similarity_self_join(records, config, cluster=make_cluster())
        counters = report.filter_counters()
        assert counters["sanitize_checks"] > 0
        assert counters["sanitize_violations"] == 0
        # ... and on the Section-5 paths the OOM ladder degrades into
        for blocks in (BlockPolicy("map", 2), BlockPolicy("reduce", 2)):
            blocked = config.with_options(kernel="bk", blocks=blocks)
            _, report = set_similarity_self_join(
                records, blocked, cluster=make_cluster()
            )
            counters = report.filter_counters()
            assert counters["sanitize_checks"] > 0, blocks
            assert counters["sanitize_violations"] == 0
