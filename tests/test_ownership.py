"""Each RID pair has one owner (DESIGN.md, "Each pair has one owner").

A pair sharing k prefix tokens meets in up to k Stage-2 groups; only
the group that the *smallest* common prefix token routes to may verify
and emit it.  Asserted as a property at the kernel, on every Stage-2
job shape, and end to end on both engines — always by comparing
*lists* with the naive oracle, so a repeated pair fails.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitize import make_sanitizer
from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.ppjoin import PPJoinIndex
from repro.core.prefixes import Owner, Projection, projection_bytes
from repro.core.prefixes import route_of as repro_route_of
from repro.core.similarity import Jaccard
from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.blocks import BlockPolicy
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.join.records import make_line
from repro.join.stage1 import stage1_jobs
from repro.join.stage2 import make_pk_reducer, make_self_mapper, owner_of, stage2_self_job
from repro.join.stage2_rs import stage2_rs_job
from repro.mapreduce import SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Context
from repro.mapreduce.pipeline import run_pipeline
from repro.mapreduce.types import InsufficientMemoryError

from tests.conftest import (
    SCHEMA_1,
    assert_pk_funnel_closes,
    oracle_rs_pairs,
    oracle_self_pairs,
    pair_keys,
    random_records,
    run_stage2,
    run_stage2_rs,
)
from tests.matrix import BASE, cell

SIM = Jaccard()
THRESHOLD = 0.5  # long prefixes: most answer pairs share several tokens


def _prefix(tokens):
    return tokens[: SIM.prefix_length(len(tokens), THRESHOLD)]


def _corpus(rng, count, vocab, base=0):
    """Rank-encoded projections with near-duplicates."""
    sets = []
    for _ in range(count):
        if sets and rng.random() < 0.5:
            tokens = set(rng.choice(sets))
            tokens.symmetric_difference_update(rng.sample(range(vocab), 2))
        else:
            tokens = set(rng.sample(range(vocab), rng.randint(3, 12)))
        sets.append(tokens or {0})
    return [Projection(base + i, tuple(sorted(s))) for i, s in enumerate(sets)]


def _routed_probes(
    stored, probing, mode, num_groups, true_size, shuffle=None, **index_options
):
    """One index per route, holding and probed by the records routed
    there — what Stage 2 distributes over reducers.  Yields
    ``(route, stored_rid, probing_rid, index)`` per emitted pair.
    *shuffle* (an R-S index that does not evict takes its records in any
    order) permutes both streams instead of sorting them by size."""
    route_of = repro_route_of(num_groups)
    routes = sorted(
        {route_of(t) for p in (*stored, *probing) for t in _prefix(p.tokens)}
    )
    by_size = lambda p: (true_size.get(p.rid, p.size), p.rid)  # noqa: E731
    index_options.setdefault("evict", mode == "self")

    def stream(projections):
        ordered = sorted(projections, key=by_size)
        return ordered if shuffle is None else shuffle.sample(ordered, len(ordered))

    for route in routes:
        here = lambda p: any(route_of(t) == route for t in _prefix(p.tokens))  # noqa: E731
        owner = Owner(route, num_groups)
        index = PPJoinIndex(SIM, THRESHOLD, mode=mode, owner=owner, **index_options)
        if mode == "rs":
            for proj in stream(filter(here, stored)):
                index.add(proj.rid, proj.tokens)
        for proj in stream(filter(here, probing)):
            for other, _sim in index.probe(
                proj.rid, proj.tokens, true_size=true_size.get(proj.rid)
            ):
                yield route, other, proj.rid, index
            if mode == "self":
                index.add(proj.rid, proj.tokens)


def _self_case():
    projs = _corpus(random.Random(5), 90, vocab=30)
    return projs, projs, "self", naive_self_join(projs, SIM, THRESHOLD), {}


def _rs_case():
    rng = random.Random(6)
    r, s = _corpus(rng, 60, vocab=30), _corpus(rng, 60, vocab=30, base=1000)
    return r, s, "rs", naive_rs_join(r, s, SIM, THRESHOLD), {}


def _rs_dropped_case():
    """S arrays are shipped without the tokens R never uses; the kernel
    probes the filtered array against the true size."""
    rng = random.Random(7)
    r = _corpus(rng, 60, vocab=30)
    s_full = _corpus(rng, 60, vocab=36, base=1000)  # ranks 30..35 are S-only
    s = [Projection(p.rid, tuple(t for t in p.tokens if t < 30)) for p in s_full]
    assert any(p.size < full.size for p, full in zip(s, s_full))
    true_size = {p.rid: p.size for p in s_full}
    return r, s, "rs", naive_rs_join(r, s_full, SIM, THRESHOLD), true_size


@pytest.mark.parametrize("num_groups", [None, 1, 3, 8])
class TestKernelOwnership:
    def check(self, case, num_groups, **index_options):
        stored, probing, mode, oracle, true_size = case
        route_of = (lambda t: t) if num_groups is None else (lambda t: t % num_groups)
        emitted = list(
            _routed_probes(stored, probing, mode, num_groups, true_size, **index_options)
        )
        # every answer pair exactly once in total ...
        assert sorted((min(a, b), max(a, b)) for _r, a, b, _i in emitted) == sorted(
            (min(a, b), max(a, b)) for a, b, _s in oracle
        )
        # ... from the route of its smallest common prefix token
        tokens = {p.rid: p.tokens for p in (*stored, *probing)}
        shared_several = 0
        for route, a, b, _index in emitted:
            common = set(_prefix(tokens[a])).intersection(_prefix(tokens[b]))
            assert route == route_of(min(common))
            shared_several += len({route_of(t) for t in common}) > 1
        if num_groups != 1:
            assert shared_several > 0  # the property was actually exercised
        # and every index's funnel closes on its own tallies
        for stats in {id(i): i.filter_stats for *_pair, i in emitted}.values():
            assert stats["candidates"] == sum(
                stats[k] for k in ("foreign", "bitmap", "positional", "suffix", "verified")
            )

    def test_self(self, num_groups):
        self.check(_self_case(), num_groups)

    def test_rs(self, num_groups):
        self.check(_rs_case(), num_groups)

    def test_rs_with_s_only_tokens_dropped(self, num_groups):
        self.check(_rs_dropped_case(), num_groups)

    @pytest.mark.parametrize("evict", [True, False])
    @pytest.mark.parametrize("use_suffix", [True, False])
    @pytest.mark.parametrize("bitmap_width", [None, 16])
    @pytest.mark.parametrize("case", [_self_case, _rs_case, _rs_dropped_case])
    def test_every_index_shape(self, num_groups, case, bitmap_width, use_suffix, evict):
        """The same two properties whichever filters run and whether the
        length window is cut by bisection (size-ordered adds, evicting
        or not) or by the exact scan (an R-S index fed in any order)."""
        case = case()
        unordered = not evict and case[2] == "rs"
        self.check(
            case, num_groups, evict=evict, use_suffix=use_suffix,
            bitmap_width=bitmap_width,
            shuffle=random.Random(11) if unordered else None,
        )


def test_an_owned_index_stores_only_reachable_records():
    """A record routed here by a probe-prefix token that its (shorter)
    index prefix lacks can never be met: it gets no posting, no entry
    and no memory charge — and answers stay those of the full index."""
    projs = sorted(
        _corpus(random.Random(5), 90, vocab=30), key=lambda p: (p.size, p.rid)
    )
    route = 4
    here = [p for p in projs if route in _prefix(p.tokens)]
    reachable = [
        p for p in here
        if route in p.tokens[: SIM.index_prefix_length(p.size, THRESHOLD)]
    ]
    assert 0 < len(reachable) < len(here)
    owned = PPJoinIndex(SIM, THRESHOLD, evict=False, owner=Owner(route))
    full = PPJoinIndex(SIM, THRESHOLD, evict=False)
    for proj in here:
        assert set(owned.probe(proj.rid, proj.tokens)) <= set(
            full.probe(proj.rid, proj.tokens)
        )
        owned.add(proj.rid, proj.tokens)
        full.add(proj.rid, proj.tokens)
    assert owned.live_entries == owned.peak_live_entries == len(reachable)
    assert full.live_entries == len(here)
    assert owned.live_bytes == owned.expected_live_bytes() == sum(
        projection_bytes(p.size) for p in reachable
    )
    assert list(owned._postings) == [route]


def _largest_pk_group(rs: bool, config: JoinConfig):
    """The route and values of the Stage-2 reduce group with the most
    records on dblp-2000 (R-S: x citeseerx-2000)."""
    cluster = SimulatedCluster()
    r = generate_dblp(2000, 7)
    cluster.dfs.write("r", r)
    run_pipeline(cluster, stage1_jobs(config, ["r"], "tokens", 4))
    if rs:
        cluster.dfs.write("s", generate_citeseerx(2000, 9, shared_with=r))
        job = stage2_rs_job(config, "r", "s", "tokens", "out", 4)
    else:
        job = stage2_self_job(config, "r", "tokens", "out", 4)
    groups = []
    job.reducer = lambda route, values, ctx: groups.append((route, list(values)))
    cluster.run_job(job)
    return max(groups, key=lambda group: (len(group[1]), -group[0]))


@pytest.mark.parametrize(
    "rs,expected",
    [
        # measured on the per-record reducer (probe + add per record, the
        # live_bytes delta charged after each) that the group call replaced:
        # route, group records, peak, the record that fails, error fields,
        # bytes still held after the raise
        (False, (1570, 28, 744, 15, 1113, "PK index", 744, 743, 0)),
        (True, (1570, 56, 3016, 40, 1987, "PK index (R partition)", 3016, 3015, 0)),
    ],
    ids=["self", "rs"],
)
def test_a_budget_just_below_a_pk_groups_peak_fails_at_the_same_record(rs, expected):
    """Memory metering moved into the kernel loop without moving: the
    same peak, and one byte less fails on the same record with the same
    ``(what, needed, limit)``."""
    config = JoinConfig(threshold=0.8)
    route, values = _largest_pk_group(rs, config)
    reducer = make_pk_reducer(config, rs=rs)
    ctx = Context(Counters())
    reducer(route, iter(values), ctx)
    peak = ctx.peak_memory_bytes
    assert ctx.held_bytes == 0
    consumed = []

    def counted():
        for value in values:
            consumed.append(value[1])
            yield value

    squeezed = Context(Counters(), memory_limit_bytes=peak - 1)
    with pytest.raises(InsufficientMemoryError) as info:
        reducer(route, counted(), squeezed)
    error = info.value
    assert (
        route, len(values), peak, len(consumed), consumed[-1],
        error.what, error.needed_bytes, error.limit_bytes, squeezed.held_bytes,
    ) == expected


def test_owner_rule_inverts_the_router():
    individual = JoinConfig(routing="individual")
    assert [t for t in range(20) if owner_of(individual, 7)(t)] == [7]
    grouped = JoinConfig(routing="grouped", num_groups=8)
    assert [t for t in range(20) if owner_of(grouped, 3)(t)] == [3, 11, 19]
    # one group per token: the group id is the rank
    assert [t for t in range(20) if owner_of(JoinConfig(routing="grouped"), 7)(t)] == [7]


@given(
    routing=st.sampled_from(["individual", "grouped"]),
    num_groups=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    dictionary=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_every_reader_of_the_routing_decision_agrees(
    routing, num_groups, dictionary, data
):
    """token -> route is defined once (``repro.core.prefixes.route_of``
    under ``JoinConfig.token_groups``): the mapper and the ownership
    rule must place every rank on the same route — the one the
    sanitizer derives on its own."""
    prefix = tuple(sorted(data.draw(
        st.sets(st.integers(0, dictionary - 1), min_size=1, max_size=8)
    )))
    config = JoinConfig(
        threshold=0.01, schema=SCHEMA_1, routing=routing, num_groups=num_groups
    )
    tokens = [f"t{rank:02d}" for rank in range(dictionary)]

    def sanitizer_agrees(rank, route):
        counters = Counters()
        checker = make_sanitizer(config.with_options(sanitize=True), counters, route)
        checker.check_owner((rank,), (rank,), emitted=True, sample=False)
        return counters.as_dict().get("sanitize.violations", 0) == 0

    expected = {}
    for rank in prefix:
        (route,) = [
            route for route in range(dictionary)
            if owner_of(config, route)(rank)
        ]
        assert sanitizer_agrees(rank, route)
        assert not sanitizer_agrees(rank, route + 1)
        expected[rank] = route

    # the mapper: tau = 0.01 makes the whole record its routing prefix
    mapper = make_self_mapper(config, None, "tokens")
    ctx = Context(Counters(), broadcast={"tokens": tokens})
    mapper(make_line(1, [" ".join(tokens[rank] for rank in prefix)]), ctx)
    assert [key[0] for key, _value in ctx._emitted] == list(
        dict.fromkeys(expected.values())
    )


ROUTINGS = [("individual", None), ("grouped", 1), ("grouped", 3), ("grouped", 8)]

#: policy name -> (kernels it composes with, config options)
POLICIES = {
    "plain": (("bk", "pk"), {}),
    "map-blocks": (("bk",), {"blocks": BlockPolicy("map", 3)}),
    "reduce-blocks": (("bk",), {"blocks": BlockPolicy("reduce", 3)}),
    # a self-join enhancement: the R-S mapper has no length-class keys
    "length-classes": (("bk",), {"length_class_width": 2}),
}
KERNEL_POLICIES = [
    (kernel, policy) for policy, (kernels, _) in POLICIES.items() for kernel in kernels
]


@pytest.mark.parametrize("routing,num_groups", ROUTINGS)
class TestStage2JobOwnership:
    """The Stage-2 output list holds every answer pair exactly once,
    whatever the kernel, routing and Section-5 policy."""

    def config(self, kernel, policy, routing, num_groups):
        _kernels, options = POLICIES[policy]
        return JoinConfig(
            threshold=THRESHOLD, schema=SCHEMA_1, kernel=kernel,
            routing=routing, num_groups=num_groups, **options,
        )

    @pytest.mark.parametrize("kernel,policy", KERNEL_POLICIES)
    def test_self(self, rng, kernel, policy, routing, num_groups):
        config = self.config(kernel, policy, routing, num_groups)
        records = random_records(rng, 70)
        pairs, stats = run_stage2(records, config)
        assert pair_keys(pairs) == pair_keys(oracle_self_pairs(records, config))
        assert stats.counters["stage2.pairs_output"] == len(pairs) > 0
        if kernel == "pk":
            assert_pk_funnel_closes(stats.counters)

    @pytest.mark.parametrize("kernel,policy", KERNEL_POLICIES[:-1])
    def test_rs(self, rng, kernel, policy, routing, num_groups):
        config = self.config(kernel, policy, routing, num_groups)
        r = random_records(rng, 45)
        s = random_records(rng, 45, rid_base=1000)
        pairs, stats = run_stage2_rs(r, s, config)
        assert sorted(p[:2] for p in pairs) == sorted(
            p[:2] for p in oracle_rs_pairs(r, s, config)
        )
        assert stats.counters["stage2.pairs_output"] == len(pairs) > 0
        if kernel == "pk":
            assert_pk_funnel_closes(stats.counters)


@pytest.mark.parametrize("stage3", ["brj", "oprj"])
@pytest.mark.parametrize("kernel", ["bk", "pk"])
def test_stage2_output_is_the_answer_end_to_end(make_engine, kernel, stage3):
    """``stage2.pairs_output == stage3.record_pairs_output`` on both
    engines (the matrix's universal assertion, on the sequential
    reference and the pooled cell): nothing is left for Stage 3 to
    deduplicate."""
    config = BASE.with_options(
        kernel=kernel, stage3=stage3, routing="grouped", num_groups=5
    )
    for workload in ("self", "rs"):
        assert cell(make_engine, workload, config, engine="persistent").pairs


def test_pinned_stage2_pairs_of_dblp_2000():
    """Absolute counts of a fixed corpus: one emission per answer (one
    per shared prefix token would be 1,386 for the same 482 answers),
    and only the candidates of owned posting lists (5,735 when every
    group indexed every prefix token)."""
    cluster = SimulatedCluster()
    cluster.dfs.write("records", generate_dblp(2000, 7))
    report = ssjoin_self(cluster, "records", JoinConfig(threshold=0.8))
    funnel = report.filter_counters()
    assert funnel["pairs"] == report.counters()["stage3.record_pairs_output"] == 482
    assert funnel["candidates"] == 5217
    assert (funnel["foreign"], funnel["bitmap"], funnel["positional"]) == (442, 4292, 0)
    assert funnel["verified"] == 483
