"""Configuration recommendations and skew-adaptive Stage-2 planning.

Sections 6.1.3 and 6.2.3 distill the evaluation into guidance:

* Stage 1: **BTO** ("the best choice"); OPTO only wins on very small
  clusters and scales worse.
* Stage 2: **PK** ("the best choice").
* Stage 3: **OPRJ** is somewhat faster when the RID-pair list is small
  enough to broadcast, but its load cost is constant in the cluster
  and grows with the data, and it eventually runs out of memory —
  "we recommend BRJ as a good alternative"; overall,
  "for both self-join and R-S join cases, we recommend BTO-PK-BRJ as
  a robust and scalable method".

:func:`recommend_config` encodes exactly that: BTO-PK-BRJ unless the
caller provides an estimated RID-pair volume that comfortably fits in
task memory, in which case OPRJ's map-side join is suggested.

:func:`plan_stage2` is the skew-adaptive layer on top
(arXiv:1804.05615): given a :class:`repro.join.estimate.PrefixSample`
it estimates per-routing-key reduce loads, chooses routing mode /
group count by a makespan + shuffle cost model, and marks
token groups whose load dominates a reduce wave for run-time splitting
across :data:`SPLIT_FACTOR` reducer shards — the point where extra
replication buys a shorter critical path in the Afrati/Ullman
(arXiv:1204.1754) replication-rate sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection, route_of, routes_of
from repro.join.config import JoinConfig
from repro.join.estimate import PrefixSample

#: conservative per-pair footprint of OPRJ's broadcast index (bytes):
#: the pair tuple plus dict/index overhead
_OPRJ_BYTES_PER_PAIR = 120

#: fraction of the task memory budget OPRJ's index may occupy before
#: BRJ is recommended instead
_OPRJ_BUDGET_FRACTION = 0.5


def estimate_oprj_index_bytes(expected_pairs: int) -> int:
    """Approximate memory OPRJ needs to broadcast-and-index the
    RID-pair list in every map task."""
    return expected_pairs * _OPRJ_BYTES_PER_PAIR


def recommend_config(
    expected_pairs: int | None = None,
    memory_per_task_mb: float | None = None,
    base: JoinConfig | None = None,
) -> JoinConfig:
    """The paper's recommended configuration for a workload.

    Parameters
    ----------
    expected_pairs:
        Estimated number of RID pairs the join will produce (e.g. from
        a sampled pre-run, or a previous execution's counters).  When
        unknown, the robust BTO-PK-BRJ is returned.
    memory_per_task_mb:
        The per-task memory budget OPRJ's broadcast must fit into.
    base:
        Configuration to start from (similarity, threshold, schema are
        preserved); defaults to :class:`JoinConfig`'s defaults.

    Returns BTO-PK-BRJ unless the estimated OPRJ index occupies less
    than half the task budget, in which case BTO-PK-OPRJ is suggested
    (the paper: OPRJ was somewhat faster whenever it fit).
    """
    base = base or JoinConfig()
    config = base.with_options(stage1="bto", kernel="pk", stage3="brj")
    if expected_pairs is None or memory_per_task_mb is None:
        return config
    budget_bytes = memory_per_task_mb * 1024 * 1024 * _OPRJ_BUDGET_FRACTION
    if estimate_oprj_index_bytes(expected_pairs) <= budget_bytes:
        return config.with_options(stage3="oprj")
    return config


# ---------------------------------------------------------------------------
# skew-adaptive Stage-2 planning
# ---------------------------------------------------------------------------

#: split a Stage-2 token group when its estimated reduce load exceeds
#: this multiple of the mean per-reducer load (the replication-vs-load
#: tradeoff of arXiv:1204.1754) ...
SPLIT_THRESHOLD = 2.0

#: ... over this many reducer shards.  Constants, not options: the
#: values every bench, example and CI step ran, and the committed
#: ``skew_adaptive`` row was measured at (DESIGN.md Section 5l)
SPLIT_FACTOR = 4

#: never split more than this many token groups — beyond the first few
#: the remaining routes are below threshold anyway, and each split adds
#: replication
_MAX_SPLIT_TOKENS = 16

#: minimum estimated records on a route before splitting is worth the
#: replicated inserts at all
_MIN_SPLIT_ROUTE_LOAD = 64.0

#: cost (in kernel-work units) of shipping one replicated record
#: through the shuffle — what grouped routing saves over individual
_SHUFFLE_COST_WEIGHT = 0.5

#: additional cost per *split replica*: every extra add copy is also
#: emitted by a mapper (key build, partition, byte accounting), and the
#: map phase runs before any reducer can start, so replicas lengthen
#: the critical path at roughly the cost of a few candidate scans each
_MAP_EMIT_COST = 1.5

#: cost of one verification that survives the filters, relative to one
#: shuffled/inserted record — verify walks both token arrays and emits,
#: an insert appends to a few posting lists
_VERIFY_PAIR_COST = 8.0

#: cost of one candidate-pair touch during the probe scan.  Every
#: record pair sharing a route is touched by the posting-list scan
#: even when the length/positional filters then prune it, so a route's
#: probe cost is ~quadratic in its load regardless of how many pairs
#: survive — this term is what makes record-heavy routes with zero
#: join results still worth splitting
_CANDIDATE_SCAN_COST = 1.0

#: grouped-routing candidates evaluated, as multiples of num_reducers
_GROUPED_CANDIDATE_FACTORS = (1, 4)


@dataclass(frozen=True)
class Stage2Plan:
    """One adaptive Stage-2 execution plan.

    ``splits`` names hot *tokens* (not routes): the sample-local order
    the planner saw differs from the real Stage-1 order, so the plan
    carries token strings and Stage 2 resolves them against the real
    order at map setup (:func:`repro.join.stage2.resolve_splits`).
    ``()`` means run unsplit — byte-identical placement to the static
    plan.
    """

    routing: str
    num_groups: int | None
    #: ``(token, shard_count)`` per hot group, deterministic order
    splits: tuple[tuple[str, int], ...] = field(default=())
    sampled_records: int = 0

    def counters(self) -> dict[str, int]:
        """The ``plan.*`` counters surfaced through JoinReport."""
        return {
            "plan.num_groups": self.num_groups or 0,
            "plan.routing_grouped": 1 if self.routing == "grouped" else 0,
            "plan.sampled_records": self.sampled_records,
            "plan.split_factor": max((k for _t, k in self.splits), default=0),
            "plan.splits": len(self.splits),
        }


@dataclass(frozen=True)
class _RouteProfile:
    """Scaled per-route loads of one candidate routing.

    ``records[route]`` is the estimated reduce-input record count;
    ``work[route]`` the estimated kernel work (inserts + probes +
    surviving verifications) in insert-equivalent units; ``shuffled``
    the total shuffled records.
    """

    records: dict[int, float]
    work: dict[int, float]
    shuffled: float


def _route_profiles(
    sample: PrefixSample, num_groups: int | None, config: JoinConfig
) -> _RouteProfile:
    """Profile every route of a candidate routing from the sample.

    Routes are sample-local ranks (individual) or group ids (grouped);
    a record costs one shuffled copy per **distinct** route.  A route's
    kernel work is modeled as inserts + candidate-pair scans +
    surviving verifications: the scan term is analytic (``m·(m-1)/2``
    touches among ``m`` members), while the verify term is *measured*
    by running the real kernel on the route's sampled members, because
    record counts cannot tell a near-duplicate cluster (verifications
    survive the filters and dominate) from a merely record-heavy token
    (everything is pruned).  Pairwise quantities scale by ``1/p²`` like
    any sampled join cardinality, record counts by ``1/p``.
    """
    routes = routes_of(num_groups)
    members: dict[int, list[int]] = {}
    for idx, ranks in enumerate(sample.prefix_rank_lists):
        # sorted: members' dict insertion order feeds float-accumulation
        # order downstream, so it must not depend on prefix order
        for route in sorted(routes(ranks)):
            members.setdefault(route, []).append(idx)
    scale = sample.scale
    token_lists = sample.token_rank_lists
    records: dict[int, float] = {}
    work: dict[int, float] = {}
    shuffled = 0.0
    for route, idxs in members.items():
        m = len(idxs)
        shuffled += m
        pairs = 0
        if m >= 2 and token_lists:
            projs = [Projection(i, token_lists[i]) for i in idxs]
            pairs = len(ppjoin_self_join(projs, config.sim, config.threshold))
        records[route] = m * scale
        touches = m * (m - 1) / 2.0
        work[route] = (
            2.0 * m * scale
            + (_CANDIDATE_SCAN_COST * touches + _VERIFY_PAIR_COST * pairs)
            * scale
            * scale
        )
    return _RouteProfile(records=records, work=work, shuffled=shuffled * scale)


def _pick_splits(
    work: dict[int, float], records: dict[int, float], num_reducers: int
) -> list[int]:
    """Routes whose estimated work dominates a reduce wave, heaviest
    first — split *candidates*; :func:`_admit_splits` keeps only the
    ones that actually lower the modeled cost."""
    mean_per_reducer = sum(work.values()) / max(1, num_reducers)
    hot = [
        route
        for route, w in work.items()
        if w > SPLIT_THRESHOLD * mean_per_reducer
        and records.get(route, 0.0) >= _MIN_SPLIT_ROUTE_LOAD
    ]
    hot.sort(key=lambda route: (-work[route], route))
    return hot[:_MAX_SPLIT_TOKENS]


def _plan_cost(
    profile: _RouteProfile, split_routes: list[int], num_reducers: int
) -> float:
    """Estimated makespan + shuffle cost of one candidate plan.

    A route's work ``w`` decomposes into ``records`` inserts plus
    probe/verify work; splitting it ``k`` ways replicates the inserts
    to every shard but divides the probe/verify share, so the heaviest
    shard costs ``records + (w - records)/k`` while total work and
    shuffle grow by ``(k-1)·records`` — the Afrati/Ullman
    replication-rate tradeoff.  Makespan is the larger of the heaviest
    single reduce unit and the perfectly-balanced average.
    """
    split_set = set(split_routes)
    total_work = 0.0
    max_unit = 0.0
    extra_shuffle = 0.0
    for route, w in profile.work.items():
        if route in split_set:
            inserts = profile.records.get(route, 0.0)
            unit = inserts + (w - inserts) / SPLIT_FACTOR
            total_work += w + (SPLIT_FACTOR - 1) * inserts
            extra_shuffle += (SPLIT_FACTOR - 1) * inserts
        else:
            unit = w
            total_work += w
        if unit > max_unit:
            max_unit = unit
    makespan = max(max_unit, total_work / max(1, num_reducers))
    return (
        makespan
        + _SHUFFLE_COST_WEIGHT * (profile.shuffled + extra_shuffle)
        + _MAP_EMIT_COST * extra_shuffle
    )


def _admit_splits(
    profile: _RouteProfile, hot: list[int], num_reducers: int
) -> tuple[list[int], float]:
    """Keep the hot-route prefix whose split lowers the plan cost most.

    Evaluates splitting the ``j`` heaviest hot routes for every prefix
    length ``j`` and keeps the cheapest (ties go to fewer splits).  A
    record-heavy but filter-pruned route passes the load threshold yet
    only gains replication from splitting, so prefixes including it
    cost more and it is dropped; several *equally* hot quadratic routes
    are split together, which one-at-a-time greedy admission would miss
    (splitting only one leaves the others as the makespan).  Returns
    the admitted splits (heaviest first) and the resulting plan cost.
    """
    best_j = 0
    best_cost = _plan_cost(profile, [], num_reducers)
    for j in range(1, len(hot) + 1):
        trial = _plan_cost(profile, hot[:j], num_reducers)
        if trial < best_cost:
            best_j = j
            best_cost = trial
    return hot[:best_j], best_cost


def plan_stage2(
    sample: PrefixSample,
    config: JoinConfig,
    num_reducers: int,
) -> Stage2Plan:
    """Choose a Stage-2 plan for the sampled workload.

    Evaluates individual routing plus grouped routing at a few group
    counts under the cost model of :func:`_plan_cost` (each candidate
    with its own best split set), then picks the cheapest — ties go to
    the earlier candidate, individual first, so the choice is
    deterministic.  Returns a no-op plan (static config echoed back,
    no splits) when the sample is empty.
    """
    rank_lists = sample.prefix_rank_lists
    if not rank_lists:
        return Stage2Plan(
            routing=config.routing,
            num_groups=config.num_groups,
            splits=(),
            sampled_records=sample.records_sampled,
        )
    ind_profile = _route_profiles(sample, None, config)

    candidates: list[tuple[float, int | None, list[int]]] = []
    group_counts = [None] + [
        max(1, num_reducers * factor) for factor in _GROUPED_CANDIDATE_FACTORS
    ]
    for num_groups in group_counts:
        if num_groups is None:
            profile = ind_profile
        elif num_groups >= len(sample.order):
            continue  # as many groups as tokens = individual routing
        else:
            profile = _route_profiles(sample, num_groups, config)
        hot = _pick_splits(profile.work, profile.records, num_reducers)
        splits, cost = _admit_splits(profile, hot, num_reducers)
        candidates.append((cost, num_groups, splits))
    _cost, num_groups, split_routes = min(candidates, key=lambda c: c[0])

    # resolve split routes to token names the runtime can re-anchor on
    # the real Stage-1 order: a per-token route is its token, a hot
    # group is named by its heaviest member token
    group_of = route_of(num_groups)
    heaviest: dict[int, tuple[float, str]] = {}
    for rank, load in ind_profile.work.items():
        entry = (-load, sample.order[rank])
        group = group_of(rank)
        if group not in heaviest or entry < heaviest[group]:
            heaviest[group] = entry
    split_tokens = [heaviest[g][1] for g in split_routes if g in heaviest]

    return Stage2Plan(
        routing="individual" if num_groups is None else "grouped",
        num_groups=num_groups,
        splits=tuple((token, SPLIT_FACTOR) for token in split_tokens),
        sampled_records=sample.records_sampled,
    )
