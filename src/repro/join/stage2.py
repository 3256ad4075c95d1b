"""Stage 2 — RID-pair generation, self-join case (Section 3.2).

The mapper loads the Stage-1 token ordering (distributed cache),
projects each record on (RID, rank-encoded join-attribute tokens),
extracts the probing prefix and replicates the projection under one
routing key per prefix token (individual routing) or per distinct
prefix-token group (grouped routing).

Keys are composite, exactly as the paper manipulates them:

    (route, length, relation)

partitioned on ``route`` only (custom partitioner), sorted on the full
key, grouped on ``route`` — so each reduce call sees one candidate
group with values streaming in ascending set-size order, which is what
lets the PK kernel evict index entries below the length-filter lower
bound (Section 3.2.2) and the R-S kernel stream R before S
(Section 4).  The relation component is 0 for self-joins.

Reducers — two, shared with the R-S module (a self-join is the R-S
join in which every record both probes and is stored):

* **BK** (Basic Kernel, :func:`make_bk_reducer`) — stores the group
  (memory-metered) and verifies each probing record against every
  stored one with the length filter plus merge-based verification.
* **PK** (PPJoin+ Kernel, :func:`make_pk_reducer`) — runs
  :class:`repro.core.ppjoin.PPJoinIndex` over the length-sorted stream.

A pair of records sharing several prefix tokens meets in several
groups, but only its *owner* — the group the smallest token common to
both routing prefixes routes to, see :func:`owner_of` — verifies and
emits it, so the Stage-2 output holds every RID pair exactly once and
Stage 3 has nothing to deduplicate (a deliberate deviation from
Section 3.3; DESIGN.md, "Each pair has one owner").  Output records are
``(rid1, rid2, similarity)`` with ``rid1 < rid2``.

Section 5 plugs into the BK loop as a *block policy* in two forms:
block processing (see :mod:`repro.join.blocks`) and the length filter
as a *secondary routing criterion* (``JoinConfig.length_class_width``
— reducer keys become ``(token, length-class)`` so each reduce step
holds one class).
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Sequence

from repro.analysis.sanitize import Sanitizer, make_sanitizer, sanitize_active
from repro.core.bitmaps import overlap_upper_bound, signature as bitmap_signature
from repro.core.ordering import TokenOrder
from repro.core.ppjoin import PPJoinIndex
from repro.core.prefixes import Owner, projection_bytes, routes_of
from repro.core.similarity import Bounds, bounds_for
from repro.core.verification import overlap
from repro.join.blocks import (
    ROLE_LOAD,
    ROLE_STREAM,
    SPILL_READ,
    SPILL_WRITTEN,
    BlockPolicy,
    MAP_BASED,
)
from repro.join.config import JoinConfig
from repro.join.records import REL_R, REL_S, join_value, rid_of
from repro.mapreduce.job import Context, MapReduceJob
from repro.mapreduce.types import approx_bytes

#: user counters
CANDIDATE_PAIRS = "stage2.candidate_pairs"
PAIRS_OUTPUT = "stage2.pairs_output"
#: candidates pruned per filter stage (filter-effectiveness counters)
PRUNED_LENGTH = "stage2.pruned_length"
#: pairs met in a group that does not own them (see :func:`owner_of`)
PRUNED_FOREIGN = "stage2.pruned_foreign"
PRUNED_BITMAP = "stage2.pruned_bitmap"
PRUNED_POSITIONAL = "stage2.pruned_positional"
PRUNED_SUFFIX = "stage2.pruned_suffix"
#: candidates that survived every filter and reached the merge
VERIFIED = "stage2.verified"

#: PPJoinIndex.filter_stats key -> counter name
FILTER_COUNTERS = {
    "candidates": CANDIDATE_PAIRS,
    "length": PRUNED_LENGTH,
    "foreign": PRUNED_FOREIGN,
    "bitmap": PRUNED_BITMAP,
    "positional": PRUNED_POSITIONAL,
    "suffix": PRUNED_SUFFIX,
    "verified": VERIFIED,
}


#: value layout shared by every Stage-2 projection:
#: ``(rel, rid, true_size, signature, tokens)``
def _projection_size(value: tuple) -> int:
    return value[2]


def _projection_rel(value: tuple) -> int:
    return value[0]


# ---------------------------------------------------------------------------
# shared mapper machinery
# ---------------------------------------------------------------------------


def load_token_order(ctx: Context, token_order_file: str) -> TokenOrder:
    """The global token order, rebuilt from the distributed cache once
    per process and billed to each map slot's first task — the per-task
    constant cost the paper attributes to loading the ordered tokens in
    Stage 2 (see :meth:`repro.mapreduce.job.Context.view`)."""
    return ctx.view(token_order_file, TokenOrder)


def owner_of(config: JoinConfig, route: int) -> Owner:
    """The ownership rule, stated once: a RID pair belongs to the route
    that the **smallest token common to both records' routing prefixes**
    routes to.  Both records were sent there, so the owner always meets
    the pair, and no other group may emit it.  Returns the
    :class:`~repro.core.prefixes.Owner` of *route*, the reduce-side
    inverse of the mappers' :func:`repro.core.prefixes.routes_of`."""
    return Owner(route, config.token_groups)


def _owns_pair(owner: Callable[[int], bool], prefix_length, x: Sequence, y: Sequence) -> bool:
    """Apply *owner* to a pair given as two token arrays (BK has no
    encounter order to read the smallest common prefix token off)."""
    common = set(x[: prefix_length[len(x)]]).intersection(y[: prefix_length[len(y)]])
    return bool(common) and owner(min(common))


def project_record(
    line: str, config: JoinConfig, order: TokenOrder, unknown: str
) -> tuple[int, list[int], array, int]:
    """Parse a record line into (rid, ranks, rank-encoded tokens, true
    size).

    *ranks* are the record's global frequency ranks, ascending, as the
    order's own ints (:meth:`~repro.core.ordering.TokenOrder.ranks`):
    mappers build routing keys from them, so the ~3.2 keys of a record
    share their route ints with every other record's.  The token array
    holds the same ranks in a compact ``array('i')`` — what a value
    ships.  ``true size`` counts tokens *before* dropping unknowns —
    for R and self-join inputs it equals ``len(tokens)``.
    """
    raw = config.tokenizer.tokenize(join_value(line, config.schema))
    ranks = order.ranks(raw, unknown=unknown)
    return rid_of(line), ranks, array("i", ranks), len(raw)


def make_self_mapper(
    config: JoinConfig,
    blocks: BlockPolicy | None,
    token_order_file: str,
):
    """Self-join Stage-2 mapper (shared by BK and PK)."""
    bounds = bounds_for(config.sim, config.threshold)
    prefix_length, length_bounds = bounds.prefix_length, bounds.length_bounds
    routes = routes_of(config.token_groups)
    width = config.length_class_width
    bitmap_width = config.bitmap_width if config.bitmap_filter else None

    def mapper(line: str, ctx: Context) -> None:
        order = load_token_order(ctx, token_order_file)
        rid, ranks, tokens, _true = project_record(line, config, order, "error")
        n = len(ranks)
        if n == 0:
            return
        prefix = ranks[: prefix_length[n]]
        sig = bitmap_signature(ranks, bitmap_width) if bitmap_width else None
        value = (REL_R, rid, n, sig, tokens)
        route_list = routes(prefix)
        ctx.observe("stage2.prefix_tokens", len(prefix))
        ctx.observe("stage2.record_routes", len(route_list))
        for route in route_list:
            if blocks is not None:
                block = blocks.block_of(rid)
                if blocks.strategy == MAP_BASED:
                    for step, role in blocks.replication_schedule(block):
                        ctx.emit((route, step, role), (step, role) + value)
                else:
                    ctx.emit((route, block), (block,) + value)
            elif width is not None:
                # Section 5, first paragraph: the length filter as a
                # secondary routing criterion.  The record is *indexed*
                # in its own length class and *probes* every lower
                # class that can hold a join partner, so each reduce
                # step holds one class in memory.
                own_class = n // width
                lowest = length_bounds[n][0] // width
                for cls in range(lowest, own_class):
                    ctx.emit((route, cls, ROLE_STREAM), (cls, ROLE_STREAM) + value)
                ctx.emit((route, own_class, ROLE_LOAD), (own_class, ROLE_LOAD) + value)
            else:
                ctx.emit((route, n, REL_R), value)

    return mapper


# ---------------------------------------------------------------------------
# pairwise verification used by the BK reducer
# ---------------------------------------------------------------------------


def bk_verify(
    p1: tuple,
    p2: tuple,
    config: JoinConfig,
    bounds: Bounds,
    counters=None,
    sanitizer: Sanitizer | None = None,
) -> float | None:
    """Length-filter + bitmap-filter + merge-verify two projections.

    Each projection is ``(rel, rid, true_size, signature, tokens)``;
    overlaps are computed on the (possibly S-filtered) token arrays
    while the length filter and required overlap use the true set
    sizes, keeping the reported similarity exact (see Section 4
    Stage 1).  When both projections carry a bitmap signature, the
    admissible popcount upper bound (:mod:`repro.core.bitmaps`) prunes
    the pair before the O(n) merge; *counters*, when given, tallies
    per-filter prunes.  *bounds* is the memo of ``(config.sim,
    config.threshold)``.
    """
    _rel1, _rid1, n1, sig1, toks1 = p1
    _rel2, _rid2, n2, sig2, toks2 = p2
    lo, hi = bounds.length_bounds[n1]
    if not lo <= n2 <= hi:
        if counters is not None:
            counters.increment(PRUNED_LENGTH)
        if sanitizer is not None:
            sanitizer.check_prune("length", toks1, n1, toks2, n2)
        return None
    alpha = bounds.alpha[n1, n2]
    if sig1 is not None and sig2 is not None:
        # The signature covers the shipped token array, which in R-S
        # joins is S-filtered — so bound with the array lengths, the
        # lengths overlap() actually merges (common <= min of both).
        if overlap_upper_bound(len(toks1), len(toks2), sig1, sig2) < alpha:
            if counters is not None:
                counters.increment(PRUNED_BITMAP)
            if sanitizer is not None:
                sanitizer.check_prune("bitmap", toks1, n1, toks2, n2)
            return None
    if counters is not None:
        counters.increment(VERIFIED)
    common = overlap(toks1, toks2, required=alpha)
    if common < alpha:
        return None
    similarity = config.sim.similarity_from_overlap(n1, n2, common)
    return similarity if similarity >= config.threshold else None


def _write_self_pair(ctx: Context, rid1: int, rid2: int, similarity: float) -> None:
    low, high = (rid1, rid2) if rid1 < rid2 else (rid2, rid1)
    ctx.write((low, high, similarity))
    ctx.counters.increment(PAIRS_OUTPUT)


def _write_rs_pair(ctx: Context, r_rid: int, s_rid: int, similarity: float) -> None:
    ctx.write((r_rid, s_rid, similarity))
    ctx.counters.increment(PAIRS_OUTPUT)


# ---------------------------------------------------------------------------
# the two reducers
# ---------------------------------------------------------------------------
#
# Both kernels are one loop over one group's value stream in which each
# record *probes* the records stored so far, *is stored*, or both.  A
# self-join is the R-S join in which every record does both; everything
# else the paper does "through key manipulation" only decides, per
# record, which of the two happens:
#
# * **relation policy** — in a self-join group every record probes,
#   then is stored; in an R-S group ``REL_R`` records are stored and
#   ``REL_S`` records probe.
# * **block policy** (BK only, Section 5) — which of the records the
#   relation policy would store are held *now*; see the three stream
#   functions below.
#
# Whatever the policies, a pair is emitted only by the group that *owns*
# it (:func:`owner_of`; the route is the group key).  PK posts records under owned tokens
# only and decides at a candidate's first encounter, once the bitmap
# bound has passed it; BK has no encounter order to read, so it asks
# after verification, per *true* pair only.  Blocks and length classes
# already meet a pair once per route.


#: stream event that empties the stored set (a new block step begins)
_RESTART = (None, False, False)


def _whole_group(values: Iterator, rs: bool, ctx: Context) -> Iterator[tuple]:
    """No block policy: the relation policy alone assigns the roles."""
    for projection in values:
        rel = projection[0]
        yield projection, not rs or rel == REL_S, not rs or rel == REL_R


def _stepped_blocks(values: Iterator, rs: bool, ctx: Context) -> Iterator[tuple]:
    """Map-based blocks and length-class routing: values arrive as
    ``(step, role) + projection``; each step holds only its load-role
    records (one R/self block, one length class) and the stored set
    restarts when the step changes."""
    current_step = None
    for value in values:
        step, role, projection = value[0], value[1], value[2:]
        if step != current_step:
            current_step = step
            yield _RESTART
        yield projection, not rs or projection[0] == REL_S, role == ROLE_LOAD


def _spilled_blocks(values: Iterator, rs: bool, ctx: Context) -> Iterator[tuple]:
    """Reduce-based blocks (Figure 7(b)): values arrive as ``(block,) +
    projection``.  The first block of the store side is held; later
    blocks — and, in an R-S stream, the probe side, once anything was
    spilled — go to local disk and are replayed, one stored block at a
    time, through the same probe/store pair."""
    first_block = None
    spilled: dict[int, list[tuple]] = {}
    spilled_probes: list[tuple] = []
    for value in values:
        block, projection = value[0], value[1:]
        probes = not rs or projection[0] == REL_S
        storable = not rs or projection[0] == REL_R
        if storable and first_block is None:
            first_block = block
        held = storable and block == first_block
        yield projection, probes, held
        if storable and not held:
            spilled.setdefault(block, []).append(projection)
        elif rs and probes and spilled:
            spilled_probes.append(projection)
        else:
            continue
        ctx.counters.increment(SPILL_WRITTEN, _spill_bytes(projection))
    remaining = sorted(spilled)
    for idx, block in enumerate(remaining):
        yield _RESTART
        for projection in spilled[block]:
            ctx.counters.increment(SPILL_READ, _spill_bytes(projection))
            yield projection, not rs, True
        later = (
            spilled_probes
            if rs
            else (p for b in remaining[idx + 1 :] for p in spilled[b])
        )
        for projection in later:
            ctx.counters.increment(SPILL_READ, _spill_bytes(projection))
            yield projection, True, False


def _spill_bytes(projection: tuple) -> int:
    return projection_bytes(len(projection[4]), projection[3] is not None)


def make_bk_reducer(config: JoinConfig, rs: bool) -> Callable:
    """Basic Kernel: every probing record is verified against every
    stored record (length filter, bitmap filter, merge).

    *rs* selects the relation policy and the output orientation
    (``(r_rid, s_rid)`` instead of ``rid1 < rid2``).  The block policy
    comes from *config*.
    """
    blocks = config.blocks
    if blocks is not None and blocks.strategy != MAP_BASED:
        stream_of = _spilled_blocks
    elif blocks is not None or (config.length_class_width is not None and not rs):
        # map-based blocks and length classes share one value shape
        stream_of = _stepped_blocks
    else:
        stream_of = _whole_group
    if stream_of is _whole_group:
        what = "BK stored R partition" if rs else "BK candidate list"
    else:
        what = "BK loaded R block" if rs else "BK loaded block"
    write_pair = _write_rs_pair if rs else _write_self_pair
    group_of = _projection_rel if rs else None
    bounds = bounds_for(config.sim, config.threshold)
    prefix_length = bounds.prefix_length
    sanitized = sanitize_active(config)

    def reducer(route, values: Iterator, ctx: Context) -> None:
        owner = owner_of(config, route)
        sanitizer = make_sanitizer(config, ctx.counters, route) if sanitized else None
        if sanitizer is not None and stream_of is _whole_group:
            # block streams are ordered by step/block, not by size
            values = sanitizer.sorted_values(
                values, _projection_size, group_of=group_of
            )
        counters = ctx.counters
        stored: list[tuple] = []
        held = 0
        group_records = 0
        group_candidates = 0
        for projection, probes, stores in stream_of(values, rs, ctx):
            if projection is None:
                held = 0
                ctx.hold(what, 0)
                stored = []
                continue
            group_records += 1
            if probes:
                group_candidates += len(stored)
                for other in stored:
                    counters.increment(CANDIDATE_PAIRS)
                    similarity = bk_verify(
                        other, projection, config, bounds, counters, sanitizer
                    )
                    if similarity is None:
                        continue
                    x, y = other[4], projection[4]
                    owned = _owns_pair(owner, prefix_length, x, y)
                    if owned:
                        write_pair(ctx, other[1], projection[1], similarity)
                    else:
                        counters.increment(PRUNED_FOREIGN)
                    if sanitizer is not None:
                        sanitizer.check_owner(x, y, owned, sample=not owned)
            if stores:
                held += approx_bytes(projection)
                ctx.hold(what, held)
                stored.append(projection)
        ctx.observe("stage2.group_records", group_records)
        ctx.observe("stage2.group_candidates", group_candidates)
        ctx.hold(what, 0)

    return reducer


def make_pk_reducer(config: JoinConfig, rs: bool) -> Callable:
    """PPJoin+ Kernel over the length-sorted value stream: probing
    records query the index, stored records are inserted, and the index
    evicts entries the stream's length lower bound has passed.

    *rs* as for :func:`make_bk_reducer`.
    """
    mode = "rs" if rs else "self"
    what = "PK index (R partition)" if rs else "PK index"
    write_pair = _write_rs_pair if rs else _write_self_pair
    group_of = _projection_rel if rs else None
    # with the bitmap filter on, its bound replaces the recursive suffix
    # filter (it subsumes it at a fraction of the cost; output identical)
    width = config.bitmap_width if config.bitmap_filter else None
    sanitized = sanitize_active(config)

    def reducer(route, values: Iterator, ctx: Context) -> None:
        sanitizer = make_sanitizer(config, ctx.counters, route) if sanitized else None
        index = PPJoinIndex(
            config.sim, config.threshold, mode=mode, use_suffix=width is None,
            bitmap_width=width, sanitizer=sanitizer, owner=owner_of(config, route),
        )
        if sanitizer is not None:
            values = sanitizer.sorted_values(
                values, _projection_size, group_of=group_of
            )

        def hold(num_bytes: int) -> None:
            ctx.hold(what, num_bytes)

        for stored_rid, rid, similarity in index.join_group(values, hold):
            write_pair(ctx, stored_rid, rid, similarity)
        ctx.observe("stage2.group_records", index.records_seen)
        ctx.observe("stage2.group_candidates", index.filter_stats["candidates"])
        if sanitizer is not None:
            sanitizer.check_index_accounting(index)
        for stage, count in index.filter_stats.items():
            if count:
                ctx.counters.increment(FILTER_COUNTERS[stage], count)

    return reducer


# ---------------------------------------------------------------------------
# job assembly
# ---------------------------------------------------------------------------


def check_stage2_plan(config: JoinConfig, rs: bool) -> None:
    """Validate what a Stage-2 job combines: Section-5 strategies are BK
    enhancements.  R-S jobs have no length-class routing to check (the
    R-S key already carries a length class)."""
    if config.blocks is not None and config.kernel != "bk":
        raise ValueError(
            "Section 5 block processing applies to the BK kernel "
            "(the paper sub-partitions when no further filters help); "
            "use kernel='bk' or blocks=None"
        )
    if config.length_class_width is not None and not rs and config.kernel != "bk":
        raise ValueError(
            "length-class secondary routing is a BK enhancement "
            "(the PK kernel already exploits the length filter via its "
            "composite keys); use kernel='bk' or length_class_width=None"
        )


def assemble_stage2_job(
    config: JoinConfig,
    rs: bool,
    inputs: list[str],
    token_order_file: str,
    output: str,
    num_reducers: int,
    mapper: Callable,
) -> MapReduceJob:
    """The one Stage-2 job shape: route and group on the route, sort on
    the full composite key."""
    check_stage2_plan(config, rs)
    make_reducer = make_pk_reducer if config.kernel == "pk" else make_bk_reducer
    return MapReduceJob(
        name=f"stage2-{config.kernel}-{'rs' if rs else 'self'}",
        inputs=inputs,
        output=output,
        mapper=mapper,
        reducer=make_reducer(config, rs=rs),
        num_reducers=num_reducers,
        group_key=lambda key: key[0],
        broadcast=[token_order_file],
    )


def stage2_self_job(
    config: JoinConfig,
    records_file: str,
    token_order_file: str,
    output: str,
    num_reducers: int,
) -> MapReduceJob:
    """Build the single Stage-2 job for a self-join."""
    return assemble_stage2_job(
        config, False, [records_file], token_order_file, output, num_reducers,
        make_self_mapper(config, config.blocks, token_order_file),
    )
