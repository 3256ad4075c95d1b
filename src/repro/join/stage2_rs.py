"""Stage 2 — RID-pair generation, R-S join case (Section 4).

Differences from the self-join case, all realized through key
manipulation:

* records are tagged with their relation (R = 0, S = 1); the custom
  partitioner still hashes only the route, and the relation tag makes
  R sort before S inside each group;
* the token ordering was built on R only, so S tokens absent from it
  are dropped at projection time (they cannot produce candidates);
  each S projection carries its *original* token count so verification
  stays exact;
* for the PK kernel, keys carry a **length class** — the actual length
  for S records, the length-filter *lower bound* for R records — so
  every R projection that could join an S record is streamed to the
  reducer before that record (Figure 6), enabling index eviction;
* Section 5 block processing sub-partitions only the R side; the S
  stream is replicated per R block (map-based) or spilled once and
  re-read per block (reduce-based).

**Hot-group splitting** (see :mod:`repro.join.planner` and the
self-join module) extends keys to ``(route, shard, class, relation,
length)``: a split route replicates its R records to every shard and
partitions its S records by home shard — the textbook
fragment-replicate split, which the R-S relation policy already
handles because its roles are purely tag-driven.  Every shard streams
the complete R side before its ``1/k`` slice of S, so pairs and filter
counters sum to exactly the unsplit run's.

Output records are ``(r_rid, s_rid, similarity)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.bitmaps import signature as bitmap_signature
from repro.core.prefixes import routes_of
from repro.core.similarity import bounds_for
from repro.join.blocks import MAP_BASED, ROLE_LOAD, BlockPolicy
from repro.join.config import JoinConfig
from repro.join.records import REL_R, REL_S
from repro.join.stage2 import (
    assemble_stage2_job,
    check_stage2_plan,
    load_token_order,
    project_record,
    resolve_splits,
)
from repro.mapreduce.hashing import shard_of
from repro.mapreduce.job import Context, MapReduceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.join.planner import Stage2Plan


def _length_class(rel: int, true_size: int, config: JoinConfig) -> int:
    """Composite-key length class (Section 4, Figure 6).

    S records use their actual length; R records use the lower bound of
    the lengths they can join, so that sorting by (class, relation)
    streams every R record before any S record it might pair with:
    for a true pair, ``len(R) <= upper_bound(len(S))`` iff
    ``lower_bound(len(R)) <= len(S)``.
    """
    if rel == REL_S:
        return true_size
    return bounds_for(config.sim, config.threshold).length_bounds[true_size][0]


def make_rs_mapper(
    config: JoinConfig,
    blocks: BlockPolicy | None,
    token_order_file: str,
    r_file: str,
    s_file: str,
    plan: "Stage2Plan | None" = None,
):
    """R-S Stage-2 mapper: tags by input file, drops S-only tokens.

    With a split-carrying *plan*, keys take the extended ``(route,
    shard, class, relation, length)`` shape: split routes replicate R
    records to every shard and send each S record to its home shard
    only; unsplit routes emit a single copy with ``shard == -1``.
    """
    prefix_length = bounds_for(config.sim, config.threshold).prefix_length
    split_mode = plan is not None and bool(plan.splits)
    routes = routes_of(config.token_groups)
    state: dict = {}

    def map_setup(ctx: Context) -> None:
        order = load_token_order(ctx, token_order_file)
        state["order"] = order
        state["splits"] = resolve_splits(plan, config, order)

    bitmap_width = config.bitmap_width if config.bitmap_filter else None

    def mapper(line: str, ctx: Context) -> None:
        if ctx.input_file == r_file:
            rel, unknown = REL_R, "error"
        elif ctx.input_file == s_file:
            rel, unknown = REL_S, "drop"
        else:  # pragma: no cover - job wiring guarantees the inputs
            raise ValueError(f"unexpected input file {ctx.input_file!r}")
        rid, ranks, true_size = project_record(line, config, state["order"], unknown)
        n = len(ranks)
        if n == 0:
            return
        prefix = ranks[: prefix_length[n]]
        # The signature covers the *shipped* (S-filtered) token array —
        # exactly the elements the kernels' overlap() merges.
        sig = bitmap_signature(ranks, bitmap_width) if bitmap_width else None
        value = (rel, rid, true_size, sig, ranks)
        cls = _length_class(rel, true_size, config)
        route_list = routes(prefix)
        ctx.observe("stage2.prefix_tokens", len(prefix))
        ctx.observe("stage2.record_routes", len(route_list))
        for route in route_list:
            if split_mode:
                num_shards = state["splits"].get(route)
                if num_shards is None:
                    ctx.emit((route, -1, cls, rel, n), value)
                elif rel == REL_R:
                    for shard in range(num_shards):
                        ctx.emit((route, shard, cls, rel, n), value)
                else:
                    home = shard_of(rid, num_shards)
                    ctx.emit((route, home, cls, rel, n), value)
            elif blocks is None:
                # The trailing actual length keeps same-class R records
                # sorted by size: length classes are not injective
                # (e.g. Jaccard tau=0.8 maps lengths 4 and 5 both to
                # class 4), and the PK index requires non-decreasing
                # insertion sizes for eviction.
                ctx.emit((route, cls, rel, n), value)
            elif blocks.strategy == MAP_BASED:
                if rel == REL_R:
                    block = blocks.block_of(rid)
                    ctx.emit((route, block, ROLE_LOAD, rel), (block, ROLE_LOAD) + value)
                else:
                    for step, role in blocks.rs_stream_schedule():
                        ctx.emit((route, step, role, rel), (step, role) + value)
            else:
                block = blocks.block_of(rid) if rel == REL_R else 0
                ctx.emit((route, rel, block), (block,) + value)

    return map_setup, mapper


# ---------------------------------------------------------------------------
# job assembly
# ---------------------------------------------------------------------------


def stage2_rs_job(
    config: JoinConfig,
    r_file: str,
    s_file: str,
    token_order_file: str,
    output: str,
    num_reducers: int,
    plan: "Stage2Plan | None" = None,
) -> MapReduceJob:
    """Build the single Stage-2 job for an R-S join; a split-carrying
    *plan* switches it to ``(route, shard, class, relation, length)``
    keys (see :func:`repro.join.stage2.assemble_stage2_job`) — a split
    shard is just an ordinary R-S group holding all of R and a slice of
    S."""
    split_mode = check_stage2_plan(config, plan, rs=True)
    return assemble_stage2_job(
        config, True, [r_file, s_file], token_order_file, output, num_reducers,
        split_mode,
        *make_rs_mapper(config, config.blocks, token_order_file, r_file, s_file, plan),
    )
