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

Output records are ``(r_rid, s_rid, similarity)``.
"""

from __future__ import annotations

from repro.core.bitmaps import signature as bitmap_signature
from repro.core.prefixes import routes_of
from repro.core.similarity import bounds_for
from repro.join.blocks import MAP_BASED, ROLE_LOAD, BlockPolicy
from repro.join.config import JoinConfig
from repro.join.records import REL_R, REL_S
from repro.join.stage2 import assemble_stage2_job, load_token_order, project_record
from repro.mapreduce.job import Context, MapReduceJob


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
):
    """R-S Stage-2 mapper: tags by input file, drops S-only tokens."""
    prefix_length = bounds_for(config.sim, config.threshold).prefix_length
    routes = routes_of(config.token_groups)
    bitmap_width = config.bitmap_width if config.bitmap_filter else None

    def mapper(line: str, ctx: Context) -> None:
        if ctx.input_file == r_file:
            rel, unknown = REL_R, "error"
        elif ctx.input_file == s_file:
            rel, unknown = REL_S, "drop"
        else:  # pragma: no cover - job wiring guarantees the inputs
            raise ValueError(f"unexpected input file {ctx.input_file!r}")
        order = load_token_order(ctx, token_order_file)
        rid, ranks, true_size = project_record(line, config, order, unknown)
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
            if blocks is None:
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

    return mapper


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
) -> MapReduceJob:
    """Build the single Stage-2 job for an R-S join."""
    return assemble_stage2_job(
        config, True, [r_file, s_file], token_order_file, output, num_reducers,
        make_rs_mapper(config, config.blocks, token_order_file, r_file, s_file),
    )
