"""Plan-time memory admission and the runtime degradation ladder.

The paper's Section 5 answers "what if a token group does not fit in
reducer memory?" with block processing; this module turns that answer
into an *automatic OOM-recovery path* with two cooperating layers:

**Plan-time admission** (:func:`plan_admission`).  When
``JoinConfig.memory_budget_mb`` is set, the driver estimates the
per-group Stage-2 reducer footprint from the seeded prefix sample
(:func:`repro.join.estimate.sample_prefix_frequencies`) and
*pre-degrades* the plan until the estimated peak fits under the
budget: grouped routing is refined to individual tokens, the PK kernel
falls back to BK (blocks are BK-only), a Section-5 :class:`~repro.join.blocks.BlockPolicy` is
engaged with a block count derived from the budget and a strategy
chosen by comparing replication cost against local spill I/O.  The
footprint model reuses :func:`repro.core.prefixes.projection_bytes` —
the same per-record byte model the PK index and the reduce-based spill
path charge — scaled by the sample rate.

**Runtime degradation** (:func:`next_escalation` / :func:`apply_step`).
When a Stage-2 task raises
:class:`~repro.mapreduce.types.InsufficientMemoryError` — whether from
the simulated byte meter or a ``squeeze`` fault — the driver treats it
as a *plan fault*, not a task fault:
the stage is re-planned one ladder rung down and re-run, at most
:data:`MAX_REPLANS` times.

Both layers walk the same ladder (:func:`next_escalation` is its only
definition), from cheapest to most drastic::

    routing:individual      grouped -> per-token routing
    kernel:bk               PK -> BK (unlocks Section-5 blocks)
    blocks:<strategy>:<n>   engage block processing / raise the count
    (None)                  ladder exhausted -> re-raise

They differ only in how the block count is chosen: admission sizes it
from the footprint estimate in one shot, the runtime ladder — which has
no sample — engages at 2 and doubles (halving the block size).

Every rung preserves bit-identical join output (each is an existing
differentially-tested equivalence), so a degraded run's pairs match the
unfaulted run exactly.  Steps are plain strings — persisted in the
checkpoint manifest so ``--resume`` replays the degraded plan instead
of rediscovering it, and reported under the ``memory.*`` counters that
differential comparisons strip.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.prefixes import projection_bytes, routes_of
from repro.join.blocks import MAP_BASED, REDUCE_BASED, BlockPolicy

if TYPE_CHECKING:
    from repro.join.config import JoinConfig
    from repro.join.estimate import PrefixSample

__all__ = [
    "MAX_REPLANS",
    "MEMORY_ADMISSION_ADJUSTMENTS",
    "MEMORY_ADMITTED",
    "MEMORY_ESCALATIONS",
    "MEMORY_EST_PEAK",
    "MEMORY_REPLANS",
    "apply_degradations",
    "apply_step",
    "choose_block_strategy",
    "estimate_group_footprints",
    "estimate_peak_bytes",
    "next_escalation",
    "plan_admission",
]

#: stage replans the driver performed after Stage-2 memory faults
MEMORY_REPLANS = "memory.replans"
#: escalation-ladder rungs applied (admission steps excluded)
MEMORY_ESCALATIONS = "memory.escalations"
#: plan-time admission ran for this join (0/1)
MEMORY_ADMITTED = "memory.admitted"
#: degradation steps the admission loop applied before any job ran
MEMORY_ADMISSION_ADJUSTMENTS = "memory.admission_adjustments"
#: admitted plan's estimated Stage-2 peak, bytes
MEMORY_EST_PEAK = "memory.est_peak_bytes"

#: runtime replans of one join before the memory error is re-raised to
#: the caller: two rungs to reach blocks, then up to 32 of them (the
#: whole ladder is 14 rungs; why 6, DESIGN.md Section 5i)
MAX_REPLANS = 6
#: fraction of the budget the estimated peak must fit under — the
#: remainder absorbs estimation error (the sample sees a fraction of
#: the records; scaling the max group footprint is noisy)
_HEADROOM = 0.8
#: hard cap on the block count — beyond this, per-block metadata and
#:  scheduling overhead dominate whatever memory the split still saves
_MAX_BLOCKS = 4096
#: blocks resident in one reduce call: the loaded (indexed) block plus
#: the probe-side block/stream being joined against it
_BLOCK_RESIDENCY = 2
#: simulated cost per byte *replicated through the shuffle* by
#: map-based block processing (network)
_REPLICATION_COST_WEIGHT = 0.5
#: simulated cost per byte *spilled and re-read locally* by
#: reduce-based block processing (local disk: cheaper per byte than
#: the network, but the bytes are paid twice — once written, once or
#: more re-read)
_LOCAL_IO_COST_WEIGHT = 0.4


# -- footprint model --------------------------------------------------------


def estimate_group_footprints(
    sample: "PrefixSample", config: "JoinConfig"
) -> dict[int, float]:
    """Estimated resident bytes per Stage-2 reduce group.

    A BK reduce call holds every projection routed to its group; the PK
    call's index live-bytes peak is the same order.  Each sampled
    record contributes :func:`projection_bytes` of its *full* token
    list to every route its prefix fans out to (under the config's
    routing), scaled back up by the sample rate.
    """
    routes = routes_of(config.token_groups)
    has_signature = config.bitmap_filter
    footprints: dict[int, float] = {}
    for prefix_ranks, token_ranks in zip(
        sample.prefix_rank_lists, sample.token_rank_lists
    ):
        record_bytes = projection_bytes(len(token_ranks), has_signature)
        for route in sorted(routes(prefix_ranks)):
            footprints[route] = footprints.get(route, 0.0) + record_bytes
    scale = sample.scale
    return {route: total * scale for route, total in footprints.items()}


def estimate_peak_bytes(sample: "PrefixSample", config: "JoinConfig") -> int:
    """Estimated per-task Stage-2 reducer memory peak under *config*.

    The peak is the largest group footprint — divided across blocks
    when a :class:`BlockPolicy` is engaged (two blocks resident per
    call).
    """
    footprints = estimate_group_footprints(sample, config)
    if not footprints:
        return 0
    peak = max(footprints.values())
    if config.blocks is not None:
        peak = _BLOCK_RESIDENCY * peak / config.blocks.num_blocks
    return int(math.ceil(peak))


def choose_block_strategy(total_group_bytes: float, num_blocks: int) -> str:
    """Pick map-based replication vs reduce-based spilling by cost.

    Map-based block processing replicates each block to every later
    block's reduce call — ``(B-1)/2`` extra copies of the data through
    the shuffle on average.  Reduce-based processing ships each record
    once but spills blocks ``1..B-1`` locally and re-reads them
    ``(B-1)/2`` times on average.  With network bytes costed above
    local-disk bytes (matching the simulator's disk/network bandwidth
    ratio), replication wins at small block counts and spilling wins
    once the replication factor blows up; ties go to reduce-based, the
    paper's more scalable variant.
    """
    if num_blocks < 2:
        return REDUCE_BASED
    replicated = total_group_bytes * (num_blocks - 1) / 2.0
    map_cost = _REPLICATION_COST_WEIGHT * replicated
    spilled = total_group_bytes * (num_blocks - 1) / num_blocks
    reread = total_group_bytes * (num_blocks - 1) / 2.0
    reduce_cost = _LOCAL_IO_COST_WEIGHT * (spilled + reread)
    return MAP_BASED if map_cost < reduce_cost else REDUCE_BASED


# -- degradation steps ------------------------------------------------------


def apply_step(config: "JoinConfig", step: str) -> "JoinConfig":
    """Apply one degradation *step* string to a config.

    Steps are the shared vocabulary of plan-time admission, the runtime
    escalation ladder and the checkpoint manifest:

    * ``routing:individual`` — per-token routing;
    * ``kernel:bk`` — PK -> BK kernel fallback;
    * ``blocks:<map|reduce>:<n>`` — engage / resize Section-5 block
      processing (clears ``length_class_width``, the alternative
      Section-5 strategy).

    Returns a new config; the input is never mutated.
    """
    kind, _, arg = step.partition(":")
    if kind == "routing":
        if arg != "individual":
            raise ValueError(f"unknown routing degradation step {step!r}")
        return config.with_options(routing="individual", num_groups=None)
    if kind == "kernel":
        if arg != "bk":
            raise ValueError(f"unknown kernel degradation step {step!r}")
        return config.with_options(kernel="bk")
    if kind == "blocks":
        strategy, _, count = arg.partition(":")
        if strategy not in (MAP_BASED, REDUCE_BASED) or not count.isdigit():
            raise ValueError(f"unknown blocks degradation step {step!r}")
        return config.with_options(
            blocks=BlockPolicy(strategy=strategy, num_blocks=int(count)),
            length_class_width=None,
        )
    raise ValueError(f"unknown degradation step {step!r}")


def apply_degradations(config: "JoinConfig", steps: list[str]) -> "JoinConfig":
    """Fold :func:`apply_step` over *steps* (checkpoint replay order)."""
    for step in steps:
        config = apply_step(config, step)
    return config


def next_escalation(
    config: "JoinConfig",
    sized: tuple[dict[int, float], float] | None = None,
) -> str | None:
    """The next ladder rung for *config*, or ``None`` when the ladder is
    exhausted (at runtime: the memory error must surface).

    The one definition of rung order and of each rung's precondition,
    for plan-time admission and the runtime ladder alike:

    1. ``routing:individual`` — only from grouped routing with a finite
       group count; one group per token already *is* per-token routing,
       and re-running that plan would change nothing;
    2. ``kernel:bk`` — from the PK kernel (blocks are BK-only);
    3. ``blocks:<strategy>:<n>`` — engage Section-5 blocks or raise
       their count, up to ``_MAX_BLOCKS``.  A ``length_class_width``
       plan takes this rung too: blocks are the stronger Section-5
       strategy and :func:`apply_step` clears the class width.

    Admission passes *sized* = ``(footprints, allowance)``, the
    per-group estimate and the bytes it must fit under, so the block
    count (and the strategy, by :func:`choose_block_strategy`) is
    computed in one shot; the runtime ladder has no sample, so it
    engages at 2 and doubles — each doubling halves the per-call
    footprint.
    """
    if config.token_groups is not None:
        return "routing:individual"
    if config.kernel == "pk":
        return "kernel:bk"
    blocks = config.blocks
    if sized is None:
        wanted = 2 if blocks is None else 2 * blocks.num_blocks
        num_blocks = min(_MAX_BLOCKS, wanted)
        strategy = REDUCE_BASED if blocks is None else blocks.strategy
    else:
        footprints, allowance = sized
        peak = max(footprints.values(), default=0.0)
        wanted = max(2, math.ceil(_BLOCK_RESIDENCY * peak / allowance))
        num_blocks = min(_MAX_BLOCKS, wanted)
        strategy = choose_block_strategy(sum(footprints.values()), num_blocks)
    if blocks is not None and blocks.num_blocks >= num_blocks:
        return None
    return f"blocks:{strategy}:{num_blocks}"


# -- plan-time admission ----------------------------------------------------


def plan_admission(
    sample: "PrefixSample", config: "JoinConfig"
) -> tuple["JoinConfig", dict[str, int]]:
    """Admit (and if needed pre-degrade) a Stage-2 plan under the budget.

    Returns ``(config, counters)``: the possibly-degraded config plus
    the ``memory.*`` admission counters.  A no-op returning the config
    untouched when ``config.memory_budget_mb`` is ``None``.
    Deterministic — the sample is seeded, so a resumed run recomputes
    the identical admitted plan.
    """
    if config.memory_budget_mb is None:
        return config, {}
    allowance = _HEADROOM * config.memory_budget_mb * 1024 * 1024
    adjustments = 0
    estimated = estimate_peak_bytes(sample, config)
    while estimated > allowance:
        step = next_escalation(
            config, (estimate_group_footprints(sample, config), allowance)
        )
        if step is None:
            break
        config = apply_step(config, step)
        adjustments += 1
        estimated = estimate_peak_bytes(sample, config)
    counters = {
        MEMORY_ADMITTED: 1,
        MEMORY_ADMISSION_ADJUSTMENTS: adjustments,
        MEMORY_EST_PEAK: estimated,
    }
    return config, counters
