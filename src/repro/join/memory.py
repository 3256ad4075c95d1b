"""Plan-time memory admission and the runtime degradation ladder.

The paper's Section 5 answers "what if a token group does not fit in
reducer memory?" with block processing; this module turns that answer
into an *automatic OOM-recovery path* with two cooperating layers:

**Plan-time admission** (:func:`plan_admission`).  When
``JoinConfig.memory_budget_mb`` is set, the driver estimates the
per-group Stage-2 reducer footprint from the seeded prefix sample
(:func:`repro.join.estimate.sample_prefix_frequencies`) — the same
sample the skew-adaptive planner draws — and *pre-degrades* the plan
until the estimated peak fits under the budget: grouped routing is
refined to individual tokens, the PK kernel falls back to BK (blocks
are BK-only), a Section-5 :class:`~repro.join.blocks.BlockPolicy` is
engaged with a block count derived from the budget and a strategy
chosen by comparing replication cost against local spill I/O.  The
footprint model reuses
:func:`repro.join.blocks.projection_spill_bytes` — the same per-record
byte model the reduce-based spill path charges — scaled by the sample
rate.

**Runtime degradation** (:func:`next_escalation` / :func:`apply_step`).
When a Stage-2 task raises
:class:`~repro.mapreduce.types.InsufficientMemoryError` — whether from
the simulated byte meter, a ``squeeze`` fault, or the real-RSS
watchdog — the driver treats it as a *plan fault*, not a task fault:
the stage is re-planned one ladder rung down and re-run.  The ladder,
from cheapest to most drastic::

    routing:individual      grouped -> per-token routing
    kernel:bk               PK -> BK (unlocks Section-5 blocks)
    blocks:reduce:2         engage block processing
    blocks:<strategy>:<2n>  double the block count (halve block size)
    (None)                  ladder exhausted -> re-raise

Every rung preserves bit-identical join output (each is an existing
differentially-tested equivalence), so a degraded run's pairs match the
unfaulted run exactly.  Steps are plain strings — persisted in the
checkpoint manifest so ``--resume`` replays the degraded plan instead
of rediscovering it, and reported under the ``memory.*`` counters that
differential comparisons strip.
"""

from __future__ import annotations

import math
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING

from repro.join.blocks import (
    MAP_BASED,
    REDUCE_BASED,
    BlockPolicy,
    projection_spill_bytes,
)

if TYPE_CHECKING:
    from repro.join.config import JoinConfig
    from repro.join.estimate import PrefixSample
    from repro.join.planner import Stage2Plan

__all__ = [
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
#: map-based block processing (network; matches the planner's
#: ``_SHUFFLE_COST_WEIGHT``)
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
    record contributes :func:`projection_spill_bytes` of its *full*
    token list to every route its prefix fans out to (under the
    config's routing), scaled back up by the sample rate.
    """
    grouped = config.routing == "grouped" and config.num_groups is not None
    num_groups = config.num_groups
    has_signature = config.bitmap_filter
    footprints: dict[int, float] = {}
    for prefix_ranks, token_ranks in zip(
        sample.prefix_rank_lists, sample.token_rank_lists
    ):
        record_bytes = projection_spill_bytes(len(token_ranks), has_signature)
        if grouped:
            routes = sorted({rank % num_groups for rank in prefix_ranks})
        else:
            routes = sorted(set(prefix_ranks))
        for route in routes:
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


def apply_step(
    config: "JoinConfig", plan: "Stage2Plan | None", step: str
) -> tuple["JoinConfig", "Stage2Plan | None"]:
    """Apply one degradation *step* string to a (config, plan) pair.

    Steps are the shared vocabulary of plan-time admission, the runtime
    escalation ladder and the checkpoint manifest:

    * ``routing:individual`` — per-token routing (clears hot-group
      splits: split keys are routes of the old granularity);
    * ``kernel:bk`` — PK -> BK kernel fallback;
    * ``blocks:<map|reduce>:<n>`` — engage / resize Section-5 block
      processing (clears ``length_class_width``, the alternative
      Section-5 strategy, and hot-group splits).

    Returns a new pair; the inputs are never mutated.
    """
    kind, _, arg = step.partition(":")
    if kind == "routing":
        if arg != "individual":
            raise ValueError(f"unknown routing degradation step {step!r}")
        config = config.with_options(routing="individual", num_groups=None)
        if plan is not None:
            plan = dataclass_replace(
                plan, routing="individual", num_groups=None, splits=()
            )
        return config, plan
    if kind == "kernel":
        if arg != "bk":
            raise ValueError(f"unknown kernel degradation step {step!r}")
        return config.with_options(kernel="bk"), plan
    if kind == "blocks":
        strategy, _, count = arg.partition(":")
        if strategy not in (MAP_BASED, REDUCE_BASED) or not count.isdigit():
            raise ValueError(f"unknown blocks degradation step {step!r}")
        config = config.with_options(
            blocks=BlockPolicy(strategy=strategy, num_blocks=int(count)),
            length_class_width=None,
        )
        if plan is not None and plan.splits:
            plan = dataclass_replace(plan, splits=())
        return config, plan
    raise ValueError(f"unknown degradation step {step!r}")


def apply_degradations(
    config: "JoinConfig", plan: "Stage2Plan | None", steps: list[str]
) -> tuple["JoinConfig", "Stage2Plan | None"]:
    """Fold :func:`apply_step` over *steps* (checkpoint replay order)."""
    for step in steps:
        config, plan = apply_step(config, plan, step)
    return config, plan


def next_escalation(config: "JoinConfig") -> str | None:
    """The next runtime ladder rung for *config*, or ``None`` when the
    ladder is exhausted and the memory error must surface.

    The runtime ladder has no sample to size blocks from, so it engages
    at 2 and doubles — each doubling halves the per-call footprint —
    bounded by the caller's ``max_replan_retries``.
    """
    if config.routing == "grouped":
        return "routing:individual"
    if config.kernel == "pk":
        return "kernel:bk"
    if config.blocks is None:
        return f"blocks:{REDUCE_BASED}:2"
    if config.blocks.num_blocks < _MAX_BLOCKS:
        return f"blocks:{config.blocks.strategy}:{config.blocks.num_blocks * 2}"
    return None


# -- plan-time admission ----------------------------------------------------


def _admission_step(
    sample: "PrefixSample", config: "JoinConfig", allowance: float
) -> str | None:
    """The next *static* degradation for an over-budget estimate.

    Unlike the runtime ladder, admission sees the footprint estimate,
    so the block count is computed in one shot instead of searched by
    doubling.
    """
    if config.routing == "grouped" and config.num_groups is not None:
        return "routing:individual"
    if config.length_class_width is None:
        if config.kernel == "pk":
            return "kernel:bk"
        footprints = estimate_group_footprints(sample, config)
        peak = max(footprints.values(), default=0.0)
        wanted = max(
            2, math.ceil(_BLOCK_RESIDENCY * peak / allowance) if allowance else 2
        )
        num_blocks = min(_MAX_BLOCKS, wanted)
        if config.blocks is None or config.blocks.num_blocks < num_blocks:
            strategy = choose_block_strategy(sum(footprints.values()), num_blocks)
            return f"blocks:{strategy}:{num_blocks}"
    return None


def plan_admission(
    sample: "PrefixSample",
    config: "JoinConfig",
    plan: "Stage2Plan | None",
) -> tuple["JoinConfig", "Stage2Plan | None", dict[str, int]]:
    """Admit (and if needed pre-degrade) a Stage-2 plan under the budget.

    Returns ``(config, plan, counters)``: the possibly-degraded pair
    plus the ``memory.*`` admission counters.  A no-op returning the
    inputs untouched when ``config.memory_budget_mb`` is ``None``.
    Deterministic — the sample is seeded, so a resumed run recomputes
    the identical admitted plan.
    """
    if config.memory_budget_mb is None:
        return config, plan, {}
    allowance = _HEADROOM * config.memory_budget_mb * 1024 * 1024
    adjustments = 0
    estimated = estimate_peak_bytes(sample, config)
    while estimated > allowance:
        step = _admission_step(sample, config, allowance)
        if step is None:
            break
        config, plan = apply_step(config, plan, step)
        adjustments += 1
        estimated = estimate_peak_bytes(sample, config)
    counters = {
        MEMORY_ADMITTED: 1,
        MEMORY_ADMISSION_ADJUSTMENTS: adjustments,
        MEMORY_EST_PEAK: estimated,
    }
    return config, plan, counters
