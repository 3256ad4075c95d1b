"""The runtime degradation ladder: the one answer to a memory fault in
Stage 2 or Stage 3.

The paper's Section 5 answers "what if a token group does not fit in
reducer memory?" with block processing; this module turns that answer
into an *automatic OOM-recovery path*; Stage 3 has one rung of its own,
OPRJ -> BRJ (the paper's answer when the RID-pair list does not fit a
map task).  When a Stage-2 or Stage-3 task raises
:class:`~repro.mapreduce.types.InsufficientMemoryError` — whether from
the simulated byte meter or a ``squeeze`` fault — the driver treats it
as a *plan fault*, not a task fault: the stage is re-planned one ladder
rung down (:func:`next_escalation` / :func:`apply_step`) and re-run, at
most :data:`MAX_REPLANS` times in Stage 2 and once in Stage 3.  The ladder acts on the budget that is
actually enforced and the bytes the reducer actually meters; no plan
is predicted before a job runs.

:func:`next_escalation` is the ladder's only definition, from cheapest
to most drastic::

    routing:individual      grouped -> per-token routing
    kernel:bk               PK -> BK (blocks are BK-only)
    blocks:<strategy>:<n>   engage block processing at 2 / double the count
    (None)                  ladder exhausted -> re-raise

and for Stage 3::

    stage3:brj              OPRJ -> BRJ (holds one record, not the pair list)
    (None)                  already BRJ -> re-raise

Every rung preserves bit-identical join output (each is an existing
differentially-tested equivalence), so a degraded run's pairs match the
unfaulted run exactly.  Steps are plain strings — persisted in the
checkpoint manifest so ``--resume`` replays the degraded plan instead
of rediscovering it, and reported under the ``memory.*`` counters that
differential comparisons strip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.join.blocks import MAP_BASED, REDUCE_BASED, BlockPolicy

if TYPE_CHECKING:
    from repro.join.config import JoinConfig

__all__ = [
    "MAX_REPLANS",
    "MEMORY_REPLANS",
    "apply_degradations",
    "apply_step",
    "next_escalation",
]

#: stage replans the driver performed after memory faults
MEMORY_REPLANS = "memory.replans"

#: runtime replans of one join's Stage 2 before the memory error is
#: re-raised to the caller: two rungs to reach blocks, then up to 32 of
#: them (the whole Stage-2 ladder is 14 rungs; why 6, DESIGN.md Section
#: 5i).  Stage 3's one rung is not counted against it.
MAX_REPLANS = 6
#: hard cap on the block count — beyond this, per-block metadata and
#:  scheduling overhead dominate whatever memory the split still saves
_MAX_BLOCKS = 4096


def apply_step(config: "JoinConfig", step: str) -> "JoinConfig":
    """Apply one degradation *step* string to a config.

    Steps are the shared vocabulary of the escalation ladder and the
    checkpoint manifest:

    * ``routing:individual`` — per-token routing;
    * ``kernel:bk`` — PK -> BK kernel fallback;
    * ``blocks:<map|reduce>:<n>`` — engage / resize Section-5 block
      processing (clears ``length_class_width``, the alternative
      Section-5 strategy);
    * ``stage3:brj`` — OPRJ -> BRJ record join.

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
    if kind == "stage3":
        if arg != "brj":
            raise ValueError(f"unknown stage3 degradation step {step!r}")
        return config.with_options(stage3="brj")
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


def next_escalation(config: "JoinConfig", stage: str) -> str | None:
    """The next ladder rung for *config* after a memory fault in *stage*,
    or ``None`` when the ladder is exhausted (the memory error must
    surface).

    Stage 3 has one rung, ``stage3:brj``, from OPRJ: every OPRJ map task
    holds the whole RID-pair list, a BRJ task one record.  Stage 1 has
    none.  The one definition of the Stage-2 rung order and of each
    rung's precondition:

    1. ``routing:individual`` — only from grouped routing with a finite
       group count; one group per token already *is* per-token routing,
       and re-running that plan would change nothing;
    2. ``kernel:bk`` — from the PK kernel (blocks are BK-only);
    3. ``blocks:<strategy>:<n>`` — engage Section-5 blocks at 2, then
       double the count (each doubling halves the per-call footprint),
       up to ``_MAX_BLOCKS``.  A ``length_class_width`` plan takes this
       rung too: blocks are the stronger Section-5 strategy and
       :func:`apply_step` clears the class width.
    """
    if stage == "stage3":
        return "stage3:brj" if config.stage3 == "oprj" else None
    if stage != "stage2":
        return None
    if config.token_groups is not None:
        return "routing:individual"
    if config.kernel == "pk":
        return "kernel:bk"
    blocks = config.blocks
    wanted = 2 if blocks is None else 2 * blocks.num_blocks
    num_blocks = min(_MAX_BLOCKS, wanted)
    if blocks is not None and blocks.num_blocks >= num_blocks:
        return None
    strategy = REDUCE_BASED if blocks is None else blocks.strategy
    return f"blocks:{strategy}:{num_blocks}"
