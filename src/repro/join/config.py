"""End-to-end join configuration.

A :class:`JoinConfig` picks one algorithm per stage — the paper's
nomenclature maps directly:

=========  ==========================  =========================
stage      option                      paper name
=========  ==========================  =========================
stage1     ``"bto"``                   Basic Token Ordering
stage1     ``"opto"``                  One-Phase Token Ordering
kernel     ``"bk"``                    Basic Kernel
kernel     ``"pk"``                    PPJoin+ (Indexed) Kernel
routing    ``"individual"``            individual prefix tokens
routing    ``"grouped"``               grouped tokens (round-robin)
stage3     ``"brj"``                   Basic Record Join
stage3     ``"oprj"``                  One-Phase Record Join
=========  ==========================  =========================

The default, ``JoinConfig()``, is BTO-PK-OPRJ: the paper's fastest
combination whenever the RID-pair list fits in a map task.  The paper
recommends BTO-PK-BRJ as the robust choice because OPRJ runs out of
memory at scale (Section 6.1.3/6.2.3); here that choice is made at run
time instead of up front — an OPRJ task that exceeds its memory budget
re-runs Stage 3 as BRJ (the ``stage3:brj`` rung of
:mod:`repro.join.memory`, with ``auto_degrade`` on).  The budget is the
simulated per-task one (``ClusterConfig.memory_per_task_mb``, or a
``squeeze`` fault).  Without one — the CLI sets none — OPRJ never
degrades, and every process that runs its map tasks (the driver, each
pool worker) holds the whole RID-pair list and its by-RID index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.core.similarity import SimilarityFunction, get_similarity_function
from repro.core.tokenizers import Tokenizer, WordTokenizer
from repro.join.blocks import BlockPolicy
from repro.join.records import RecordSchema

STAGE1_ALGORITHMS = ("bto", "opto")
KERNELS = ("bk", "pk")
ROUTINGS = ("individual", "grouped")
STAGE3_ALGORITHMS = ("brj", "oprj")


@dataclass
class JoinConfig:
    """Configuration of one end-to-end set-similarity join."""

    similarity: str | SimilarityFunction = "jaccard"
    threshold: float = 0.8
    tokenizer: Tokenizer = field(default_factory=WordTokenizer)
    schema: RecordSchema = field(default_factory=RecordSchema)
    stage1: str = "bto"
    kernel: str = "pk"
    routing: str = "individual"
    #: group count for ``routing="grouped"``; ``None`` = one group per token
    num_groups: int | None = None
    stage3: str = "oprj"
    #: reducers for data-parallel jobs; ``None`` = one per cluster reduce slot
    num_reducers: int | None = None
    #: Section 5 block processing for oversized kernel groups
    blocks: BlockPolicy | None = None
    #: Section 5 (first paragraph): use the length filter as a
    #: *secondary routing criterion* for the BK kernel — reducer keys
    #: become (token, length-class) so each reduce call holds only one
    #: class of records in memory.  Value = class width in tokens.
    length_class_width: int | None = None
    #: bitmap-signature candidate pruning (arXiv:1711.07295, see
    #: :mod:`repro.core.bitmaps`): Stage-2 mappers compute one
    #: ``bitmap_width``-bit signature per record and every kernel
    #: consults the popcount overlap upper bound between the length
    #: filter and the remaining filter/verification steps.  The bound
    #: is admissible, so RID pairs are identical with the filter on or
    #: off (differential-tested).  In the PK kernel the bitmap bound
    #: *replaces* the recursive suffix filter, which it empirically
    #: subsumes at a fraction of the cost; the positional filter stays.
    bitmap_filter: bool = True
    #: signature width in bits for ``bitmap_filter`` — a constant, not
    #: a field: no run uses another width (the kernels still take one)
    bitmap_width: ClassVar[int] = 64
    #: runtime sanitizer mode (see :mod:`repro.analysis.sanitize`):
    #: wraps the Stage-2 kernels and shuffle with observe-only invariant
    #: checks — reduce-input length sortedness, a sampled filter
    #: admissibility oracle, and index byte accounting — reported as
    #: ``sanitize.checks`` / ``sanitize.violations`` counters.  Output
    #: is bit-identical with the flag on or off.  ``REPRO_SANITIZE=1``
    #: force-enables it regardless of this field.
    sanitize: bool = False
    #: runtime degradation: when ``True`` (default) the driver treats a
    #: Stage-2 or Stage-3 :class:`repro.mapreduce.types.InsufficientMemoryError`
    #: as a plan fault and retries the stage down an escalation ladder
    #: (Stage 2: finer routing → BK kernel → engage/double blocks;
    #: Stage 3: OPRJ → BRJ); ``False`` restores the raw fail-fast
    #: behaviour.
    auto_degrade: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.similarity, str):
            self.similarity = get_similarity_function(self.similarity)
        if self.stage1 not in STAGE1_ALGORITHMS:
            raise ValueError(f"stage1 must be one of {STAGE1_ALGORITHMS}, got {self.stage1!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.routing not in ROUTINGS:
            raise ValueError(f"routing must be one of {ROUTINGS}, got {self.routing!r}")
        if self.stage3 not in STAGE3_ALGORITHMS:
            raise ValueError(f"stage3 must be one of {STAGE3_ALGORITHMS}, got {self.stage3!r}")
        if not 0.0 < self.threshold:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.threshold > self.sim.max_threshold:
            raise ValueError(
                f"threshold must be at most {self.sim.max_threshold} for "
                f"{self.sim.name} similarity, got {self.threshold}"
            )
        if self.num_groups is not None and self.num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {self.num_groups}")
        if self.length_class_width is not None and self.length_class_width < 1:
            raise ValueError(
                f"length_class_width must be >= 1, got {self.length_class_width}"
            )
        if self.length_class_width is not None and self.blocks is not None:
            raise ValueError(
                "length_class_width and blocks are alternative Section-5 "
                "strategies; configure at most one"
            )

    @property
    def sim(self) -> SimilarityFunction:
        """The resolved similarity function (never a string)."""
        assert isinstance(self.similarity, SimilarityFunction)
        return self.similarity

    @property
    def token_groups(self) -> int | None:
        """The routing decision, normalised for
        :func:`repro.core.prefixes.route_of`: the group count of grouped
        routing, ``None`` when every token is its own route — individual
        routing, and grouped routing with ``num_groups=None`` (one group
        per token), which is the same plan."""
        return self.num_groups if self.routing == "grouped" else None

    @property
    def combo_name(self) -> str:
        """Paper-style combination label, e.g. ``"BTO-PK-OPRJ"``."""
        return "-".join(
            part.upper() for part in (self.stage1, self.kernel, self.stage3)
        )

    def with_options(self, **changes) -> "JoinConfig":
        """Copy with the given fields replaced."""
        return replace(self, **changes)
