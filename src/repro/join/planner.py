"""Configuration recommendations.

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
"""

from __future__ import annotations

from repro.join.config import JoinConfig

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
