"""Join-cardinality and reducer-footprint estimation by sampling.

:func:`repro.join.planner.recommend_config` wants an expected RID-pair
count to decide between BRJ and OPRJ.  When no previous run's counters
are available, estimate it the standard way: join a Bernoulli sample
of the input and scale up — a pair survives a rate-``p`` sample with
probability ``p²``, so ``pairs_estimate = pairs_in_sample / p²``.

The estimator is unbiased but noisy for small samples or very sparse
answers; :func:`estimate_self_join_cardinality` also returns the raw
sample count so callers can judge (``0`` sampled pairs means "too
sparse to estimate at this rate", not "empty join").

:func:`sample_prefix_frequencies` is the plan-time probe of memory
admission (:func:`repro.join.memory.plan_admission`): it draws a
deterministic seeded Bernoulli sample of the raw input *before any
MapReduce job runs*, rebuilds the Stage-1 pipeline in miniature
(sample-local ascending-frequency token order, per-record prefix under
that order) and returns each sampled record's prefix and token ranks —
which routes a record goes to and how many bytes it brings, i.e. — up
to sampling noise — the Stage-2 reduce input of every routing key.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import SimilarityFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.join.config import JoinConfig


def estimate_self_join_cardinality(
    projections: Iterable[Projection],
    sim: SimilarityFunction,
    threshold: float,
    sample_rate: float = 0.1,
    seed: int = 0,
) -> tuple[int, int]:
    """Estimate ``|self-join|`` from a Bernoulli sample.

    Returns ``(estimated_pairs, sampled_pairs)``; the estimate is
    ``sampled_pairs / sample_rate**2`` rounded to an int.
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    rng = random.Random(seed)
    sample = [p for p in projections if rng.random() < sample_rate]
    sampled_pairs = len(ppjoin_self_join(sample, sim, threshold))
    estimate = round(sampled_pairs / (sample_rate * sample_rate))
    return estimate, sampled_pairs


# ---------------------------------------------------------------------------
# plan-time prefix sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixSample:
    """The sampled records of one workload as rank lists under the
    sample-local global token order (ascending frequency, ties broken
    by token — the same rule :class:`repro.core.ordering.TokenOrder`
    applies)."""

    #: one tuple of sample-local prefix ranks per sampled record — the
    #: routes it is shuffled to, under any routing
    #: (:func:`repro.core.prefixes.routes_of`)
    prefix_rank_lists: tuple[tuple[int, ...], ...]
    #: the matching *full* sorted rank tuple per sampled record — the
    #: bytes it brings to each of those routes
    token_rank_lists: tuple[tuple[int, ...], ...] = ()
    records_sampled: int = 0
    records_total: int = 0

    @property
    def scale(self) -> float:
        """Sample-to-population scale factor for the counts."""
        if self.records_sampled == 0:
            return 1.0
        return self.records_total / self.records_sampled


def sample_prefix_frequencies(
    r_lines: Sequence[str],
    config: "JoinConfig",
    s_lines: Sequence[str] | None = None,
    sample_rate: float = 0.1,
    seed: int = 0,
    min_sample: int = 64,
) -> PrefixSample:
    """Sample the input and project it on prefix and token ranks.

    Draws a deterministic Bernoulli sample of the raw input lines (rate
    *sample_rate*, seeded), builds a sample-local ascending-frequency
    token order over the R sample (Stage 1 builds the real order on R
    only) and computes each sampled record's probing prefix under that
    order.  S-sample tokens absent from the R-sample order are dropped,
    mirroring the R-S mapper's ``unknown="drop"`` projection.

    Tiny inputs defeat Bernoulli sampling (a handful of survivors make
    the estimate arbitrary), so when fewer than *min_sample* R lines
    survive, the sampler deterministically falls back to a prefix of
    the input instead.  The *effective* rates are reflected in
    ``records_sampled`` / ``records_total``, which is what
    :attr:`PrefixSample.scale` reads.
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    r_lines = list(r_lines)
    s_lines_list = list(s_lines) if s_lines is not None else None
    rng = random.Random(f"prefix-sample:{seed}")
    r_sample = [line for line in r_lines if rng.random() < sample_rate]
    if len(r_sample) < min_sample:
        r_sample = r_lines[:min_sample]
    if s_lines_list is not None:
        s_sample = [line for line in s_lines_list if rng.random() < sample_rate]
        if len(s_sample) < min_sample:
            s_sample = s_lines_list[:min_sample]
    else:
        s_sample = []

    # local import: records <-> estimate would otherwise be tangled at
    # module import time through the join package __init__
    from repro.join.records import join_value

    tokenize = config.tokenizer.tokenize
    schema = config.schema
    sim, threshold = config.sim, config.threshold

    r_token_lists = [tokenize(join_value(line, schema)) for line in r_sample]
    frequencies: Counter[str] = Counter()
    for tokens in r_token_lists:
        frequencies.update(tokens)
    ordered = sorted(frequencies.items(), key=lambda item: (item[1], item[0]))
    ranks = {token: i for i, (token, _count) in enumerate(ordered)}

    prefix_rank_lists: list[tuple[int, ...]] = []
    token_rank_lists: list[tuple[int, ...]] = []

    def project(tokens: list[str]) -> None:
        known = sorted(ranks[t] for t in tokens if t in ranks)
        n = len(known)
        if n == 0:
            return
        prefix_rank_lists.append(tuple(known[: sim.prefix_length(n, threshold)]))
        token_rank_lists.append(tuple(known))

    for tokens in r_token_lists:
        project(tokens)
    for line in s_sample:
        project(tokenize(join_value(line, schema)))

    sampled = len(r_sample) + len(s_sample)
    total = len(r_lines) + (len(s_lines_list) if s_lines_list is not None else 0)
    return PrefixSample(
        prefix_rank_lists=tuple(prefix_rank_lists),
        token_rank_lists=tuple(token_rank_lists),
        records_sampled=sampled,
        records_total=max(total, sampled),
    )
