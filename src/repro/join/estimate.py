"""Join-cardinality estimation by sampling.

:func:`repro.join.planner.recommend_config` wants an expected RID-pair
count to decide between BRJ and OPRJ.  When no previous run's counters
are available, estimate it the standard way: join a Bernoulli sample
of the input and scale up — a pair survives a rate-``p`` sample with
probability ``p²``, so ``pairs_estimate = pairs_in_sample / p²``.

The estimator is unbiased but noisy for small samples or very sparse
answers; :func:`estimate_self_join_cardinality` also returns the raw
sample count so callers can judge (``0`` sampled pairs means "too
sparse to estimate at this rate", not "empty join").
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import SimilarityFunction


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
