"""Canonical experiment workloads.

The paper's experiments use "DBLP×n" and "CITESEERX×n" — one copy of
the (preprocessed) dataset increased n ∈ [5, 25] times with the
token-shift technique.  Our laptop-scale equivalents use a fixed base
corpus (seeded, deterministic) and the same increase; the base size is
small enough that the full benchmark suite runs in minutes yet large
enough that the kernel dominates Stage 2 the way it does in the paper.

Results are memoized: sweeps re-use the same lines objects.
"""

from __future__ import annotations

from functools import lru_cache

from repro.data.increase import increase_dataset
from repro.data.synthetic import generate_citeseerx, generate_dblp

#: records in "one copy" of the laptop-scale corpora
BASE_DBLP_RECORDS = 1200
BASE_CITESEERX_RECORDS = 1200

_SEED_DBLP = 42
_SEED_CITESEERX = 43


@lru_cache(maxsize=None)
def _dblp_base(num_records: int = BASE_DBLP_RECORDS) -> tuple[str, ...]:
    return tuple(generate_dblp(num_records, seed=_SEED_DBLP))


@lru_cache(maxsize=None)
def _citeseerx_base(num_records: int = BASE_CITESEERX_RECORDS) -> tuple[str, ...]:
    # share publications with the DBLP base so the R-S join has answers
    return tuple(
        generate_citeseerx(
            num_records,
            seed=_SEED_CITESEERX,
            rid_base=10_000_000,
            shared_with=list(_dblp_base()),
        )
    )


@lru_cache(maxsize=None)
def dblp_times(factor: int, base_records: int = BASE_DBLP_RECORDS) -> tuple[str, ...]:
    """The ``DBLP×factor`` workload."""
    return tuple(increase_dataset(list(_dblp_base(base_records)), factor))


@lru_cache(maxsize=None)
def citeseerx_times(
    factor: int, base_records: int = BASE_CITESEERX_RECORDS
) -> tuple[str, ...]:
    """The ``CITESEERX×factor`` workload (standalone; for R-S joins use
    :func:`rs_workload` so shared publications survive the increase)."""
    return tuple(increase_dataset(list(_citeseerx_base(base_records)), factor))


@lru_cache(maxsize=None)
def _rs_shift_order() -> tuple[str, ...]:
    """Token order over the *union* of both base corpora: shifting both
    datasets along one chain keeps their shared publications similar in
    every copy, so the R-S join answer grows with the increase factor."""
    from repro.data.increase import token_shift_order

    return tuple(token_shift_order(list(_dblp_base()) + list(_citeseerx_base())))


@lru_cache(maxsize=None)
def rs_workload(factor: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``DBLP×factor ⋈ CITESEERX×factor`` workload (Figures 12-14)."""
    order = list(_rs_shift_order())
    return (
        tuple(increase_dataset(list(_dblp_base()), factor, order=order)),
        tuple(increase_dataset(list(_citeseerx_base()), factor, order=order)),
    )
