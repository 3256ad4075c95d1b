"""Candidate-pair verification.

Verification computes the exact overlap of two globally-ordered token
lists by merging them, with two early exits:

* success — once the running overlap reaches the required ``α``
  the pair is known to qualify even before the merge finishes, but we
  keep merging to report the exact similarity (the paper outputs the
  similarity value with each RID pair);
* failure — if even matching the entire remainder of the shorter list
  cannot reach ``α``, abort.

Both sides must be sorted under the *same* total order; any consistent
order works, so verification sorts by token text when called with
unsorted sets.  The merge is element-type generic: rank-encoded
``array('i')`` / ``tuple[int]`` (integer compares, the fast path) and
lexicographically sorted ``tuple[str]`` behave identically.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.similarity import SimilarityFunction


def overlap(x: Sequence, y: Sequence, required: int = 1) -> int:
    """Exact overlap of two same-order-sorted token sequences.

    Returns the true ``|x ∩ y|``; short-circuits to the partial count
    as soon as the bound proves ``required`` is unreachable (the result
    is then guaranteed to be ``< required``).
    """
    i = j = count = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        remaining = min(nx - i, ny - j)
        if count + remaining < required:
            return count
        if x[i] == y[j]:
            count += 1
            i += 1
            j += 1
        elif x[i] < y[j]:
            i += 1
        else:
            j += 1
    return count


def verify_pair(
    x: Sequence,
    y: Sequence,
    sim: SimilarityFunction,
    threshold: float,
    presorted: bool = False,
) -> float | None:
    """Verify one candidate pair.

    Returns the exact similarity if ``sim(x, y) >= threshold``, else
    ``None``.  With ``presorted=True`` the inputs are trusted to share
    a total order; otherwise they are sorted lexicographically first.
    """
    nx, ny = len(x), len(y)
    if nx == 0 or ny == 0:
        return None
    if not presorted:
        x = sorted(x)
        y = sorted(y)
    alpha = sim.overlap_threshold(nx, ny, threshold)
    common = overlap(x, y, required=alpha)
    if common < alpha or not sim.accepts_overlap(nx, ny, common, threshold):
        return None
    return sim.similarity_from_overlap(nx, ny, common)
