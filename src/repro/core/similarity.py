"""Set-similarity functions and their filter bounds.

Each similarity function knows, for a threshold ``t``:

* ``similarity(x, y)`` — the similarity of two token sets;
* ``overlap_threshold(nx, ny, t)`` — the minimum overlap ``α`` two sets
  of sizes ``nx`` and ``ny`` must share to reach similarity ``t``;
* ``prefix_length(n, t)`` — the probing-prefix length used by the
  prefix filter (Chaudhuri et al. '06): two similar sets must share at
  least one token among the first ``prefix_length`` tokens of their
  globally-ordered token lists;
* ``index_prefix_length(n, t)`` — the (possibly shorter) prefix that is
  sufficient for the *indexed* side of a length-sorted self-join
  (the "mid-prefix" optimization of PPJoin);
* ``length_bounds(n, t)`` — the length-filter interval: only sets whose
  size falls in ``[lo, hi]`` can be similar to a set of size ``n``
  (Arasu et al. '06).

The classes are stateless; :func:`bounds_for` wraps one ``(function,
threshold)`` in a :class:`Bounds` memo so that kernels, which ask per
record or per candidate, compute each integer once.

All bounds are exact (no false negatives) for duplicate-free token
sets.  The floating-point ``ceil``/``floor`` helpers guard against
representation noise such as ``0.8 * 5 == 4.000000000000001``.

The empty set is defined to have similarity 0 with everything
(including another empty set): records with no tokens generate no
signatures and therefore can never appear in a join result, and the
library is consistent about that from the oracle down to the kernels.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Any, Callable, Collection

_EPS = 1e-9


def _ceil(value: float) -> int:
    """``math.ceil`` robust to float noise just above an integer."""
    return math.ceil(value - _EPS)


def _floor(value: float) -> int:
    """``math.floor`` robust to float noise just below an integer."""
    return math.floor(value + _EPS)


class SimilarityFunction(ABC):
    """A set-similarity function together with its filter bounds.

    Instances are stateless; the similarity threshold is passed to each
    bound method so one instance can serve any number of joins.
    """

    #: Short registry name, e.g. ``"jaccard"``.
    name: str = ""
    #: Largest threshold any pair can reach; a join above it is empty.
    max_threshold: float = 1.0

    @abstractmethod
    def similarity(self, x: Collection[str], y: Collection[str]) -> float:
        """Similarity of token collections *x* and *y* (set semantics)."""

    @abstractmethod
    def overlap_threshold(self, nx: int, ny: int, threshold: float) -> int:
        """Minimum ``|x ∩ y|`` for sets of sizes *nx*, *ny* to reach
        *threshold*.  Always at least 1 for a positive threshold."""

    @abstractmethod
    def length_bounds(self, n: int, threshold: float) -> tuple[int, int]:
        """Inclusive ``(lo, hi)`` size interval of possible join partners
        for a set of size *n*."""

    @abstractmethod
    def similarity_from_overlap(self, nx: int, ny: int, overlap: int) -> float:
        """Similarity of sets of sizes *nx*, *ny* sharing *overlap*
        tokens — lets verification avoid re-intersecting sets."""

    def accepts_overlap(
        self, nx: int, ny: int, overlap: int, threshold: float
    ) -> bool:
        """Whether an exact overlap count satisfies the join predicate.

        The default — similarity derived from the overlap reaches the
        threshold — is exact for all true similarity functions here.
        Filter-style pseudo-similarities (e.g. the edit-distance
        q-gram count filter) override this with their own acceptance
        rule, since their "similarity" is not on the threshold's scale.
        """
        return self.similarity_from_overlap(nx, ny, overlap) >= threshold

    def prefix_length(self, n: int, threshold: float) -> int:
        """Probing-prefix length for a set of size *n*.

        Derived from the pigeonhole principle: a set must share a token
        with any similar set within its first
        ``n - min_overlap_with_smallest_partner + 1`` tokens.  The
        generic form uses the overlap needed against the largest
        possible partner of the same size, which for all functions here
        simplifies to ``n - α(n, n_lo) + 1`` with ``n_lo`` the length
        lower bound; concrete classes override with the closed form.
        """
        if n <= 0:
            return 0
        alpha = self.overlap_threshold(n, n, threshold)
        return max(0, min(n, n - alpha + 1))

    def index_prefix_length(self, n: int, threshold: float) -> int:
        """Prefix length sufficient for the indexed side of a
        length-ascending self-join.  Defaults to the (safe) probing
        prefix; subclasses with a proven shorter mid-prefix override."""
        return self.prefix_length(n, threshold)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _set_overlap(x: Collection[str], y: Collection[str]) -> int:
    sx = x if isinstance(x, (set, frozenset)) else set(x)
    sy = y if isinstance(y, (set, frozenset)) else set(y)
    if len(sx) > len(sy):
        sx, sy = sy, sx
    return sum(1 for token in sx if token in sy)


class Jaccard(SimilarityFunction):
    """Jaccard coefficient ``|x ∩ y| / |x ∪ y|`` — the function used in
    the paper's evaluation (τ = 0.8)."""

    name = "jaccard"

    def similarity(self, x: Collection[str], y: Collection[str]) -> float:
        if not x or not y:
            return 0.0
        inter = _set_overlap(x, y)
        union = len(set(x)) + len(set(y)) - inter
        return inter / union

    def overlap_threshold(self, nx: int, ny: int, threshold: float) -> int:
        return max(1, _ceil(threshold / (1.0 + threshold) * (nx + ny)))

    def length_bounds(self, n: int, threshold: float) -> tuple[int, int]:
        if n <= 0:
            return (0, 0)
        return (max(1, _ceil(threshold * n)), _floor(n / threshold))

    def similarity_from_overlap(self, nx: int, ny: int, overlap: int) -> float:
        if nx == 0 or ny == 0 or overlap <= 0:
            return 0.0
        return overlap / (nx + ny - overlap)

    def prefix_length(self, n: int, threshold: float) -> int:
        if n <= 0:
            return 0
        return min(n, n - _ceil(threshold * n) + 1)

    def index_prefix_length(self, n: int, threshold: float) -> int:
        if n <= 0:
            return 0
        return min(n, n - _ceil(2.0 * threshold / (1.0 + threshold) * n) + 1)


class Cosine(SimilarityFunction):
    """Cosine coefficient on sets: ``|x ∩ y| / sqrt(|x| · |y|)``."""

    name = "cosine"

    def similarity(self, x: Collection[str], y: Collection[str]) -> float:
        if not x or not y:
            return 0.0
        inter = _set_overlap(x, y)
        return inter / math.sqrt(len(set(x)) * len(set(y)))

    def overlap_threshold(self, nx: int, ny: int, threshold: float) -> int:
        return max(1, _ceil(threshold * math.sqrt(nx * ny)))

    def length_bounds(self, n: int, threshold: float) -> tuple[int, int]:
        if n <= 0:
            return (0, 0)
        t2 = threshold * threshold
        return (max(1, _ceil(t2 * n)), _floor(n / t2))

    def similarity_from_overlap(self, nx: int, ny: int, overlap: int) -> float:
        if nx == 0 or ny == 0 or overlap <= 0:
            return 0.0
        return overlap / math.sqrt(nx * ny)

    def prefix_length(self, n: int, threshold: float) -> int:
        if n <= 0:
            return 0
        return min(n, n - _ceil(threshold * threshold * n) + 1)


class Dice(SimilarityFunction):
    """Dice coefficient ``2 |x ∩ y| / (|x| + |y|)``."""

    name = "dice"

    def similarity(self, x: Collection[str], y: Collection[str]) -> float:
        if not x or not y:
            return 0.0
        inter = _set_overlap(x, y)
        return 2.0 * inter / (len(set(x)) + len(set(y)))

    def overlap_threshold(self, nx: int, ny: int, threshold: float) -> int:
        return max(1, _ceil(threshold / 2.0 * (nx + ny)))

    def length_bounds(self, n: int, threshold: float) -> tuple[int, int]:
        if n <= 0:
            return (0, 0)
        return (
            max(1, _ceil(threshold / (2.0 - threshold) * n)),
            _floor((2.0 - threshold) / threshold * n),
        )

    def similarity_from_overlap(self, nx: int, ny: int, overlap: int) -> float:
        if nx == 0 or ny == 0 or overlap <= 0:
            return 0.0
        return 2.0 * overlap / (nx + ny)

    def prefix_length(self, n: int, threshold: float) -> int:
        if n <= 0:
            return 0
        return min(n, n - _ceil(threshold / (2.0 - threshold) * n) + 1)


class Overlap(SimilarityFunction):
    """Absolute overlap ``|x ∩ y|``; the threshold is an integer count.

    This is the classic T-overlap join (Sarawagi & Kirpal '04).  The
    length filter degenerates to ``size >= threshold``.
    """

    name = "overlap"
    max_threshold = math.inf

    def similarity(self, x: Collection[str], y: Collection[str]) -> float:
        if not x or not y:
            return 0.0
        return float(_set_overlap(x, y))

    def overlap_threshold(self, nx: int, ny: int, threshold: float) -> int:
        return max(1, _ceil(threshold))

    def length_bounds(self, n: int, threshold: float) -> tuple[int, int]:
        if n <= 0:
            return (0, 0)
        alpha = max(1, _ceil(threshold))
        return (alpha, 10**9)

    def similarity_from_overlap(self, nx: int, ny: int, overlap: int) -> float:
        if nx == 0 or ny == 0 or overlap <= 0:
            return 0.0
        return float(overlap)

    def prefix_length(self, n: int, threshold: float) -> int:
        if n <= 0:
            return 0
        alpha = max(1, _ceil(threshold))
        return max(0, min(n, n - alpha + 1))


_REGISTRY: dict[str, SimilarityFunction] = {
    fn.name: fn for fn in (Jaccard(), Cosine(), Dice(), Overlap())
}


class _Memo(dict):  # type: ignore[type-arg]
    """``memo[key]`` calls ``compute(key)`` on the first lookup and is a
    C-speed ``dict`` hit on every later one."""

    def __init__(self, compute: Callable[[Any], Any]) -> None:
        self._compute = compute

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._compute(key)
        return value


class Bounds:
    """The integer filter bounds of one ``(sim, threshold)``, each
    computed once: ``alpha[nx, ny]`` (and its rows, ``alpha_row[nx][ny]``
    — a probe fixes ``nx``), ``length_bounds[n]``, ``prefix_length[n]``
    and ``index_prefix_length[n]`` hold exactly what the method of the
    same name returns (a miss *calls* it)."""

    def __init__(self, sim: SimilarityFunction, threshold: float) -> None:
        self.alpha_row = _Memo(
            lambda nx: _Memo(lambda ny: sim.overlap_threshold(nx, ny, threshold))
        )
        self.alpha = _Memo(lambda n: self.alpha_row[n[0]][n[1]])
        self.length_bounds = _Memo(lambda n: sim.length_bounds(n, threshold))
        self.prefix_length = _Memo(lambda n: sim.prefix_length(n, threshold))
        self.index_prefix_length = _Memo(lambda n: sim.index_prefix_length(n, threshold))


@lru_cache(maxsize=64)
def bounds_for(sim: SimilarityFunction, threshold: float) -> Bounds:
    """The process-wide :class:`Bounds` memo of ``(sim, threshold)``."""
    return Bounds(sim, threshold)


def get_similarity_function(name: str) -> SimilarityFunction:
    """Look up a similarity function by registry name.

    >>> get_similarity_function("jaccard").name
    'jaccard'
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown similarity function {name!r}; known: {known}") from None
