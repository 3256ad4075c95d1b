"""Record projections, prefixes and routing keys (Stage 2 plumbing).

Stage 2 operates on *record projections* — (RID, ordered join-attribute
tokens) — and replicates each projection under one routing key per
prefix token (individual-token routing) or per distinct prefix-token
*group* (grouped-token routing, Section 3.2 "Using Grouped Tokens").

Token groups are assigned in round-robin order over the global
(ascending-frequency) token ordering, which balances the sum of token
frequencies across groups as described in the paper.  ``num_groups``
equal to the dictionary size degenerates to one group per token — the
setting the evaluation found best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.ordering import TokenOrder
from repro.core.similarity import SimilarityFunction


@dataclass(frozen=True, slots=True)
class Projection:
    """A record projected on its RID and globally-ordered token array.

    ``tokens`` are normally global token *ranks* sorted ascending (see
    :meth:`repro.core.ordering.TokenOrder.encode` /
    :meth:`~repro.core.ordering.TokenOrder.encode_array`), so ascending
    numeric order is the global frequency order and ``len(tokens)`` is
    the set size used by all filters.  Any sequence sorted under a
    consistent total order works — the kernels only slice, measure and
    compare, so ``tuple[int]``, ``array('i')`` and lexicographically
    sorted ``tuple[str]`` are all valid and produce identical RID pairs.

    ``signature`` optionally carries the record's bitmap signature
    (:func:`repro.core.bitmaps.signature`), computed once and consulted
    by the kernels' bitmap filter; ``None`` lets the kernel compute (or
    skip) it as configured.
    """

    rid: int
    tokens: Sequence[int] | Sequence[str]
    signature: int | None = None

    @property
    def size(self) -> int:
        return len(self.tokens)


def probe_prefix(
    tokens: Sequence,
    sim: SimilarityFunction,
    threshold: float,
) -> tuple:
    """The probing prefix of a globally-ordered token array."""
    return tuple(tokens[: sim.prefix_length(len(tokens), threshold)])


def index_prefix(
    tokens: Sequence,
    sim: SimilarityFunction,
    threshold: float,
) -> tuple:
    """The (mid-)prefix sufficient for the indexed side of a
    length-ascending self-join."""
    return tuple(tokens[: sim.index_prefix_length(len(tokens), threshold)])


class TokenGrouping:
    """Round-robin assignment of tokens to ``num_groups`` groups.

    Token with global rank ``r`` lands in group ``r % num_groups``;
    tokens unknown to the order land in the group of the virtual rank
    ``len(order)``.  With one group per token the group id *is* the
    token rank.
    """

    def __init__(self, order: TokenOrder, num_groups: int) -> None:
        if num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {num_groups}")
        self._order = order
        self.num_groups = num_groups

    @classmethod
    def one_group_per_token(cls, order: TokenOrder) -> "TokenGrouping":
        """The paper's best-performing configuration."""
        return cls(order, max(1, len(order)))

    def group_of(self, token: str) -> int:
        """Group id of a token given by name."""
        return self._order.rank(token) % self.num_groups

    def group_of_rank(self, rank: int) -> int:
        """Group id of a rank-encoded token."""
        return rank % self.num_groups

    def groups_of_ranks(self, ranks: Iterable[int]) -> list[int]:
        """Distinct group ids of rank-encoded *ranks*, in first-seen order."""
        seen: list[int] = []
        for rank in ranks:
            group = rank % self.num_groups
            if group not in seen:
                seen.append(group)
        return seen
