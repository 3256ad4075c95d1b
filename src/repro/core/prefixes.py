"""Record projections, prefixes and routing keys (Stage 2 plumbing).

Stage 2 operates on *record projections* — (RID, ordered join-attribute
tokens) — and replicates each projection under one routing key per
prefix token (individual-token routing) or per distinct prefix-token
*group* (grouped-token routing, Section 3.2 "Using Grouped Tokens").

Token groups are assigned in round-robin order over the global
(ascending-frequency) token ordering, which balances the sum of token
frequencies across groups as described in the paper.  One group per
token is the setting the evaluation found best.  :func:`route_of` is
the only place the assignment is written; every reader of "which route
does this token belong to" goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.similarity import SimilarityFunction

#: Relation tags inside Stage-2 keys and wire values (R sorts before S).
REL_R = 0
REL_S = 1


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


def route_of(num_groups: int | None) -> Callable[[int], int]:
    """The Stage-2 routing decision, stated once: ``rank -> route``.

    ``num_groups=None`` makes every token its own route (individual
    routing, and grouped routing left at one group per token — the same
    plan, the setting the evaluation found best): the route *is* the
    rank.  Otherwise tokens are dealt round-robin over the global
    frequency order, so rank ``r`` lands in group ``r mod num_groups``
    (tokens unknown to the order carry the virtual rank ``len(order)``
    and land in its group).  Callers pass
    :attr:`repro.join.config.JoinConfig.token_groups`.
    """
    if num_groups is None:
        return lambda rank: rank
    if num_groups < 1:
        raise ValueError(f"num_groups must be >= 1, got {num_groups}")
    return lambda rank: rank % num_groups


def routes_of(num_groups: int | None) -> Callable[[Iterable[int]], list[int]]:
    """``ranks -> distinct routes, first-seen order`` under
    :func:`route_of` — the reduce groups a mapper replicates one record
    to.  Per-token routing is a single C-level pass over the ranks and
    returns the rank objects themselves, so every record sent to a route
    holds one shared ``int`` for it (the driver keeps ~3.2 keys per
    record)."""
    if num_groups is None:
        return lambda ranks: list(dict.fromkeys(ranks))
    route = route_of(num_groups)
    return lambda ranks: list(dict.fromkeys(map(route, ranks)))


@dataclass(frozen=True, slots=True)
class Owner:
    """The prefix tokens a Stage-2 group owns, as data: those
    ``route_of(num_groups)`` sends to *route*.  A call asks about one
    token; :class:`repro.core.ppjoin.PPJoinIndex` reads the fields."""

    route: int
    num_groups: int | None = None

    def __call__(self, token: int) -> bool:
        return route_of(self.num_groups)(token) == self.route


def projection_bytes(num_tokens: int, has_signature: bool = False) -> int:
    """Approximate bytes of one resident record projection: the token
    array plus framing, plus one word for the bitmap signature when the
    join ships signatures.  The one per-record byte model — a PK index
    entry (:class:`repro.core.ppjoin.PPJoinIndex` ``live_bytes``) and a
    projection spilled by reduce-based block processing both charge it."""
    return 8 * num_tokens + 32 + (8 if has_signature else 0)
