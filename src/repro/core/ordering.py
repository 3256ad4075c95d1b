"""Global token ordering (Stage 1's product).

The prefix filter requires a *global token ordering*; the paper (and
the literature it follows) orders tokens by increasing frequency so
that prefixes consist of rare tokens, minimizing both candidate pairs
and replication skew (Section 2.3, 3.1).

:class:`TokenOrder` is the in-memory artifact the later stages load:
it maps every token to its rank and can re-order a record's tokens in
global order.  Ties in frequency are broken lexicographically so the
order — and therefore every downstream result — is deterministic.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, Iterator, Mapping

from repro.core.tokenizers import Tokenizer


def count_token_frequencies(
    values: Iterable[str], tokenizer: Tokenizer
) -> Counter[str]:
    """Token → frequency over the join-attribute *values*."""
    counts: Counter[str] = Counter()
    for value in values:
        counts.update(tokenizer.tokenize(value))
    return counts


class TokenOrder:
    """A total order over tokens, ascending by frequency.

    Tokens absent from the order are considered *infinitely frequent*
    (rank beyond every known token) by :meth:`rank`; :meth:`sort_tokens`
    can either keep or drop them — the R-S join drops S-only tokens
    because they cannot produce candidates with R (Section 4, Stage 1).
    """

    def __init__(self, ordered_tokens: Iterable[str]) -> None:
        self._ranks: dict[str, int] = {}
        for rank, token in enumerate(ordered_tokens):
            if token in self._ranks:
                raise ValueError(f"duplicate token in ordering: {token!r}")
            self._ranks[token] = rank

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[str, int]) -> "TokenOrder":
        """Build the ascending-frequency order, ties broken by token."""
        ordered = sorted(frequencies.items(), key=lambda item: (item[1], item[0]))
        return cls(token for token, _count in ordered)

    @classmethod
    def from_values(
        cls, values: Iterable[str], tokenizer: Tokenizer
    ) -> "TokenOrder":
        """Convenience: count frequencies over *values* and build the order."""
        return cls.from_frequencies(count_token_frequencies(values, tokenizer))

    def __len__(self) -> int:
        return len(self._ranks)

    def __contains__(self, token: str) -> bool:
        return token in self._ranks

    def __iter__(self) -> Iterator[str]:
        """Iterate tokens in ascending-frequency order."""
        return iter(sorted(self._ranks, key=self._ranks.__getitem__))

    def rank(self, token: str) -> int:
        """Rank of *token*; unknown tokens rank after all known ones."""
        return self._ranks.get(token, len(self._ranks))

    def sort_tokens(
        self, tokens: Iterable[str], drop_unknown: bool = False
    ) -> list[str]:
        """Return *tokens* sorted by global rank.

        With ``drop_unknown=True`` tokens not in the order are removed —
        used when tokenizing relation S against an order built on R.
        Unknown tokens otherwise sort last (by token text among
        themselves, for determinism).
        """
        if drop_unknown:
            kept = [t for t in tokens if t in self._ranks]
        else:
            kept = list(tokens)
        kept.sort(key=lambda t: (self.rank(t), t))
        return kept

    def encode(
        self, tokens: Iterable[str], unknown: str = "error"
    ) -> tuple[int, ...]:
        """Map *tokens* to their global ranks, sorted ascending.

        Rank-encoded tokens are what the join kernels operate on: with
        integer ids, ascending numeric order *is* the global frequency
        order, so merges, prefix comparisons and the suffix filter all
        agree on one total order.

        ``unknown`` controls tokens absent from the order:

        * ``"error"`` — raise :class:`KeyError` (self-join: the order
          was built on the same data, unknowns indicate a bug);
        * ``"drop"`` — silently discard (R-S join: S-only tokens cannot
          produce candidates with R, Section 4 Stage 1).
        """
        return tuple(self.ranks(tokens, unknown))

    def encode_array(
        self, tokens: Iterable[str], unknown: str = "error"
    ) -> array:
        """Like :meth:`encode` but returns a compact ``array('i')``.

        This is the kernel fast path: a C int array halves the per-token
        memory of a tuple of Python ints and keeps the merge/filter
        inner loops on machine integers.  Slicing and comparisons behave
        exactly like the tuple form.
        """
        return array("i", self.ranks(tokens, unknown))

    def ranks(self, tokens: Iterable[str], unknown: str = "error") -> list[int]:
        """Like :meth:`encode` but returns a list of the order's *own*
        rank ints: a rank shared by many records is one object, so keys
        built from this list allocate no ``int`` per record (iterating
        an ``array('i')`` creates a new one per element)."""
        if unknown not in ("error", "drop"):
            raise ValueError(f"unknown= must be 'error' or 'drop', got {unknown!r}")
        ranks: list[int] = []
        get = self._ranks.get
        for token in tokens:
            rank = get(token)
            if rank is None:
                if unknown == "error":
                    raise KeyError(f"token not in global order: {token!r}")
                continue
            ranks.append(rank)
        ranks.sort()
        return ranks

    def decode(self, ranks: Iterable[int]) -> list[str]:
        """Inverse of :meth:`encode` (rank → token)."""
        by_rank = sorted(self._ranks, key=self._ranks.__getitem__)
        return [by_rank[rank] for rank in ranks]

    def to_lines(self) -> list[str]:
        """Serialize as one token per line, in order (the Stage 1 output
        file format)."""
        return list(self)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "TokenOrder":
        """Inverse of :meth:`to_lines`."""
        return cls(line.rstrip("\n") for line in lines)
