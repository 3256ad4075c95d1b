"""Tokenizers mapping strings to token sequences.

The paper maps strings into sets by tokenizing them (Section 2):
words or q-grams.  The evaluation tokenizes by word and performs data
cleaning *inside* the algorithms (lower-casing, punctuation removal),
so cleaning lives here as well — and since Stages 1 and 2 each scan
and tokenize the complete input, it runs twice per record and has to
be cheap.

Cleaning has one definition: ``lower()``, then every run of characters
outside ``[a-z0-9]`` becomes one space.  ASCII text (``str.isascii()``)
gets it from a single table ``translate``, no regex.  Other text keeps
``lower()`` plus the regex, because lower-casing can turn a non-ASCII
character into ASCII letters (U+0130, the dotted capital I, becomes
``i`` and a combining dot; U+212A, the Kelvin sign, becomes ``k``) and
no per-character table says that cheaply.

Tokens are plain strings.  Duplicate tokens within one value are
disambiguated with an occurrence suffix (``token``, ``token#2``, ...)
so that a string maps to a proper *set*; this is the standard
bag-to-set widening used by the set-similarity join literature and
keeps Jaccard well-defined on repeated words.  A widened name never
takes the name of a token the value itself contains: the suffix is
bumped until the name is free (``a a a#2`` widens to ``a a#3 a#2``),
which only uncleaned input can need — cleaning strips ``#``.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

_CLEAN_RE = re.compile(r"[^a-z0-9 ]+")
#: the ASCII cleaning table, indexed by code point: letters to lower
#: case, digits kept, everything else to a space (bytes.translate wants
#: 256 entries; ASCII text reaches the first 128)
_ASCII_CLEAN = bytes(
    ord(chr(c).lower()) if chr(c).isalnum() else 32 for c in range(128)
).ljust(256)


def _clean_words(text: str) -> list[str]:
    """The words of ``clean_text(text)``, as a fresh list."""
    if text.isascii():
        # via bytes: bytes.translate is a bare table loop, where
        # str.translate asks the mapping for each distinct character
        return text.encode().translate(_ASCII_CLEAN).decode().split()
    return _CLEAN_RE.sub(" ", text.lower()).split()


def clean_text(text: str) -> str:
    """Lower-case *text* and strip punctuation, collapsing whitespace.

    Mirrors the cleaning the paper applies inside its algorithms
    ("we did the cleaning inside our algorithms", Section 6).
    """
    return " ".join(_clean_words(text))


def _widen_duplicates(tokens: list[str]) -> list[str]:
    """Rename repeated tokens, in place, so *tokens* is duplicate-free.

    The first occurrence keeps its name; the k-th occurrence becomes
    ``token#k``, or the next ``token#k+1, ...`` that no token of the
    value is named.  Order is preserved.
    """
    taken = set(tokens)
    repeats = len(tokens) - len(taken)
    if not repeats:
        return tokens
    counts: dict[str, int] = {}
    for position, token in enumerate(tokens):
        if token in counts:
            count = counts[token] + 1
            while (name := f"{token}#{count}") in taken:
                count += 1
            counts[token] = count
            tokens[position] = name
            repeats -= 1
            if not repeats:  # the common case: one repeat, met early
                break
        else:
            counts[token] = 1
    return tokens


class Tokenizer(ABC):
    """Maps a string to a duplicate-free list of tokens."""

    #: Whether :meth:`tokenize` cleans its input first.
    clean: bool

    def __init__(self, clean: bool = True) -> None:
        self.clean = clean

    @abstractmethod
    def _raw_tokens(self, text: str) -> list[str]:
        """Split *text* into a fresh list of raw (possibly duplicated)
        tokens."""

    def tokenize(self, text: str) -> list[str]:
        """Return the duplicate-free token list for *text*."""
        if self.clean:
            text = clean_text(text)
        return _widen_duplicates(self._raw_tokens(text))

    def tokenize_set(self, text: str) -> frozenset[str]:
        """Return the token *set* for *text*."""
        return frozenset(self.tokenize(text))


class WordTokenizer(Tokenizer):
    """Whitespace word tokenizer — the tokenizer used in the paper's
    evaluation (Section 6: "we tokenized the data by word")."""

    def _raw_tokens(self, text: str) -> list[str]:
        return text.split()

    def tokenize(self, text: str) -> list[str]:
        # cleaning already yields the words: do not join and re-split
        words = _clean_words(text) if self.clean else text.split()
        return _widen_duplicates(words)

    def __repr__(self) -> str:
        return f"WordTokenizer(clean={self.clean})"


class QGramTokenizer(Tokenizer):
    """Overlapping fixed-length substring (q-gram) tokenizer.

    The string is padded with ``q - 1`` copies of *pad* on each side so
    that every character participates in exactly *q* grams, the usual
    convention for edit-distance-style filtering.
    """

    def __init__(self, q: int = 3, pad: str = "$", clean: bool = True) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if len(pad) != 1:
            raise ValueError(f"pad must be a single character, got {pad!r}")
        super().__init__(clean=clean)
        self.q = q
        self.pad = pad

    def _raw_tokens(self, text: str) -> list[str]:
        if not text:
            return []
        if self.q == 1:
            return list(text)
        padded = self.pad * (self.q - 1) + text + self.pad * (self.q - 1)
        return [padded[i : i + self.q] for i in range(len(padded) - self.q + 1)]

    def __repr__(self) -> str:
        return f"QGramTokenizer(q={self.q}, pad={self.pad!r}, clean={self.clean})"
