"""Single-node set-similarity machinery.

This subpackage contains everything the paper's MapReduce stages build
on: tokenization, similarity functions with their filter bounds
(prefix, length, positional, suffix), the bitmap-signature filter
(:mod:`repro.core.bitmaps`), the global token ordering, a
PPJoin+ reimplementation used by the indexed kernel (PK), the
All-Pairs baseline, and a brute-force oracle used by the test suite.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: resolved on first use: a join imports the kernel modules it runs,
#: never the baselines (All-Pairs, LSH, the oracle)
_LAZY = {
    **dict.fromkeys(
        ("QGramTokenizer", "Tokenizer", "WordTokenizer", "clean_text"),
        "repro.core.tokenizers",
    ),
    **dict.fromkeys(
        ("Cosine", "Dice", "Jaccard", "Overlap", "SimilarityFunction",
         "get_similarity_function"),
        "repro.core.similarity",
    ),
    **dict.fromkeys(("TokenOrder", "count_token_frequencies"), "repro.core.ordering"),
    **dict.fromkeys(("overlap", "verify_pair"), "repro.core.verification"),
    **dict.fromkeys(("bitmap_signature", "overlap_upper_bound"), "repro.core.bitmaps"),
    **dict.fromkeys(
        ("length_bounds", "positional_filter_passes", "suffix_filter_passes"),
        "repro.core.filters",
    ),
    **dict.fromkeys(
        ("PPJoinIndex", "ppjoin_rs_join", "ppjoin_self_join"), "repro.core.ppjoin"
    ),
    **dict.fromkeys(
        ("MinHasher", "candidate_probability", "minhash_lsh_self_join"),
        "repro.core.lsh",
    ),
    "allpairs_self_join": "repro.core.allpairs",
    **dict.fromkeys(("naive_rs_join", "naive_self_join"), "repro.core.naive"),
}
#: package names that differ from the defining module's
_RENAMED = {"bitmap_signature": "signature"}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), _RENAMED.get(name, name))


__all__ = [
    "Cosine",
    "Dice",
    "Jaccard",
    "MinHasher",
    "Overlap",
    "PPJoinIndex",
    "QGramTokenizer",
    "SimilarityFunction",
    "TokenOrder",
    "Tokenizer",
    "WordTokenizer",
    "allpairs_self_join",
    "bitmap_signature",
    "candidate_probability",
    "clean_text",
    "count_token_frequencies",
    "get_similarity_function",
    "length_bounds",
    "minhash_lsh_self_join",
    "naive_rs_join",
    "naive_self_join",
    "overlap",
    "overlap_upper_bound",
    "positional_filter_passes",
    "ppjoin_rs_join",
    "ppjoin_self_join",
    "suffix_filter_passes",
    "verify_pair",
]
