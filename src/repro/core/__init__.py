"""Single-node set-similarity machinery.

This subpackage contains everything the paper's MapReduce stages build
on: tokenization, similarity functions with their filter bounds
(prefix, length, positional, suffix), the bitmap-signature filter
(:mod:`repro.core.bitmaps`), the global token ordering, a
PPJoin+ reimplementation used by the indexed kernel (PK), the
All-Pairs baseline, and a brute-force oracle used by the test suite.
"""

from __future__ import annotations

from repro.core.tokenizers import (
    Tokenizer,
    WordTokenizer,
    QGramTokenizer,
    clean_text,
)
from repro.core.similarity import (
    SimilarityFunction,
    Jaccard,
    Cosine,
    Dice,
    Overlap,
    get_similarity_function,
)
from repro.core.ordering import TokenOrder, count_token_frequencies
from repro.core.verification import overlap, verify_pair
from repro.core.bitmaps import overlap_upper_bound, signature as bitmap_signature
from repro.core.filters import (
    length_bounds,
    positional_filter_passes,
    suffix_filter_passes,
)
from repro.core.ppjoin import PPJoinIndex, ppjoin_self_join, ppjoin_rs_join
from repro.core.editdist import (
    EditDistanceQGrams,
    edit_distance_self_join,
    levenshtein,
)
from repro.core.lsh import MinHasher, candidate_probability, minhash_lsh_self_join
from repro.core.allpairs import allpairs_self_join
from repro.core.naive import naive_self_join, naive_rs_join

__all__ = [
    "Cosine",
    "Dice",
    "EditDistanceQGrams",
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
    "edit_distance_self_join",
    "get_similarity_function",
    "length_bounds",
    "levenshtein",
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
