"""repro — Efficient Parallel Set-Similarity Joins Using MapReduce.

A complete reproduction of Vernica, Carey & Li (SIGMOD 2010): the
three-stage MapReduce set-similarity join pipeline (BTO/OPTO → BK/PK →
BRJ/OPRJ) for self- and R-S joins, the PPJoin+ kernel with its full
filter family, Section-5 block processing for insufficient memory, a
faithful MapReduce runtime with a simulated shared-nothing cluster,
and the synthetic DBLP/CITESEERX workloads with the paper's
dataset-increase technique.

Quickstart::

    from repro import JoinConfig, set_similarity_self_join
    pairs, report = set_similarity_self_join(records, JoinConfig(threshold=0.8))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: every public name resolves on first use, through the subpackage that
#: exports it, so ``python -m repro`` loads only the modules it runs
_LAZY = {
    **dict.fromkeys(
        ("Cosine", "Dice", "Jaccard", "MinHasher", "Overlap",
         "QGramTokenizer", "SimilarityFunction", "TokenOrder", "Tokenizer",
         "WordTokenizer", "get_similarity_function", "minhash_lsh_self_join",
         "naive_rs_join", "naive_self_join", "ppjoin_rs_join",
         "ppjoin_self_join"),
        "repro.core",
    ),
    "Projection": "repro.core.prefixes",
    **dict.fromkeys(
        ("JoinConfig", "JoinReport", "RecordSchema", "set_similarity_rs_join",
         "set_similarity_self_join", "ssjoin_rs", "ssjoin_self"),
        "repro.join",
    ),
    "BlockPolicy": "repro.join.blocks",
    **dict.fromkeys(
        ("ClusterConfig", "InMemoryDFS", "InsufficientMemoryError",
         "LocalDiskDFS", "MapReduceJob", "SimulatedCluster"),
        "repro.mapreduce",
    ),
}


def __getattr__(name: str) -> Any:  # PEP 562: import on first use
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name]), name)


__version__ = "1.0.0"

__all__ = [
    "BlockPolicy",
    "ClusterConfig",
    "Cosine",
    "Dice",
    "InMemoryDFS",
    "InsufficientMemoryError",
    "Jaccard",
    "JoinConfig",
    "JoinReport",
    "LocalDiskDFS",
    "MapReduceJob",
    "MinHasher",
    "Overlap",
    "Projection",
    "QGramTokenizer",
    "RecordSchema",
    "SimilarityFunction",
    "SimulatedCluster",
    "TokenOrder",
    "Tokenizer",
    "WordTokenizer",
    "get_similarity_function",
    "minhash_lsh_self_join",
    "naive_rs_join",
    "naive_self_join",
    "ppjoin_rs_join",
    "ppjoin_self_join",
    "set_similarity_rs_join",
    "set_similarity_self_join",
    "ssjoin_rs",
    "ssjoin_self",
    "__version__",
]
