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

from repro.core import (
    Cosine,
    EditDistanceQGrams,
    edit_distance_self_join,
    levenshtein,
    Dice,
    Jaccard,
    Overlap,
    QGramTokenizer,
    SimilarityFunction,
    TokenOrder,
    Tokenizer,
    WordTokenizer,
    get_similarity_function,
    naive_rs_join,
    naive_self_join,
    ppjoin_rs_join,
    ppjoin_self_join,
)
from repro.core.prefixes import Projection
from repro.join import (
    JoinConfig,
    JoinReport,
    RecordSchema,
    set_similarity_rs_join,
    set_similarity_self_join,
    ssjoin_rs,
    ssjoin_self,
)
from repro.join.blocks import BlockPolicy
from repro.core.lsh import MinHasher, minhash_lsh_self_join
from repro.mapreduce import (
    ClusterConfig,
    InMemoryDFS,
    InsufficientMemoryError,
    LocalDiskDFS,
    MapReduceJob,
    SimulatedCluster,
)

__version__ = "1.0.0"

__all__ = [
    "BlockPolicy",
    "ClusterConfig",
    "Cosine",
    "Dice",
    "EditDistanceQGrams",
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
    "edit_distance_self_join",
    "get_similarity_function",
    "levenshtein",
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
