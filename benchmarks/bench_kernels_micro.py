"""Kernel micro-benchmark — single-node join algorithms and encodings.

Not a paper figure; quantifies the filter stack the PK kernel builds
on (brute force vs All-Pairs vs PPJoin vs PPJoin+) plus the two token
encodings the kernels accept: lexicographically sorted string tuples
(the seed's representation) vs frequency-rank ``array('i')`` (the
integer fast path, today's default).  Every variant is checked against
the brute-force oracle, so the file is also a correctness test under
``--benchmark-disable``; end-to-end performance is measured by
``benchmarks/wall`` (``core.ppjoin_s`` is this kernel inside a join).
"""

from functools import lru_cache

import pytest

from repro.bench import dblp_times
from repro.core.allpairs import allpairs_self_join
from repro.core.bitmaps import signature as bitmap_signature
from repro.core.naive import naive_self_join
from repro.core.ordering import TokenOrder, count_token_frequencies
from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.core.tokenizers import WordTokenizer
from repro.join.records import RecordSchema, join_value, rid_of

NUM_RECORDS = 600  # brute force is O(n^2); keep the oracle affordable
BITMAP_WIDTH = 64


def projections(records, encoding="rank"):
    schema = RecordSchema()
    tokenizer = WordTokenizer()
    values = [join_value(line, schema) for line in records]
    order = TokenOrder.from_frequencies(count_token_frequencies(values, tokenizer))
    # the kernel is order-generic: "string" feeds it lexicographically
    # sorted raw tokens, the frequency ranks' differential baseline
    encode = order.encode_array if encoding == "rank" else lambda toks: tuple(sorted(toks))
    return [
        Projection(rid_of(line), encode(tokenizer.tokenize(value)))
        for line, value in zip(records, values)
    ]


def with_signatures(projs, width=BITMAP_WIDTH):
    """Copies carrying precomputed bitmap signatures — mirroring the
    Stage-2 mappers, which compute each record's signature once."""
    return [
        Projection(p.rid, p.tokens, bitmap_signature(p.tokens, width)) for p in projs
    ]


RECORDS = list(dblp_times(1))[:NUM_RECORDS]
PROJS = projections(RECORDS)
SPROJS = projections(RECORDS, encoding="string")
SIM = Jaccard()

KERNELS = {
    "naive": lambda: naive_self_join(PROJS, SIM, 0.8),
    "allpairs": lambda: allpairs_self_join(PROJS, SIM, 0.8),
    "ppjoin": lambda: ppjoin_self_join(PROJS, SIM, 0.8, use_suffix=False),
    "ppjoin+": lambda: ppjoin_self_join(PROJS, SIM, 0.8),
}

# string-token vs rank-encoded verification: the same PPJoin+ kernel,
# fed each encoding — identical RID pairs, different compare costs.
ENCODINGS = {
    "rank": lambda: ppjoin_self_join(PROJS, SIM, 0.8),
    "string": lambda: ppjoin_self_join(SPROJS, SIM, 0.8),
}

# bitmap-signature pruning on vs off — "on" matches the PK kernel's
# shipped configuration (bitmap bound replacing the suffix filter);
# both must reproduce the naive oracle exactly (admissible filter).
BPROJS = with_signatures(PROJS)
BITMAP = {
    "bitmap_off": lambda: ppjoin_self_join(PROJS, SIM, 0.8),
    "bitmap_on": lambda: ppjoin_self_join(
        BPROJS, SIM, 0.8, use_suffix=False, bitmap_width=BITMAP_WIDTH
    ),
}


@lru_cache(maxsize=1)
def reference_pairs() -> frozenset:
    return frozenset(tuple(p[:2]) for p in KERNELS["naive"]())


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_kernel_micro(benchmark, kernel):
    result = benchmark.pedantic(KERNELS[kernel], rounds=3, iterations=1)
    assert {tuple(p[:2]) for p in result} == reference_pairs()


@pytest.mark.parametrize("encoding", list(ENCODINGS))
def test_encoding_micro(benchmark, encoding):
    result = benchmark.pedantic(ENCODINGS[encoding], rounds=3, iterations=1)
    assert {tuple(p[:2]) for p in result} == reference_pairs()


@pytest.mark.parametrize("variant", list(BITMAP))
def test_bitmap_micro(benchmark, variant):
    result = benchmark.pedantic(BITMAP[variant], rounds=3, iterations=1)
    assert {tuple(p[:2]) for p in result} == reference_pairs()
