"""Stage 1 — token ordering (Section 3.1).

Both algorithms consume the original record file(s) and produce the
DFS file ``<output>`` holding one token per line in ascending
frequency order (the global token ordering the prefix filter needs).

* **BTO** (Basic Token Ordering) — two MapReduce phases: phase one
  counts token frequencies (map tokenizes, combine pre-aggregates,
  reduce totals); phase two swaps (token, count) to (count, token) and
  sorts through a single reducer, producing the totally ordered list.
* **OPTO** (One-Phase Token Ordering) — one phase: the same counting
  map/combine feeds a *single* reducer that accumulates total counts
  in memory and sorts them in its tear-down hook, trading the second
  phase for a serial in-memory sort.

Ties in frequency are broken by token text, making the order — and
every downstream stage — deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.mapreduce.job import Context, MapReduceJob
from repro.join.config import JoinConfig
from repro.join.records import join_value


def _make_token_count_mapper(config: JoinConfig) -> Callable[[str, Context], None]:
    """Tokenize the join attribute and emit ``(token, 1)``."""
    tokenizer, schema = config.tokenizer, config.schema

    def mapper(line: str, ctx: Context) -> None:
        for token in tokenizer.tokenize(join_value(line, schema)):
            ctx.emit(token, 1)

    return mapper


def _count_combiner(token: str, counts: list, ctx: Context) -> None:
    ctx.emit(token, sum(counts))


def bto_jobs(
    config: JoinConfig,
    inputs: list[str],
    output: str,
    num_reducers: int,
) -> list[MapReduceJob]:
    """The two BTO jobs: count then sort."""
    counts_file = output + ".counts"

    def count_reducer(token: str, counts: Iterator, ctx: Context) -> None:
        total = sum(counts)
        ctx.observe("stage1.token_frequency", total)
        ctx.write((token, total))

    count_job = MapReduceJob(
        name="bto-count",
        inputs=inputs,
        output=counts_file,
        mapper=_make_token_count_mapper(config),
        combiner=_count_combiner,
        reducer=count_reducer,
        num_reducers=num_reducers,
    )

    def swap_mapper(record: tuple, ctx: Context) -> None:
        token, count = record
        ctx.emit((count, token), None)

    def sort_reducer(key: tuple, values: Iterator, ctx: Context) -> None:
        _count, token = key
        for _ in values:
            ctx.write(token)

    sort_job = MapReduceJob(
        name="bto-sort",
        inputs=[counts_file],
        output=output,
        mapper=swap_mapper,
        reducer=sort_reducer,
        num_reducers=1,  # a total order requires a single reducer
    )
    return [count_job, sort_job]


def opto_jobs(
    config: JoinConfig,
    inputs: list[str],
    output: str,
) -> list[MapReduceJob]:
    """The single OPTO job: count into one reducer, sort at tear-down."""

    def reduce_setup(ctx: Context) -> None:
        ctx.token_counts = {}
        ctx.token_counts_bytes = 0

    def reducer(token: str, counts: Iterator, ctx: Context) -> None:
        total = sum(counts)
        ctx.observe("stage1.token_frequency", total)
        ctx.token_counts[token] = ctx.token_counts.get(token, 0) + total
        ctx.token_counts_bytes += len(token) + 16
        ctx.hold("OPTO token counts", ctx.token_counts_bytes)

    def reduce_teardown(ctx: Context) -> None:
        ordered = sorted(ctx.token_counts.items(), key=lambda kv: (kv[1], kv[0]))
        for token, _count in ordered:
            ctx.write(token)

    return [
        MapReduceJob(
            name="opto",
            inputs=inputs,
            output=output,
            mapper=_make_token_count_mapper(config),
            combiner=_count_combiner,
            reducer=reducer,
            num_reducers=1,
            reduce_setup=reduce_setup,
            reduce_teardown=reduce_teardown,
        )
    ]


def stage1_jobs(
    config: JoinConfig,
    inputs: list[str],
    output: str,
    num_reducers: int,
) -> list[MapReduceJob]:
    """Build the Stage 1 jobs selected by ``config.stage1``."""
    if config.stage1 == "bto":
        return bto_jobs(config, inputs, output, num_reducers)
    return opto_jobs(config, inputs, output)
