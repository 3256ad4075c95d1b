"""Replay probes: one layer's public function timed in isolation over
the data of the traced run.  Requires ``src`` on ``sys.path``.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.core.ordering import TokenOrder
from repro.core.ppjoin import PPJoinIndex
from repro.core.prefixes import Projection
from repro.join.records import join_value, rid_of
from repro.mapreduce.cluster import execute_map_task
from repro.mapreduce.types import approx_bytes

from layers import JoinRun


def accounting(run: JoinRun) -> float:
    """Seconds of one ``approx_bytes`` walk over every shuffled
    ``(key, value)`` and every output record of every job of the run.

    Each job's map side is replayed with ``execute_map_task`` over the
    blocks still in the run's DFS; only the walk is timed.  This is the
    unit cost of sizing the run's data once — the runtime may size a
    record more than once (see README).
    """
    dfs = run.cluster.dfs
    slots = run.cluster.config.map_slots
    seconds = 0.0
    for job in run.jobs:
        broadcast = {name: dfs.read_all(name) for name in job.broadcast}
        shuffled = []
        task_id = 0
        for name in job.inputs:
            for block in dfs.file(name).blocks:
                _stats, partitioned, _counters = execute_map_task(
                    job, task_id, name, block.records, broadcast, 0, 0.0, None, slots
                )
                shuffled.append(partitioned)
                task_id += 1
        output = dfs.read_all(job.output)
        sized = 0
        start = time.perf_counter()
        for partitioned in shuffled:
            for _partition, key, value in partitioned:
                sized += approx_bytes((key, value))
        for record in output:
            sized += approx_bytes(record)
        seconds += time.perf_counter() - start
    return seconds


def tokenize(run: JoinRun) -> tuple[float, list[list[list[str]]]]:
    """Seconds of ``join_value`` + the config's tokenizer over every
    input record, and the token lists per relation."""
    config = run.config
    start = time.perf_counter()
    tokens = [
        [config.tokenizer.tokenize(join_value(line, config.schema)) for line in lines]
        for lines in run.inputs
    ]
    return time.perf_counter() - start, tokens


def encode(run: JoinRun, tokens: list[list[list[str]]]) -> tuple[float, list[list[Projection]]]:
    """Seconds of building the global token order from R's frequencies
    and encoding every record into a :class:`Projection` (S-only tokens
    are dropped, as Stage 2 does; :func:`ppjoin` gets the original set
    sizes from *tokens*)."""
    frequencies: Counter = Counter()
    for record in tokens[0]:
        frequencies.update(record)
    rids = [[rid_of(line) for line in lines] for lines in run.inputs]
    start = time.perf_counter()
    order = TokenOrder.from_frequencies(frequencies)
    # the array encoder is what the default wire format uses
    encoder = getattr(order, "encode_array", order.encode)
    projections = [
        [
            Projection(rid, encoder(record, unknown="error" if rel == 0 else "drop"))
            for rid, record in zip(rids[rel], records)
        ]
        for rel, records in enumerate(tokens)
    ]
    return time.perf_counter() - start, projections


def ppjoin(
    run: JoinRun, projections: list[list[Projection]], tokens: list[list[list[str]]]
) -> tuple[float, dict[str, int]]:
    """Seconds and filter counts of one single-process PPJoin pass over
    all projections, configured as the PK kernel is by default (with the
    bitmap filter on, the bitmap bound replaces the suffix filter)."""
    config = run.config
    width = config.bitmap_width if getattr(config, "bitmap_filter", False) else None
    by_size = [sorted(p, key=lambda proj: (proj.size, proj.rid)) for p in projections]
    if len(by_size) == 2:
        true_size = {p.rid: len(t) for p, t in zip(projections[1], tokens[1])}
    pairs = 0
    start = time.perf_counter()
    if len(by_size) == 1:
        index = PPJoinIndex(
            config.sim, config.threshold, mode="self",
            use_suffix=width is None, bitmap_width=width,
        )
        for proj in by_size[0]:
            if proj.size:
                pairs += len(index.probe(proj.rid, proj.tokens))
                index.add(proj.rid, proj.tokens)
    else:
        index = PPJoinIndex(
            config.sim, config.threshold, mode="rs", evict=False,
            use_suffix=width is None, bitmap_width=width,
        )
        for proj in by_size[0]:
            if proj.size:
                index.add(proj.rid, proj.tokens)
        for proj in by_size[1]:
            if proj.size:
                pairs += len(
                    index.probe(proj.rid, proj.tokens, true_size=true_size[proj.rid])
                )
    seconds = time.perf_counter() - start
    counts = {f"pruned_{name}": index.filter_stats.get(name, 0)
              for name in ("length", "bitmap", "positional", "suffix")}
    counts["pairs"] = pairs
    return seconds, counts
