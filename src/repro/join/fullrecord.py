"""The one-stage full-record alternative (Section 2.2).

The paper considered replacing Stages 2 and 3 with a single stage
whose key-value pairs carry *complete records* instead of RID
projections: reducers then verify candidates and emit joined record
pairs directly, with no record-join stage.  The authors implemented it,
"noticed a much worse performance", and dropped it — full records are
replicated once per prefix token, multiplying shuffle volume by the
record payload size.

We keep it as an ablation baseline (``bench_ablation_fullrecord``).
Only the self-join PK form is provided; that is enough to reproduce the
comparison.  Stage 1 is still required for the token ordering.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.ppjoin import PPJoinIndex
from repro.core.prefixes import routes_of
from repro.core.similarity import bounds_for
from repro.join.config import JoinConfig
from repro.join.driver import JoinReport, _num_reducers, _run_stage
from repro.join.records import REL_R
from repro.join.stage1 import stage1_jobs
from repro.join.stage2 import (
    PAIRS_OUTPUT,
    load_token_order,
    owner_of,
    project_record,
)
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.job import Context, MapReduceJob
from repro.mapreduce.types import approx_bytes


def full_record_job(
    config: JoinConfig,
    records_file: str,
    token_order_file: str,
    output: str,
    num_reducers: int,
) -> MapReduceJob:
    """One job that replaces Stages 2+3: values are whole record lines."""
    sim, threshold = config.sim, config.threshold
    prefix_length = bounds_for(sim, threshold).prefix_length
    routes = routes_of(config.token_groups)

    def mapper(line: str, ctx: Context) -> None:
        order = load_token_order(ctx, token_order_file)
        rid, ranks, tokens, _true = project_record(line, config, order, "error")
        n = len(ranks)
        if n == 0:
            return
        prefix = ranks[: prefix_length[n]]
        for route in routes(prefix):
            # the value carries the complete record — the whole point
            # of the ablation: payload bytes ride the shuffle
            ctx.emit((route, n, 0), (rid, tokens, line))

    def reducer(route: int, values: Iterator, ctx: Context) -> None:
        index = PPJoinIndex(sim, threshold, owner=owner_of(config, route))
        lines: dict[int, str] = {}
        group: list[tuple] = []
        held = 0
        # the lines are the group's whole memory, held to the end either
        # way, so the PK group call runs once they are in
        for rid, ranks, line in values:
            held += approx_bytes(line)
            ctx.hold("full-record group", held)
            lines[rid] = line
            group.append((REL_R, rid, len(ranks), None, ranks))
        for stored_rid, rid, similarity in index.join_group(group):
            ctx.write((lines[min(rid, stored_rid)], lines[max(rid, stored_rid)], similarity))
            ctx.counters.increment(PAIRS_OUTPUT)
        ctx.hold("full-record group", 0)

    return MapReduceJob(
        name="fullrecord-self",
        inputs=[records_file],
        output=output,
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        group_key=lambda key: key[0],
        broadcast=[token_order_file],
    )


def full_record_self_join(
    cluster: SimulatedCluster,
    records_file: str,
    config: JoinConfig | None = None,
    prefix: str | None = None,
) -> JoinReport:
    """End-to-end self-join using the one-stage full-record alternative.

    Each record pair is output once, by the group that owns it (the
    same rule as Stage 2, :func:`repro.join.stage2.owner_of`) — the
    ablation measures the shuffle cost of shipping whole records, not a
    missing dedup.  ``JoinReport.stage3`` is empty.
    """
    config = config or JoinConfig()
    prefix = prefix or f"{records_file}.fullrecord"
    reducers = _num_reducers(config, cluster)
    token_order_file = f"{prefix}.tokens"
    output_file = f"{prefix}.joined"

    report = JoinReport(combo=f"{config.stage1.upper()}-FULLRECORD", output_file=output_file)
    tracer = cluster.tracer
    stage1 = stage1_jobs(config, [records_file], token_order_file, reducers)
    stage2 = full_record_job(config, records_file, token_order_file, output_file, reducers)
    _run_stage(cluster, report, tracer, "stage1", stage1, {"algorithm": config.stage1})
    _run_stage(cluster, report, tracer, "stage2", [stage2], {"kernel": "fullrecord"})
    return report
