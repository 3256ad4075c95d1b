"""The in-process join the per-layer numbers come from.

Drives the same sequence the CLI does — ``read_records`` ->
``dfs.write`` -> ``ssjoin_self``/``ssjoin_rs`` -> sort + format +
``write_records`` -> run manifest — through each layer's public
functions, with a span around every call and around every
``cluster.run_job(job)`` (intercepted on the cluster *instance*).
Counts and busy times are read from what the program returns
(``JoinReport``, ``PhaseStats``, ``TaskStats``); a mechanism a later
change deletes reads 0 instead of crashing.  Requires ``src`` on
``sys.path``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.data.loaders import read_records, write_records
from repro.join.config import JoinConfig
from repro.join.driver import JoinReport, ssjoin_rs, ssjoin_self
from repro.join.records import FIELD_SEP, rid_of
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.executor import PersistentParallelCluster
from repro.obs.runs import build_run_manifest, write_run_manifest

from spans import SpanRecorder, duration, self_times
from wallspec import PARALLEL_WORKERS, Workload

RUN_JOB = "mapreduce.run_job:"


@dataclass
class JoinRun:
    """What one in-process join leaves behind for metrics and probes."""

    wall_s: float
    report: JoinReport
    config: JoinConfig
    #: the cluster (closed) — its DFS still holds every job's input and output
    cluster: SimulatedCluster
    #: jobs in the order ``run_job`` received them (traced runs only)
    jobs: list
    #: input record lines per relation, R first
    inputs: list[list[str]]


def run_join(
    workload: Workload, workdir: Path, files: list[str], recorder: SpanRecorder
) -> JoinRun:
    """One join, end to end, in this process."""
    config = JoinConfig(threshold=workload.threshold)
    if workload.parallel:
        cluster = PersistentParallelCluster(workers=PARALLEL_WORKERS)
    else:
        cluster = SimulatedCluster()
    jobs: list = []
    if recorder.enabled:
        original_run_job = cluster.run_job

        def run_job(job):
            jobs.append(job)
            with recorder.span(RUN_JOB + job.name):
                return original_run_job(job)

        cluster.run_job = run_job

    start = time.perf_counter()
    try:
        with recorder.span("cli.read"):
            inputs = [read_records(workdir / name) for name in files]
        with recorder.span("mapreduce.dfs_write"):
            names = ["r", "s"] if workload.kind == "rs" else ["input"]
            for name, lines in zip(names, inputs):
                cluster.dfs.write(name, lines)
        with recorder.span("join"):
            if workload.kind == "rs":
                report = ssjoin_rs(cluster, "r", "s", config)
            else:
                report = ssjoin_self(cluster, "input", config)
        with recorder.span("cli.emit"):
            pairs = sorted(cluster.dfs.read_all(report.output_file))
            write_records(
                workdir / "inproc.tsv",
                [
                    f"{similarity:.6f}{FIELD_SEP}{rid_of(a)}{FIELD_SEP}{rid_of(b)}"
                    for a, b, similarity in pairs
                ],
            )
        with recorder.span("obs.manifest"):
            doc = build_run_manifest(
                kind="selfjoin" if workload.kind == "self" else "rsjoin",
                workload=",".join(files), config=config, report=report, argv=[],
            )
            write_run_manifest(str(workdir / "inproc-runs"), doc)
    finally:
        if hasattr(cluster, "close"):
            cluster.close()
    wall = time.perf_counter() - start
    return JoinRun(wall, report, config, cluster, jobs, inputs)


def _busy(tasks) -> float:
    return sum(t.cpu_seconds for t in tasks)


def layer_metrics(run: JoinRun, spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric that one traced run yields by itself (the
    probes and the cross-run figures are added by the caller)."""
    report = run.report
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(duration(s) for s in by_name.get(name, ()))

    m: dict[str, float] = {
        "cli.read_s": total("cli.read"),
        "cli.emit_s": total("cli.emit"),
        "obs.manifest_s": total("obs.manifest"),
        "mapreduce.dfs_write_s": total("mapreduce.dfs_write"),
        "join.driver_s": sum(own[s["id"]] for s in by_name.get("join", ())),
        "bench.traced_wall_s": run.wall_s,
    }

    framework = 0.0
    shuffle_records = 0
    shuffle_bytes = 0
    for index, (stage, stats) in enumerate(report.stages.items(), start=1):
        prefix = f"join.stage{index}."
        phases = stats.phases
        m[prefix + "wall_s"] = sum(total(RUN_JOB + p.job_name) for p in phases)
        m[prefix + "map_busy_s"] = sum(_busy(p.map_tasks) for p in phases)
        m[prefix + "reduce_busy_s"] = sum(_busy(p.reduce_tasks) for p in phases)
        framework += (
            m[prefix + "wall_s"] - m[prefix + "map_busy_s"] - m[prefix + "reduce_busy_s"]
        )
        shuffle_records += sum(p.map_output_records for p in phases)
        shuffle_bytes += sum(p.shuffle_bytes for p in phases)

    stage2 = report.stage2.phases
    map_in = sum(t.input_records for p in stage2 for t in p.map_tasks)
    map_out = sum(p.map_output_records for p in stage2)
    reduce_tasks = [t for p in stage2 for t in p.reduce_tasks]
    reduce_cpu = [t.cpu_seconds for t in reduce_tasks]
    mean_cpu = sum(reduce_cpu) / len(reduce_cpu) if reduce_cpu else 0.0
    m["join.stage2.replication"] = map_out / map_in if map_in else 0.0
    m["join.stage2.max_reducer_input"] = max(
        (t.input_records for t in reduce_tasks), default=0
    )
    m["join.stage2.reduce_skew"] = max(reduce_cpu) / mean_cpu if mean_cpu else 0.0

    counters = report.counters()
    funnel = report.filter_counters()
    m["join.stage2.pairs"] = counters.get("stage2.pairs_output", 0)
    m["join.stage3.pairs_out"] = counters.get("stage3.record_pairs_output", 0)
    m["join.stage2.funnel.candidates"] = funnel.get("candidates", 0)
    for name in ("length", "bitmap", "positional", "suffix"):
        m[f"join.stage2.funnel.pruned_{name}"] = funnel.get(name, 0)

    m["mapreduce.shuffle_records"] = shuffle_records
    m["mapreduce.shuffle_bytes"] = shuffle_bytes
    m["mapreduce.sim_total_s"] = report.total_simulated_s

    ex = report.executor_summary()
    pooled = ex.get("pooled_phases", 0)
    pool_wall = ex.get("pool_wall_s", 0.0)
    busy = ex.get("busy_s", 0.0)
    # on the sequential engine the framework's own time is what is left
    # of each job after the tasks; on the pool that role is overhead_s
    on_executor = bool(pooled or ex.get("inline_phases", 0))
    m["mapreduce.framework_s"] = 0.0 if on_executor else framework
    m["mapreduce.executor.pool_wall_s"] = pool_wall
    m["mapreduce.executor.busy_s"] = busy
    m["mapreduce.executor.utilization"] = (
        busy / (PARALLEL_WORKERS * pool_wall) if pool_wall else 0.0
    )
    m["mapreduce.executor.overhead_s"] = (
        run.wall_s - busy / PARALLEL_WORKERS if pooled else 0.0
    )
    m["mapreduce.executor.pools_created"] = ex.get("pools_created", 0)
    m["mapreduce.executor.pooled_phases"] = pooled
    m["mapreduce.executor.inline_phases"] = ex.get("inline_phases", 0)
    m["mapreduce.executor.ipc_bytes"] = (
        ex.get("bytes_to_workers", 0) + ex.get("bytes_from_workers", 0)
    )
    m["mapreduce.executor.spill_bytes"] = ex.get("spill_bytes_written", 0)
    m["mapreduce.executor.shm_bytes"] = ex.get("shm_bytes", 0)
    return m

