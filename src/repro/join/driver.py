"""End-to-end set-similarity join drivers.

Chains the three stages on a :class:`SimulatedCluster`:

1. token ordering (BTO/OPTO) → ``<prefix>.tokens``
2. RID-pair generation (BK/PK) → ``<prefix>.ridpairs``
3. record join (BRJ/OPRJ) → ``<prefix>.joined``

``ssjoin_self`` / ``ssjoin_rs`` operate on files already in the
cluster's DFS and return a :class:`JoinReport` with per-stage stats —
the unit the paper's experiments measure.  The module-level
convenience functions :func:`set_similarity_self_join` and
:func:`set_similarity_rs_join` wrap record lists for library users who
do not care about the cluster.

For R-S joins the token ordering is built on R only (per Section 4,
Stage 1 runs "on the relation with fewer records"); pass the smaller
relation as R.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.join.checkpoint import (
    CheckpointMismatchError,
    JoinCheckpoint,
    checkpoint_identity,
)
from repro.join.config import JoinConfig
from repro.join.memory import (
    MAX_REPLANS,
    MEMORY_REPLANS,
    apply_degradations,
    apply_step,
    next_escalation,
)
from repro.join.stage1 import stage1_jobs
from repro.join.stage2 import stage2_self_job
from repro.join.stage2_rs import stage2_rs_job
from repro.join.stage3 import stage3_jobs
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import RESUME_STAGES_SKIPPED
from repro.mapreduce.types import (
    InsufficientMemoryError,
    JobStats,
    merge_executor_stats,
)
from repro.obs.trace import trace_span


@dataclass
class JoinReport:
    """Per-stage statistics of one end-to-end join run."""

    #: paper-style label of the plan that ran, e.g. ``"BTO-BK-BRJ"``
    #: after a memory fault degraded a PK plan
    combo: str
    output_file: str
    stage1: JobStats = field(default_factory=JobStats)
    stage2: JobStats = field(default_factory=JobStats)
    stage3: JobStats = field(default_factory=JobStats)
    #: driver-level counters with no owning job:
    #: ``resume.stages_skipped`` (bumped once per stage restored from a
    #: checkpoint instead of re-run) and ``memory.replans``
    extra_counters: dict[str, int] = field(default_factory=dict)
    #: runtime degradation-ladder steps applied after Stage-2 / Stage-3
    #: memory faults, in order (see :mod:`repro.join.memory`); empty for
    #: a run that never hit a memory fault
    memory_steps: list[str] = field(default_factory=list)
    #: measured wall seconds the driver spent running each stage — the
    #: real clock next to :meth:`stage_times`' simulated one.  Attempts a
    #: memory fault cut short count; a stage restored from a checkpoint
    #: reads 0.0
    stage_wall_s: dict[str, float] = field(
        default_factory=lambda: {"stage1": 0.0, "stage2": 0.0, "stage3": 0.0}
    )

    @property
    def stages(self) -> dict[str, JobStats]:
        return {"stage1": self.stage1, "stage2": self.stage2, "stage3": self.stage3}

    @property
    def total_simulated_s(self) -> float:
        """End-to-end simulated wall-clock (the paper's y-axis)."""
        return sum(stats.simulated_total_s for stats in self.stages.values())

    def stage_times(self) -> dict[str, float]:
        return {
            name: stats.simulated_total_s for name, stats in self.stages.items()
        }

    @property
    def stage2_replication(self) -> float:
        """Stage-2 map output records per map input record — to how many
        reducers the average record goes, the replication rate of
        arXiv:1204.1754.  0.0 when Stage 2 did not run in this process."""
        tasks = [t for p in self.stage2.phases for t in p.map_tasks]
        map_in = sum(t.input_records for t in tasks)
        return sum(t.output_records for t in tasks) / map_in if map_in else 0.0

    @property
    def stage2_max_reducer_input(self) -> int:
        """Input records of the largest Stage-2 reduce task — the reducer
        size replication is traded against."""
        tasks = [t for p in self.stage2.phases for t in p.reduce_tasks]
        return max((t.input_records for t in tasks), default=0)

    def counters(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for stats in self.stages.values():
            for name, value in stats.counters().items():
                merged[name] = merged.get(name, 0) + value
        for name, value in self.extra_counters.items():
            merged[name] = merged.get(name, 0) + value
        return merged

    def filter_counters(self) -> dict[str, int]:
        """Stage-2 filter-effectiveness tallies: candidates pruned by
        each filter stage (``length``/``bitmap``/``positional``/
        ``suffix``) or left to the group that owns the pair
        (``foreign``), plus the ``candidates`` examined, those
        ``verified`` (merged) and ``pairs`` output (each pair once: the
        answer count).  ``candidates`` counts every cross-product pair
        for BK (before its length filter; its ``foreign`` are verified
        pairs) and, for PK, the distinct index entries per probe inside
        the length window of a posting list the group owns — so there
        ``candidates == foreign + bitmap + positional + suffix +
        verified``.  Zeros for stages that never
        pruned (e.g. ``bitmap`` with ``bitmap_filter=False``, ``suffix``
        in PK runs where the bitmap bound replaces it).  Sanitizer runs
        (``sanitize=True`` / ``REPRO_SANITIZE=1``) add their
        check/violation tallies under ``sanitize_checks`` /
        ``sanitize_violations``."""
        counters = self.counters()
        return {
            "candidates": counters.get("stage2.candidate_pairs", 0),
            "length": counters.get("stage2.pruned_length", 0),
            "foreign": counters.get("stage2.pruned_foreign", 0),
            "bitmap": counters.get("stage2.pruned_bitmap", 0),
            "positional": counters.get("stage2.pruned_positional", 0),
            "suffix": counters.get("stage2.pruned_suffix", 0),
            "verified": counters.get("stage2.verified", 0),
            "pairs": counters.get("stage2.pairs_output", 0),
            "sanitize_checks": counters.get("sanitize.checks", 0),
            "sanitize_violations": counters.get("sanitize.violations", 0),
        }

    def executor_summary(self) -> dict:
        """Merged physical-execution stats across all three stages (see
        :func:`repro.mapreduce.types.merge_executor_stats`).  All zeros
        when the run used the plain sequential engine."""
        summary: dict = {}
        for stats in self.stages.values():
            merge_executor_stats(
                summary,
                [
                    ex
                    for phase in stats.phases
                    for ex in (phase.map_executor, phase.reduce_executor)
                ],
            )
        return summary

    def format_summary(self) -> str:
        """Multi-line human-readable run summary."""
        counters = self.counters()
        lines = [
            f"{self.combo}: {self.total_simulated_s:.1f}s simulated",
        ]
        for name, stats in self.stages.items():
            phases = ", ".join(p.job_name for p in stats.phases) or "-"
            lines.append(
                f"  {name}: {stats.simulated_total_s:7.1f}s  ({phases})"
            )
        lines.append(
            f"  shuffled: {sum(s.shuffle_bytes for s in self.stages.values()):,} bytes"
        )
        pairs = counters.get("stage3.record_pairs_output")
        if pairs is not None:
            lines.append(f"  record pairs: {pairs:,}")
        pruned = self.filter_counters()
        stages = ("length", "foreign", "bitmap", "positional", "suffix")
        if any(pruned[name] for name in stages):
            lines.append(
                "  pruned: " + ", ".join(f"{name}={pruned[name]:,}" for name in stages)
            )
        if self.memory_steps:
            lines.append(
                f"  memory: {len(self.memory_steps)} replan(s): "
                + " -> ".join(self.memory_steps)
            )
        if pruned["sanitize_checks"]:
            lines.append(
                f"  sanitize: {pruned['sanitize_checks']:,} checks, "
                f"{pruned['sanitize_violations']:,} violations"
            )
        return "\n".join(lines)


def _num_reducers(config: JoinConfig, cluster: SimulatedCluster) -> int:
    if config.num_reducers is not None:
        return config.num_reducers
    return cluster.config.reduce_slots


def _run_stage(
    cluster: SimulatedCluster,
    report: JoinReport,
    tracer,
    name: str,
    jobs: list,
    span_args: dict,
) -> None:
    """Run one stage's jobs into ``report.<name>``, adding the measured
    wall seconds to ``report.stage_wall_s`` (also when the stage
    raises)."""
    started = time.perf_counter()
    try:
        with trace_span(tracer, name, "stage", **span_args):
            setattr(report, name, JobStats([cluster.run_job(job) for job in jobs]))
    finally:
        report.stage_wall_s[name] += time.perf_counter() - started


def _run_stages(
    cluster: SimulatedCluster,
    report: JoinReport,
    tracer,
    checkpoint: JoinCheckpoint | None,
    done: list[str],
    config: JoinConfig,
    build,
) -> JoinConfig:
    """Run (or restore) the join's stages in order, surviving Stage-2
    and Stage-3 memory faults by degrading the plan; return the config
    the join finished with (*config* with every degradation step
    applied).

    *build(config)* returns the join's stage list
    ``[(name, jobs, output_files, span_args), ...]`` for one concrete
    config; it is invoked once for the starting config and again
    whenever a memory step changes it.  A stage already recorded in the
    checkpoint is restored into the cluster DFS instead of re-run — its
    :class:`JobStats` stays empty and ``resume.stages_skipped`` is
    bumped — and every freshly run stage is checkpointed before the
    next one starts.

    A Stage-2 or Stage-3 :class:`InsufficientMemoryError` is treated
    as a *plan fault* when ``config.auto_degrade`` is on: the next
    escalation-ladder rung (:func:`repro.join.memory.next_escalation`;
    ``stage3:brj`` for an OPRJ Stage 3) is applied, the stage jobs are
    rebuilt and the stage re-runs, Stage 2 at most
    :data:`repro.join.memory.MAX_REPLANS` times.  Each applied step is persisted in
    the checkpoint manifest, so a killed-and-resumed run replays the
    degraded plan instead of rediscovering it rung by rung.  Memory
    faults in Stage 1 (and exhausted ladders) re-raise unchanged.
    """
    steps: list[str] = []
    if checkpoint is not None:
        steps = checkpoint.memory_steps()
        if steps:
            try:
                config = apply_degradations(config, steps)
            except ValueError as exc:
                raise CheckpointMismatchError(
                    "checkpoint manifest records a memory step this "
                    f"version cannot replay: {exc}"
                ) from exc
            report.memory_steps.extend(steps)
            report.extra_counters[MEMORY_REPLANS] = len(steps)
            if tracer is not None:
                tracer.instant(
                    "memory-steps-replayed", "fault", steps=list(steps)
                )
    stages = build(config)
    index = 0
    while index < len(stages):
        name, jobs, outputs, span_args = stages[index]
        if checkpoint is not None and name in done:
            with trace_span(tracer, name, "stage", **span_args):
                checkpoint.restore_stage(name, cluster.dfs)
                report.extra_counters[RESUME_STAGES_SKIPPED] = (
                    report.extra_counters.get(RESUME_STAGES_SKIPPED, 0) + 1
                )
                if tracer is not None:
                    tracer.instant(
                        "stage-resumed", "fault", stage=name, files=outputs
                    )
            index += 1
            continue
        try:
            _run_stage(cluster, report, tracer, name, jobs, span_args)
        except InsufficientMemoryError as exc:
            step = None
            if config.auto_degrade:
                replans = report.extra_counters.get(MEMORY_REPLANS, 0)
                # Stage 3's one rung fires at most once, so only Stage 2's
                # rungs are bounded
                if name == "stage3" or replans < MAX_REPLANS:
                    step = next_escalation(config, name)
            if step is None:
                raise
            config = apply_step(config, step)
            report.memory_steps.append(step)
            report.extra_counters[MEMORY_REPLANS] = (
                report.extra_counters.get(MEMORY_REPLANS, 0) + 1
            )
            if tracer is not None:
                tracer.instant(
                    "memory-replan", "fault",
                    stage=name, step=step, error=str(exc),
                )
            if checkpoint is not None:
                checkpoint.save_memory_steps(report.memory_steps)
            stages = build(config)
            continue
        if checkpoint is not None:
            checkpoint.save_stage(name, cluster.dfs, outputs)
        index += 1
    return config


def _ssjoin(
    cluster: SimulatedCluster,
    files: list[str],
    is_rs: bool,
    config: JoinConfig | None,
    prefix: str | None,
    checkpoint: JoinCheckpoint | None,
) -> JoinReport:
    """The three-stage join over *files* — one DFS file for a self-join,
    ``[r_file, s_file]`` for an R-S join (the token ordering is built on
    the first file either way)."""
    kind = "rs" if is_rs else "self"
    config = config or JoinConfig()
    prefix = prefix or f"{files[0]}.{kind}join"
    reducers = _num_reducers(config, cluster)

    token_order_file = f"{prefix}.tokens"
    pairs_file = f"{prefix}.ridpairs"
    output_file = f"{prefix}.joined"
    stage2_job = stage2_rs_job if is_rs else stage2_self_job

    # re-invoked whenever a memory fault degrades the plan
    def build(cfg: JoinConfig) -> list:
        s1 = stage1_jobs(cfg, files[:1], token_order_file, reducers)
        s2 = [stage2_job(cfg, *files, token_order_file, pairs_file, reducers)]
        s3 = stage3_jobs(
            cfg, {name: tag for tag, name in enumerate(files)}, pairs_file,
            output_file, reducers, is_rs=is_rs,
        )
        return [
            ("stage1", s1, [token_order_file], {"algorithm": cfg.stage1}),
            (
                "stage2", s2, [pairs_file],
                {
                    "kernel": cfg.kernel,
                    "routing": cfg.routing,
                    "num_groups": cfg.num_groups or "per-token",
                },
            ),
            ("stage3", s3, [output_file], {"algorithm": cfg.stage3}),
        ]

    done: list[str] = []
    if checkpoint is not None:
        # identity is the requested config: a resumed run replays the
        # persisted degradation steps on top of it
        done = checkpoint.begin(
            checkpoint_identity(kind, config, prefix, cluster.dfs, files, reducers)
        )

    report = JoinReport(combo=config.combo_name, output_file=output_file)
    tracer = cluster.tracer
    with trace_span(
        tracer, f"ssjoin_{kind}:" + ":".join(files), "join",
        combo=config.combo_name, threshold=config.threshold,
        routing=config.routing, kernel=config.kernel,
    ):
        report.combo = _run_stages(
            cluster, report, tracer, checkpoint, done, config, build
        ).combo_name
    return report


def ssjoin_self(
    cluster: SimulatedCluster,
    records_file: str,
    config: JoinConfig | None = None,
    prefix: str | None = None,
    checkpoint: JoinCheckpoint | None = None,
) -> JoinReport:
    """Run the three-stage self-join on a DFS file.

    Returns a :class:`JoinReport`; the joined record pairs are in
    ``report.output_file`` as ``(line1, line2, similarity)`` records.
    With a :class:`~repro.join.checkpoint.JoinCheckpoint`, completed
    stage outputs are persisted as the join progresses; a checkpoint
    opened with ``resume=True`` restores them and re-runs only the
    remaining stages (identity-checked — see the checkpoint module).
    """
    return _ssjoin(cluster, [records_file], False, config, prefix, checkpoint)


def ssjoin_rs(
    cluster: SimulatedCluster,
    r_file: str,
    s_file: str,
    config: JoinConfig | None = None,
    prefix: str | None = None,
    checkpoint: JoinCheckpoint | None = None,
) -> JoinReport:
    """Run the three-stage R-S join on two DFS files.

    The token ordering is built on ``r_file``; pass the smaller
    relation as R (Section 4).  Output records are
    ``(r_line, s_line, similarity)``.  Checkpointing as for
    :func:`ssjoin_self`.
    """
    return _ssjoin(cluster, [r_file, s_file], True, config, prefix, checkpoint)


def _default_cluster() -> SimulatedCluster:
    config = ClusterConfig()
    return SimulatedCluster(config, InMemoryDFS(num_nodes=config.num_nodes))


def set_similarity_self_join(
    records: list[str],
    config: JoinConfig | None = None,
    cluster: SimulatedCluster | None = None,
) -> tuple[list[tuple[str, str, float]], JoinReport]:
    """Self-join a list of record lines; the simplest public entry point.

    >>> from repro.join import JoinConfig, set_similarity_self_join
    >>> records = ["1\\ta b c d\\t", "2\\ta b c e\\t", "3\\tx y z w\\t"]
    >>> pairs, report = set_similarity_self_join(
    ...     records, JoinConfig(threshold=0.5, schema=RecordSchema((1,))))
    ... # doctest: +SKIP
    """
    cluster = cluster or _default_cluster()
    cluster.dfs.write("input.records", records)
    report = ssjoin_self(cluster, "input.records", config)
    pairs = sorted(cluster.dfs.read_all(report.output_file))
    return pairs, report


def set_similarity_rs_join(
    r_records: list[str],
    s_records: list[str],
    config: JoinConfig | None = None,
    cluster: SimulatedCluster | None = None,
) -> tuple[list[tuple[str, str, float]], JoinReport]:
    """R-S join two lists of record lines (R should be the smaller)."""
    cluster = cluster or _default_cluster()
    cluster.dfs.write("input.r", r_records)
    cluster.dfs.write("input.s", s_records)
    report = ssjoin_rs(cluster, "input.r", "input.s", config)
    pairs = sorted(cluster.dfs.read_all(report.output_file))
    return pairs, report
