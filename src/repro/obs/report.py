"""Post-run trace analysis: critical path, stragglers, reducer skew.

Consumes the Chrome-trace-event JSON written by ``--trace`` (see
:mod:`repro.obs.trace`) and answers the questions the paper's
evaluation turns on (Vernica et al. §5–§6): where does the wall clock
go, which phase is on the critical path, how unbalanced are the
Stage-2 reduce groups, and does grouped-token routing actually balance
load better than individual tokens — the claim Adaptive MapReduce
Similarity Joins (arXiv:1804.05615) identifies as *the* dominant cost
driver for MR similarity joins.

``python -m repro trace-report out.json [more.json ...]`` prints, per
trace: the stage/job/phase critical-path tree with straggler ratios,
and per Stage-2 job the reduce-load skew block — Gini coefficient,
p99-to-median ratio, and the hottest token groups by route.  With two
or more traces (e.g. one ``--routing individual`` run and one
``--routing grouped`` run) it appends a side-by-side balance
comparison.

Everything here is pure post-processing over the trace file; nothing
imports the runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "load_trace",
    "validate_trace",
    "TraceSpan",
    "JobDigest",
    "SkewDigest",
    "TraceDigest",
    "digest_trace",
    "format_trace_report",
    "format_routing_comparison",
]


# ---------------------------------------------------------------------------
# skew statistics (pure, unit-tested)
# ---------------------------------------------------------------------------


def _gini(values: Sequence[float]) -> float:
    """Gini coefficient of a load distribution (0 = perfectly even,
    → 1 = one reducer holds everything).  0 for empty/all-zero input."""
    n = len(values)
    if n == 0:
        return 0.0
    total = float(sum(values))
    if total <= 0.0:
        return 0.0
    ordered = sorted(values)
    # mean absolute difference via the sorted-rank identity
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _p99_over_median(values: Sequence[float]) -> float:
    """p99-to-median load ratio; 0 when the median load is 0."""
    ordered = sorted(values)
    median = _quantile(ordered, 0.5)
    if median <= 0.0:
        return 0.0
    return _quantile(ordered, 0.99) / median


# ---------------------------------------------------------------------------
# trace loading / validation
# ---------------------------------------------------------------------------

#: keys every complete ("X") trace event must carry
_REQUIRED_X_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def load_trace(path: str) -> dict[str, Any]:
    """Load a trace file; accepts the object form or a bare event array."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, list):  # bare-array variant of the format
        doc = {"traceEvents": doc}
    if not isinstance(doc, dict):
        raise ValueError("not a Chrome trace-event document")
    return doc


def validate_trace(doc: dict[str, Any]) -> list[str]:
    """Structural checks against the Chrome trace-event schema.

    Returns a list of problems (empty = valid): required keys present,
    timestamps/durations non-negative numbers, and ``X`` events sorted
    by monotonically non-decreasing ``ts`` — which is how the exporter
    writes them, and what makes the file diffable and streamable.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents: missing or not a list"]
    if not events:
        problems.append("traceEvents: empty")
    last_ts: float | None = None
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing ph")
            continue
        if phase == "M":
            if "name" not in event or "args" not in event:
                problems.append(f"{where}: metadata event missing name/args")
            continue
        for key in _REQUIRED_X_KEYS:
            if phase != "X" and key == "dur":
                continue
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
            continue
        dur = event.get("dur", 0)
        if phase == "X" and (not isinstance(dur, (int, float)) or dur < 0):
            problems.append(f"{where}: dur must be a non-negative number")
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"{where}: ts {ts} not monotonic (previous was {last_ts})"
            )
        last_ts = ts
    return problems


# ---------------------------------------------------------------------------
# span forest reconstruction
# ---------------------------------------------------------------------------


@dataclass
class TraceSpan:
    """One reconstructed span with its nesting."""

    name: str
    cat: str
    ts: float
    dur: float
    tid: int
    args: dict[str, Any] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def walk(self) -> Iterable["TraceSpan"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, cat: str) -> list["TraceSpan"]:
        return [span for span in self.walk() if span.cat == cat]


def _build_span_forest(doc: dict[str, Any]) -> list[TraceSpan]:
    """Nest complete events by interval containment, per thread lane.

    Events come back ts-sorted from :func:`validate_trace`-conformant
    files; within one lane a span is a child of the innermost open span
    that fully contains it.
    """
    by_tid: dict[int, list[TraceSpan]] = {}
    for event in doc.get("traceEvents", ()):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        span = TraceSpan(
            name=str(event.get("name", "")),
            cat=str(event.get("cat", "")),
            ts=float(event["ts"]),
            dur=float(event.get("dur", 0.0)),
            tid=int(event.get("tid", 0)),
            args=dict(event.get("args") or {}),
        )
        by_tid.setdefault(span.tid, []).append(span)

    roots: list[TraceSpan] = []
    for tid in sorted(by_tid):
        spans = sorted(by_tid[tid], key=lambda s: (s.ts, -s.dur))
        stack: list[TraceSpan] = []
        for span in spans:
            while stack and span.ts >= stack[-1].end - 1e-6:
                stack.pop()
            if stack and span.end <= stack[-1].end + 1e-6:
                stack[-1].children.append(span)
            else:
                stack.clear()
                roots.append(span)
            stack.append(span)
    return roots


# ---------------------------------------------------------------------------
# digesting one trace
# ---------------------------------------------------------------------------


@dataclass
class JobDigest:
    """Critical-path view of one MapReduce job."""

    name: str
    stage: str
    dur_us: float
    #: phase name -> (phase wall us, task count, busy us, straggler name,
    #: straggler us)
    phases: dict[str, tuple[float, int, float, str, float]] = field(default_factory=dict)


@dataclass
class SkewDigest:
    """Reduce-load skew of one Stage-2 job."""

    job: str
    routing: str
    num_groups: str
    reduce_tasks: int
    #: total reduce partitions (idle ones included) — the slot count
    #: the balance metrics normalise over
    partitions: int
    loads: list[int]
    #: per-task kernel work (candidates scanned/pruned/verified, from
    #: the task's own counters).  Balance metrics are computed on this,
    #: not on ``loads``: a group's scan work grows with the square of
    #: its size, so equal input records are not equal work.  Falls back
    #: to ``loads`` for traces recorded before the ``kernel_work`` span
    #: arg existed.
    work: list[int]
    #: Gini over work per *partition* (empty partitions count as zero):
    #: an idle reduce slot is imbalance, so spreading the same work
    #: over more tasks lowers this even though it raises the share of
    #: small tasks among the non-empty ones
    gini: float
    #: p99/median over the non-empty tasks' work — kept for reference,
    #: but ill-conditioned when plans differ in how many partitions are
    #: non-empty (a newly woken small task drags the median down)
    p99_over_median: float
    #: hottest single task's share of the job's total kernel work — the
    #: straggler bound: stage-2 reduce makespan cannot beat
    #: ``straggler_share × total work`` no matter how many slots exist
    straggler_share: float
    #: hottest reduce groups descending by size: (route repr, records,
    #: share of the job's total reduce input in [0, 1])
    hot_groups: list[tuple[str, int, float]]


@dataclass
class TraceDigest:
    """Everything the report prints about one trace file."""

    path: str
    wall_us: float
    lanes: int
    combo: str
    jobs: list[JobDigest]
    skew: list[SkewDigest]
    stage_walls: dict[str, float]
    #: telemetry counter lanes ("C" events): name -> sample count
    counter_lanes: dict[str, int] = field(default_factory=dict)


def _phase_digest(phase: TraceSpan, tasks: list[TraceSpan]) -> tuple[float, int, float, str, float]:
    busy = sum(t.dur for t in tasks)
    straggler = max(tasks, key=lambda t: t.dur, default=None)
    return (
        phase.dur,
        len(tasks),
        busy,
        straggler.name if straggler is not None else "-",
        straggler.dur if straggler is not None else 0.0,
    )


def digest_trace(doc: dict[str, Any], path: str = "<trace>") -> TraceDigest:
    """Reduce a trace document to the numbers the report prints."""
    roots = _build_span_forest(doc)
    all_spans = [span for root in roots for span in root.walk()]
    wall = max((s.end for s in all_spans), default=0.0) - min(
        (s.ts for s in all_spans), default=0.0
    )
    lanes = len({s.tid for s in all_spans}) or 1

    join_spans = [s for s in all_spans if s.cat == "join"]
    combo = str(join_spans[0].args.get("combo", "?")) if join_spans else "?"

    # Tasks execute on worker lanes under the job's pool, so match
    # them to jobs by name prefix, not by tree containment.
    tasks_by_job: dict[str, list[TraceSpan]] = {}
    for span in all_spans:
        if span.cat == "task":
            tasks_by_job.setdefault(str(span.args.get("job", "")), []).append(span)

    stage_walls: dict[str, float] = {}
    jobs: list[JobDigest] = []
    skew: list[SkewDigest] = []
    for stage in (s for s in all_spans if s.cat == "stage"):
        stage_walls[stage.name] = stage_walls.get(stage.name, 0.0) + stage.dur
        for job in stage.find("job"):
            digest = JobDigest(name=job.name, stage=stage.name, dur_us=job.dur)
            job_tasks = tasks_by_job.get(job.name, [])
            for phase in job.find("phase"):
                phase_tasks = [
                    t for t in job_tasks if t.name.startswith(f"{phase.name}:")
                ]
                digest.phases[phase.name] = _phase_digest(phase, phase_tasks)
            jobs.append(digest)

            if not job.name.startswith("stage2"):
                continue
            reduce_tasks = [t for t in job_tasks if t.name.startswith("reduce:")]
            loads = [int(t.args.get("input_records", 0)) for t in reduce_tasks]
            work = [
                int(t.args.get("kernel_work", load))
                for t, load in zip(reduce_tasks, loads)
            ]
            if not any(work):
                work = loads
            partitions = max(
                (int(p.args.get("partitions", 0)) for p in job.find("phase")),
                default=0,
            )
            partitions = max(partitions, len(reduce_tasks))
            # per-slot view: empty partitions are idle slots, and idle
            # slots are imbalance
            per_slot = work + [0] * (partitions - len(work))
            total_work = sum(work)
            # A route lives in one reduce task; a retried attempt
            # re-reports the same group, so keep the max over attempts.
            merged_hot: dict[str, int] = {}
            for task in reduce_tasks:
                for route, count in task.args.get("top_groups", ()):
                    route_repr = str(route)
                    merged_hot[route_repr] = max(
                        merged_hot.get(route_repr, 0), int(count)
                    )
            total_input = sum(loads)
            hot = [
                (route, count, count / total_input if total_input else 0.0)
                for route, count in sorted(
                    merged_hot.items(), key=lambda kv: (-kv[1], kv[0])
                )[:5]
            ]
            skew.append(
                SkewDigest(
                    job=job.name,
                    routing=str(stage.args.get("routing", "?")),
                    num_groups=str(stage.args.get("num_groups", "per-token")),
                    reduce_tasks=len(reduce_tasks),
                    partitions=partitions,
                    loads=loads,
                    work=work,
                    gini=_gini(per_slot),
                    p99_over_median=_p99_over_median(work),
                    straggler_share=(
                        max(work) / total_work if total_work else 0.0
                    ),
                    hot_groups=hot,
                )
            )

    counter_lanes: dict[str, int] = {}
    for event in doc.get("traceEvents", ()):
        if isinstance(event, dict) and event.get("ph") == "C":
            name = str(event.get("name", "?"))
            counter_lanes[name] = counter_lanes.get(name, 0) + 1

    return TraceDigest(
        path=path,
        wall_us=wall,
        lanes=lanes,
        combo=combo,
        jobs=jobs,
        skew=skew,
        stage_walls=stage_walls,
        counter_lanes=counter_lanes,
    )


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _ms(us: float) -> str:
    return f"{us / 1000.0:.1f}ms"


def format_trace_report(digest: TraceDigest) -> str:
    """Human-readable critical-path + skew report for one trace."""
    lines = [
        f"trace: {digest.path}",
        f"  combo {digest.combo}, wall {_ms(digest.wall_us)}, "
        f"{digest.lanes} lane(s)",
    ]
    if digest.counter_lanes:
        lanes = ", ".join(
            f"{name} ({count} samples)"
            for name, count in sorted(digest.counter_lanes.items())
        )
        lines.append(f"  counter lanes: {lanes}")
    lines.append(
        "  critical path (stage → job → phase, straggler = longest task):"
    )
    total = sum(digest.stage_walls.values()) or 1.0
    for stage_name, stage_wall in digest.stage_walls.items():
        lines.append(
            f"    {stage_name:<10} {_ms(stage_wall):>10}  "
            f"({100.0 * stage_wall / total:4.1f}% of staged wall)"
        )
        for job in digest.jobs:
            if job.stage != stage_name:
                continue
            lines.append(f"      {job.name:<22} {_ms(job.dur_us):>10}")
            for phase_name, (
                wall,
                tasks,
                busy,
                straggler,
                straggler_us,
            ) in job.phases.items():
                detail = f"        {phase_name:<8} {_ms(wall):>9}"
                if tasks:
                    share = straggler_us / wall if wall > 0 else 0.0
                    detail += (
                        f"  tasks={tasks} busy={_ms(busy)}"
                        f"  straggler {straggler} {_ms(straggler_us)}"
                        f" ({100.0 * share:.0f}% of phase)"
                    )
                lines.append(detail)
    if digest.skew:
        lines.append("  stage-2 reduce-group skew:")
        for s in digest.skew:
            lines.append(
                f"    {s.job} [routing={s.routing}, groups={s.num_groups}]: "
                f"{s.reduce_tasks}/{s.partitions} reduce task(s), "
                f"work/slot gini={s.gini:.3f}, "
                f"straggler={s.straggler_share:.1%} of work, "
                f"p99/median={s.p99_over_median:.2f}"
            )
            if s.hot_groups:
                hot = ", ".join(
                    f"{route}({count}, {share:.1%})"
                    for route, count, share in s.hot_groups
                )
                lines.append(
                    "      hottest groups (route(records, share of reduce "
                    f"input)): {hot}"
                )
    else:
        lines.append("  stage-2 reduce-group skew: no stage-2 spans in trace")
    return "\n".join(lines)


def format_routing_comparison(digests: Sequence[TraceDigest]) -> str:
    """Side-by-side balance table across traces (individual vs grouped).

    Meaningful when the traces cover the same workload under different
    ``--routing`` settings — the Stage-2 load-balancing experiment of
    the paper's §6 (grouped tokens vs individual tokens).
    """
    rows = []
    for digest in digests:
        for s in digest.skew:
            rows.append(
                f"  {digest.path:<28} routing={s.routing:<11} "
                f"groups={s.num_groups:<9} gini={s.gini:.3f} "
                f"straggler={s.straggler_share:.1%} "
                f"p99/median={s.p99_over_median:.2f} "
                f"reduce_tasks={s.reduce_tasks}"
            )
    if not rows:
        return "routing balance comparison: no stage-2 skew data"
    header = "routing balance comparison (lower gini / ratio = better balanced):"
    return "\n".join([header, *rows])
