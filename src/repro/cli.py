"""Command-line interface.

Runs end-to-end set-similarity joins over record files from the shell::

    python -m repro selfjoin catalog.tsv -o pairs.tsv --threshold 0.8
    python -m repro rsjoin dblp.tsv citeseerx.tsv -o linked.tsv --kernel bk
    python -m repro generate dblp 5000 -o catalog.tsv --increase 5

Input files hold one record per line: tab-separated fields with an
integer RID first (see ``repro.join.records``).  Output lines are
``similarity<TAB>rid1<TAB>rid2`` (add ``--full-records`` for the
complete joined record pair).
"""

from __future__ import annotations

import argparse
import sys

from repro.data.loaders import read_records, write_records
from repro.join.blocks import BlockPolicy
from repro.join.config import JoinConfig
from repro.join.driver import JoinReport, ssjoin_rs, ssjoin_self
from repro.join.records import FIELD_SEP, RecordSchema, rid_of
from repro.join.stage2 import check_stage2_plan
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS


def _add_join_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", required=True, help="output file")
    parser.add_argument("--similarity", default="jaccard",
                        choices=["jaccard", "cosine", "dice", "overlap"])
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--stage1", default="bto", choices=["bto", "opto"])
    parser.add_argument("--kernel", default="pk", choices=["bk", "pk"])
    parser.add_argument("--stage3", default="oprj", choices=["brj", "oprj"],
                        help="record join (default: oprj; a Stage-3 memory "
                             "fault re-runs it as brj)")
    parser.add_argument("--routing", default="individual",
                        choices=["individual", "grouped"])
    parser.add_argument("--num-groups", type=int, default=None,
                        help="token groups for --routing grouped")
    parser.add_argument("--join-fields", default="1,2",
                        help="comma-separated 1-based field indexes forming "
                             "the join attribute (default: 1,2)")
    parser.add_argument("--nodes", type=int, default=10,
                        help="simulated cluster size")
    parser.add_argument("--blocks", type=int, default=None,
                        help="enable Section-5 reduce-based block processing "
                             "with this many blocks (BK kernel only)")
    parser.add_argument("--full-records", action="store_true",
                        help="emit complete record pairs instead of RID pairs")
    parser.add_argument("--stats", action="store_true",
                        help="print per-stage simulated times to stderr")
    parser.add_argument("--parallel", type=int, metavar="WORKERS", default=None,
                        help="run map/reduce tasks on this many worker processes "
                             "(one pool per job that pools)")
    parser.add_argument("--no-bitmap-filter", action="store_true",
                        help="disable bitmap-signature candidate pruning "
                             "(on by default; output is identical either way)")
    parser.add_argument("--dfs-dir", default=None, metavar="PATH",
                        help="back the DFS with this directory instead of RAM")
    parser.add_argument("--sanitize", action="store_true",
                        help="runtime sanitizer mode: check shuffle sortedness, "
                             "filter admissibility (sampled oracle) and index "
                             "byte accounting; output is unchanged, counters "
                             "appear under --stats (also: REPRO_SANITIZE=1)")
    parser.add_argument("--no-auto-degrade", action="store_true",
                        help="fail fast on Stage-2/3 memory exhaustion instead "
                             "of degrading the plan down the escalation "
                             "ladder (finer routing -> BK kernel -> blocks; "
                             "OPRJ -> BRJ) and re-running the stage")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a span timeline of the whole join and "
                             "write it as Chrome trace-event JSON (open in "
                             "Perfetto; analyze with 'repro trace-report'); "
                             "observe-only, output is unchanged")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault injection: a spec list "
                             "like 'crash:*:map:1:0;sleep:*:reduce:0:0:0.3' "
                             "(kind:job:phase:task:attempt[:sleep_s|cap_mb]); "
                             "absorbable plans leave the output bit-identical; "
                             "'squeeze' lowers the simulated memory budget to "
                             "cap_mb MB and is absorbed by the degradation "
                             "ladder, not by task retries")
    parser.add_argument("--max-task-attempts", type=int, default=None,
                        metavar="N",
                        help="attempts allowed per task, the first run "
                             "included, before the join fails (default: 4; "
                             "1 = no retries)")
    parser.add_argument("--progress", action="store_true",
                        help="live progress on stderr: a per-phase bar of "
                             "finished tasks with throughput and ETA; "
                             "degrades to plain 'progress:' log lines when "
                             "stderr is not a TTY; observe-only, output is "
                             "unchanged")
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="run-manifest registry directory (default: "
                             "$REPRO_RUNS_DIR or .repro-runs)")
    parser.add_argument("--no-run-manifest", action="store_true",
                        help="do not record this run in the registry")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="persist each completed stage's output (plus an "
                             "identity manifest) under DIR so a killed join "
                             "can be resumed with --resume DIR")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="resume a checkpointed join from DIR: restore "
                             "completed stages and re-run only the rest; "
                             "refuses if the config or inputs changed")


def _build_config(args: argparse.Namespace) -> JoinConfig:
    fields = tuple(int(f) for f in args.join_fields.split(",") if f)
    blocks = None
    if args.blocks is not None:
        blocks = BlockPolicy("reduce", num_blocks=args.blocks)
    return JoinConfig(
        similarity=args.similarity,
        threshold=args.threshold,
        schema=RecordSchema(fields),
        stage1=args.stage1,
        kernel=args.kernel,
        routing=args.routing,
        num_groups=args.num_groups,
        stage3=args.stage3,
        blocks=blocks,
        bitmap_filter=not args.no_bitmap_filter,
        sanitize=args.sanitize,
        auto_degrade=not args.no_auto_degrade,
    )


def _fault_options(args: argparse.Namespace) -> dict:
    """``fault_plan``/``retry_policy`` kwargs shared by every engine."""
    from repro.mapreduce.faults import FaultPlan, RetryPolicy

    fault_plan = FaultPlan.parse(args.faults) if args.faults else None
    retry_policy = None
    if args.max_task_attempts is not None:
        if args.max_task_attempts < 1:
            raise ValueError(
                f"--max-task-attempts must be >= 1, got {args.max_task_attempts}"
            )
        retry_policy = RetryPolicy(max_attempts=args.max_task_attempts)
    return {"fault_plan": fault_plan, "retry_policy": retry_policy}


def _make_cluster(args: argparse.Namespace) -> SimulatedCluster:
    num_nodes = args.nodes
    if args.dfs_dir is not None:
        from repro.mapreduce.diskdfs import LocalDiskDFS

        dfs = LocalDiskDFS(args.dfs_dir, num_nodes=num_nodes)
    else:
        dfs = InMemoryDFS(num_nodes=num_nodes)
    faults = _fault_options(args)
    if args.parallel is not None:
        from repro.mapreduce.executor import PersistentParallelCluster

        return PersistentParallelCluster(
            ClusterConfig(num_nodes=num_nodes), dfs, workers=args.parallel,
            **faults,
        )
    return SimulatedCluster(ClusterConfig(num_nodes=num_nodes), dfs, **faults)


def _make_checkpoint(args: argparse.Namespace):
    """A :class:`JoinCheckpoint` for ``--checkpoint``/``--resume``."""
    root = args.resume if args.resume is not None else args.checkpoint
    if root is None:
        return None
    from repro.join.checkpoint import JoinCheckpoint

    return JoinCheckpoint(root, resume=args.resume is not None)


def _attach_tracer(args: argparse.Namespace, cluster: SimulatedCluster):
    """Attach a Tracer to *cluster* when ``--trace`` was given."""
    if args.trace is None:
        return None
    from repro.obs.trace import Tracer

    cluster.tracer = Tracer()
    return cluster.tracer


def _export_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    tracer.export(args.trace)
    print(f"trace ({len(tracer)} events) -> {args.trace}", file=sys.stderr)


def _attach_telemetry(args: argparse.Namespace, cluster: SimulatedCluster, tracer):
    """Attach a TelemetryHub to *cluster* when ``--progress`` was given."""
    if not args.progress:
        return None
    from repro.obs.telemetry import TelemetryHub, make_progress_view

    cluster.telemetry = TelemetryHub(
        view=make_progress_view(stream=sys.stderr), tracer=tracer
    )
    return cluster.telemetry


def _record_run(
    args: argparse.Namespace, workload: str, config: JoinConfig, report: JoinReport
) -> None:
    """Write the run manifest unless ``--no-run-manifest``.  The registry
    is observe-only: a manifest that cannot be written (unwritable or
    non-directory runs dir) costs a warning, never the finished run."""
    if args.no_run_manifest:
        return
    from repro.obs.runs import (
        build_run_manifest,
        resolve_runs_dir,
        write_run_manifest,
    )

    doc = build_run_manifest(
        kind=args.command, workload=workload, config=config, report=report,
        argv=sys.argv[1:],
    )
    try:
        path = write_run_manifest(resolve_runs_dir(args.runs_dir), doc)
    except OSError as exc:
        print(f"warning: run manifest not written: {exc}", file=sys.stderr)
        return
    print(f"run {doc['id']} -> {path}", file=sys.stderr)


def _emit(args: argparse.Namespace, pairs: list, report: JoinReport) -> None:
    lines = []
    for line1, line2, similarity in pairs:
        if args.full_records:
            lines.append(f"{similarity:.6f}{FIELD_SEP}{line1}{FIELD_SEP}{line2}")
        else:
            lines.append(
                f"{similarity:.6f}{FIELD_SEP}{rid_of(line1)}{FIELD_SEP}{rid_of(line2)}"
            )
    write_records(args.output, lines)
    print(f"{len(pairs)} pairs -> {args.output}", file=sys.stderr)
    counters = report.counters()
    if counters.get("fault.injected") or counters.get("task.retries"):
        print(
            "  faults: "
            f"injected={counters.get('fault.injected', 0)}, "
            f"retries={counters.get('task.retries', 0)}, "
            f"lost={counters.get('task.lost', 0)}",
            file=sys.stderr,
        )
    if counters.get("resume.stages_skipped"):
        print(
            f"  resume: stages_skipped={counters['resume.stages_skipped']}",
            file=sys.stderr,
        )
    if counters.get("memory.replans"):
        steps = " -> ".join(report.memory_steps) or "replayed"
        print(
            f"  memory: replans={counters['memory.replans']}, "
            f"steps: {steps}",
            file=sys.stderr,
        )
    if args.stats:
        for stage, seconds in report.stage_times().items():
            shape = (
                f", replication {report.stage2_replication:.2f}, "
                f"max reducer input {report.stage2_max_reducer_input:,}"
                if stage == "stage2" else ""
            )
            print(f"  {stage}: {report.stage_wall_s[stage]:.2f}s wall, "
                  f"{seconds:.1f}s simulated ({args.nodes} nodes){shape}",
                  file=sys.stderr)
        from repro.bench.reporting import (
            format_executor_summary,
            format_filter_counters,
            format_histograms,
        )
        from repro.obs.metrics import histograms

        print(format_filter_counters(report.filter_counters()), file=sys.stderr)
        summary = report.executor_summary()
        if summary.get("pooled_phases") or summary.get("inline_phases"):
            print(format_executor_summary(summary), file=sys.stderr)
        decoded = histograms(report.counters())
        if decoded:
            print(format_histograms(decoded), file=sys.stderr)


def _cmd_join(args: argparse.Namespace) -> int:
    """``selfjoin INPUT`` and ``rsjoin R_INPUT S_INPUT``."""
    if args.command == "selfjoin":
        paths, names, join = [args.input], ["input"], ssjoin_self
    else:
        paths, names, join = [args.r_input, args.s_input], ["r", "s"], ssjoin_rs
    try:
        # everything the user can get wrong is checked here, before any
        # worker forks: the inputs stay in their files, and registering
        # one reads it through once (missing, or not UTF-8)
        config = _build_config(args)
        check_stage2_plan(config, rs=args.command == "rsjoin")
        cluster = _make_cluster(args)
        for name, path in zip(names, paths):
            cluster.dfs.put_lines(name, path)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    tracer = _attach_tracer(args, cluster)
    hub = _attach_telemetry(args, cluster, tracer)
    try:
        try:
            report = join(
                cluster, *names, config,
                checkpoint=_make_checkpoint(args),
            )
        finally:
            # also when the join raised: that run's trace is the one
            # wanted, and its traceback must start on a fresh line, not
            # on the progress bar's \r-redrawn one
            if hub is not None:
                hub.close()
            _export_trace(args, tracer)
    finally:
        # before the manifest is built: RUSAGE_CHILDREN counts a worker
        # only once it is reaped.  The DFS outlives the pool.
        cluster.close()
    if hub is not None:
        print(hub.summary_line(), file=sys.stderr)
    _emit(args, sorted(cluster.dfs.read_all(report.output_file)), report)
    _record_run(args, ",".join(paths), config, report)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        digest_trace,
        format_routing_comparison,
        format_trace_report,
        load_trace,
        validate_trace,
    )

    digests = []
    status = 0
    for path in args.traces:
        try:
            doc = load_trace(path)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            status = 1
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            continue
        problems = validate_trace(doc)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        # a document with no event list is not a trace: nothing to report
        if args.validate_only or not isinstance(doc.get("traceEvents"), list):
            continue
        digests.append(digest_trace(doc, path=path))
    if args.validate_only:
        if status == 0:
            print(f"{len(args.traces)} trace file(s) valid", file=sys.stderr)
        return status
    for digest in digests:
        print(format_trace_report(digest))
    if len(digests) > 1:
        print(format_routing_comparison(digests))
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import counter_names
    from repro.analysis.mrlint import (
        build_counter_registry,
        lint_paths,
        render_counter_registry,
    )

    if args.write_counter_registry or args.check_registry:
        registry = build_counter_registry(args.paths)
        rendered = render_counter_registry(registry)
        registry_path = counter_names.__file__
        if args.write_counter_registry:
            with open(registry_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(
                f"{len(registry)} counter name(s) -> {registry_path}",
                file=sys.stderr,
            )
            return 0
        with open(registry_path, "r", encoding="utf-8") as handle:
            committed = handle.read()
        if committed != rendered:
            print(
                "counter registry is stale: regenerate with "
                "'python -m repro lint src/ --write-counter-registry'",
                file=sys.stderr,
            )
            missing = registry - counter_names.KNOWN_COUNTER_NAMES
            extra = counter_names.KNOWN_COUNTER_NAMES - registry
            for name in sorted(missing):
                print(f"  + {name}", file=sys.stderr)
            for name in sorted(extra):
                print(f"  - {name}", file=sys.stderr)
            return 1
        print("counter registry is in sync", file=sys.stderr)
        return 0

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("mrlint: clean", file=sys.stderr)
    return 0


def _runs_dir(args: argparse.Namespace) -> str:
    from repro.obs.runs import resolve_runs_dir

    return resolve_runs_dir(args.runs_dir)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.obs.runs import dict_field, list_runs

    runs = list_runs(_runs_dir(args))
    if not runs:
        print(f"no runs recorded under {_runs_dir(args)!r}", file=sys.stderr)
        return 0
    rows = [
        [
            doc.get("id", "?"),
            doc.get("kind", "?"),
            doc.get("workload", "?"),
            doc.get("combo", "-"),
            doc.get("pairs", "-"),
            dict_field(doc, "wall_times_s").get("total", "-"),
            dict_field(doc, "stage_times_s").get("total", "-"),
        ]
        for doc in runs
    ]
    print(format_table(
        ["id", "kind", "workload", "combo", "pairs", "wall_s", "total_s"], rows
    ))
    return 0


def _load_runs(args: argparse.Namespace, *refs: str) -> list[dict] | None:
    """The manifests *refs* name, or ``None`` after printing why one
    cannot be loaded (unknown or ambiguous ref, empty registry,
    unreadable manifest file)."""
    from repro.obs.runs import load_run

    directory = _runs_dir(args)
    try:
        return [load_run(directory, ref) for ref in refs]
    except (KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro runs: error: {message}", file=sys.stderr)
        return None


def _cmd_runs_show(args: argparse.Namespace) -> int:
    """The stored manifest plus a ``histograms`` entry derived from its
    ``counters`` (the manifest stores each number once)."""
    import json

    from repro.obs.metrics import histograms
    from repro.obs.runs import dict_field

    docs = _load_runs(args, args.run)
    if docs is None:
        return 2
    doc = docs[0]
    decoded = histograms(dict_field(doc, "counters"))
    shown = {**doc, "histograms": {n: h.as_dict() for n, h in decoded.items()}}
    print(json.dumps(shown, indent=2, sort_keys=True))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_runs_diff
    from repro.obs.runs import diff_runs

    docs = _load_runs(args, args.a, args.b)
    if docs is None:
        return 2
    print(format_runs_diff(diff_runs(*docs)))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.increase import increase_dataset
    from repro.data.synthetic import generate_citeseerx, generate_dblp, generate_skewed

    try:
        if args.num_records < 0:
            raise ValueError(f"record count must be >= 0, got {args.num_records}")
        if args.corpus == "dblp":
            records = generate_dblp(args.num_records, seed=args.seed)
        elif args.corpus == "skewed":
            records = generate_skewed(args.num_records, seed=args.seed)
        else:
            shared = read_records(args.shared_with) if args.shared_with else None
            records = generate_citeseerx(
                args.num_records, seed=args.seed, rid_base=10_000_000, shared_with=shared
            )
        records = increase_dataset(records, args.increase)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro generate: error: {exc}", file=sys.stderr)
        return 2
    write_records(args.output, records)
    print(f"{len(records)} records -> {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel set-similarity joins using MapReduce (SIGMOD 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_self = sub.add_parser("selfjoin", help="self-join one record file")
    p_self.add_argument("input")
    _add_join_options(p_self)
    p_self.set_defaults(func=_cmd_join)

    p_rs = sub.add_parser("rsjoin", help="join two record files (R the smaller)")
    p_rs.add_argument("r_input")
    p_rs.add_argument("s_input")
    _add_join_options(p_rs)
    p_rs.set_defaults(func=_cmd_join)

    p_gen = sub.add_parser("generate", help="generate a synthetic corpus")
    p_gen.add_argument("corpus", choices=["dblp", "citeseerx", "skewed"])
    p_gen.add_argument("num_records", type=int)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--increase", type=int, default=1,
                       help="apply the paper's dataset-increase technique")
    p_gen.add_argument("--shared-with", default=None,
                       help="DBLP file whose publications seed CITESEERX "
                            "(makes R-S joins non-empty)")
    p_gen.set_defaults(func=_cmd_generate)

    p_lint = sub.add_parser(
        "lint",
        help="statically check the MR contract (repro.analysis.mrlint): "
             "pure, deterministic, fork-safe mapper/reducer/kernel code "
             "— through the call graph too; the counter-name registry",
    )
    p_lint.add_argument("paths", nargs="+",
                        help="python files or directory trees to analyze "
                             "as one program")
    p_lint.add_argument("--write-counter-registry", action="store_true",
                        help="regenerate repro/analysis/counter_names.py "
                             "from the counter sites under PATHS")
    p_lint.add_argument("--check-registry", action="store_true",
                        help="exit 1 if the committed counter registry "
                             "does not match the source tree")
    p_lint.set_defaults(func=_cmd_lint)

    p_runs = sub.add_parser(
        "runs",
        help="browse the run-manifest registry (.repro-runs)",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _add_runs_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="registry directory (default: $REPRO_RUNS_DIR "
                            "or .repro-runs)")

    p_runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _add_runs_dir(p_runs_list)
    p_runs_list.set_defaults(func=_cmd_runs_list)

    p_runs_show = runs_sub.add_parser(
        "show", help="print one run manifest as JSON"
    )
    p_runs_show.add_argument("run",
                             help="run id, unique prefix, 'latest', or a "
                                  "manifest file path")
    _add_runs_dir(p_runs_show)
    p_runs_show.set_defaults(func=_cmd_runs_show)

    p_runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs: stage times, changed counters"
    )
    p_runs_diff.add_argument("a", help="baseline run ref")
    p_runs_diff.add_argument("b", help="candidate run ref")
    _add_runs_dir(p_runs_diff)
    p_runs_diff.set_defaults(func=_cmd_runs_diff)

    p_trace = sub.add_parser(
        "trace-report",
        help="analyze --trace output: per-stage critical path, straggler "
             "tasks and reduce-group skew (work-per-slot Gini, straggler "
             "share, p99/median); pass several traces to compare routing "
             "balance",
    )
    p_trace.add_argument("traces", nargs="+",
                         help="Chrome trace-event JSON file(s) from --trace")
    p_trace.add_argument("--validate-only", action="store_true",
                         help="only check the files against the trace-event "
                              "schema (required keys, monotonic ts)")
    p_trace.set_defaults(func=_cmd_trace_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
