#!/usr/bin/env python3
"""Wall-clock benchmark of the three-stage set-similarity join.

    python3 benchmarks/wall/run.py                  every workload, both modes
    python3 benchmarks/wall/run.py --quick          the same at a tenth the size
    python3 benchmarks/wall/run.py --list           workload and metric names
    python3 benchmarks/wall/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics from whole-process CLI
runs with nothing recording, each next to a speed probe so that times
can be reported at a reference CPU speed (see speedprobe.py);
``--trace 1`` makes one separate traced
in-process run and reports the per-layer metrics.  With ``--workload``
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; without it the benchmark runs
every workload in both modes, prints every metric by name with its
unit and writes the whole result (spans included) to a JSON file.

The closed loop is one load-generating process running one join at a
time.  See README.md for every definition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(HERE))

import e2e  # noqa: E402
import speedprobe  # noqa: E402
import wallspec  # noqa: E402

@dataclass(frozen=True)
class Effort:
    """How much one invocation does: the measurement, or ``--quick``."""

    #: key of this size's identities in ``expected.json``
    label: str
    #: corpus and oracle sizes are divided by this
    divisor: int
    #: set-up (corpus, files, oracle check, warm-up run) is made this
    #: many times, on the box's CPUs in turn, so that ``setup_s`` is steady
    setup_reps: int
    #: timed runs at least, whatever ``--seconds`` says
    min_runs: int
    #: whole-process runs a traced invocation makes to relate spans to wall
    trace_cli_runs: int
    #: untraced/traced in-process pairs behind ``bench.trace_overhead_pct``
    trace_pairs: int

    def sized(self, workload: wallspec.Workload) -> wallspec.Workload:
        return workload.scaled(self.divisor)

    def oracle_size(self, workload: wallspec.Workload) -> int:
        return wallspec.ORACLE_RECORDS[workload.kind] // self.divisor


FULL = Effort("full", 1, setup_reps=2, min_runs=6, trace_cli_runs=3, trace_pairs=4)
QUICK = Effort("quick", 10, setup_reps=1, min_runs=2, trace_cli_runs=1, trace_pairs=1)

#: stop starting timed runs this long into one workload's invocation
INVOCATION_BUDGET_S = 120.0
DEFAULT_SEED = 7


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program() -> None:
    """Put the program under test on ``sys.path`` (for the child
    processes that import it; this one never does).  Without it there
    is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/wall: no program under test at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


def host_info() -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    info = {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min": load,
        "loaded_at_start": load > nproc / 2,
        "git_commit": commit,
    }
    if info["loaded_at_start"]:
        log(f"warning: 1-min load average {load:.2f} > nproc/2 = {nproc / 2}; "
            "timings will be noisy")
    return info


class Samples:
    """Readings of one end-to-end metric over an invocation.

    Times are kept twice: ``values`` at reference speed (see
    :mod:`speedprobe`), which the metric is made of, and ``raw`` as the
    clock read them.  A CPU of this box and the probe next to it do not
    slow in quite the same proportion, and the proportion differs from
    CPU to CPU by a few percent, so the metric is the mean over the CPUs
    of each CPU's median."""

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.cpus: list[int | None] = []
        self.values: list[float] = []
        self.raw: list[float] = []
        self.probe_rates: list[float] = []

    def add(self, cpu: int | None, value: float, raw: float, rate: float) -> None:
        self.cpus.append(cpu)
        self.values.append(value)
        self.raw.append(raw)
        self.probe_rates.append(rate)

    def summary(self) -> dict:
        per_cpu = [
            statistics.median(v for c, v in zip(self.cpus, self.values) if c == cpu)
            for cpu in dict.fromkeys(self.cpus)
        ]
        return {
            "value": statistics.fmean(per_cpu),
            "unit": self.unit,
            "median": statistics.median(self.values),
            "min": min(self.values),
            "max": max(self.values),
            "n": len(self.values),
            "samples": self.values,
            "raw": self.raw,
            "cpus": self.cpus,
            "probe_rates": self.probe_rates,
        }


def load_expected(effort: Effort, seed: int, name: str) -> dict | None:
    """Committed output identity for the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)[effort.label].get(name)


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def check_expected(expected: dict | None, workdir: Path, oracle_pairs: int | None) -> list[str]:
    if expected is None:
        return []
    problems = []
    out = workdir / "out.tsv"
    pairs = count_lines(out)
    if pairs != expected["pairs"]:
        problems.append(f"{pairs} pairs, committed {expected['pairs']}")
    if e2e.sha256_file(out) != expected["sha256"]:
        problems.append("output SHA-256 differs from the committed one")
    if oracle_pairs is not None and oracle_pairs != expected["oracle_pairs"]:
        problems.append(
            f"oracle found {oracle_pairs} pairs, committed {expected['oracle_pairs']}"
        )
    return problems


def set_up(workload, seed: int, workdir: Path, oracle_size: int | None):
    """Corpus, TSV files and oracle check; for :func:`e2e.in_child`."""
    import inputs

    return inputs.set_up(workload, seed, workdir, SRC, oracle_size)


# -- --trace 0 ---------------------------------------------------------------


def measure_end_to_end(
    workload, seed: int, seconds: float, effort: Effort, workdir: Path,
    probe: speedprobe.SpeedProbe,
) -> dict:
    invocation_start = time.perf_counter()
    tally = e2e.Tally()
    runner = e2e.JoinRunner(workload, workdir, SRC, tally)
    oracle_size = effort.oracle_size(workload)
    # Every timed section runs on one CPU next to the speed probe, the
    # box's CPUs taking turns; the parallel workload needs them all and
    # is timed as it comes.
    cpus = [None] if workload.parallel else (e2e.available_cpus() or [None])

    # Set-up is everything before the first timed run: corpus, TSV
    # files, oracle check, and one discarded full-size run that warms the
    # page cache.  For the parallel workload that run is the sequential
    # engine's, whose output every timed run must then reproduce.
    setup = Samples("s")
    for rep in range(effort.setup_reps):
        cpu = cpus[rep % len(cpus)]
        with probe.section(cpu) as speed:
            files, oracle_pairs, attempted = e2e.in_child(
                set_up, workload, seed, workdir, oracle_size
            )
            tally.merge(attempted)
            if workload.parallel:
                runner.sequential_reference(files)
            else:
                runner.join(files, "warm-up run")
        setup.add(cpu, speed.wall(speed.wall_s), speed.wall_s, speed.rate)
    tally.record(
        "committed expectation",
        check_expected(load_expected(effort, seed, workload.name), workdir, oracle_pairs),
    )

    wall, cpu_time, rss = Samples("s"), Samples("s"), Samples("MiB")
    deadline = time.perf_counter() + seconds
    while len(rss.values) < effort.min_runs or time.perf_counter() < deadline:
        if rss.values and time.perf_counter() - invocation_start > INVOCATION_BUDGET_S:
            break
        cpu = cpus[len(rss.values) % len(cpus)]
        with probe.section(cpu) as speed:
            run = runner.join(files, f"timed run {len(rss.values) + 1}")
        wall.add(cpu, speed.wall(run.wall_s), run.wall_s, speed.rate)
        cpu_time.add(cpu, speed.cpu(run.cpu_s), run.cpu_s, speed.rate)
        rss.add(cpu, run.rss_mb, run.rss_mb, speed.rate)

    return {
        "metrics": {
            "wall_s": wall.summary(),
            "cpu_s": cpu_time.summary(),
            "peak_rss_mb": rss.summary(),
            "setup_s": setup.summary(),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


# -- --trace 1 ---------------------------------------------------------------


def measure_layers(workload, seed: int, effort: Effort, workdir: Path) -> dict:
    """The whole traced invocation; imports the program, so the caller
    runs it through :func:`e2e.in_child`."""
    import layers
    import probes
    from spans import SpanRecorder, duration

    files, _oracle_pairs, tally = set_up(workload, seed, workdir, None)
    runner = e2e.JoinRunner(workload, workdir, SRC, tally)

    cli_walls = [
        runner.join(files, f"cli run {i + 1}").wall_s
        for i in range(effort.trace_cli_runs)
    ]
    tally.record(
        "committed expectation",
        check_expected(load_expected(effort, seed, workload.name), workdir, None),
    )
    # the box only ever adds time, so the least disturbed run of each
    # kind is the one compared: CLI wall, traced and untraced join
    cli_wall = min(cli_walls)
    import_s = statistics.median(
        e2e.run_process(
            [sys.executable, "-c", "import repro.cli"], workdir, runner.env
        ).wall_s
        for _ in range(3)
    )

    # untraced and traced runs alternate; the fastest traced run
    # supplies the spans and feeds the probes
    untraced, traced = [], []
    best = None
    for pair in range(effort.trace_pairs):
        for recorder in (
            SpanRecorder(workload.name, enabled=False),
            SpanRecorder(workload.name),
        ):
            run = layers.run_join(workload, workdir, files, recorder)
            same = e2e.sha256_file(workdir / "inproc.tsv") == runner.reference_sha
            tally.record(
                f"in-process run {pair + 1} ({'traced' if recorder.enabled else 'untraced'})",
                [] if same else ["output differs from the CLI's output"],
            )
            if not recorder.enabled:
                untraced.append(run.wall_s)
                continue
            traced.append(run.wall_s)
            if best is None or run.wall_s < best[0].wall_s:
                best = (run, recorder.spans)
        del run
    run, spans = best

    m = layers.layer_metrics(run, spans)
    m["cli.import_s"] = import_s
    m["mapreduce.accounting_replay_s"] = probes.accounting(run)
    m["mapreduce.accounting_share"] = m["mapreduce.accounting_replay_s"] / run.wall_s
    m["core.tokenize_s"], tokens = probes.tokenize(run)
    m["core.tokenize_records_per_s"] = workload.input_records / m["core.tokenize_s"]
    m["core.encode_s"], projections = probes.encode(run, tokens)
    m["core.ppjoin_s"], counts = probes.ppjoin(run, projections, tokens)
    for name, count in counts.items():
        m[f"core.ppjoin.{name}"] = count
    tally.record(
        "kernel probe",
        [] if counts["pairs"] == m["join.stage3.pairs_out"] else
        [f"probe found {counts['pairs']} pairs, the join {m['join.stage3.pairs_out']}"],
    )
    m["bench.trace_overhead_pct"] = 100.0 * (min(traced) - min(untraced)) / min(untraced)
    top_level = sum(duration(s) for s in spans if s["parent"] is None)
    m["bench.span_coverage"] = (import_s + top_level) / cli_wall

    units = {metric.name: metric.unit for metric in wallspec.PER_LAYER}
    return {
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit in units.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "spans": spans,
    }


# -- one invocation ----------------------------------------------------------


@contextlib.contextmanager
def work_directory(name: str):
    """A scratch directory inside the benchmark's own, so that nothing
    the program writes to its working directory (``.repro-runs/``) lands
    in the repository."""
    workdir = HERE / ".work" / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, effort: Effort) -> dict:
    workload = effort.sized(wallspec.workload(name))
    with work_directory(name) as workdir:
        if not trace:
            with speedprobe.SpeedProbe() as probe:
                return measure_end_to_end(workload, seed, seconds, effort, workdir, probe)
        result = e2e.in_child(measure_layers, workload, seed, effort, workdir)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"trace-{name}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "spans": result["spans"]},
                  handle, indent=1)
    return result


def write_expected() -> int:
    """Regenerate ``expected.json``: pair counts and output SHA-256 of
    every workload at the default seed, full and quick size.  For when
    sizes or the corpus generator change on purpose."""
    document: dict = {}
    for effort in (FULL, QUICK):
        label = effort.label
        document[label] = {}
        for workload in map(effort.sized, wallspec.WORKLOADS):
            with work_directory(workload.name) as workdir:
                files, oracle_pairs, tally = e2e.in_child(
                    set_up, workload, DEFAULT_SEED, workdir,
                    effort.oracle_size(workload),
                )
                runner = e2e.JoinRunner(workload, workdir, SRC, tally)
                runner.join(files, "run")
                if tally.failed:
                    sys.exit("\n".join(tally.problems))
                document[label][workload.name] = {
                    "pairs": count_lines(workdir / "out.tsv"),
                    "sha256": runner.reference_sha,
                    "oracle_pairs": oracle_pairs,
                }
            log(f"{label} {workload.name}: {document[label][workload.name]}")
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        spread = f"  [{m['min']:.4g} .. {m['max']:.4g}, n={m['n']}]" if "n" in m else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{spread}")


def run_all(seed: int, seconds: float, effort: Effort, out: Path) -> int:
    document = {
        "schema": 1, "seed": seed, "quick": effort is QUICK, "host": host_info(),
        "workloads": {},
    }
    failed = 0
    for workload in wallspec.WORKLOADS:
        log(f"== {workload.name}")
        end_to_end = run_workload(workload.name, seed, seconds, False, effort)
        per_layer = run_workload(workload.name, seed, seconds, True, effort)
        attempted = end_to_end["attempted"] + per_layer["attempted"]
        failures = end_to_end["failed"] + per_layer["failed"]
        failed += failures
        document["workloads"][workload.name] = {
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
            "attempted": attempted,
            "failed": failures,
            "failed_share": failures / attempted,
            "problems": end_to_end["problems"] + per_layer["problems"],
            "spans": per_layer["spans"],
        }
        print(f"\n{workload.name}: failed_share = {failures}/{attempted}")
        for problem in document["workloads"][workload.name]["problems"]:
            print(f"  FAILED {problem}")
        print_metrics("  end to end (tracing off)", end_to_end["metrics"])
        print_metrics("  per layer (traced run)", per_layer["metrics"])

    e2e_of = {n: w["end_to_end"] for n, w in document["workloads"].items()}
    seq, par = e2e_of["self-dblp-seq"], e2e_of["self-dblp-par2"]
    document["derived"] = {
        f"records_per_s({w.name})": (
            effort.sized(w).input_records
            / e2e_of[w.name]["wall_s"]["value"]
        )
        for w in wallspec.WORKLOADS
    }
    document["derived"].update({
        "wall_s(par2)/wall_s(seq)": par["wall_s"]["value"] / seq["wall_s"]["value"],
        "cpu_s(par2)-cpu_s(seq)": par["cpu_s"]["value"] - seq["cpu_s"]["value"],
    })
    print("\nderived")
    for name, value in document["derived"].items():
        print(f"  {name:42s} {value:>14.6g}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nresult -> {out}")
    return 1 if failed else 0


def print_listing() -> None:
    print("workloads")
    for w in wallspec.WORKLOADS:
        print(f"  {w.name}{'' if w.gated else ' (measured, not gated by the driver)'}")
    print("end_to_end")
    for m in wallspec.END_TO_END:
        print(f"  {m.name} [{m.unit}] better={m.better} bound={m.bound}")
    print("per_layer  (name [unit] better -> what it should move)")
    for m in wallspec.PER_LAYER:
        print(f"  {m.name} [{m.unit}] better={m.better}{' exact' if m.exact else ''}"
              f" -> {m.moves}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in wallspec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="keep making timed runs for this long "
                             f"(and at least {FULL.min_runs} of them)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10 and two timed runs: a smoke test, "
                             "not a measurement")
    parser.add_argument("--list", action="store_true",
                        help="print workload and metric names with units")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json (pair counts and output "
                             "SHA-256 at the default seed)")
    parser.add_argument("--out", type=Path, default=HERE / "results" / "latest.json",
                        help="result file of a run over every workload")
    args = parser.parse_args(argv)
    if args.list:
        print_listing()
        return 0
    load_program()
    if args.write_expected:
        return write_expected()
    # --quick is a smoke test: the minimum number of runs, no time window
    effort, seconds = (QUICK, 0.0) if args.quick else (FULL, args.seconds)
    if args.workload is None:
        return run_all(args.seed, seconds, effort, args.out)
    host_info()
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), effort)
    for problem in result["problems"]:
        log(f"FAILED {problem}")
    print(result_line(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
