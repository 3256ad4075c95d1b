"""What the wall-clock benchmark measures: workloads and metric names.

One declaration feeds ``run.py --list``, ``compare.py``, the harness
test and (by equality check) ``BENCHMARK.json``.  Nothing here imports
the program under test.

Every workload pins only what defines the *problem* (corpus, seed,
similarity, threshold, self vs R-S, sequential vs ``--parallel 2``).
No physical-tuning flag is ever passed, so a later change that flips a
default or deletes a mechanism is measured instead of hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: records per relation of the small corpus that is joined through the
#: CLI and compared pair for pair with the naive oracle: about 0.25 M
#: comparisons either way, so that set-up, which repeats the check, fits
#: in the time one benchmark run is given
ORACLE_RECORDS = {"self": 700, "rs": 500}
#: worker processes of the parallel workload (the box has two cores)
PARALLEL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "self" or "rs"
    #: corpus sizes: (dblp,) for self-joins, (dblp R, citeseerx S) for R-S
    sizes: tuple[int, ...]
    threshold: float
    parallel: bool
    why: str
    #: listed in ``BENCHMARK.json`` and so held to the bounds by the
    #: driver; an ungated workload is still measured and compared
    gated: bool = True

    def scaled(self, divisor: int) -> "Workload":
        return replace(self, sizes=tuple(max(50, n // divisor) for n in self.sizes))

    @property
    def input_records(self) -> int:
        return sum(self.sizes)


WORKLOADS = (
    Workload(
        "self-dblp-seq", "self", (16000,), 0.8, False,
        "Work is spread over accounting, Stage-2 kernel and Stage 3, so "
        "framework/accounting and default-flip changes show here.",
    ),
    Workload(
        "self-dblp-par2", "self", (16000,), 0.8, True,
        "Same problem on the persistent executor: pool fork, IPC, "
        "spill/shm and parent-side serial sections work only here; "
        "output must equal self-dblp-seq byte for byte.",
        # two workers on two shared cores leave no CPU for the speed
        # probe: timed as the clock reads it, its wall time swings by
        # 20-35 % between invocations whenever a neighbour is busy, more
        # than the widest bound allows
        gated=False,
    ),
    Workload(
        "self-dblp-lowtau", "self", (6000,), 0.5, False,
        "Kernel-bound: most of the join is the Stage-2 reduce (PPJoin "
        "probe, filters, verify), so kernel work shows here and an "
        "accounting change is predicted to move nothing.",
        # every gated workload is a chance to exceed a bound by bad
        # luck, and two share the driver's time budget in windows long
        # enough for eight to ten runs; kernel changes also show on
        # self-dblp-seq
        gated=False,
    ),
    Workload(
        "rs-dblp-csx-seq", "rs", (10000, 10000), 0.8, False,
        "Two tagged inputs, stage2_rs reducers and 5x larger records: "
        "tokenisation and Stage-3 record bytes dominate, so a "
        "self-join-only gain that costs R-S shows here.",
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: end-to-end: share of the parent's median by which the metric may
    #: worsen; per-layer metrics have no bound (None)
    bound: float | None = None
    #: per-layer: the value must repeat exactly between runs of the same
    #: commit and seed (``compare.py`` checks equality)
    exact: bool = False
    #: per-layer: end-to-end metric @ workload this metric should move
    moves: str = ""


# failed_share is reported through the result line's attempted/failed
# counts: it is 0 on a healthy commit, and the benchmark contract takes
# no end-to-end metric that reads 0.  records_per_s = input records /
# wall_s is printed by a full run as a derived figure: gating an exact
# function of wall_s would gate wall_s twice, the second time with the
# wider spread a reciprocal has.  wall_s, cpu_s and setup_s are seconds
# at the speed probe's reference speed (see speedprobe.py), not as the
# clock read them on a box whose CPUs change speed.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
)


def _t(name: str, moves: str) -> Metric:
    return Metric(name, "s", "lower", moves=moves)


def _c(name: str, moves: str, better: str = "lower", unit: str = "count") -> Metric:
    return Metric(name, unit, better, exact=True, moves=moves)


_KERNEL = "join.stage2.reduce_busy_s @ self-dblp-lowtau"
_PAR = "wall_s, cpu_s @ self-dblp-par2 only"

PER_LAYER = (
    _t("cli.import_s", "wall_s everywhere; largest share @ self-dblp-par2"),
    _t("cli.read_s", "wall_s @ rs-dblp-csx-seq"),
    _t("cli.emit_s", "wall_s @ rs-dblp-csx-seq"),
    _t("obs.manifest_s", "wall_s everywhere (fixed cost)"),
    _t("join.driver_s", "wall_s @ self-dblp-par2"),
    _t("join.stage1.wall_s", "wall_s"),
    _t("join.stage2.wall_s", "wall_s @ self-dblp-lowtau"),
    _t("join.stage3.wall_s", "wall_s @ rs-dblp-csx-seq, self-dblp-seq"),
    _t("join.stage1.map_busy_s", "cpu_s @ rs-dblp-csx-seq"),
    _t("join.stage1.reduce_busy_s", "cpu_s"),
    _t("join.stage2.map_busy_s", "cpu_s @ rs-dblp-csx-seq"),
    _t("join.stage2.reduce_busy_s", "cpu_s, wall_s @ self-dblp-lowtau"),
    _t("join.stage3.map_busy_s", "cpu_s @ rs-dblp-csx-seq"),
    _t("join.stage3.reduce_busy_s", "cpu_s @ self-dblp-seq"),
    _c("join.stage2.replication",
       "mapreduce.shuffle_bytes -> wall_s, peak_rss_mb @ self-dblp-seq",
       unit="ratio"),
    _c("join.stage2.max_reducer_input",
       "peak_rss_mb; wall_s @ self-dblp-par2"),
    Metric("join.stage2.reduce_skew", "ratio", "lower",
           moves="wall_s @ self-dblp-par2"),
    _c("join.stage2.pairs", "identity - must never move", "higher"),
    _c("join.stage3.pairs_out", "identity - must never move", "higher"),
    _c("join.stage2.funnel.candidates", _KERNEL),
    _c("join.stage2.funnel.pruned_length", _KERNEL, "higher"),
    _c("join.stage2.funnel.pruned_bitmap", _KERNEL, "higher"),
    _c("join.stage2.funnel.pruned_positional", _KERNEL, "higher"),
    _c("join.stage2.funnel.pruned_suffix", _KERNEL, "higher"),
    _t("mapreduce.dfs_write_s", "wall_s @ rs-dblp-csx-seq"),
    _t("mapreduce.framework_s",
       "wall_s, cpu_s @ self-dblp-seq; no change @ self-dblp-lowtau"),
    _t("mapreduce.accounting_replay_s",
       "wall_s, cpu_s @ self-dblp-seq, rs-dblp-csx-seq; "
       "no change @ self-dblp-lowtau"),
    Metric("mapreduce.accounting_share", "ratio", "lower",
           moves="wall_s, cpu_s @ self-dblp-seq, rs-dblp-csx-seq"),
    _c("mapreduce.shuffle_records",
       "peak_rss_mb everywhere; wall_s @ self-dblp-par2"),
    _c("mapreduce.shuffle_bytes",
       "peak_rss_mb everywhere; wall_s @ self-dblp-par2", unit="bytes"),
    _t("mapreduce.sim_total_s", "none (informational, never gated)"),
    _t("mapreduce.executor.pool_wall_s", _PAR),
    _t("mapreduce.executor.busy_s", _PAR),
    Metric("mapreduce.executor.utilization", "ratio", "higher", moves=_PAR),
    _t("mapreduce.executor.overhead_s", _PAR),
    _c("mapreduce.executor.pools_created", _PAR),
    _c("mapreduce.executor.pooled_phases", _PAR, "higher"),
    _c("mapreduce.executor.inline_phases", _PAR),
    _c("mapreduce.executor.ipc_bytes", _PAR, unit="bytes"),
    _c("mapreduce.executor.spill_bytes", _PAR, unit="bytes"),
    _c("mapreduce.executor.shm_bytes", _PAR, unit="bytes"),
    _t("core.tokenize_s",
       "join.stage1/2.map_busy_s -> wall_s @ rs-dblp-csx-seq"),
    Metric("core.tokenize_records_per_s", "records/s", "higher",
           moves="join.stage1/2.map_busy_s -> wall_s @ rs-dblp-csx-seq"),
    _t("core.encode_s", "wall_s @ rs-dblp-csx-seq"),
    _t("core.ppjoin_s",
       "join.stage2.reduce_busy_s -> wall_s @ self-dblp-lowtau; "
       "small @ self-dblp-seq"),
    _c("core.ppjoin.pruned_length", _KERNEL, "higher"),
    _c("core.ppjoin.pruned_bitmap", _KERNEL, "higher"),
    _c("core.ppjoin.pruned_positional", _KERNEL, "higher"),
    _c("core.ppjoin.pruned_suffix", _KERNEL, "higher"),
    _c("core.ppjoin.pairs", "identity - must never move", "higher"),
    _t("bench.traced_wall_s", "denominator of the shares; follows wall_s"),
    Metric("bench.trace_overhead_pct", "%", "lower",
           moves="must stay < 5"),
    Metric("bench.span_coverage", "ratio", "higher",
           moves="must be >= 0.9"),
)


def listing() -> dict:
    """The names ``BENCHMARK.json`` must agree with, in its own shape."""
    return {
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS if w.gated],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
