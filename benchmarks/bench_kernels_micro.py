"""Kernel micro-benchmark — single-node join algorithms and encodings.

Not a paper figure; quantifies the filter stack the PK kernel builds
on (brute force vs All-Pairs vs PPJoin vs PPJoin+) plus the two token
encodings the kernels accept: lexicographically sorted string tuples
(the seed's representation) vs frequency-rank ``array('i')`` (the
integer fast path, today's default).

``test_bench_kernel_baseline`` additionally runs the end-to-end
``ssjoin_self`` on the persistent executor, the bitmap, tracing and
skew-adaptive comparisons, and emits
``benchmarks/results/BENCH_kernel.json`` so future PRs have a perf
trajectory to compare against.  It times manually (interleaved rounds,
best-of), so the JSON is produced even under ``--benchmark-disable``.
"""

import json
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench import dblp_times, skewed_times
from repro.core.allpairs import allpairs_self_join
from repro.core.bitmaps import signature as bitmap_signature
from repro.core.naive import naive_self_join
from repro.core.ordering import TokenOrder, count_token_frequencies
from repro.core.ppjoin import ppjoin_self_join
from repro.core.prefixes import Projection
from repro.core.similarity import Jaccard
from repro.core.tokenizers import WordTokenizer
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.join.records import RecordSchema, join_value, rid_of
from repro.mapreduce import (
    ClusterConfig,
    InMemoryDFS,
    PersistentParallelCluster,
    SimulatedCluster,
)

NUM_RECORDS = 600  # brute force is O(n^2); keep the oracle affordable
E2E_FACTOR = 5  # DBLP x5, per the perf acceptance criterion
E2E_ROUNDS = 3
BITMAP_WIDTH = 64
RESULTS_JSON = Path(__file__).parent / "results" / "BENCH_kernel.json"


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


# ---------------------------------------------------------------------------
# the committed baseline artifact
# ---------------------------------------------------------------------------


def _best_of(func, rounds=3):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return min(times)


def _run_e2e(make_cluster, lines, config=None, traced=False):
    cluster = make_cluster()
    if traced:
        from repro.obs.trace import Tracer

        cluster.tracer = Tracer()
    cluster.dfs.write("in.records", lines)
    t0 = time.perf_counter()
    report = ssjoin_self(cluster, "in.records", config or JoinConfig())
    wall = time.perf_counter() - t0
    output = [list(b.records) for b in cluster.dfs.file(report.output_file).blocks]
    stats = getattr(cluster, "executor", None)
    pools = stats.stats.pools_created if stats is not None else None
    if hasattr(cluster, "close"):
        cluster.close()
    return wall, output, pools


def test_bench_kernel_baseline(record_result):
    lines = list(dblp_times(E2E_FACTOR))

    # kernel/encoding micro rows (best-of-3 wall clock)
    micro = {name: _best_of(fn) for name, fn in ENCODINGS.items()}

    # end-to-end on the persistent engine, output checked against the
    # sequential cluster.
    make_persistent = lambda: PersistentParallelCluster(
        ClusterConfig(), InMemoryDFS(), workers=2
    )
    _, reference, _ = _run_e2e(lambda: SimulatedCluster(ClusterConfig(), InMemoryDFS()), lines)
    persistent_walls = []
    pools_seen = None
    for _ in range(E2E_ROUNDS):
        wall, output, pools_seen = _run_e2e(make_persistent, lines)
        assert output == reference, "persistent output diverged from SimulatedCluster"
        persistent_walls.append(wall)
    persistent_best = min(persistent_walls)

    # bitmap filter, micro: the PK kernel at dblp x5 with the bitmap
    # bound replacing the suffix filter (the shipped configuration) vs
    # the plain PPJoin+ stack — bit-identical pairs, interleaved
    # best-of rounds so host noise hits both variants equally.
    xprojs = projections(lines)
    xbprojs = with_signatures(xprojs)
    bitmap_off = lambda: ppjoin_self_join(xprojs, SIM, 0.8)
    bitmap_on = lambda: ppjoin_self_join(
        xbprojs, SIM, 0.8, use_suffix=False, bitmap_width=BITMAP_WIDTH
    )
    assert bitmap_on() == bitmap_off(), "bitmap filter changed the result set"
    off_times, on_times = [], []
    for _ in range(3 * E2E_ROUNDS):  # cheap runs — extra rounds beat host noise
        off_times.append(_best_of(bitmap_off, rounds=1))
        on_times.append(_best_of(bitmap_on, rounds=1))
    b_off, b_on = min(off_times), min(on_times)
    bitmap_speedup = b_off / b_on

    # bitmap filter, end-to-end: same join on the sequential cluster
    # with the filter on (default) vs off — identical joined output.
    mk_sim = lambda: SimulatedCluster(ClusterConfig(), InMemoryDFS())
    e2e_walls = {"on": [], "off": []}
    e2e_outputs = {}
    for _ in range(E2E_ROUNDS):
        for name, cfg in (
            ("off", JoinConfig(bitmap_filter=False)),
            ("on", JoinConfig()),
        ):
            wall, output, _ = _run_e2e(mk_sim, lines, cfg)
            e2e_walls[name].append(wall)
            e2e_outputs[name] = output
    assert e2e_outputs["on"] == e2e_outputs["off"], (
        "bitmap filter changed the end-to-end join output"
    )
    e2e_off, e2e_on = min(e2e_walls["off"]), min(e2e_walls["on"])

    # tracing overhead, end-to-end: the same join with a span tracer
    # attached vs without — bit-identical output (the observe-only
    # guarantee), interleaved rounds, min-of so host noise cancels.
    trace_walls = {"untraced": [], "traced": []}
    trace_outputs = {}
    trace_events = 0
    for _ in range(E2E_ROUNDS):
        for name, traced in (("untraced", False), ("traced", True)):
            wall, output, _ = _run_e2e(mk_sim, lines, traced=traced)
            trace_walls[name].append(wall)
            trace_outputs[name] = output
    t_plain, t_traced = min(trace_walls["untraced"]), min(trace_walls["traced"])
    assert trace_outputs["traced"] == trace_outputs["untraced"], (
        "span tracing changed the end-to-end join output"
    )
    trace_overhead = 100.0 * (t_traced / t_plain - 1.0)

    # skew-adaptive planning, end-to-end: the Zipf-hub skewed corpus
    # where a few hot prefix tokens pin quadratic kernel work onto
    # single reduce partitions.  Static plan vs --adaptive (plan-time
    # sampling + cost model + hot-group splitting), interleaved rounds.
    # The headline number is the *simulated* total — the paper's
    # y-axis (10 nodes × 4 reduce slots); a straggler cannot hurt the
    # wall clock of a host that timeshares every task anyway.  Output
    # must stay bit-identical to the static plan, on the sequential
    # engine and on the parallel engine (workers=2).
    skew_lines = list(skewed_times(2))
    skew_cfgs = {
        "static": JoinConfig(threshold=0.8),
        "adaptive": JoinConfig(threshold=0.8, adaptive=True),
    }
    sim_totals = {name: [] for name in skew_cfgs}
    s2_reduce_makespan = {name: [] for name in skew_cfgs}
    skew_outputs = {}
    skew_splits = 0
    # the straggler signal rides on measured per-task cpu, so give this
    # section extra interleaved rounds for min-of to shed host noise
    for _ in range(2 * E2E_ROUNDS):
        for name, cfg in skew_cfgs.items():
            cluster = SimulatedCluster(ClusterConfig(), InMemoryDFS())
            cluster.dfs.write("in.records", skew_lines)
            rep = ssjoin_self(cluster, "in.records", cfg)
            sim_totals[name].append(rep.total_simulated_s)
            s2_reduce_makespan[name].append(
                rep.stage2.phases[0].reduce_makespan_s
            )
            skew_outputs[name] = [
                list(b.records)
                for b in cluster.dfs.file(rep.output_file).blocks
            ]
            if name == "adaptive":
                skew_splits = rep.counters().get("plan.splits", 0)
    assert skew_outputs["adaptive"] == skew_outputs["static"], (
        "adaptive plan changed the join output"
    )
    assert skew_splits >= 1, "planner split no hot group on the skewed corpus"
    wall_adaptive, out_parallel, _ = _run_e2e(
        lambda: PersistentParallelCluster(
            ClusterConfig(), InMemoryDFS(), workers=2
        ),
        skew_lines,
        skew_cfgs["adaptive"],
    )
    assert out_parallel == skew_outputs["static"], (
        "adaptive output on the parallel engine diverged from the "
        "static sequential oracle"
    )
    sim_static = min(sim_totals["static"])
    sim_adaptive = min(sim_totals["adaptive"])
    skew_improvement = 100.0 * (1.0 - sim_adaptive / sim_static)
    s2_static = min(s2_reduce_makespan["static"])
    s2_adaptive = min(s2_reduce_makespan["adaptive"])
    s2_improvement = 100.0 * (1.0 - s2_adaptive / s2_static)

    payload = {
        "generated_by": "benchmarks/bench_kernels_micro.py::test_bench_kernel_baseline",
        "kernel_micro": {
            "workload": f"dblp x1[:{NUM_RECORDS}], ppjoin+ self-join, jaccard>=0.8",
            "string_tokens_s": round(micro["string"], 4),
            "rank_array_s": round(micro["rank"], 4),
            "rank_speedup": round(micro["string"] / micro["rank"], 3),
        },
        "e2e_ssjoin_self": {
            "workload": f"dblp x{E2E_FACTOR}, bto-pk-brj, workers=2",
            "rounds": E2E_ROUNDS,
            "persistent_best_s": round(persistent_best, 3),
            "persistent_all_s": [round(t, 3) for t in persistent_walls],
            "output_identical_to_simulated": True,
            "persistent_pools_created": pools_seen,
        },
        "bitmap_filter": {
            "micro_workload": (
                f"dblp x{E2E_FACTOR}, ppjoin+ self-join, jaccard>=0.8, "
                f"width={BITMAP_WIDTH}, bitmap replaces suffix filter"
            ),
            "micro_off_best_s": round(b_off, 4),
            "micro_on_best_s": round(b_on, 4),
            "micro_speedup": round(bitmap_speedup, 3),
            "micro_off_all_s": [round(t, 4) for t in off_times],
            "micro_on_all_s": [round(t, 4) for t in on_times],
            "e2e_workload": f"dblp x{E2E_FACTOR}, bto-pk-brj, sequential cluster",
            "e2e_off_best_s": round(e2e_off, 3),
            "e2e_on_best_s": round(e2e_on, 3),
            "e2e_speedup": round(e2e_off / e2e_on, 3),
            "output_identical_on_vs_off": True,
        },
        "tracing": {
            "workload": f"dblp x{E2E_FACTOR}, bto-pk-brj, sequential cluster",
            "rounds": E2E_ROUNDS,
            "untraced_best_s": round(t_plain, 3),
            "traced_best_s": round(t_traced, 3),
            "overhead_pct": round(trace_overhead, 1),
            "untraced_all_s": [round(t, 3) for t in trace_walls["untraced"]],
            "traced_all_s": [round(t, 3) for t in trace_walls["traced"]],
            "output_identical_traced_vs_untraced": True,
        },
        "skew_adaptive": {
            "workload": (
                "skewed x2 (Zipf hubs), bto-pk-brj, jaccard>=0.8, "
                "static plan vs --adaptive, simulated 10 nodes x 4 slots"
            ),
            "rounds": 2 * E2E_ROUNDS,
            "static_simulated_best_s": round(sim_static, 1),
            "adaptive_simulated_best_s": round(sim_adaptive, 1),
            "improvement_pct": round(skew_improvement, 1),
            "static_simulated_all_s": [
                round(t, 1) for t in sim_totals["static"]
            ],
            "adaptive_simulated_all_s": [
                round(t, 1) for t in sim_totals["adaptive"]
            ],
            "stage2_reduce_makespan_static_s": round(s2_static, 1),
            "stage2_reduce_makespan_adaptive_s": round(s2_adaptive, 1),
            "stage2_reduce_improvement_pct": round(s2_improvement, 1),
            "hot_groups_split": skew_splits,
            "output_identical_to_static": True,
            "parallel_workers2_output_identical": True,
            "parallel_workers2_wall_s": round(wall_adaptive, 3),
        },
    }
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    record_result(
        "BENCH_kernel baseline\n"
        f"  encoding micro: string={micro['string']:.4f}s rank={micro['rank']:.4f}s "
        f"(x{micro['string'] / micro['rank']:.2f})\n"
        f"  e2e ssjoin_self dblp x{E2E_FACTOR}: persistent={persistent_best:.3f}s\n"
        f"  bitmap filter micro dblp x{E2E_FACTOR}: off={b_off:.4f}s on={b_on:.4f}s "
        f"(x{bitmap_speedup:.2f}); e2e off={e2e_off:.3f}s on={e2e_on:.3f}s\n"
        f"  tracing e2e dblp x{E2E_FACTOR}: untraced={t_plain:.3f}s "
        f"traced={t_traced:.3f}s overhead={trace_overhead:+.1f}%\n"
        f"  skew-adaptive skewed x2 (simulated): static={sim_static:.1f}s "
        f"adaptive={sim_adaptive:.1f}s improvement={skew_improvement:.1f}% "
        f"(stage2 reduce {s2_static:.1f}s -> {s2_adaptive:.1f}s, "
        f"{s2_improvement:.1f}%), splits={skew_splits}"
    )
