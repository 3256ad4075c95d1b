"""Sweep runners for the paper's experiments.

Each function runs end-to-end joins on a fresh simulated cluster and
returns plain row dictionaries; the ``benchmarks/`` files wrap them in
pytest-benchmark and print paper-style tables via
:mod:`repro.bench.reporting`.

Times reported are the cluster's *simulated* wall-clock seconds (see
:mod:`repro.mapreduce.cluster`); absolute values are not comparable to
the paper's Hadoop testbed, shapes are.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bench.workloads import rs_workload
from repro.join.config import JoinConfig
from repro.join.driver import JoinReport, ssjoin_rs, ssjoin_self
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.types import InsufficientMemoryError

#: the three stage combinations the paper sweeps in Figures 8-14.  OPRJ
#: runs without the memory ladder: the paper's Hadoop had none, and the
#: points where it runs out of memory (Figures 12/14) are its claim
PAPER_COMBOS: dict[str, JoinConfig] = {
    "BTO-BK-BRJ": JoinConfig(stage1="bto", kernel="bk", stage3="brj"),
    "BTO-PK-BRJ": JoinConfig(stage1="bto", kernel="pk", stage3="brj"),
    "BTO-PK-OPRJ": JoinConfig(
        stage1="bto", kernel="pk", stage3="oprj", auto_degrade=False
    ),
}


def make_cluster(
    num_nodes: int,
    block_bytes: int = 64 * 1024,
    memory_per_task_mb: float | None = None,
) -> SimulatedCluster:
    """A fresh cluster + DFS for one experiment run."""
    config = ClusterConfig(num_nodes=num_nodes, memory_per_task_mb=memory_per_task_mb)
    return SimulatedCluster(config, InMemoryDFS(num_nodes=num_nodes, block_bytes=block_bytes))


def run_join(
    data: "Sequence[str] | tuple[Sequence[str], Sequence[str]]",
    config: JoinConfig,
    num_nodes: int = 10,
    memory_per_task_mb: float | None = None,
) -> JoinReport:
    """One end-to-end join on a fresh cluster: a self-join when *data*
    is a sequence of record lines, an R-S join when it is an ``(r, s)``
    pair of such sequences."""
    cluster = make_cluster(num_nodes, memory_per_task_mb=memory_per_task_mb)
    if len(data) == 2 and not isinstance(data[0], str):
        cluster.dfs.write("r", list(data[0]))
        cluster.dfs.write("s", list(data[1]))
        return ssjoin_rs(cluster, "r", "s", config)
    cluster.dfs.write("records", list(data))
    return ssjoin_self(cluster, "records", config)


def oprj_oom_budget_mb() -> float:
    """The per-task memory budget of Figures 12/14: three times the
    peak an unbudgeted BTO-PK-OPRJ join of the x5 R-S workload meters.

    Every OPRJ map task holds the whole RID-pair list plus its index,
    and the list grows linearly with the increase factor
    (``tests/test_memory_model.py`` pins both, byte-exact), so the
    budget admits x5 and x10 and fails x20 and x25 — the paper's
    missing points — while BRJ tasks peak an order of magnitude lower
    at every factor.  Measured rather than a literal, so a change to
    the pair list moves the budget with it."""
    report = run_join(rs_workload(5), PAPER_COMBOS["BTO-PK-OPRJ"])
    peak = max(t.peak_memory_bytes for p in report.stage3.phases for t in p.map_tasks)
    return 3 * peak / 2**20


_ROW_METRICS = ("stage1_s", "stage2_s", "stage3_s", "total_s", "pairs")


def sweep(
    cases: Iterable[tuple],
    combos: dict[str, JoinConfig] | None = None,
    memory_per_task_mb: float | None = None,
) -> list[dict]:
    """Every figure of Section 6: one row per case x combo.

    *cases* are ``(key, data, num_nodes)`` — *key* is what the figure
    varies (increase factor, node count), *data* what :func:`run_join`
    takes.  Size sweeps (Figs. 8/12) vary the data on a fixed cluster,
    speedup (Figs. 9/10/13) the cluster under fixed data, scaleup
    (Figs. 11/14) both together.  Rows carry the per-stage and total
    simulated seconds and the Stage-2 pair count under ``combo`` (the
    *combos* label; default :data:`PAPER_COMBOS`) and ``key``; a join
    that exhausts *memory_per_task_mb* is a row of NaNs with status
    ``OOM``, exactly like the paper's missing data points."""
    combos = combos or PAPER_COMBOS
    rows = []
    for key, data, num_nodes in cases:
        for label, config in combos.items():
            row = {"combo": label, "key": key}
            try:
                report = run_join(data, config, num_nodes, memory_per_task_mb)
            except InsufficientMemoryError as error:
                row.update(
                    dict.fromkeys(_ROW_METRICS, float("nan")),
                    status=f"OOM ({error.what})",
                )
            else:
                times = report.stage_times()
                row.update(
                    stage1_s=times["stage1"],
                    stage2_s=times["stage2"],
                    stage3_s=times["stage3"],
                    total_s=report.total_simulated_s,
                    pairs=report.counters().get("stage2.pairs_output", 0),
                    status="ok",
                )
            rows.append(row)
    return rows


#: Tables 1/2 — every stage algorithm, each timed inside an end-to-end
#: run whose other stages use the paper's defaults (BTO / PK / BRJ),
#: matching how the paper isolates a stage: algorithm -> (stage, config)
_STAGE_VARIANTS: dict[str, tuple[str, JoinConfig]] = {
    "BTO": ("1", JoinConfig(stage1="bto", stage3="brj")),
    "OPTO": ("1", JoinConfig(stage1="opto", stage3="brj")),
    "BK": ("2", JoinConfig(kernel="bk", stage3="brj")),
    "PK": ("2", JoinConfig(kernel="pk", stage3="brj")),
    "BRJ": ("3", JoinConfig(stage3="brj")),
    "OPRJ": ("3", JoinConfig(stage3="oprj", auto_degrade=False)),
}


def stage_breakdown(cases: Iterable[tuple]) -> list[dict]:
    """Tables 1/2: per-stage, per-algorithm times over *cases* (as for
    :func:`sweep`: fixed data for Table 1's speedup, data growing with
    the cluster for Table 2's scaleup)."""
    combos = {alg: config for alg, (_stage, config) in _STAGE_VARIANTS.items()}
    rows = []
    for row in sweep(cases, combos):
        stage = _STAGE_VARIANTS[row["combo"]][0]
        rows.append(
            {
                "stage": stage,
                "alg": row["combo"],
                "key": row["key"],
                "time_s": row[f"stage{stage}_s"],
            }
        )
    return rows
