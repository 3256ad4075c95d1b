"""The differential matrix: one join runner, one cached reference per
(workload, config) and one universal assertion for every "same join
under X" test (DESIGN.md, "Differential matrix").

A *cell* is one join of a named workload under a config, on one engine,
with at most a plan change, a cluster-shape change, a fault plan and an
observer on top.  :func:`cell` runs it and asserts it computed the join
its reference computed: the clean sequential run of the same workload
and config on the default test cluster, itself checked once against the
naive oracle.
"""

from __future__ import annotations

import functools
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.config import JoinConfig
from repro.join.driver import JoinReport, ssjoin_rs, ssjoin_self
from repro.join.memory import apply_degradations
from repro.join.records import rid_of
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import (
    FaultPlan,
    strip_counters,
    strip_fault_counters,
)
from repro.obs.telemetry import ProgressView, TelemetryHub
from repro.obs.trace import Tracer

from tests.conftest import (
    SCHEMA_1,
    assert_pk_funnel_closes,
    make_cluster,
    oracle_rs_pairs,
    oracle_self_pairs,
    pair_keys,
    random_records,
    small_config,
    squeeze_below,
)

#: the config every cell starts from unless it names another
BASE = JoinConfig(threshold=0.5, schema=SCHEMA_1)


def skewed_records(n: int = 200) -> list[str]:
    """One hot token shared by every record, so some Stage-2 group is
    guaranteed to outgrow a squeezed budget."""
    return [
        f"{i}\tword{i % 7} word{i % 11} word{i % 13} word{i % 3} common"
        for i in range(n)
    ]


def _random_rs() -> tuple[list[str], list[str]]:
    rng = random.Random(77)
    return random_records(rng, 40), random_records(rng, 40, rid_base=1000)


def _dblp_csx() -> tuple[list[str], list[str]]:
    dblp = generate_dblp(2000, 7)
    csx = generate_citeseerx(1000, seed=9, rid_base=10_000_000, shared_with=dblp)
    return dblp, csx


#: name -> its inputs' builder: one input is a self-join, two an R-S
#: join.  The dblp ones feed pinned-count tests through :func:`run_join`
#: only: a naive oracle over 2,000 records is too slow for a reference.
WORKLOADS: dict[str, Callable[[], tuple[list[str], ...]]] = {
    "self": lambda: (random_records(random.Random(0xC0FFEE), 60),),
    "rs": _random_rs,
    "skewed": lambda: (skewed_records(),),
    "skewed-rs": lambda: (skewed_records(160), skewed_records(120)),
    "dblp": lambda: (generate_dblp(2000, 7),),
    "dblp-csx": _dblp_csx,
}


@functools.cache
def inputs(workload: str) -> tuple[list[str], ...]:
    """*workload*'s inputs, built once per session."""
    return WORKLOADS[workload]()


@dataclass
class Run:
    pairs: list[tuple[Any, ...]]
    report: JoinReport
    cluster: Any
    #: the attached TelemetryHub or Tracer, if the cell had an observer
    observer: Any = None

    @property
    def counters(self) -> dict[str, int]:
        return self.report.counters()


def run_join(cluster, workload: str, config: JoinConfig = BASE, **driver_kwargs) -> Run:
    """The one join runner: write *workload*'s inputs to *cluster*, run
    the three-stage join, read its output."""
    records = inputs(workload)
    for name, data in zip(("r", "s"), records):
        cluster.dfs.write(name, data)
    if len(records) == 1:
        report = ssjoin_self(cluster, "r", config, **driver_kwargs)
    else:
        report = ssjoin_rs(cluster, "r", "s", config, **driver_kwargs)
    return Run(cluster.dfs.read_all(report.output_file), report, cluster)


def pooled_jobs(report: JoinReport) -> int:
    """Jobs of *report* whose map phase ran on a pool: each forked one,
    so a run's ``pools_created`` is this plus the fresh pools of reduce
    phases whose map phase lost its pool."""
    return sum(
        phase.map_executor is not None and phase.map_executor.mode == "pool"
        for stats in report.stages.values()
        for phase in stats.phases
    )


_REFERENCES: dict[tuple[str, str], Run] = {}


def reference(workload: str, config: JoinConfig = BASE) -> Run:
    """The clean sequential run of *workload* under *config*, computed
    once per session and asserted equal to the naive oracle."""
    key = (workload, repr(config))
    if key not in _REFERENCES:
        run = run_join(make_cluster(), workload, config)
        records = inputs(workload)
        oracle = (
            oracle_self_pairs(*records, config)
            if len(records) == 1
            else oracle_rs_pairs(*records, config)
        )
        assert _rid_pairs(run.pairs) == pair_keys(oracle), (workload, config)
        _assert_consistent(run, config)
        _REFERENCES[key] = run
    return _REFERENCES[key]


def squeeze(workload: str, config: JoinConfig = BASE, fraction: float = 0.5) -> str:
    """A fault plan capping every first Stage-2 reduce attempt at
    *fraction* of the peak the reference meters there."""
    return squeeze_below(reference(workload, config).report, fraction)


def _rid_pairs(pairs) -> list[tuple[int, int]]:
    return pair_keys((rid_of(a), rid_of(b), s) for a, b, s in pairs)


def _comparable(counters: dict[str, int]) -> dict[str, int]:
    """*counters* without what an absorbed fault, a replan or the
    sanitizer adds; every other counter, with any observer attached, is
    the reference's."""
    return strip_counters(strip_fault_counters(counters), ("sanitize.",))


def assert_same_join(
    run: Run,
    workload: str,
    config: JoinConfig = BASE,
    *,
    ran: JoinConfig | None = None,
    same_shape: bool = True,
) -> None:
    """The universal assertion: *run*, of *workload* under *ran* (by
    default *config*) on a cluster of the reference's shape or not,
    computed the join of the reference of *workload* under *config*."""
    ref = reference(workload, config)
    report, counters = run.report, run.counters
    ran = ran or config
    same_plan = ran.with_options(sanitize=config.sanitize) == config
    if same_plan and same_shape and not report.memory_steps:
        # the very same bytes, counter for counter
        assert run.pairs == ref.pairs
        assert _comparable(counters) == _comparable(ref.counters)
    else:
        assert sorted(run.pairs) == sorted(ref.pairs)
    _assert_consistent(run, ran)


def _assert_consistent(run: Run, config: JoinConfig) -> None:
    """What one join's report must say of itself, run under *config*."""
    report, counters = run.report, run.counters
    ran = apply_degradations(config, report.memory_steps)
    assert report.combo == ran.combo_name
    if ran.kernel == "pk":
        assert_pk_funnel_closes(counters)
    assert (
        counters["stage2.pairs_output"]
        == counters["stage3.record_pairs_output"]
        == len(run.pairs)
    )


def cell(
    make_engine,
    workload: str = "self",
    config: JoinConfig = BASE,
    *,
    engine: str = "sequential",
    plan: dict | None = None,
    shape: dict | None = None,
    faults: str | FaultPlan | None = None,
    observer: str | None = None,
    **engine_kwargs,
) -> Run:
    """Run one cell — *workload* under *config* with *plan* (JoinConfig
    changes), *shape* (``num_nodes`` / ``block_bytes`` / other
    ClusterConfig changes), *faults* and *observer* (``"trace"``,
    ``"telemetry"`` or ``"sanitize"``) on *engine* — and assert it is the
    reference's join.  Returns the run for the cell's own checks."""
    overrides = dict(shape or {})
    block_bytes = overrides.pop("block_bytes", 512)
    cluster_config = small_config(**overrides)
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    cluster = make_engine(
        engine,
        cluster_config,
        InMemoryDFS(num_nodes=cluster_config.num_nodes, block_bytes=block_bytes),
        fault_plan=faults,
        **engine_kwargs,
    )
    run_config = config.with_options(**(plan or {}))
    attached = None
    if observer == "trace":
        attached = cluster.tracer = Tracer()
    elif observer == "telemetry":
        attached = cluster.telemetry = TelemetryHub(
            view=ProgressView(stream=io.StringIO(), interval_s=0.0)
        )
    elif observer == "sanitize":
        run_config = run_config.with_options(sanitize=True)
    try:
        run = run_join(cluster, workload, run_config)
    finally:
        cluster.close()
        if observer == "telemetry":
            attached.close()
    run.observer = attached
    assert_same_join(run, workload, config, ran=run_config, same_shape=not shape)
    if observer == "sanitize":
        assert run.counters.get("sanitize.checks", 0) > 0
        assert run.counters.get("sanitize.violations", 0) == 0
    return run

