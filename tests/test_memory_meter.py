"""The simulated task-memory meter, pinned on ``generate dblp 2000
--seed 7`` at τ = 0.8: every task's ``peak_memory_bytes``, per job, for
a plan of each memory holder (the broadcast, OPRJ's index, OPTO's
counts, BK's stored group with and without blocks, BRJ's record half,
the PK index, the full-record group), and every raise of the ladder
walk under the CI squeeze and under an exhausted ladder.

The figures were recorded when the meter was still a ledger (deltas
charged and released); holding levels must reproduce each of them.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.data.synthetic import generate_dblp
from repro.join.blocks import MAP_BASED, REDUCE_BASED, BlockPolicy
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.join.fullrecord import full_record_self_join
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.job import Context
from repro.mapreduce.types import InsufficientMemoryError
from repro.obs.trace import Tracer

BASE = JoinConfig(threshold=0.8)

#: plan name -> (join, config)
PLANS = {
    "default": (ssjoin_self, BASE),
    "bk": (ssjoin_self, BASE.with_options(kernel="bk")),
    "bk-map-blocks": (
        ssjoin_self, BASE.with_options(kernel="bk", blocks=BlockPolicy(MAP_BASED, 3)),
    ),
    "bk-reduce-blocks": (
        ssjoin_self, BASE.with_options(kernel="bk", blocks=BlockPolicy(REDUCE_BASED, 3)),
    ),
    "opto": (ssjoin_self, BASE.with_options(stage1="opto")),
    "brj": (ssjoin_self, BASE.with_options(stage3="brj")),
    "full-record": (full_record_self_join, BASE),
}

#: squeeze name -> its cap in MB on every first Stage-2 reduce attempt
SQUEEZES = {"ci": "0.0012", "exhausted": "0.0003"}


@lru_cache(maxsize=1)
def corpus() -> tuple[str, ...]:
    return tuple(generate_dblp(2000, 7))


def _cluster(**kwargs) -> SimulatedCluster:
    cluster = SimulatedCluster(**kwargs)
    cluster.dfs.write("r", list(corpus()))
    return cluster


def peaks_by_job(plan: str) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Job name -> (map-task peaks, reduce-task peaks) of one clean run."""
    join, config = PLANS[plan]
    report = join(_cluster(), "r", config)
    return {
        phase.job_name: (
            tuple(task.peak_memory_bytes for task in phase.map_tasks),
            tuple(task.peak_memory_bytes for task in phase.reduce_tasks),
        )
        for stage in report.stages.values()
        for phase in stage.phases
    }


def raise_under(squeeze: str) -> tuple[list[tuple[str, str]], tuple | None]:
    """The ladder walk under *squeeze*: each step with the error that
    forced it, then the error that ended the join (``None``: it
    finished)."""
    cluster = _cluster(
        fault_plan=FaultPlan.parse(f"squeeze:stage2-*:reduce:*:0:{SQUEEZES[squeeze]}")
    )
    cluster.tracer = Tracer()
    final = None
    try:
        ssjoin_self(cluster, "r", BASE)
    except InsufficientMemoryError as err:
        final = (err.job, err.task, err.what, err.needed_bytes, err.limit_bytes)
    walk = [
        (event["args"]["step"], event["args"]["error"])
        for event in cluster.tracer.raw_events()
        if event["name"] == "memory-replan"
    ]
    return walk, final


EXPECTED_PEAKS: dict[str, dict] = {
    "bk": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "stage2-bk-self": (
            (14754, 14754),
            (
                2392, 1880, 3248, 2208, 2936, 1632, 2936, 1808, 2968, 3088, 2000, 2800, 3120, 2432,
                3008, 2024, 2944, 3096, 1664, 2456, 1824, 3016, 2472, 2416, 1872, 1744, 2120, 3056,
                2984, 2960, 2920, 2904, 4208, 1776, 2816, 2248, 2192, 3136, 1432, 2088
            ),
        ),
        "oprj": (
            (38560, 38560),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
    "bk-map-blocks": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "stage2-bk-self": (
            (14754, 14754),
            (
                896, 832, 1432, 864, 1568, 744, 1240, 1032, 1280, 1136, 912, 1600, 1496, 968, 1672,
                1024, 1264, 1416, 840, 1288, 888, 1448, 1624, 1056, 888, 808, 984, 1128, 1728, 1400,
                2008, 1496, 1576, 880, 1120, 1248, 904, 1792, 832, 1056
            ),
        ),
        "oprj": (
            (38560, 38560),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
    "bk-reduce-blocks": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "stage2-bk-self": (
            (14754, 14754),
            (
                896, 832, 1432, 864, 1568, 744, 1240, 1032, 1280, 1136, 912, 1600, 1496, 968, 1672,
                1024, 1264, 1416, 840, 1288, 888, 1448, 1624, 1056, 888, 808, 984, 1128, 1728, 1400,
                2008, 1496, 1576, 880, 1120, 1248, 904, 1792, 832, 1056
            ),
        ),
        "oprj": (
            (38560, 38560),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
    "brj": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "stage2-pk-self": (
            (14754, 14754),
            (
                968, 848, 864, 768, 960, 648, 800, 920, 944, 1304, 776, 984, 1072, 864, 768, 584,
                928, 712, 680, 856, 584, 768, 808, 968, 736, 992, 640, 1112, 784, 656, 744, 1376,
                744, 720, 920, 968, 728, 952, 968, 712
            ),
        ),
        "brj-fill": (
            (0, 0, 0),
            (
                341, 313, 338, 314, 343, 313, 317, 342, 340, 335, 335, 335, 330, 320, 340, 355, 341,
                323, 333, 332, 342, 341, 337, 324, 342, 334, 354, 338, 329, 333, 332, 330, 327, 343,
                342, 321, 318, 333, 332, 345
            ),
        ),
        "brj-join": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
    "default": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "stage2-pk-self": (
            (14754, 14754),
            (
                968, 848, 864, 768, 960, 648, 800, 920, 944, 1304, 776, 984, 1072, 864, 768, 584,
                928, 712, 680, 856, 584, 768, 808, 968, 736, 992, 640, 1112, 784, 656, 744, 1376,
                744, 720, 920, 968, 728, 952, 968, 712
            ),
        ),
        "oprj": (
            (38560, 38560),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
    "full-record": {
        "bto-count": (
            (0, 0),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
        "bto-sort": (
            (0,),
            (0,),
        ),
        "fullrecord-self": (
            (14754, 14754),
            (
                3797, 3173, 5409, 3615, 4852, 2680, 5077, 3046, 4747, 4929, 3356, 4655, 5351, 4042,
                4806, 3279, 4716, 4954, 2858, 4312, 3005, 5046, 4057, 4057, 3171, 2992, 3570, 5062,
                5125, 4961, 4806, 4842, 7019, 2866, 4591, 3890, 3655, 5187, 2385, 3437
            ),
        ),
    },
    "opto": {
        "opto": (
            (0, 0),
            (41282,),
        ),
        "stage2-pk-self": (
            (14754, 14754),
            (
                968, 848, 864, 768, 960, 648, 800, 920, 944, 1304, 776, 984, 1072, 864, 768, 584,
                928, 712, 680, 856, 584, 768, 808, 968, 736, 992, 640, 1112, 784, 656, 744, 1376,
                744, 720, 920, 968, 728, 952, 968, 712
            ),
        ),
        "oprj": (
            (38560, 38560),
            (
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ),
        ),
    },
}

EXPECTED_RAISES: dict[str, tuple] = {
    "ci": (
        [
            ("kernel:bk", "PK index: needs 1296 bytes, task budget is 1258 "
             "[job 'stage2-pk-self' reduce task 9 attempt 0]"),
            ("blocks:reduce:2", "BK candidate list: needs 1296 bytes, task budget is 1258 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:4", "BK loaded block: needs 1344 bytes, task budget is 1258 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:8", "BK loaded block: needs 1272 bytes, task budget is 1258 "
             "[job 'stage2-bk-self' reduce task 17 attempt 0]"),
        ],
        None,
    ),
    "exhausted": (
        [
            ("kernel:bk", "PK index: needs 344 bytes, task budget is 314 "
             "[job 'stage2-pk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:2", "BK candidate list: needs 360 bytes, task budget is 314 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:4", "BK loaded block: needs 336 bytes, task budget is 314 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:8", "BK loaded block: needs 336 bytes, task budget is 314 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:16", "BK loaded block: needs 328 bytes, task budget is 314 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
            ("blocks:reduce:32", "BK loaded block: needs 336 bytes, task budget is 314 "
             "[job 'stage2-bk-self' reduce task 0 attempt 0]"),
        ],
        ("stage2-bk-self", 0, "BK loaded block", 344, 314),
    ),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_task_peak_is_pinned(plan):
    assert peaks_by_job(plan) == EXPECTED_PEAKS[plan]


@pytest.mark.parametrize("squeeze", sorted(SQUEEZES))
def test_every_raise_of_the_ladder_walk_is_pinned(squeeze):
    assert raise_under(squeeze) == EXPECTED_RAISES[squeeze]


def test_hold_sets_a_level_per_holder():
    """A holder's bytes replace what it held before; the task's level is
    the sum over holders, its peak the largest sum."""
    ctx = Context(Counters())
    ctx.hold("index", 100)
    ctx.hold("index", 60)
    ctx.hold("cache", 50)
    assert (ctx.held_bytes, ctx.peak_memory_bytes) == (110, 110)
    ctx.hold("index", 0)
    ctx.hold("index", 0)
    assert (ctx.held_bytes, ctx.peak_memory_bytes) == (50, 110)


def test_hold_over_the_budget_raises_naming_the_holder():
    ctx = Context(Counters(), memory_limit_bytes=100)
    ctx.hold("cache", 40)
    ctx.hold("index", 60)
    with pytest.raises(InsufficientMemoryError) as info:
        ctx.hold("index", 61)
    assert (info.value.what, info.value.needed_bytes, info.value.limit_bytes) == (
        "index", 101, 100,
    )
