"""Stage 3 — record join (Section 3.3 / Section 4 Stage 3).

Builds actual pairs of joined records from the Stage-2 RID-pair list
and the original record file(s).  The paper removes duplicate RID
pairs here; this Stage 2 emits each pair from its one owning group
(:func:`repro.join.stage2.owner_of`), so Stage 3 deduplicates nothing
and *refuses* a pair list that repeats a pair (the half-join reducer
raises) rather than absorbing it.

* **BRJ** (Basic Record Join) — two phases.  Phase one routes every
  record and every RID pair to the RID's reducer, which fills in the
  record for each half of each pair; a composite ``(rid, tag)`` key
  sorted record-first lets the reducer hold only the record.  Phase
  two groups the two half-filled pairs and outputs the complete record
  pair.
* **OPRJ** (One-Phase Record Join) — the RID-pair list is broadcast
  (distributed cache) and indexed by RID; mappers emit the same
  half-filled pairs directly from the record inputs (a map-side join,
  cf. Pig's fragment-replicate join), and a single reduce phase
  assembles them.  Loading the list costs every map slot the same
  constant time — the paper's explanation for OPRJ's limited speedup —
  and every map task holds it, so its memory footprint grows with the
  dataset, which is what makes OPRJ run out of memory at scale (Figure
  14); both effects are reproduced via the runtime's broadcast
  accounting.  The index is built once per process
  (:meth:`~repro.mapreduce.job.Context.view`), as Hadoop localises the
  cache once per node.  OPRJ is the default; a Stage-3 memory fault
  re-runs the stage as BRJ (:mod:`repro.join.memory`).

Self-joins and R-S joins share the implementation: record halves are
addressed by ``(relation, rid)`` with relation 0 for self-joins and
R = 0 / S = 1 for R-S joins, so overlapping RID spaces cannot collide.
Output records are ``(record_line_1, record_line_2, similarity)`` with
the R (or lower-RID) record first.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.join.records import rid_of
from repro.mapreduce.job import Context, MapReduceJob
from repro.mapreduce.types import approx_bytes

#: value tags inside phase-1 keys: the record sorts before its pairs.
_TAG_RECORD = 0
_TAG_PAIR = 1

RECORD_PAIRS_OUTPUT = "stage3.record_pairs_output"


def _pair_targets(pair: tuple, is_rs: bool) -> list[tuple[tuple[int, int], int]]:
    """The two ``((relation, rid), side)`` addresses of a RID pair."""
    rid1, rid2, _sim = pair
    rel2 = 1 if is_rs else 0
    return [((0, rid1), 0), ((rel2, rid2), 1)]


def _half_side(group_key: tuple[int, int], pair: tuple, is_rs: bool) -> int:
    """Which half of *pair* the reducer for *group_key* fills in."""
    if is_rs:
        return group_key[0]
    return 0 if group_key[1] == pair[0] else 1


# ---------------------------------------------------------------------------
# BRJ
# ---------------------------------------------------------------------------


def _make_brj_fill_mapper(
    record_files: dict[str, int], pairs_file: str, is_rs: bool
) -> Callable:
    """Phase-1 mapper: route records and pairs to their RID reducers.

    ``record_files`` maps input file name to its relation tag.
    """

    def mapper(record, ctx: Context) -> None:
        if ctx.input_file == pairs_file:
            for address, _side in _pair_targets(record, is_rs):
                ctx.emit((address, _TAG_PAIR), record)
        else:
            rel = record_files[ctx.input_file]
            ctx.emit(((rel, rid_of(record)), _TAG_RECORD), record)

    return mapper


def _brj_fill_reducer(is_rs: bool) -> Callable:
    """Phase-1 reducer: attach the record to each of its RID pairs."""

    def reducer(group_key: tuple[int, int], values: Iterator, ctx: Context) -> None:
        record_line: str | None = None
        pairs = 0
        for value in values:
            if isinstance(value, str):
                # the (rid, tag) sort delivers the record first
                record_line = value
                ctx.hold("BRJ record half", approx_bytes(value))
                continue
            if record_line is None:
                raise ValueError(
                    f"RID pair {value!r} references RID {group_key[1]} "
                    "which has no record in the Stage-3 input"
                )
            pairs += 1
            ctx.write((value, _half_side(group_key, value, is_rs), record_line))
        ctx.observe("stage3.pairs_per_rid", pairs)
        ctx.hold("BRJ record half", 0)

    return reducer


def _half_join_mapper(record: tuple, ctx: Context) -> None:
    """Phase-2 (identity) mapper: key half-filled pairs by their RID pair."""
    pair_key, side, record_line = record
    ctx.emit(pair_key, (side, record_line))


def _half_join_reducer(pair_key: tuple, values: Iterator, ctx: Context) -> None:
    """Phase-2 reducer: combine the two halves into a full record pair.

    Exactly two halves must arrive.  More means the RID-pair list held
    the pair more than once — Stage 2 emits each pair from one owner,
    so that is a bug (or a stale pair file) and must be loud, not
    absorbed; fewer means a dangling RID."""
    arrived = list(values)
    if len(arrived) != 2:
        raise ValueError(
            f"RID pair {pair_key!r} received {len(arrived)} halves instead of 2: "
            + (
                "the RID-pair list repeats it (Stage 2 must emit each pair once)"
                if len(arrived) > 2
                else "does every RID in the pair list exist in the record input?"
            )
        )
    halves = dict(arrived)
    _rid1, _rid2, similarity = pair_key
    ctx.write((halves[0], halves[1], similarity))
    ctx.counters.increment(RECORD_PAIRS_OUTPUT)


def brj_jobs(
    record_files: dict[str, int],
    pairs_file: str,
    output: str,
    num_reducers: int,
    is_rs: bool,
) -> list[MapReduceJob]:
    """The two BRJ jobs: fill halves, then join halves."""
    halves_file = output + ".halves"
    fill_job = MapReduceJob(
        name="brj-fill",
        inputs=[*record_files, pairs_file],
        output=halves_file,
        mapper=_make_brj_fill_mapper(record_files, pairs_file, is_rs),
        reducer=_brj_fill_reducer(is_rs),
        num_reducers=num_reducers,
        group_key=lambda key: key[0],
    )
    join_job = MapReduceJob(
        name="brj-join",
        inputs=[halves_file],
        output=output,
        mapper=_half_join_mapper,
        reducer=_half_join_reducer,
        num_reducers=num_reducers,
    )
    return [fill_job, join_job]


# ---------------------------------------------------------------------------
# OPRJ
# ---------------------------------------------------------------------------


def oprj_jobs(
    record_files: dict[str, int],
    pairs_file: str,
    output: str,
    num_reducers: int,
    is_rs: bool,
) -> list[MapReduceJob]:
    """The single OPRJ job: broadcast the RID pairs, join map-side."""

    def index_pairs(pairs: list) -> dict[tuple[int, int], list[tuple]]:
        """The (relation, rid) -> pairs index every map task joins on."""
        by_rid: dict[tuple[int, int], list[tuple]] = {}
        for pair in pairs:
            for address, _side in _pair_targets(pair, is_rs):
                by_rid.setdefault(address, []).append(pair)
        return by_rid

    def map_setup(ctx: Context) -> None:
        # Every task holds the index: the runtime holds the raw list
        # bytes, this the index's, 48 B per pair.
        # This is the load whose cost is constant in the cluster size
        # and whose footprint grows with the data (Section 6.1.1 Stage
        # 3, Figure 14).  The index itself is built once per process
        # (Context.view), and its build billed to each slot's first task.
        ctx.hold("OPRJ broadcast RID-pair index", 48 * len(ctx.broadcast[pairs_file]))

    def mapper(record, ctx: Context) -> None:
        rel = record_files[ctx.input_file]
        address = (rel, rid_of(record))
        pairs = ctx.view(pairs_file, index_pairs).get(address, ())
        # BRJ's fill reducer observes the same, once per record's RID
        ctx.observe("stage3.pairs_per_rid", len(pairs))
        for pair in pairs:
            side = _half_side(address, pair, is_rs)
            ctx.emit(pair, (side, record))

    return [
        MapReduceJob(
            name="oprj",
            inputs=list(record_files),
            output=output,
            mapper=mapper,
            reducer=_half_join_reducer,
            num_reducers=num_reducers,
            broadcast=[pairs_file],
            map_setup=map_setup,
        )
    ]


def stage3_jobs(
    config: JoinConfig,
    record_files: dict[str, int],
    pairs_file: str,
    output: str,
    num_reducers: int,
    is_rs: bool,
) -> list[MapReduceJob]:
    """Build the Stage 3 jobs selected by ``config.stage3``."""
    if config.stage3 == "brj":
        return brj_jobs(record_files, pairs_file, output, num_reducers, is_rs)
    return oprj_jobs(record_files, pairs_file, output, num_reducers, is_rs)
