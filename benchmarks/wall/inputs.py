"""Set-up of one workload: corpora made from the seed, and the naive
oracle check.  Imports the program, so it runs in a child process (see
:mod:`e2e`).  Requires ``src`` on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.core.naive import naive_rs_join, naive_self_join
from repro.core.prefixes import Projection
from repro.data.loaders import read_records, write_records
from repro.data.synthetic import generate_citeseerx, generate_dblp
from repro.join.config import JoinConfig
from repro.join.records import join_value, rid_of

from e2e import JoinRunner, Tally
from wallspec import Workload


def make_corpus(workload: Workload, seed: int) -> dict[str, list[str]]:
    """File name -> record lines, a pure function of (workload, seed)."""
    if workload.kind == "self":
        return {"in.tsv": generate_dblp(workload.sizes[0], seed)}
    r_lines = generate_dblp(workload.sizes[0], seed)
    s_lines = generate_citeseerx(
        workload.sizes[1], seed + 1, rid_base=10_000_000, shared_with=r_lines
    )
    return {"r.tsv": r_lines, "s.tsv": s_lines}


def write_corpus(corpus: dict[str, list[str]], directory: Path, prefix: str = "") -> list[str]:
    names = []
    for name, lines in corpus.items():
        write_records(directory / (prefix + name), lines)
        names.append(prefix + name)
    return names


def set_up(
    workload: Workload, seed: int, workdir: Path, src: Path, oracle_size: int | None
) -> tuple[list[str], int | None, Tally]:
    """Generate the workload's corpus from *seed*, write it as TSV and,
    given an *oracle_size*, make the oracle check.  Returns the input
    file names, the oracle's pair count and what was attempted."""
    tally = Tally()
    files = write_corpus(make_corpus(workload, seed), workdir)
    oracle_pairs = None
    if oracle_size is not None:
        runner = JoinRunner(workload, workdir, src, tally)
        oracle_pairs = check_oracle(runner, seed, oracle_size)
    return files, oracle_pairs, tally


def check_oracle(runner: JoinRunner, seed: int, size: int) -> int:
    """Join a corpus of *size* records per relation, made by the same
    generators from the same seed, through the workload's CLI command
    and compare pair for pair with the naive nested-loop join.  Returns
    the oracle's pair count."""
    workload = runner.workload
    small = replace(workload, sizes=(size,) * len(workload.sizes))
    corpus = make_corpus(small, seed)
    inputs = write_corpus(corpus, runner.workdir, "oracle-")
    expected = naive_pairs(workload, corpus)
    _result, problems = runner.run(workload, inputs, "oracle-out.tsv")
    if not problems:
        got = parse_pairs(
            read_records(runner.workdir / "oracle-out.tsv"), workload.kind
        )
        problems = diff_pairs(expected, got)
    runner.tally.record("oracle run", problems)
    return len(expected)


def naive_pairs(workload: Workload, corpus: dict[str, list[str]]) -> dict[tuple[int, int], float]:
    config = JoinConfig(threshold=workload.threshold)

    def project(lines: list[str]) -> list[Projection]:
        return [
            Projection(
                rid_of(line),
                tuple(config.tokenizer.tokenize(join_value(line, config.schema))),
            )
            for line in lines
        ]

    if workload.kind == "self":
        triples = naive_self_join(
            project(corpus["in.tsv"]), config.sim, config.threshold
        )
    else:
        triples = naive_rs_join(
            project(corpus["r.tsv"]), project(corpus["s.tsv"]),
            config.sim, config.threshold,
        )
    return {(a, b): sim for a, b, sim in triples}


def parse_pairs(lines: list[str], kind: str) -> dict[tuple[int, int], float]:
    pairs = {}
    for line in lines:
        sim, a, b = line.split("\t")
        key = (int(a), int(b))
        if kind == "self":
            key = (min(key), max(key))
        pairs[key] = float(sim)
    return pairs


def diff_pairs(
    expected: dict[tuple[int, int], float], got: dict[tuple[int, int], float]
) -> list[str]:
    problems = []
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing:
        problems.append(f"{len(missing)} pairs missing, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} pairs not in the oracle, e.g. {sorted(extra)[:3]}")
    # outputs carry six decimals
    wrong = [k for k in expected.keys() & got.keys() if abs(expected[k] - got[k]) > 1e-6]
    if wrong:
        problems.append(f"{len(wrong)} similarities differ, e.g. {sorted(wrong)[:3]}")
    return problems
