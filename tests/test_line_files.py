"""A user's line file registered with ``put_lines`` instead of copied
into the DFS: the same blocks as ``write(name, read_records(path))``,
read by each map attempt from the file."""

import json
import os
import random

import pytest

from repro.data.loaders import read_records
from repro.join.checkpoint import file_fingerprint
from repro.join.config import JoinConfig
from repro.join.driver import ssjoin_self
from repro.mapreduce import cluster as cluster_module
from repro.mapreduce import executor as executor_module
from repro.mapreduce.dfs import InMemoryDFS, InputChangedError, LineBlock
from repro.mapreduce.diskdfs import DiskBlock, LocalDiskDFS
from repro.mapreduce.faults import FaultPlan

from tests.conftest import SCHEMA_1, fork_only, random_records, small_config

#: crafted files, as bytes: every line-ending and blank-line shape
#: ``read_records`` handles, and characters whose UTF-8 form is longer
#: than one byte, so blocks seal at different character and byte offsets
CRAFTED = {
    "lf": b"1\talpha beta\n2\tgamma\n3\tdelta epsilon\n",
    "crlf": b"1\talpha beta\r\n2\tgamma\r\n3\tdelta\r\n",
    "lone-cr": b"1\talpha\r2\tbeta gamma\r3\tdelta\n4\tend\r",
    "mixed-endings": b"1\ta\r\r\n2\tb\n\r3\tc\r\n\n4\td\r",
    "blank-and-whitespace": b"\n1\talpha\n   \n\t\n2\tbeta\n\n \x0c\n3\tgamma\n",
    "no-final-newline": b"1\talpha\n2\tbeta gamma",
    "empty": b"",
    "whitespace-only": b" \n\n\t\r\n",
    "multibyte": (
        "1\tcafé naïve\n2\t中文文本\n"
        "3\t\U0001f600 emoji \U0001f600\n4\tplain ascii line\n"
        "5\tline\u2028separator stays\n6\téééééé\n7\tnext\x85line stays\n"
    ).encode("utf-8"),
    "long-line": b"1\tshort\n2\t" + b"x" * 200 + b"\n3\tafter\n",
}
BLOCK_BYTES = (1, 7, 16, 64)


def _random_file(seed: int) -> bytes:
    """~60 KB of lines with random endings and multi-byte characters,
    so block starts fall on either side of the text reader's chunks."""
    rng = random.Random(seed)
    alphabet = "abc deé中\U0001f600 \t"
    endings = ["\n", "\r\n", "\r", "\n\n", "\r\r", " \n"]
    lines = [
        f"{rid}\t" + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        + rng.choice(endings)
        for rid in range(2500)
    ]
    return "".join(lines).encode("utf-8")


def _block_shape(dfs_file) -> list[tuple[int, int, int, int]]:
    return [
        (block.index, block.node, block.num_records, block.num_bytes)
        for block in dfs_file.blocks
    ]


def _backends(tmp_path, block_bytes):
    """Two fresh DFS instances per backend: one registers the file, the
    other is written from ``read_records``.  Each first writes a
    two-block file, so placement continues round-robin mid-cycle."""
    memory = [InMemoryDFS(num_nodes=3, block_bytes=block_bytes) for _ in range(2)]
    disk = [
        LocalDiskDFS(tmp_path / f"dfs{i}", num_nodes=3, block_bytes=block_bytes)
        for i in range(2)
    ]
    pairs = [memory, disk]
    for registered, written in pairs:
        for dfs in (registered, written):
            dfs.write("other", ["x" * block_bytes] * 2)
    return pairs


def _assert_same_file(tmp_path, content: bytes, block_bytes: int) -> None:
    path = tmp_path / "input.tsv"
    path.write_bytes(content)
    for registered, written in _backends(tmp_path, block_bytes):
        registered.put_lines("input", path)
        written.write("input", read_records(path))
        line_file, copy = registered.file("input"), written.file("input")
        assert all(isinstance(block, LineBlock) for block in line_file.blocks)
        assert _block_shape(line_file) == _block_shape(copy)
        assert [b.records for b in line_file.blocks] == [b.records for b in copy.blocks]
        assert registered.read_all("input") == read_records(path)
        assert file_fingerprint(registered, "input") == file_fingerprint(written, "input")
        # placement goes on from where both left it
        registered.write("after", ["y"])
        written.write("after", ["y"])
        assert _block_shape(registered.file("after")) == _block_shape(written.file("after"))


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_put_lines_makes_the_blocks_write_makes(tmp_path, name, block_bytes):
    _assert_same_file(tmp_path, CRAFTED[name], block_bytes)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("block_bytes", [97, 4096])
def test_put_lines_on_a_larger_random_file(tmp_path, seed, block_bytes):
    _assert_same_file(tmp_path, _random_file(seed), block_bytes)


def test_multibyte_blocks_seal_on_characters_not_bytes(tmp_path):
    """The crafted multi-byte file really seals where a byte count would
    not: ``num_bytes`` counts characters."""
    path = tmp_path / "input.tsv"
    path.write_bytes(CRAFTED["multibyte"])
    dfs = InMemoryDFS(num_nodes=3, block_bytes=16)
    blocks = dfs.put_lines("input", path).blocks
    for block in blocks:
        chars = sum(len(record) for record in block.records)
        assert block.num_bytes == chars
        assert chars < sum(len(r.encode("utf-8")) for r in block.records)
    assert len(blocks) > 1


def test_an_empty_file_has_one_empty_block(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    (block,) = InMemoryDFS().put_lines("input", path).blocks
    assert (block.num_records, block.num_bytes, block.records) == (0, 0, [])


class TestAChangedFile:
    def _registered(self, tmp_path, dfs):
        path = tmp_path / "input.tsv"
        path.write_text("".join(f"{rid}\trecord {rid}\n" for rid in range(40)))
        dfs.put_lines("input", path)
        return path

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_a_truncated_file_raises(self, tmp_path, backend):
        dfs = (
            InMemoryDFS(block_bytes=64) if backend == "memory"
            else LocalDiskDFS(tmp_path / "dfs", block_bytes=64)
        )
        path = self._registered(tmp_path, dfs)
        blocks = dfs.file("input").blocks
        path.write_text("0\trecord 0\n")
        with pytest.raises(InputChangedError, match="changed after it was registered"):
            dfs.read_all("input")
        with pytest.raises(InputChangedError, match=f"block {len(blocks) - 1} indexed"):
            blocks[-1].records

    def test_a_deleted_file_raises_file_not_found(self, tmp_path):
        dfs = InMemoryDFS(block_bytes=64)
        path = self._registered(tmp_path, dfs)
        path.unlink()
        with pytest.raises(FileNotFoundError):
            dfs.read_all("input")


class TestDiskRegistration:
    def test_the_block_index_names_the_file_and_survives_the_process(self, tmp_path):
        path = tmp_path / "input.tsv"
        path.write_text("".join(f"{rid}\tr{rid}\n" for rid in range(30)))
        LocalDiskDFS(tmp_path / "dfs", num_nodes=2, block_bytes=32).put_lines(
            "input", path
        )
        reopened = LocalDiskDFS(tmp_path / "dfs", num_nodes=2, block_bytes=32)
        assert reopened.read_all("input") == read_records(path)
        assert not list((tmp_path / "dfs").glob("*.pkl"))

    def test_rebalance_and_delete_leave_the_users_file(self, tmp_path):
        path = tmp_path / "input.tsv"
        path.write_text("".join(f"{rid}\tr{rid}\n" for rid in range(30)))
        dfs = LocalDiskDFS(tmp_path / "dfs", num_nodes=2, block_bytes=32)
        dfs.put_lines("input", path)
        dfs.rebalance(5)
        assert [b.node for b in dfs.file("input").blocks] == [
            i % 5 for i in range(len(dfs.file("input").blocks))
        ]
        assert dfs.read_all("input") == read_records(path)
        dfs.delete("input")
        assert not dfs.exists("input")
        assert read_records(path)[0] == "0\tr0"

    def test_put_lines_replaces_a_written_file(self, tmp_path):
        path = tmp_path / "input.tsv"
        path.write_text("1\tnew\n")
        dfs = LocalDiskDFS(tmp_path / "dfs", block_bytes=4)
        dfs.write("input", ["old"] * 10)
        dfs.put_lines("input", path)
        assert dfs.read_all("input") == ["1\tnew"]
        assert not list((tmp_path / "dfs").glob("*.pkl"))


# ---------------------------------------------------------------------------
# every map attempt reads its own block
# ---------------------------------------------------------------------------


@pytest.fixture
def read_log(tmp_path, monkeypatch):
    """Log every read of an input block, with the attempt it ran in, to
    a file (pool workers are other processes).  Returns a function
    giving one ``((job, phase, task, attempt), block index)`` per read,
    the first item ``None`` for a read outside any attempt."""
    log_path = tmp_path / "reads.log"
    current: list = [None]

    def wrap_run_attempt(run_attempt):
        def traced(plan, job, phase, task, attempt, limit, run):
            current[0] = (job, phase, task, attempt)
            try:
                return run_attempt(plan, job, phase, task, attempt, limit, run)
            finally:
                current[0] = None
        return traced

    for module in (cluster_module, executor_module):
        monkeypatch.setattr(module, "run_attempt", wrap_run_attempt(module.run_attempt))

    def wrap_records(cls, is_input):
        original = cls.records

        def records(block):
            if is_input(block):
                with open(log_path, "a") as handle:
                    handle.write(json.dumps([current[0], block.index]) + "\n")
            return original.fget(block)
        monkeypatch.setattr(cls, "records", property(records))

    wrap_records(LineBlock, lambda block: True)
    wrap_records(DiskBlock, lambda block: "records.block" in str(block._path))

    def lines():
        if not log_path.exists():
            return []
        return [
            (None if where is None else tuple(where), index)
            for where, index in map(json.loads, log_path.read_text().splitlines())
        ]

    return lines


def _input_jobs(cluster):
    """Wrap *cluster*'s ``run_job`` to list the jobs that read ``records``."""
    names = []
    original = cluster.run_job

    def run_job(job):
        if "records" in job.inputs:
            names.append(job.name)
        return original(job)

    cluster.run_job = run_job
    return names


ENGINES = ["sequential", pytest.param("persistent", marks=fork_only)]
BACKENDS = ["memory-lines", "disk-lines", "disk-pickled"]


def _engine(make_engine, kind, backend, tmp_path, lines, **kwargs):
    """A *kind* engine whose DFS holds *lines* as ``records``: a line
    file registered in RAM or on disk, or a pickled disk-DFS file."""
    tmp_path.mkdir(exist_ok=True)
    config = small_config()
    if backend == "memory-lines":
        dfs = InMemoryDFS(num_nodes=config.num_nodes, block_bytes=512)
    else:
        dfs = LocalDiskDFS(tmp_path / "dfs", num_nodes=config.num_nodes, block_bytes=512)
    path = tmp_path / "records.tsv"
    path.write_text("".join(line + "\n" for line in lines))
    if backend == "disk-pickled":
        dfs.write("records", read_records(path))
    else:
        dfs.put_lines("records", path)
    return make_engine(kind, config=config, dfs=dfs, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ENGINES)
def test_each_map_attempt_reads_its_own_block_once(
    make_engine, read_log, tmp_path, rng, kind, backend
):
    lines = random_records(rng, 150)
    cluster = _engine(make_engine, kind, backend, tmp_path, lines)
    jobs = _input_jobs(cluster)
    num_blocks = len(cluster.dfs.file("records").blocks)
    assert num_blocks > 3
    ssjoin_self(cluster, "records", JoinConfig(threshold=0.5, schema=SCHEMA_1))
    reads = read_log()
    assert len(jobs) == 3  # stage 1's count job, stage 2, stage 3
    # block k is read inside the first (only) attempt of map task k,
    # once per job that reads the input, and never outside an attempt
    assert all(where is not None for where, _index in reads)
    assert sorted(reads) == sorted(
        ((job, "map", index, 0), index) for job in jobs for index in range(num_blocks)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ENGINES)
def test_a_retried_map_attempt_reads_its_block_again(
    make_engine, read_log, tmp_path, rng, kind, backend
):
    """A ``corrupt`` first attempt of task 1 reads its block and runs to
    the end; the driver's retry (attempt 1) reads the block again."""
    lines = random_records(rng, 150)
    config = JoinConfig(threshold=0.5, schema=SCHEMA_1)
    clean = _engine(make_engine, "sequential", "memory-lines", tmp_path / "clean", lines)
    report = ssjoin_self(clean, "records", config)
    expected = sorted(clean.dfs.read_all(report.output_file))
    clean_reads = len(read_log())
    cluster = _engine(
        make_engine, kind, backend, tmp_path / "faulted", lines,
        fault_plan=FaultPlan.parse("corrupt:*:map:1:0"),
    )
    jobs = _input_jobs(cluster)
    num_blocks = len(cluster.dfs.file("records").blocks)
    report = ssjoin_self(cluster, "records", config)
    assert sorted(cluster.dfs.read_all(report.output_file)) == expected
    reads = read_log()[clean_reads:]
    assert len(jobs) == 3
    assert all(where is not None for where, _index in reads)
    for job in jobs:
        assert sorted((where[2], where[3], index) for where, index in reads
                      if where[0] == job) == sorted(
            [(t, 0, t) for t in range(num_blocks)] + [(1, 1, 1)]
        ), job


def test_a_line_block_holds_no_records(tmp_path, rng):
    """What a pool inherits of a line file is its block descriptors."""
    path = tmp_path / "records.tsv"
    path.write_text("".join(line + "\n" for line in random_records(rng, 60)))
    block = InMemoryDFS(block_bytes=512).put_lines("records", path).blocks[0]
    assert set(vars(block)) == {"path", "start", "index", "node", "num_records", "num_bytes"}
    assert os.path.isabs(block.path)
