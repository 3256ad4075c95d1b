"""Block-structured in-memory distributed file system.

Files are sequences of records (arbitrary Python values, typically
strings or tuples) split into fixed-byte-budget blocks; each block is
assigned to a node round-robin, mirroring the balanced placement the
paper arranges before every experiment (Section 6: an identity job
with one reducer per disk plus round-robin disk choice).

One map task is created per block, so the block size controls map
parallelism exactly as in Hadoop (the paper sets 128 MB; our default
is proportionally smaller for laptop-scale data).

A user's line file is registered with :meth:`InMemoryDFS.put_lines`
rather than copied in: the DFS keeps where each block starts and every
read of a block re-reads its lines (:class:`LineBlock`), as the paper's
map tasks read their split from HDFS.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol

from repro.mapreduce.types import approx_bytes

#: Default block byte budget (records per map task scale with this).
DEFAULT_BLOCK_BYTES = 256 * 1024


def split_into_blocks(
    records: Iterable, block_bytes: int
) -> Iterator[tuple[list, int]]:
    """Cut *records* into ``(block_records, approx_bytes)`` pieces, each
    sealed by the record that takes it to *block_bytes* — the block
    boundaries of every DFS backend.  An empty input still yields one
    (empty) block, so an empty file exists and gets its map task."""
    block: list = []
    num_bytes = 0
    sealed_any = False
    for record in records:
        block.append(record)
        num_bytes += approx_bytes(record)
        if num_bytes >= block_bytes:
            yield block, num_bytes
            block, num_bytes, sealed_any = [], 0, True
    if block or not sealed_any:
        yield block, num_bytes


class DFSBlock(Protocol):
    """A block of any backend, as a map task reads it."""

    @property
    def records(self) -> list: ...


class InputChangedError(RuntimeError):
    """A registered line file no longer holds the records its block
    index was built from: it was edited after :meth:`put_lines`."""


def index_line_file(
    path: str | os.PathLike[str], block_bytes: int
) -> Iterator[tuple[int, int, int]]:
    """One streaming pass over the line file *path*: ``(start, records,
    approx_bytes)`` per block, cut by :func:`split_into_blocks` exactly
    as ``write(name, read_records(path))`` cuts it.  *start* is the
    text-file position (``tell()``) of the block's first line.  Records
    are ``read_records``' lines: UTF-8, universal newlines, whitespace-
    only lines dropped, the trailing ``"\\n"`` stripped."""
    with open(path, encoding="utf-8") as handle:
        # readline, not iteration, so that tell() works between lines
        lines = iter(handle.readline, "")
        records = (line.rstrip("\n") for line in lines if line.strip())
        start = 0
        for block, num_bytes in split_into_blocks(records, block_bytes):
            yield start, len(block), num_bytes
            # the generator stopped right after the sealing line
            start = handle.tell()


class LineBlock:
    """One block of a registered line file: its records are re-read
    from the file (UTF-8, universal newlines) on every access, so only
    the tasks reading the block hold them."""

    def __init__(
        self, path: str, start: int, index: int, node: int,
        num_records: int, num_bytes: int,
    ) -> None:
        self.path = path
        self.start = start
        self.index = index
        self.node = node
        self.num_records = num_records
        self.num_bytes = num_bytes

    @property
    def records(self) -> list[str]:
        records: list[str] = []
        # the block is its records' characters and one newline each,
        # blank lines aside, so the first readlines stops at its last
        # line (it stops once a line takes the total past the hint)
        hint = self.num_bytes + self.num_records - 1
        with open(self.path, encoding="utf-8") as handle:
            handle.seek(self.start)
            while len(records) < self.num_records:
                lines = handle.readlines(hint)
                if not lines:
                    break
                records += [line.rstrip("\n") for line in lines if line.strip()]
                hint = 1  # past blank lines: one line at a time
        if len(records) != self.num_records:
            raise InputChangedError(
                f"{self.path} changed after it was registered: block "
                f"{self.index} indexed {self.num_records} records, "
                f"found {len(records)}"
            )
        return records


@dataclass
class Block:
    """One DFS block: records plus the node holding its (only) replica."""

    index: int
    node: int
    records: list = field(default_factory=list)
    #: approx bytes of the records (blocks are immutable once written);
    #: sized here unless the writer passes the total it already holds
    num_bytes: int = -1

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            self.num_bytes = sum(approx_bytes(record) for record in self.records)

    @property
    def num_records(self) -> int:
        return len(self.records)


@dataclass
class DFSFile:
    """A named, immutable-once-written sequence of blocks."""

    name: str
    blocks: list[Block | LineBlock] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return sum(block.num_records for block in self.blocks)

    @property
    def num_bytes(self) -> int:
        return sum(block.num_bytes for block in self.blocks)

    def records(self) -> Iterator:
        for block in self.blocks:
            yield from block.records


class InMemoryDFS:
    """The cluster's distributed file system.

    ``num_nodes`` only affects block placement; the same DFS instance
    can be re-balanced onto a different node count with
    :meth:`rebalance` when an experiment changes the cluster size.
    """

    def __init__(
        self, num_nodes: int = 10, block_bytes: int = DEFAULT_BLOCK_BYTES
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
        self.num_nodes = num_nodes
        self.block_bytes = block_bytes
        self._files: dict[str, DFSFile] = {}
        self._next_node = 0

    # -- file operations -------------------------------------------------

    def write(self, name: str, records: Iterable) -> DFSFile:
        """Create file *name* from *records*, splitting into blocks and
        placing them round-robin across nodes.  Overwrites silently
        (job outputs replace prior attempts, as in HDFS + job retry)."""
        dfs_file = DFSFile(name)
        for block_records, num_bytes in split_into_blocks(records, self.block_bytes):
            dfs_file.blocks.append(
                Block(
                    index=len(dfs_file.blocks), node=self._next_node,
                    records=block_records, num_bytes=num_bytes,
                )
            )
            self._next_node = (self._next_node + 1) % self.num_nodes
        self._files[name] = dfs_file
        return dfs_file

    def put_lines(self, name: str, path: str | os.PathLike[str]) -> DFSFile:
        """Register the line file *path* as file *name* without reading
        it into memory: the blocks, their sizes and their placement are
        those of ``write(name, read_records(path))``, and each block is
        read from *path* when a task reads it.  The file must not change
        while the DFS file is in use (:class:`InputChangedError`)."""
        source = os.path.abspath(path)
        dfs_file = DFSFile(name)
        for start, num_records, num_bytes in index_line_file(path, self.block_bytes):
            dfs_file.blocks.append(
                LineBlock(
                    source, start, len(dfs_file.blocks), self._next_node,
                    num_records, num_bytes,
                )
            )
            self._next_node = (self._next_node + 1) % self.num_nodes
        self._files[name] = dfs_file
        return dfs_file

    def read(self, name: str) -> Iterator:
        """Iterate the records of file *name*."""
        return self.file(name).records()

    def read_all(self, name: str) -> list:
        """Materialize the records of file *name*."""
        return list(self.read(name))

    def file(self, name: str) -> DFSFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no such DFS file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def listdir(self) -> list[str]:
        return sorted(self._files)

    # -- placement ---------------------------------------------------------

    def rebalance(self, num_nodes: int) -> None:
        """Re-place every block round-robin over *num_nodes* nodes —
        the paper's pre-experiment balancing step."""
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        node = 0
        for name in self.listdir():
            for block in self._files[name].blocks:
                block.node = node
                node = (node + 1) % num_nodes
        self._next_node = node
