"""Disk-backed DFS: the same block-structured file system persisted to
a local directory.

Use this instead of :class:`~repro.mapreduce.dfs.InMemoryDFS` when the
working set (input copies, shuffle-adjacent intermediate files, joined
output) should not live in RAM, or when intermediate stage outputs
should survive the process (resume a pipeline after inspecting the
RID pairs, for example).  Blocks are pickled lists of records, loaded
lazily one block at a time — exactly the granularity map tasks consume
them at, so peak memory stays one block per in-flight task.  A user's
line file registered with :meth:`LocalDiskDFS.put_lines` is not copied:
its block index names the file (``"source"``) and where each block
starts, and each block is re-read from it.

Layout on disk::

    root/
      <file>.meta.json          # block index: counts, bytes, node placement;
                                # written last, atomically (obs.atomicio)
      <file>.block0000.pkl
      <file>.block0001.pkl
      ...

File names may contain ``/`` and ``.`` (stage outputs look like
``records.selfjoin.ridpairs``); they are encoded to flat, safe disk
names.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Iterable, Iterator

from repro.mapreduce.dfs import (
    DEFAULT_BLOCK_BYTES,
    LineBlock,
    index_line_file,
    split_into_blocks,
)
from repro.obs.atomicio import atomic_write_json

#: same wire protocol as the executor's shuffle path (protocol 5), so a
#: block round-trips through one ``dumps``/``loads`` pair with no
#: stream-framing overhead
_PICKLE = pickle.HIGHEST_PROTOCOL


def _encode_name(name: str) -> str:
    """Filesystem-safe encoding of a DFS file name (reversible)."""
    return name.replace("%", "%25").replace("/", "%2F")


def _read_meta(meta_path: Path) -> dict:
    """One file's block index; a damaged one is a ``ValueError`` naming
    the path."""
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict) or not {"name", "blocks"} <= meta.keys():
            raise ValueError("not a block index document")
    except ValueError as exc:  # JSONDecodeError is one
        raise ValueError(f"unreadable DFS block index {meta_path}: {exc}") from exc
    return meta


class DiskBlock:
    """One lazily-loaded block of a disk-backed file."""

    def __init__(self, path: Path, index: int, node: int, num_records: int, num_bytes: int) -> None:
        self._path = path
        self.index = index
        self.node = node
        self._num_records = num_records
        self._num_bytes = num_bytes

    @property
    def records(self) -> list:
        # slurp the whole block in one read and decode from memory:
        # stream-mode pickle.load would issue many small buffered reads
        # per block, which dominates load time for the small block sizes
        # the simulated DFS uses
        with open(self._path, "rb") as handle:
            blob = handle.read()
        return pickle.loads(blob)

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_bytes(self) -> int:
        return self._num_bytes


class DiskFile:
    """A disk-backed DFS file (duck-typed like
    :class:`~repro.mapreduce.dfs.DFSFile`)."""

    def __init__(self, name: str, blocks: list[DiskBlock | LineBlock]) -> None:
        self.name = name
        self.blocks = blocks

    @property
    def num_records(self) -> int:
        return sum(block.num_records for block in self.blocks)

    @property
    def num_bytes(self) -> int:
        return sum(block.num_bytes for block in self.blocks)

    def records(self) -> Iterator:
        for block in self.blocks:
            yield from block.records


class LocalDiskDFS:
    """Block-structured DFS persisted under ``root``.

    API-compatible with :class:`~repro.mapreduce.dfs.InMemoryDFS`;
    pass it to :class:`~repro.mapreduce.cluster.SimulatedCluster` (or
    the parallel executor) unchanged.
    """

    def __init__(
        self,
        root: str | Path,
        num_nodes: int = 10,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.num_nodes = num_nodes
        self.block_bytes = block_bytes
        self._next_node = 0

    # -- paths --------------------------------------------------------------

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{_encode_name(name)}.meta.json"

    def _block_path(self, name: str, index: int) -> Path:
        return self.root / f"{_encode_name(name)}.block{index:04d}.pkl"

    # -- file operations -------------------------------------------------

    def write(self, name: str, records: Iterable) -> DiskFile:
        """Create (or overwrite) file *name* from *records*.  The block
        index is written last and atomically, so a file either exists
        whole or (after a kill mid-write) not at all."""
        self.delete(name)
        meta_blocks: list[dict] = []
        for index, (block, num_bytes) in enumerate(
            split_into_blocks(records, self.block_bytes)
        ):
            with open(self._block_path(name, index), "wb") as handle:
                handle.write(pickle.dumps(block, _PICKLE))
            meta_blocks.append(
                {
                    "index": index,
                    "node": self._next_node,
                    "num_records": len(block),
                    "num_bytes": num_bytes,
                }
            )
            self._next_node = (self._next_node + 1) % self.num_nodes
        self._write_meta({"name": name, "blocks": meta_blocks})
        return self.file(name)

    def put_lines(self, name: str, path: str | os.PathLike[str]) -> DiskFile:
        """Register the line file *path* as file *name* without copying
        it: the blocks are those of ``write(name, read_records(path))``,
        and the block index records where each starts in *path*
        (:meth:`repro.mapreduce.dfs.InMemoryDFS.put_lines`)."""
        self.delete(name)
        source = os.path.abspath(path)
        meta_blocks: list[dict] = []
        for index, (start, num_records, num_bytes) in enumerate(
            index_line_file(path, self.block_bytes)
        ):
            meta_blocks.append(
                {
                    "index": index,
                    "node": self._next_node,
                    "num_records": num_records,
                    "num_bytes": num_bytes,
                    "start": start,
                }
            )
            self._next_node = (self._next_node + 1) % self.num_nodes
        self._write_meta({"name": name, "source": source, "blocks": meta_blocks})
        return self.file(name)

    def _write_meta(self, meta: dict) -> None:
        atomic_write_json(str(self._meta_path(meta["name"])), meta)

    def file(self, name: str) -> DiskFile:
        meta_path = self._meta_path(name)
        if not meta_path.exists():
            raise FileNotFoundError(f"no such DFS file: {name!r}")
        meta = _read_meta(meta_path)
        source = meta.get("source")
        blocks: list[DiskBlock | LineBlock] = []
        for entry in meta["blocks"]:
            index, node = entry["index"], entry["node"]
            counts = entry["num_records"], entry["num_bytes"]
            if source is None:
                blocks.append(DiskBlock(self._block_path(name, index), index, node, *counts))
            else:
                blocks.append(LineBlock(source, entry["start"], index, node, *counts))
        return DiskFile(name, blocks)

    def read(self, name: str) -> Iterator:
        return self.file(name).records()

    def read_all(self, name: str) -> list:
        return list(self.read(name))

    def exists(self, name: str) -> bool:
        return self._meta_path(name).exists()

    def delete(self, name: str) -> None:
        meta_path = self._meta_path(name)
        if not meta_path.exists():
            return
        for entry in _read_meta(meta_path)["blocks"]:
            self._block_path(name, entry["index"]).unlink(missing_ok=True)
        meta_path.unlink()

    def listdir(self) -> list[str]:
        names = []
        for meta_path in self.root.glob("*.meta.json"):
            names.append(_read_meta(meta_path)["name"])
        return sorted(names)

    # -- placement ----------------------------------------------------------

    def rebalance(self, num_nodes: int) -> None:
        """Re-place every block round-robin over *num_nodes* nodes."""
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        node = 0
        for name in self.listdir():
            meta = _read_meta(self._meta_path(name))
            for entry in meta["blocks"]:
                entry["node"] = node
                node = (node + 1) % num_nodes
            self._write_meta(meta)
        self._next_node = node
