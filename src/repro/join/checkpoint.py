"""Stage-level checkpoint/resume for the three-stage join drivers.

A :class:`JoinCheckpoint` persists each completed stage's DFS output
files (the token ordering, the RID pairs, the joined records) into a
:class:`~repro.mapreduce.diskdfs.LocalDiskDFS` under a checkpoint
directory, together with a JSON **manifest** describing:

* the *identity* of the join — join type, input file names, a digest
  of the :class:`~repro.join.config.JoinConfig`, a streaming
  fingerprint of every input file, and the reducer count; and
* per completed stage, the fingerprint and record count of every saved
  file (the Stage-1 entry's fingerprint doubles as the **token-order
  hash**: a resumed Stage 2 is guaranteed to see the exact global
  token order the interrupted run computed).

Resuming (``JoinCheckpoint(dir, resume=True)``) refuses with
:class:`CheckpointMismatchError` unless the manifest's identity matches
the current run exactly — a changed threshold, kernel, tokenizer or a
modified input file must never be silently joined against another
configuration's intermediate data.  On a match, the drivers restore
every completed stage's files into the cluster DFS and re-run only the
remaining stages, so the resumed run's output is byte-identical to an
uninterrupted one (asserted by the chaos test suite).

The manifest and every stored file's block index are written through
:mod:`repro.obs.atomicio` — temp file, flush, fsync, rename, temp
removed on failure — and a stage is recorded only *after* all of its
files are stored, so a run killed at any point leaves the previous
complete manifest in place, naming only stages whose files are whole.
A fresh checkpoint clears the directory without reading it, and
``resume`` reports whatever it cannot read (manifest, block index,
block) as :class:`CheckpointMismatchError` naming the file.
"""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path

from repro.join.config import JoinConfig, config_digest
from repro.mapreduce.diskdfs import LocalDiskDFS
from repro.mapreduce.hashing import sha256
from repro.obs.atomicio import atomic_write_json

__all__ = [
    "CheckpointMismatchError",
    "JoinCheckpoint",
    "checkpoint_identity",
    "config_digest",
    "file_fingerprint",
]

#: 2: Stage-2 pair files hold every RID pair once (one owner per pair);
#: a version-1 ``ridpairs`` file repeats pairs, which Stage 3 now refuses
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"


class CheckpointMismatchError(RuntimeError):
    """Resume refused: the checkpoint belongs to a different join.

    Raised when the manifest is absent/unreadable or its recorded
    identity (config digest, input fingerprints, join type, reducer
    count) differs from the run asking to resume.
    """


def file_fingerprint(dfs, name: str) -> str:
    """Order-sensitive streaming fingerprint of one DFS file."""
    digest = sha256()
    count = 0
    for record in dfs.read(name):
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\x00")
        count += 1
    digest.update(f"records={count}".encode("utf-8"))
    return digest.hexdigest()


def checkpoint_identity(
    join_type: str,
    config: JoinConfig,
    prefix: str,
    dfs,
    input_files: list[str],
    reducers: int,
) -> dict:
    """The identity record a manifest is matched against on resume."""
    return {
        "join": join_type,
        "prefix": prefix,
        "combo": config.combo_name,
        "config": config_digest(config),
        "inputs": {name: file_fingerprint(dfs, name) for name in input_files},
        "reducers": reducers,
    }


class JoinCheckpoint:
    """Persistent stage store under *root* (created if absent).

    ``resume=False`` starts a fresh checkpoint, discarding whatever the
    directory held before; ``resume=True`` requires a manifest whose
    identity matches the one handed to :meth:`begin`.
    """

    def __init__(self, root: str | Path, resume: bool = False) -> None:
        self.root = Path(root)
        self.resume = resume
        self.root.mkdir(parents=True, exist_ok=True)
        self._store = LocalDiskDFS(self.root / "data", num_nodes=1)
        self._manifest: dict = {}

    # -- manifest ---------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _write_manifest(self) -> None:
        atomic_write_json(str(self._manifest_path), self._manifest, indent=2)

    def _load_manifest(self) -> dict:
        try:
            with open(self._manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise CheckpointMismatchError(
                f"no checkpoint manifest at {self._manifest_path} — "
                "nothing to resume"
            ) from None
        except (OSError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"unreadable checkpoint manifest at {self._manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint manifest version {manifest.get('version')!r} "
                f"!= supported version {MANIFEST_VERSION}"
            )
        return manifest

    # -- life cycle -------------------------------------------------------

    def begin(self, identity: dict) -> list[str]:
        """Open the checkpoint for a run with *identity*.

        Returns the names of the stages already completed (empty for a
        fresh checkpoint).  In resume mode a missing or non-matching
        manifest raises :class:`CheckpointMismatchError`, naming every
        identity key that differs.
        """
        if self.resume:
            manifest = self._load_manifest()
            recorded = manifest.get("identity", {})
            if recorded != identity:
                differing = sorted(
                    key
                    for key in set(recorded) | set(identity)
                    if recorded.get(key) != identity.get(key)
                )
                raise CheckpointMismatchError(
                    "checkpoint belongs to a different join — "
                    f"mismatched identity keys: {', '.join(differing)} "
                    f"(checkpoint dir: {self.root})"
                )
            self._manifest = manifest
            return sorted(manifest.get("stages", {}))
        self._manifest = {
            "version": MANIFEST_VERSION,
            "identity": identity,
            "stages": {},
        }
        # discard whatever a previous run left in this dir, unread: a
        # run killed mid-write may have left files no parser accepts
        shutil.rmtree(self._store.root)
        self._store.root.mkdir()
        self._write_manifest()
        return []

    # -- memory-degradation steps -----------------------------------------

    def save_memory_steps(self, steps: list[str]) -> None:
        """Persist the runtime degradation-ladder steps applied so far.

        Written (atomically, like every manifest update) each time the
        driver replans Stage 2 or 3 after a memory fault, so a resumed run
        replays the degraded plan via :meth:`memory_steps` instead of
        rediscovering it rung by rung.
        """
        self._manifest["memory_steps"] = list(steps)
        self._write_manifest()

    def memory_steps(self) -> list[str]:
        """Degradation steps recorded by the interrupted run (in order)."""
        return list(self._manifest.get("memory_steps", []))

    # -- stages -----------------------------------------------------------

    def save_stage(self, stage: str, dfs, files: list[str]) -> None:
        """Persist *files* (read from *dfs*) as stage *stage*'s output.

        The manifest records the stage only after every file is stored,
        so an interrupted save never yields a half-checkpointed stage.
        """
        entry: dict[str, dict] = {}
        for name in files:
            records = dfs.read_all(name)
            self._store.write(f"{stage}/{name}", records)
            entry[name] = {
                "fingerprint": file_fingerprint(dfs, name),
                "records": len(records),
            }
        self._manifest.setdefault("stages", {})[stage] = {"files": entry}
        self._write_manifest()

    def restore_stage(self, stage: str, dfs) -> list[str]:
        """Write stage *stage*'s saved files back into *dfs*.

        Each restored file is re-fingerprinted against the manifest, so
        checkpoint data corrupted on disk is caught rather than joined.
        Returns the restored file names.
        """
        entry = self._manifest.get("stages", {}).get(stage)
        if entry is None:
            raise CheckpointMismatchError(
                f"stage {stage!r} is not recorded in the checkpoint manifest"
            )
        restored = []
        for name, meta in entry["files"].items():
            try:
                records = self._store.read_all(f"{stage}/{name}")
            except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
                raise CheckpointMismatchError(
                    f"unreadable checkpoint data for file {name!r} of stage "
                    f"{stage!r} under {self._store.root}: {exc}"
                ) from exc
            dfs.write(name, records)
            actual = file_fingerprint(dfs, name)
            if actual != meta["fingerprint"]:
                raise CheckpointMismatchError(
                    f"checkpointed file {name!r} of stage {stage!r} does not "
                    f"match its recorded fingerprint (expected "
                    f"{meta['fingerprint'][:12]}…, got {actual[:12]}…)"
                )
            restored.append(name)
        return restored
