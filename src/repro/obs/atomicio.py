"""Atomic file writes for observability artifacts.

Trace exports and run manifests are consumed by other tools (Chrome's
tracing UI, ``runs diff``, the wall-clock benchmark), so a run killed
mid-write must never leave a truncated JSON document behind.
Both helpers write to ``<path>.tmp`` in the destination directory and
``os.replace`` it into place — on POSIX the rename is atomic, so any
observer sees either the old complete file or the new complete file,
never a prefix.  A crash between the write and the rename leaves only
a stale ``*.tmp`` sibling, which the next successful write overwrites.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, IO


def atomic_write_text(
    path: str,
    writer: Callable[[IO[str]], None],
) -> None:
    """Stream text through ``writer(handle)`` into ``path`` atomically.

    If ``writer`` raises, the partial temp file is removed and the
    destination (if any) is left untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, document: Any, *, indent: int | None = None) -> None:
    """Serialize ``document`` to ``path`` atomically (compact by default)."""

    def _dump(handle: IO[str]) -> None:
        if indent is None:
            json.dump(document, handle, indent=None, separators=(",", ":"))
        else:
            json.dump(document, handle, indent=indent)
        handle.write("\n")

    atomic_write_text(path, _dump)
