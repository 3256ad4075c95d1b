"""Process-stable hashing: partitioning and content digests.

Python's built-in ``hash`` for strings is salted per process
(``PYTHONHASHSEED``), which would make partition assignment — and
therefore per-reducer workloads and any skew-sensitive measurement —
non-reproducible.  Map tasks partition by :func:`stable_hash` of the
job's ``group_key(key)`` instead.

:data:`sha256` is the one SHA-256 constructor of the package (config
digests, checkpoint fingerprints, run-manifest ids).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable
from zlib import crc32


def _sha256_constructor() -> Callable[..., Any]:
    # ``hashlib`` loads OpenSSL's libcrypto (a few MiB of RSS) to offer
    # what CPython's built-in module computes bit for bit; like
    # ``random.py``, fall back to it only where the built-in is missing
    for name in ("_sha2", "_sha256"):  # CPython 3.12+, 3.10/3.11
        try:
            return import_module(name).sha256
        except ImportError:
            continue
    from hashlib import sha256

    return sha256


#: ``hashlib.sha256``'s digests without loading OpenSSL
sha256: Callable[..., Any] = _sha256_constructor()


def stable_hash(key: object) -> int:
    """Deterministic non-negative hash, stable across processes/runs.

    Partition keys are ints or small int tuples on every hot path, so
    those two exact types are decided first and a tuple's int members
    are mixed inline; everything else (int and tuple subclasses such as
    ``bool`` included) takes the ``isinstance`` chain to the same values.
    """
    kind = type(key)
    if kind is int:
        # Splittable 64-bit mix (Murmur-style finalizer) so that
        # consecutive ints spread over partitions.
        h = key & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
        return h ^ (h >> 33)
    if kind is tuple:
        acc = 0x345678
        for item in key:
            if type(item) is int:  # the int mix above, inline
                h = item & 0xFFFFFFFFFFFFFFFF
                h ^= h >> 33
                h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
                h ^= h >> 33
                h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
                h ^= h >> 33
            else:
                h = stable_hash(item)
            acc = ((acc * 1000003) ^ h) & 0xFFFFFFFFFFFFFFFF
        return acc
    if isinstance(key, int):
        return stable_hash(int(key))
    if isinstance(key, str):
        return crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return crc32(key)
    if key is None:
        return 0
    if isinstance(key, float):
        return crc32(repr(key).encode("ascii"))
    if isinstance(key, tuple):
        return stable_hash(tuple(key))
    raise TypeError(f"unhashable partition key type: {type(key).__name__}")
