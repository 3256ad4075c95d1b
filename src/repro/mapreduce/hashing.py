"""Process-stable hashing for partitioning.

Python's built-in ``hash`` for strings is salted per process
(``PYTHONHASHSEED``), which would make partition assignment — and
therefore per-reducer workloads and any skew-sensitive measurement —
non-reproducible.  Map tasks partition by :func:`stable_hash` of the
job's ``partition(key)`` instead.
"""

from __future__ import annotations

from zlib import crc32


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
