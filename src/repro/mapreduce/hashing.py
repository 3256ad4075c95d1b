"""Process-stable hashing for partitioning.

Python's built-in ``hash`` for strings is salted per process
(``PYTHONHASHSEED``), which would make partition assignment — and
therefore per-reducer workloads and any skew-sensitive measurement —
non-reproducible.  All partitioners use :func:`stable_hash` instead.
"""

from __future__ import annotations

from zlib import crc32


def shard_of(rid: int, num_shards: int) -> int:
    """Deterministic shard of a record id for hot-group splitting.

    When a Stage-2 token group is split ``k`` ways, the *partitioned*
    side (probes in self-joins, S in R-S joins) is routed to exactly
    one of the ``k`` shards by RID; the other side is replicated to all
    of them (the fragment-replicate scheme of arXiv:1204.1754).
    """
    return stable_hash(rid) % num_shards


def shard_partition(route: object, shard: int, num_partitions: int) -> int:
    """Partition index of a (possibly sharded) Stage-2 routing key.

    Unsplit groups (``shard == -1``) land exactly where the classic
    ``stable_hash(route) % num_partitions`` partitioner puts them, so a
    plan that splits nothing is placement-identical to the static plan.
    Split groups scatter each shard independently by hashing the
    ``(route, shard)`` pair.  Scattering matters more than guaranteed
    per-route distinctness: hot routes cluster (several heavy tokens
    can share one home partition), and consecutive placement would
    march *all* their shard ranges across the same few reducers,
    silently re-stacking the load the split was meant to spread.  Two
    shards of one route may still collide by hash accident — that route
    then runs at a fraction of its intended parallelism, which is a
    performance wobble, never a correctness issue.
    """
    if shard <= 0:
        return stable_hash(route) % num_partitions
    # re-finalize through the int mixer: the tuple combiner is linear
    # in its members' low bits, so colocated routes (equal home mod n)
    # would otherwise scatter their shards to identical partitions
    return stable_hash(stable_hash((route, shard))) % num_partitions


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
