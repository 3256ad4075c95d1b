"""Tests for MapReduce building blocks: types, counters, hashing, DFS."""

import enum
from array import array
from collections import namedtuple
from dataclasses import dataclass
from zlib import crc32

import pytest
from hypothesis import given, strategies as st

from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import Block, InMemoryDFS
from repro.mapreduce import hashing
from repro.mapreduce.hashing import sha256, stable_hash
from repro.mapreduce.types import (
    InsufficientMemoryError,
    JobStats,
    PhaseStats,
    TaskStats,
    approx_bytes,
)


class TestApproxBytes:
    def test_string(self):
        assert approx_bytes("hello") == 5

    def test_numbers(self):
        assert approx_bytes(42) == 8
        assert approx_bytes(3.14) == 8
        assert approx_bytes(None) == 8

    def test_containers(self):
        assert approx_bytes(("ab", 1)) == 8 + 2 + 8
        assert approx_bytes(["a", "b"]) == 8 + 2

    def test_dict(self):
        assert approx_bytes({"k": "vv"}) == 8 + 1 + 2

    def test_nested(self):
        assert approx_bytes((("ab",),)) == 8 + 8 + 2

    def test_deterministic(self):
        obj = ("x", (1, 2.5), ["abc"])
        assert approx_bytes(obj) == approx_bytes(obj)


def recursive_approx_bytes(obj):
    """``approx_bytes`` as it was before the exact-type dispatch, kept
    verbatim: the reference the fast one must equal on every input."""
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 8 + sum(recursive_approx_bytes(item) for item in obj)
    if isinstance(obj, array):
        # same accounting as a tuple of numbers, so switching the token
        # wire format between tuple[int] and array('i') leaves shuffle
        # byte counts (and therefore simulated times) unchanged
        return 8 + 8 * len(obj)
    if isinstance(obj, dict):
        return 8 + sum(
            recursive_approx_bytes(k) + recursive_approx_bytes(v)
            for k, v in obj.items()
        )
    # dataclass-ish fallback
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return 8 + sum(recursive_approx_bytes(v) for v in attrs.values())
    slots = getattr(obj, "__slots__", None)
    if slots is not None:
        return 8 + sum(recursive_approx_bytes(getattr(obj, name)) for name in slots)
    return 64


class Colour(enum.IntEnum):
    RED = 1


class Text(str):
    pass


class Rows(list):
    pass


Point = namedtuple("Point", "x label")


@dataclass
class Posting:
    rid: int
    tokens: tuple


class Slotted:
    __slots__ = ("rid", "name")

    def __init__(self, rid, name):
        self.rid = rid
        self.name = name


class Opaque:
    __slots__ = ()


_hashable_leaves = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.text(max_size=8), st.binary(max_size=8),
)
_leaves = st.one_of(
    _hashable_leaves,
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=6).map(lambda v: array("i", v)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda v: array("q", v)),
    st.sets(_hashable_leaves, max_size=4),
    st.frozensets(_hashable_leaves, max_size=4),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_hashable_leaves, inner, max_size=4),
    ),
    max_leaves=25,
)


class TestApproxBytesIsTheSameFunction:
    @given(_values)
    def test_equals_the_recursive_reference(self, value):
        assert approx_bytes(value) == recursive_approx_bytes(value)

    @pytest.mark.parametrize(
        "value",
        [
            Colour.RED,
            Text("abc"),
            Point(3, "origin"),
            Rows([1, "ab", (2.5,)]),
            Posting(7, (1, 2, 3)),
            Slotted(7, "seven"),
            (True, 1, None),
            (),
            [],
            ((), [()]),
            (Colour.RED, Text("abc"), Point(1, "p"), Rows([Slotted(1, "x")])),
            {"k": (1, "v"), ("t", 2): [Posting(1, ())]},
            # a Stage-2 value: (rid, rank array, length, bitmap, relation tag)
            (17, array("i", [3, 5, 8, 13, 21]), 5, 0b1011, -1),
            ((4, 2), (17, array("i", [3, 5, 8]), 3, 9, 0)),
        ],
        ids=repr,
    )
    def test_slow_path_cases_agree(self, value):
        assert approx_bytes(value) == recursive_approx_bytes(value)

    def test_object_with_neither_dict_nor_slots_content(self):
        assert approx_bytes(object()) == recursive_approx_bytes(object()) == 64
        assert approx_bytes(Opaque()) == recursive_approx_bytes(Opaque()) == 8
        assert approx_bytes((object(),)) == 8 + 64


class TestInsufficientMemoryError:
    def test_message_and_fields(self):
        err = InsufficientMemoryError("broadcast", 100, 10)
        assert err.what == "broadcast"
        assert err.needed_bytes == 100
        assert "broadcast" in str(err)

    def test_is_memory_error(self):
        assert issubclass(InsufficientMemoryError, MemoryError)


class TestStats:
    def test_phase_aggregates(self):
        phase = PhaseStats("j")
        phase.map_tasks.append(TaskStats(0, output_records=3))
        phase.reduce_tasks.append(TaskStats(0, output_records=2))
        assert phase.map_output_records == 3
        assert phase.reduce_output_records == 2

    def test_job_stats_totals(self):
        stats = JobStats()
        p1 = PhaseStats("a", counters={"x": 1})
        p1.simulated_total_s = 2.0
        p2 = PhaseStats("b", counters={"x": 2, "y": 5})
        p2.simulated_total_s = 3.0
        stats.phases = [p1, p2]
        assert stats.simulated_total_s == 5.0
        assert stats.counters() == {"x": 3, "y": 5}

    def test_extend(self):
        a, b = JobStats(), JobStats()
        b.phases.append(PhaseStats("p"))
        a.extend(b)
        assert len(a.phases) == 1


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("a")
        c.increment("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("x", 1)
        b.increment("x", 2)
        b.increment("y", 3)
        a.merge(b)
        assert a.as_dict() == {"x": 3, "y": 3}

    def test_iter_sorted(self):
        c = Counters()
        c.increment("b")
        c.increment("a")
        assert [name for name, _ in c] == ["a", "b"]


class TestSha256:
    @pytest.mark.parametrize(
        "data", [b"", b"token\x00", bytes(range(256)) * 4096], ids=["empty", "short", "1MiB"]
    )
    def test_equals_hashlib(self, data):
        import hashlib

        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        streamed = sha256()
        streamed.update(data)
        streamed.update(b"tail")
        assert streamed.hexdigest() == hashlib.sha256(data + b"tail").hexdigest()

    def test_falls_back_to_hashlib_without_a_builtin_module(self, monkeypatch):
        import hashlib

        def no_builtin(name):
            raise ModuleNotFoundError(name)

        monkeypatch.setattr(hashing, "import_module", no_builtin)
        assert hashing._sha256_constructor() is hashlib.sha256


class TestStableHash:
    def test_int_spread(self):
        buckets = {stable_hash(i) % 8 for i in range(100)}
        assert len(buckets) == 8

    def test_string_stable_value(self):
        # crc32("token") is fixed forever — guards against hash salting
        assert stable_hash("token") == stable_hash("token")
        assert stable_hash("token") != stable_hash("tokeN")

    def test_tuple(self):
        assert stable_hash((1, "a")) == stable_hash((1, "a"))
        assert stable_hash((1, "a")) != stable_hash(("a", 1))

    def test_none_and_bool(self):
        assert stable_hash(None) == 0
        # bool is an int subtype, so True hashes like 1 — consistently
        assert stable_hash(True) == stable_hash(1)

    def test_float(self):
        assert stable_hash(2.5) == stable_hash(2.5)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash(["list"])

    @given(st.integers())
    def test_non_negative(self, value):
        assert stable_hash(value) >= 0

    @given(
        st.recursive(
            st.one_of(
                st.integers(), st.integers(-(2**70), 2**70), st.booleans(), st.none(),
                st.text(max_size=6), st.binary(max_size=6),
                st.floats(allow_nan=False),
            ),
            lambda items: st.lists(items, max_size=4).map(tuple),
            max_leaves=12,
        )
    )
    def test_exact_type_fast_path_changes_no_value(self, key):
        """Partition placement (and with it every shuffle counter) is a
        function of these values: the ``type(key) is int`` / int-tuple
        fast path must equal the plain ``isinstance`` chain it fronts."""
        assert stable_hash(key) == _reference_stable_hash(key)

    def test_pinned_values(self):
        """Absolute values, so the reference copy below cannot drift
        together with the function."""
        assert [stable_hash(k) for k in (0, 1, 7, -5, 2**64 + 1)] == [
            0, 12994781566227106604, 8360697188923789789,
            5431930068122443671, 12994781566227106604,
        ]
        assert stable_hash((3, -1)) == 13860642264252108115
        assert stable_hash((3, 0, 1)) == 8086092618917084410
        assert stable_hash("token") == 1597481275
        assert stable_hash((1, "a")) == 14876685648447248783
        # subclasses take the slow chain to the same values
        Key = namedtuple("Key", "route shard")
        assert stable_hash(Key(3, -1)) == stable_hash((3, -1))
        assert stable_hash((True, 2)) == stable_hash((1, 2))


def _reference_stable_hash(key):
    """``stable_hash`` as it was before the fast path (PR 20)."""
    if isinstance(key, int):
        h = key & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        return h
    if isinstance(key, str):
        return crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return crc32(key)
    if key is None:
        return 0
    if isinstance(key, float):
        return crc32(repr(key).encode("ascii"))
    assert isinstance(key, tuple)
    h = 0x345678
    for item in key:
        h = (h * 1000003) ^ _reference_stable_hash(item)
        h &= 0xFFFFFFFFFFFFFFFF
    return h


class TestInMemoryDFS:
    def test_write_read_roundtrip(self):
        dfs = InMemoryDFS(num_nodes=3, block_bytes=8)
        dfs.write("f", ["aaaa", "bbbb", "cccc"])
        assert dfs.read_all("f") == ["aaaa", "bbbb", "cccc"]

    def test_blocks_split_by_bytes(self):
        dfs = InMemoryDFS(num_nodes=2, block_bytes=8)
        dfs.write("f", ["aaaa"] * 6)  # 4 bytes each, 2 per block
        assert len(dfs.file("f").blocks) == 3

    def test_round_robin_placement(self):
        dfs = InMemoryDFS(num_nodes=2, block_bytes=4)
        dfs.write("f", ["aaaa"] * 4)
        nodes = [b.node for b in dfs.file("f").blocks]
        assert nodes == [0, 1, 0, 1]

    def test_empty_file_has_one_block(self):
        dfs = InMemoryDFS()
        dfs.write("empty", [])
        assert dfs.file("empty").num_records == 0
        assert len(dfs.file("empty").blocks) == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            InMemoryDFS().read_all("nope")

    def test_overwrite(self):
        dfs = InMemoryDFS()
        dfs.write("f", ["old"])
        dfs.write("f", ["new"])
        assert dfs.read_all("f") == ["new"]

    def test_delete_and_listdir(self):
        dfs = InMemoryDFS()
        dfs.write("a", ["1"])
        dfs.write("b", ["2"])
        dfs.delete("a")
        assert dfs.listdir() == ["b"]
        assert not dfs.exists("a")

    def test_rebalance(self):
        dfs = InMemoryDFS(num_nodes=2, block_bytes=4)
        dfs.write("f", ["aaaa"] * 6)
        dfs.rebalance(3)
        nodes = [b.node for b in dfs.file("f").blocks]
        assert set(nodes) == {0, 1, 2}

    def test_num_bytes(self):
        dfs = InMemoryDFS()
        dfs.write("f", ["abc", "de"])
        assert dfs.file("f").num_bytes == 5

    def test_block_bytes_are_the_totals_write_sealed(self):
        dfs = InMemoryDFS(block_bytes=4)
        blocks = dfs.write("f", ["abc", "de", "f"]).blocks
        assert [block.num_bytes for block in blocks] == [5, 1]
        assert dfs.write("empty", []).num_bytes == 0
        assert Block(index=0, node=0, records=["abc", "de"]).num_bytes == 5
        assert Block(index=0, node=0).num_bytes == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InMemoryDFS(num_nodes=0)
        with pytest.raises(ValueError):
            InMemoryDFS(block_bytes=0)
