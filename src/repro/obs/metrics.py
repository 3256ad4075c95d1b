"""Log-scale histograms encoded in, and decoded from, plain counters.

The MapReduce runtime already moves *counters* from every task back to
the driver (:class:`repro.mapreduce.counters.Counters` snapshots merge
additively through the existing worker→parent result path).  This
module layers two things on top without inventing a second transport:

* **Histogram encoding over counters** — an observation of value ``v``
  under histogram ``name`` increments three plain counters::

      hist.<name>.b<bucket>   (bucket = bit_length(v): log2 buckets)
      hist.<name>.n           (observation count)
      hist.<name>.sum         (exact sum)

  Log-scale buckets keep the payload tiny (a histogram spanning
  1..10⁹ needs ≤ 31 keys) and additive, so worker histograms merge for
  free with task counters.  :meth:`Context.observe
  <repro.mapreduce.job.Context.observe>` is the runtime entry point.

* **:func:`histograms`** — the read side: one pure function from a
  merged counter snapshot to sorted :class:`HistogramSnapshot` objects.
  Nothing else is stored; ``--stats`` and ``repro runs show`` both
  derive their histograms from the counters with it.

Everything here is observe-only bookkeeping: histogram counters ride
the same merge path as the pre-existing framework counters and never
influence partitioning, ordering or output records.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = [
    "HIST_PREFIX",
    "bucket_of",
    "bucket_bounds",
    "hist_counter",
    "observe_into",
    "HistogramSnapshot",
    "histograms",
]

#: namespace prefix marking histogram-encoded counters
HIST_PREFIX = "hist."


def bucket_of(value: int) -> int:
    """Log2 bucket index of *value* (0 for values <= 0).

    Bucket ``b`` covers ``[2**(b-1), 2**b)`` for ``b >= 1`` and the
    single value 0 for ``b == 0``.
    """
    return value.bit_length() if value > 0 else 0


def bucket_bounds(bucket: int) -> tuple[int, int]:
    """Inclusive-exclusive ``[low, high)`` value range of *bucket*."""
    if bucket <= 0:
        return (0, 1)
    return (1 << (bucket - 1), 1 << bucket)


def hist_counter(name: str, value: int) -> str:
    """The bucket-counter key one observation of *value* increments."""
    return f"{HIST_PREFIX}{name}.b{bucket_of(value)}"


def observe_into(
    increment: "Callable[[str, int], object]", name: str, value: int
) -> None:
    """Record one observation of *value* through a counter ``increment``
    callable (``Counters.increment`` or any ``(key, amount)`` sink).

    This defines the histogram-over-counters encoding.  The cluster's
    per-partition byte accounting calls it per value; a task's
    :meth:`Counters.observe <repro.mapreduce.counters.Counters.observe>`
    buffer reaches the same counters in one fold per histogram.
    """
    increment(hist_counter(name, value), 1)
    increment(f"{HIST_PREFIX}{name}.n", 1)
    increment(f"{HIST_PREFIX}{name}.sum", value)


class HistogramSnapshot:
    """Read-side view of one histogram reassembled from counters."""

    __slots__ = ("name", "buckets", "count", "total")

    def __init__(
        self, name: str, buckets: dict[int, int], count: int, total: int
    ) -> None:
        self.name = name
        #: bucket index -> observation count (sparse, sorted on access)
        self.buckets = buckets
        self.count = count
        self.total = total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile: the arithmetic midpoint
        ``(low + high - 1) / 2`` of the bucket ``[low, high)`` holding
        the q-th observation (exact for 0/1-valued data)."""
        if not self.count:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        seen = 0
        last_bucket = 0
        for bucket in sorted(self.buckets):
            last_bucket = bucket
            seen += self.buckets[bucket]
            if seen >= target:
                break
        low, high = bucket_bounds(last_bucket)
        return (low + (high - 1)) / 2.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def max_bound(self) -> int:
        """Exclusive upper bound of the highest occupied bucket."""
        if not self.buckets:
            return 0
        return bucket_bounds(max(self.buckets))[1]

    def as_dict(self) -> dict[str, Any]:
        """Sorted, JSON-safe rendering (bucket keys become strings)."""
        return {
            "buckets": {str(b): self.buckets[b] for b in sorted(self.buckets)},
            "count": self.count,
            "sum": self.total,
            "mean": round(self.mean, 3),
            "p50": self.p50,
            "p99": self.p99,
        }

    def __repr__(self) -> str:
        return (
            f"HistogramSnapshot({self.name!r}, n={self.count}, "
            f"p50={self.p50}, p99={self.p99})"
        )


def histograms(counters: Mapping[str, int]) -> dict[str, HistogramSnapshot]:
    """Decode the well-formed ``hist.<name>.{n,sum,b<digits>}`` keys of a
    counter snapshot into one :class:`HistogramSnapshot` per name, sorted
    by name.  Every other key, plain or malformed, is skipped, and so is
    a key whose value is not an int: a counter snapshot is the one
    stored account, this is a view of it."""
    found: dict[str, HistogramSnapshot] = {}
    for key, value in counters.items():
        if not key.startswith(HIST_PREFIX) or type(value) is not int:
            continue
        name, _, field = key[len(HIST_PREFIX):].rpartition(".")
        digits = field[1:]
        if not name or not (
            field in ("n", "sum") or (field[:1] == "b" and digits.isdecimal())
        ):
            continue
        hist = found.setdefault(name, HistogramSnapshot(name, {}, 0, 0))
        if field == "n":
            hist.count += value
        elif field == "sum":
            hist.total += value
        else:
            hist.buckets[int(digits)] = hist.buckets.get(int(digits), 0) + value
    return dict(sorted(found.items()))
