"""Runtime sanitizer — dynamic checks for the invariants mrlint cannot
prove statically.

Enabled with ``JoinConfig(sanitize=True)`` or ``REPRO_SANITIZE=1``, the
sanitizer wraps the shuffle and the Stage-2 kernels with observe-only
invariant checks:

* **reduce-input sortedness** — within every reduce key, values must
  arrive in non-decreasing set-size order (within each relation for R-S
  joins).  The PK kernel's eviction logic (paper Section 3.2.2) and the
  R-before-S streaming of the R-S kernel (Section 4) silently produce
  wrong answers if the composite-key sort ever breaks;
* **filter admissibility oracle** — a deterministic 1-in-``N`` sample
  of pairs pruned by the length / bitmap / positional / suffix filters
  is re-checked against the exact overlap: an admissible filter must
  never prune a pair that meets the similarity threshold (Xiao et al.'s
  PPJoin+ arguments; Sandes et al.'s bitmap bound, arXiv:1711.07295);
* **index byte accounting** — ``PPJoinIndex.live_bytes`` (the eviction
  trigger) must equal the sum of its live entries' charged sizes after
  every add/evict sequence;
* **pair ownership** — for every pair a Stage-2 group emits, and a
  sample of those it skips as ``foreign``, the owner is re-derived: the
  smallest token common to the two routing prefixes must (must not)
  route to this group (DESIGN.md §5h).

Checks never raise and never alter control flow — a sanitized join
produces bit-identical output to a plain one, with two extra counters
(``sanitize.checks`` / ``sanitize.violations``) surfaced through
``JoinReport.filter_counters()`` and ``--stats``.

Sampling is counter-based (every ``sample_every``-th pruned pair per
task), not random: the sanitizer has to pass its own linter, and MR003
bans unseeded randomness in kernel code.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.similarity import SimilarityFunction
from repro.core.verification import overlap
from repro.mapreduce.counters import Counters

__all__ = [
    "CHECKS",
    "VIOLATIONS",
    "ENV_FLAG",
    "DEFAULT_SAMPLE_EVERY",
    "Sanitizer",
    "env_sanitize",
    "sanitize_active",
    "make_sanitizer",
]

#: counter names reported through the existing filter-counter path
CHECKS = "sanitize.checks"
VIOLATIONS = "sanitize.violations"

#: environment variable that force-enables the sanitizer
ENV_FLAG = "REPRO_SANITIZE"

#: check every Nth pruned pair against the exact-overlap oracle
DEFAULT_SAMPLE_EVERY = 16


def env_sanitize() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitizer mode."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def sanitize_active(config: Any) -> bool:
    """Whether this join should run sanitized (config flag or env)."""
    return bool(getattr(config, "sanitize", False)) or env_sanitize()


def make_sanitizer(
    config: Any, counters: Counters | None, route: int | None = None
) -> "Sanitizer | None":
    """A :class:`Sanitizer` for one task, or ``None`` when inactive;
    *route* names the Stage-2 group whose pair ownership it checks."""
    if counters is None or not sanitize_active(config):
        return None
    num_groups = config.num_groups if config.routing == "grouped" else None
    return Sanitizer(
        config.sim, config.threshold, counters, route=route, num_groups=num_groups
    )


class Sanitizer:
    """Per-task invariant checker.

    One instance is built per map/reduce call (counters are per-task);
    all findings are reported by incrementing ``sanitize.violations``
    on the task's counters — never by raising, so control flow and
    output bytes are untouched.
    """

    def __init__(
        self,
        sim: SimilarityFunction,
        threshold: float,
        counters: Counters,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        route: int | None = None,
        num_groups: int | None = None,
    ) -> None:
        self.sim = sim
        self.threshold = threshold
        self.counters = counters
        self.sample_every = max(1, sample_every)
        #: the Stage-2 group being reduced (``None``: no ownership checks),
        #: the group count of grouped routing (``None``: one per token)
        self.route = route
        self.num_groups = num_groups
        self._pruned_seen = 0

    # -- filter admissibility oracle ------------------------------------

    def check_prune(
        self,
        stage: str,
        x_tokens: Iterable[Any],
        nx_true: int,
        y_tokens: Iterable[Any],
        ny_true: int,
    ) -> None:
        """Re-check one filter-pruned pair against the exact overlap.

        Called at every prune point; deterministically samples every
        ``sample_every``-th call.  The token sequences are the (possibly
        prefix-projected callers always pass the *full* sorted token
        lists) projections; ``nx_true``/``ny_true`` are the true set
        sizes the filters reasoned about.
        """
        self._pruned_seen += 1
        if self._pruned_seen % self.sample_every:
            return
        self.counters.increment(CHECKS)
        x = list(x_tokens)
        y = list(y_tokens)
        common = overlap(x, y)
        if common <= 0:
            return
        similarity = self.sim.similarity_from_overlap(nx_true, ny_true, common)
        if similarity >= self.threshold:
            self.counters.increment(VIOLATIONS)
            self.counters.increment(f"sanitize.false_negative.{stage}")

    # -- pair ownership --------------------------------------------------

    def check_owner(
        self,
        x_tokens: Sequence[Any],
        y_tokens: Sequence[Any],
        emitted: bool,
        sample: bool = True,
    ) -> None:
        """Re-derive whether this group owns the pair (*x*, *y*) and
        compare with what the kernel did: it *emitted* the pair, or
        skipped it as foreign (sampled like prunes unless
        ``sample=False``).  Shares nothing with the kernels' bounds memo
        or owner predicate."""
        if self.route is None:
            return
        if sample:
            self._pruned_seen += 1
            if self._pruned_seen % self.sample_every:
                return
        self.counters.increment(CHECKS)
        x_prefix = x_tokens[: self.sim.prefix_length(len(x_tokens), self.threshold)]
        y_prefix = y_tokens[: self.sim.prefix_length(len(y_tokens), self.threshold)]
        home = min(set(x_prefix).intersection(y_prefix), default=None)
        if home is not None and self.num_groups is not None:
            home %= self.num_groups
        if (home == self.route) != emitted:
            self.counters.increment(VIOLATIONS)
            self.counters.increment("sanitize.misowned_pair")

    # -- reduce-input sortedness ----------------------------------------

    def sorted_values(
        self,
        values: Iterable[Any],
        size_of: Callable[[Any], int],
        group_of: Callable[[Any], Any] | None = None,
        what: str = "reduce input",
    ) -> Iterator[Any]:
        """Pass-through generator asserting non-decreasing sizes.

        With ``group_of``, the ordering is checked independently per
        group (R-S joins interleave relations; each must be sorted on
        its own size notion).
        """
        last: dict[Any, int] = {}
        for value in values:
            group = group_of(value) if group_of is not None else None
            size = size_of(value)
            self.counters.increment(CHECKS)
            previous = last.get(group)
            if previous is not None and size < previous:
                self.counters.increment(VIOLATIONS)
                self.counters.increment("sanitize.unsorted_reduce_input")
            else:
                last[group] = size
            yield value

    # -- index byte accounting ------------------------------------------

    def check_index_accounting(self, index: Any) -> None:
        """Verify ``PPJoinIndex.live_bytes`` against a recount."""
        self.counters.increment(CHECKS)
        expected = index.expected_live_bytes()
        if index.live_bytes != expected:
            self.counters.increment(VIOLATIONS)
            self.counters.increment("sanitize.index_bytes_drift")
