"""PPJoin / PPJoin+ — the indexed single-node kernel (Xiao et al. '08).

The paper's PK kernel runs this algorithm inside each Stage-2 reducer:
an inverted index over *prefix* tokens, probed record-by-record, with
the length, positional and (optionally) suffix filters applied before
merge-based verification.

:class:`PPJoinIndex` is the incremental index.  It supports the two
usage patterns of the paper:

* **self-join** — records arrive in ascending set-size order; each
  record first probes the index, then is added to it.  The index side
  uses the shorter *mid-prefix*, and entries whose size falls below the
  length-filter lower bound of the current probe are evicted — the
  memory-footprint optimization Section 3.2.2 obtains via the composite
  ``(group, length)`` MapReduce key.
* **R-S join** — all R records are added (ascending size), S records
  only probe.  Eviction uses the probe's lower bound, which is why the
  R-S kernel streams records in the length-class order of Section 4.

Verification merges the two tails after a candidate's first common
prefix token (the heads before it are disjoint, so nothing is
re-scanned) and is differential-tested against the naive oracle.

Token arrays are normally rank-encoded (ascending ints in global
frequency order, as ``tuple`` or compact ``array('i')``; see
:meth:`repro.core.ordering.TokenOrder.encode` /
:meth:`~repro.core.ordering.TokenOrder.encode_array`).  The kernel is
order-generic: any element type with a total order matching the arrays'
sort order works, including lexicographically sorted strings — the
filters and the merge only compare elements, so both encodings yield
identical RID pairs (differential-tested).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> core)
    from repro.analysis.sanitize import Sanitizer

from repro.core.bitmaps import signature as bitmap_signature
from repro.core.filters import (
    positional_filter_passes,
    suffix_filter_passes,
)
from repro.core.prefixes import Projection, projection_bytes
from repro.core.similarity import SimilarityFunction, bounds_for
from repro.core.verification import overlap


class PPJoinIndex:
    """Incremental PPJoin+ inverted prefix index.

    Parameters
    ----------
    sim, threshold:
        The similarity function and join threshold.
    mode:
        ``"self"`` — probe-then-add self-join; indexed entries use the
        mid-prefix.  ``"rs"`` — index R, probe with S; indexed entries
        use the full probing prefix (required because S records may be
        shorter than indexed R records).
    use_positional, use_suffix:
        Enable the positional / suffix filters (PPJoin+ uses both;
        disabling both degenerates to the plain prefix+length filter).
    evict:
        Drop indexed entries once the probe stream's length lower bound
        passes them.  Requires both add and probe streams to be
        non-decreasing in set size (enforced).
    bitmap_width:
        Enable the bitmap filter (arXiv:1711.07295, see
        :mod:`repro.core.bitmaps`) with signatures of this many bits;
        ``None`` disables it.  Signatures may be supplied precomputed to
        :meth:`add`/:meth:`probe` (the Stage-2 mappers compute them once
        per record) or are derived from the tokens on demand.
    owner:
        Restricts the index to the pairs it *owns* (DESIGN.md §5h): a
        predicate on a prefix token saying whether that token routes to
        the reducer running this index; ``None`` owns everything.  A
        pair belongs to the route of the smallest token common to both
        routing prefixes, so :meth:`add` posts a record under its owned
        index-prefix tokens only (a record with none is not stored) and
        a probe first meets a candidate at their smallest common *owned*
        token ``t = x[i] = y[j]``.  The pair is this index's iff
        ``x[:i]`` and ``y[:j]`` are disjoint: (1) every common token
        below ``t`` lies in both heads, and the heads lie in the routing
        prefixes (``y``'s index prefix is a down-closed prefix of its
        routing prefix); (2) disjoint heads make ``t`` itself the
        smallest common prefix token, and it is owned; (3) otherwise
        that token is some ``s < t`` which cannot be owned — ``y`` would
        be posted under it and the ascending scan would have met it
        there — so the pair is another route's (``foreign``).

    ``filter_stats`` counts, under ``candidates``, the distinct entries
    per probe found inside the length window of an owned posting list,
    each of which ends in exactly one of ``bitmap``/``foreign``/
    ``positional``/``suffix`` (pruned, in that order) or ``verified``
    (merged); ``length`` counts posting entries outside the window.

    ``sanitizer`` (see :mod:`repro.analysis.sanitize`) attaches the
    runtime admissibility oracle: a deterministic sample of pruned
    candidates is re-checked against the exact overlap.  Observe-only —
    probe results are identical with or without it.
    """

    def __init__(
        self,
        sim: SimilarityFunction,
        threshold: float,
        mode: str = "self",
        use_positional: bool = True,
        use_suffix: bool = True,
        evict: bool = True,
        bitmap_width: int | None = None,
        sanitizer: "Sanitizer | None" = None,
        owner: Callable[[Any], bool] | None = None,
    ) -> None:
        if mode not in ("self", "rs"):
            raise ValueError(f"mode must be 'self' or 'rs', got {mode!r}")
        if threshold < 0.0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if bitmap_width is not None and bitmap_width < 1:
            raise ValueError(f"bitmap_width must be >= 1, got {bitmap_width}")
        self.sim = sim
        self.threshold = threshold
        self.mode = mode
        self.use_positional = use_positional
        self.use_suffix = use_suffix
        self.evict = evict
        self.bitmap_width = bitmap_width
        self.sanitizer = sanitizer
        self.owner = owner
        self._bounds = bounds = bounds_for(sim, threshold)
        self._index_prefix_length = (
            bounds.index_prefix_length if mode == "self" else bounds.prefix_length
        )

        #: owned index-prefix token -> entry ids, ascending
        self._postings: dict[Any, list[int]] = {}
        self._rids: list[int] = []
        self._tokens: list[Sequence[Any] | None] = []
        self._sizes: list[int] = []
        #: per-entry signature and "size minus popcount" slack (the
        #: precomputed y-side term of the overlap upper bound)
        self._sigs: list[int] = []
        self._sig_slack: list[int] = []
        self._frontier = 0  # entries below this id are evicted
        #: entry sizes are non-decreasing (always, under ``evict``), so
        #: the length window of a posting list is one run
        self._size_ordered = True
        self._last_added_size = 0
        self._last_probe_size = 0
        self.peak_live_entries = 0
        #: approximate bytes of live (non-evicted) entries, for memory metering
        self.live_bytes = 0
        #: in-window candidates, and where each of them ended
        self.filter_stats = {
            "candidates": 0, "length": 0, "foreign": 0,
            "bitmap": 0, "positional": 0, "suffix": 0, "verified": 0,
        }

    # -- size / memory accounting -------------------------------------

    @property
    def live_entries(self) -> int:
        """Number of record entries currently held in memory."""
        return len(self._rids) - self._frontier

    def expected_live_bytes(self) -> int:
        """Recount the charged bytes of every live entry from scratch.

        ``live_bytes`` is maintained incrementally (add charges, evict
        releases); the sanitizer compares it against this ground truth
        to catch accounting drift.
        """
        has_sig = self.bitmap_width is not None
        return sum(
            projection_bytes(self._sizes[entry_id], has_sig)
            for entry_id in range(self._frontier, len(self._rids))
        )

    # -- indexing ------------------------------------------------------

    def add(
        self, rid: int, tokens: Sequence[int], signature: int | None = None
    ) -> None:
        """Index one record (rank-encoded, globally ordered tokens)
        under the index-prefix tokens this index owns; a record with
        none can never be met by a probe and is not stored.

        ``signature`` supplies the precomputed bitmap signature; ignored
        when the index was built without ``bitmap_width``, computed from
        the tokens when bitmap filtering is on but none is given.
        """
        n = len(tokens)
        if n < self._last_added_size:
            if self.evict:
                raise ValueError(
                    "eviction requires records added in non-decreasing size order "
                    f"(got size {n} after {self._last_added_size}); "
                    "construct with evict=False for unordered input"
                )
            self._size_ordered = False
        else:
            self._last_added_size = n
        if n == 0:
            return
        owned = tokens[: self._index_prefix_length[n]]
        if self.owner is not None:
            owned = list(filter(self.owner, owned))
            if not owned:
                return
        entry_id = len(self._rids)
        self._rids.append(rid)
        # tuples and array('i') are kept as-is (both slice cheaply);
        # only mutable lists are defensively copied
        self._tokens.append(
            tokens if isinstance(tokens, (tuple, array)) else tuple(tokens)
        )
        self._sizes.append(n)
        postings = self._postings
        for token in owned:
            posting = postings.get(token)
            if posting is None:
                postings[token] = [entry_id]
            else:
                posting.append(entry_id)
        width = self.bitmap_width
        if width is not None:
            if signature is None:
                signature = bitmap_signature(tokens, width)
            self._sigs.append(signature)
            self._sig_slack.append(n - signature.bit_count())
        self.live_bytes += projection_bytes(n, width is not None)
        live = entry_id + 1 - self._frontier
        if live > self.peak_live_entries:
            self.peak_live_entries = live

    def _evict_below(self, min_size: int) -> None:
        """Advance the eviction frontier past entries smaller than
        *min_size* (valid because entry sizes are non-decreasing)."""
        frontier = bisect_left(self._sizes, min_size, self._frontier)
        # must release exactly what add() charged (signature word
        # included) or live_bytes drifts and the reducer over-releases
        has_sig = self.bitmap_width is not None
        for entry_id in range(self._frontier, frontier):
            self._tokens[entry_id] = None  # free the payload
            self.live_bytes -= projection_bytes(self._sizes[entry_id], has_sig)
        self._frontier = frontier

    # -- probing ---------------------------------------------------------

    def probe(
        self,
        rid: int,
        tokens: Sequence[int],
        true_size: int | None = None,
        signature: int | None = None,
    ) -> list[tuple[int, float]]:
        """Find the indexed records similar to (*rid*, *tokens*) whose
        pair with it this index owns.

        Returns ``(other_rid, similarity)`` pairs; in self mode the
        probing record itself is never reported (it is not yet added).

        ``true_size`` supports the R-S optimization that drops S-only
        tokens before shipping S projections (Section 4 Stage 1): the
        *filtered* token array is probed (dropped tokens cannot match
        any indexed R record), but the length filter and the required
        overlap are computed against the record's *original* set size
        so the reported similarity is exact.  ``signature`` is the
        probe's precomputed bitmap signature (see :meth:`add`).

        Per prefix token with a posting list: cut the length window out
        of it, drop the entries this probe already met, run the bitmap
        bound over the rest — so the ~97% it rejects touch no container
        — and take each survivor through ownership, the positional and
        suffix filters and the merge at once: the heads are disjoint, so
        the overlap is 1 plus that of the two tails.
        """
        nx = len(tokens)
        n_true = nx if true_size is None else true_size
        if n_true < nx:
            raise ValueError(f"true_size {n_true} smaller than token count {nx}")
        if nx == 0 or not self._rids:
            return []
        if self.evict:
            if n_true < self._last_probe_size:
                raise ValueError(
                    "eviction requires probes in non-decreasing size order "
                    f"(got size {n_true} after {self._last_probe_size})"
                )
            self._last_probe_size = n_true
        bounds = self._bounds
        lo, hi = bounds.length_bounds[n_true]
        sizes, frontier = self._sizes, self._frontier
        if self.evict and frontier < len(sizes) and sizes[frontier] < lo:
            self._evict_below(lo)
            frontier = self._frontier
        alpha_row = bounds.alpha_row[n_true]
        # Bitmap filter setup: the bound on the merged (token-array)
        # overlap is  popcount(sx & sy) + min(x_slack, y_slack)  with
        # slack = len - popcount; x's term is fixed for the whole probe.
        sig_x = None
        x_slack = 0
        if self.bitmap_width is not None:
            sig_x = (
                signature
                if signature is not None
                else bitmap_signature(tokens, self.bitmap_width)
            )
            x_slack = nx - sig_x.bit_count()
        # hoist per-entry tables into locals and keep the tallies in
        # locals too (attribute and dict lookups cost real time at this
        # call rate)
        entry_tokens, postings_of = self._tokens, self._postings
        sigs, slack, sanitizer = self._sigs, self._sig_slack, self.sanitizer
        seen: set[int] | None = None
        met: list[int] | None = None  # the one window met so far, until a second
        results: list[tuple[int, float]] = []
        p_candidates = p_length = p_foreign = p_bitmap = 0
        p_positional = p_suffix = p_verified = 0
        for i in range(bounds.prefix_length[nx]):
            token = tokens[i]
            posting = postings_of.get(token)
            if not posting:
                continue
            if posting[0] < frontier:
                # drop the evicted head for good (the frontier only advances)
                del posting[: bisect_left(posting, frontier)]
                if not posting:
                    continue
            if not self._size_ordered:
                window = [e for e in posting if lo <= sizes[e] <= hi]
            elif sizes[posting[0]] < lo or sizes[posting[-1]] > hi:
                size_of = sizes.__getitem__
                window = posting[
                    bisect_left(posting, lo, key=size_of) : bisect_right(
                        posting, hi, key=size_of
                    )
                ]
            else:
                window = posting
            if len(window) < len(posting):
                p_length += len(posting) - len(window)
                if sanitizer is not None:
                    for e in posting:
                        if not lo <= sizes[e] <= hi:
                            sanitizer.check_prune(
                                "length", tokens, n_true, entry_tokens[e], sizes[e]
                            )
            # drop the entries this probe already met (a set is built
            # only when a second posting list is hit)
            if met is None:
                met = fresh = window
            else:
                if seen is None:
                    seen = set(met)
                fresh = [e for e in window if e not in seen]
                seen.update(fresh)
            p_candidates += len(fresh)
            if sig_x is None:
                survivors = fresh
            else:
                survivors = [
                    e
                    for e in fresh
                    if (sig_x & sigs[e]).bit_count()
                    + (x_slack if x_slack < slack[e] else slack[e])
                    >= alpha_row[sizes[e]]
                ]
                p_bitmap += len(fresh) - len(survivors)
                if sanitizer is not None and len(survivors) < len(fresh):
                    kept = set(survivors)
                    for e in fresh:
                        if e not in kept:
                            sanitizer.check_prune(
                                "bitmap", tokens, n_true, entry_tokens[e], sizes[e]
                            )
            if not survivors:
                continue
            x_head, x_tail = set(tokens[:i]), tokens[i + 1 :]
            for e in survivors:
                y = entry_tokens[e]
                ny = sizes[e]
                alpha = alpha_row[ny]
                j = bisect_left(y, token)
                if j and not x_head.isdisjoint(y[:j]):
                    # a smaller common prefix token routes elsewhere
                    p_foreign += 1
                    if sanitizer is not None:
                        sanitizer.check_owner(tokens, y, False)
                    continue
                if self.use_positional and not positional_filter_passes(
                    nx, ny, i, j, 0, alpha
                ):
                    p_positional += 1
                    if sanitizer is not None:
                        sanitizer.check_prune("positional", tokens, n_true, y, ny)
                    continue
                y_tail = y[j + 1 :]
                if self.use_suffix and not suffix_filter_passes(
                    x_tail, y_tail, alpha, overlap_so_far=1
                ):
                    p_suffix += 1
                    if sanitizer is not None:
                        sanitizer.check_prune("suffix", tokens, n_true, y, ny)
                    continue
                p_verified += 1
                total = 1 + overlap(x_tail, y_tail, required=alpha - 1)
                if total >= alpha and self.sim.accepts_overlap(
                    n_true, ny, total, self.threshold
                ):
                    results.append(
                        (self._rids[e], self.sim.similarity_from_overlap(n_true, ny, total))
                    )
                    if sanitizer is not None:
                        sanitizer.check_owner(tokens, y, True, sample=False)
        stats = self.filter_stats
        stats["candidates"] += p_candidates
        stats["length"] += p_length
        stats["bitmap"] += p_bitmap
        stats["foreign"] += p_foreign
        stats["positional"] += p_positional
        stats["suffix"] += p_suffix
        stats["verified"] += p_verified
        return results


def _sorted_by_size(projections: Iterable[Projection]) -> list[Projection]:
    """Ascending set-size order, ties broken by RID for determinism."""
    return sorted(projections, key=lambda p: (p.size, p.rid))


def ppjoin_self_join(
    projections: Iterable[Projection],
    sim: SimilarityFunction,
    threshold: float,
    use_positional: bool = True,
    use_suffix: bool = True,
    bitmap_width: int | None = None,
) -> list[tuple[int, int, float]]:
    """Single-node PPJoin(+) self-join over rank-encoded projections.

    Returns ``(rid_low, rid_high, similarity)`` triples, canonically
    sorted.  This is exactly what one Stage-2 PK reducer computes for
    its partition; it is also usable standalone as a laptop-scale
    set-similarity join.  ``bitmap_width`` enables the bitmap filter
    (admissible — the result set is unchanged); projections may carry
    precomputed signatures.
    """
    index = PPJoinIndex(
        sim,
        threshold,
        mode="self",
        use_positional=use_positional,
        use_suffix=use_suffix,
        bitmap_width=bitmap_width,
    )
    results: list[tuple[int, int, float]] = []
    for proj in _sorted_by_size(projections):
        for other_rid, similarity in index.probe(
            proj.rid, proj.tokens, signature=proj.signature
        ):
            low, high = sorted((proj.rid, other_rid))
            results.append((low, high, similarity))
        index.add(proj.rid, proj.tokens, signature=proj.signature)
    results.sort()
    return results


def ppjoin_rs_join(
    r_projections: Iterable[Projection],
    s_projections: Iterable[Projection],
    sim: SimilarityFunction,
    threshold: float,
    use_positional: bool = True,
    use_suffix: bool = True,
    bitmap_width: int | None = None,
) -> list[tuple[int, int, float]]:
    """Single-node PPJoin(+) R-S join.

    Indexes R fully, probes with S (eviction disabled: a standalone
    call has no guaranteed interleaved length order — the MapReduce PK
    kernel recreates it via length classes and streams instead).
    Returns ``(r_rid, s_rid, similarity)`` triples, canonically sorted.
    """
    index = PPJoinIndex(
        sim,
        threshold,
        mode="rs",
        use_positional=use_positional,
        use_suffix=use_suffix,
        evict=False,
        bitmap_width=bitmap_width,
    )
    for proj in _sorted_by_size(r_projections):
        index.add(proj.rid, proj.tokens, signature=proj.signature)
    results: list[tuple[int, int, float]] = []
    for proj in _sorted_by_size(s_projections):
        for r_rid, similarity in index.probe(
            proj.rid, proj.tokens, signature=proj.signature
        ):
            results.append((r_rid, proj.rid, similarity))
    results.sort()
    return results
