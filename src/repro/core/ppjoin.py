"""PPJoin / PPJoin+ — the indexed single-node kernel (Xiao et al. '08).

The paper's PK kernel runs this algorithm once per Stage-2 reduce group:
an inverted index over *prefix* tokens, built and probed over the
group's length-sorted stream, with the length, positional and
(optionally) suffix filters applied before merge-based verification.

:class:`PPJoinIndex` is the incremental index; :meth:`~PPJoinIndex.join_group`
runs a whole stream through it in one loop (:meth:`~PPJoinIndex.probe` and
:meth:`~PPJoinIndex.add` are that loop over one record), under the two
usage patterns of the paper:

* **self-join** — records arrive in ascending set-size order; each
  record first probes the index, then is added to it.  The index side
  uses the shorter *mid-prefix*, and entries whose size falls below the
  length-filter lower bound of the current probe are evicted — the
  memory-footprint optimization Section 3.2.2 obtains via the composite
  ``(group, length)`` MapReduce key.
* **R-S join** — R records are added (ascending size), S records only
  probe.  Eviction uses the probe's lower bound, which is why the R-S
  kernel streams records in the length-class order of Section 4.

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
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> core)
    from repro.analysis.sanitize import Sanitizer

from repro.core.bitmaps import signature as bitmap_signature
from repro.core.filters import (
    positional_filter_passes,
    suffix_filter_passes,
)
from repro.core.prefixes import REL_R, REL_S, Owner, Projection, projection_bytes, route_of
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
        ``None`` disables it.  Signatures may be supplied precomputed
        (the Stage-2 mappers compute them once per record) or are
        derived from the tokens on demand.
    owner:
        Restricts the index to the pairs it *owns* (DESIGN.md §5h): the
        :class:`~repro.core.prefixes.Owner` of the reducer running this
        index; ``None`` owns everything.  A pair belongs to the route of
        the smallest token common to both routing prefixes, so a record
        is posted under its owned index-prefix tokens only (a record
        with none is not stored) and a probe first meets a candidate at
        their smallest common *owned* token ``t = x[i] = y[j]``.  The
        pair is this index's iff ``x[:i]`` and ``y[:j]`` are disjoint:
        (1) every common token below ``t`` lies in both heads, and the
        heads lie in the routing prefixes (``y``'s index prefix is a
        down-closed prefix of its routing prefix); (2) disjoint heads
        make ``t`` itself the smallest common prefix token, and it is
        owned; (3) otherwise that token is some ``s < t`` which cannot
        be owned — ``y`` would be posted under it and the ascending scan
        would have met it there — so the pair is another route's
        (``foreign``).

    ``filter_stats`` counts, under ``candidates``, the distinct entries
    per probe found inside the length window of an owned posting list,
    each of which ends in exactly one of ``bitmap``/``foreign``/
    ``positional``/``suffix`` (pruned, in that order) or ``verified``
    (merged); ``length`` counts posting entries outside the window.

    ``sanitizer`` (see :mod:`repro.analysis.sanitize`) attaches the
    runtime admissibility oracle: a deterministic sample of pruned
    candidates is re-checked against the exact overlap.  Observe-only —
    results are identical with or without it.
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
        owner: Owner | None = None,
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
        # the owned-token test as data: owner-less owns the whole
        # prefix, per-token routing one token (found by bisection),
        # grouped routing the tokens dealt to this route
        route = None if owner is None else owner.route
        owns: Callable[[Any], bool] | None = None
        if owner is not None and owner.num_groups is not None:
            group_of = route_of(owner.num_groups)
            owns = lambda token: group_of(token) == route  # noqa: E731
        #: what the kernel loop reads and never rebinds — the settings
        #: above are fixed at construction — unpacked in one step per call
        self._kernel = (
            sim.accepts_overlap, sim.similarity_from_overlap, threshold,
            bounds.length_bounds, bounds.alpha_row, bounds.prefix_length,
            self._index_prefix_length, use_positional, use_suffix, evict,
            bitmap_width, bitmap_width is not None, sanitizer,
            owner, route, owns, owner is not None and owns is None,
            self._postings, self._rids, self._tokens, self._sizes, self._sigs, self._sig_slack,
        )
        self._frontier = 0  # entries below this id are evicted
        #: entry sizes are non-decreasing (always, under ``evict``), so
        #: the length window of a posting list is one run
        self._size_ordered = True
        self._last_added_size = 0
        self._last_probe_size = 0
        self.peak_live_entries = 0
        #: values consumed so far (a reduce group's record count)
        self.records_seen = 0
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

    # -- one record ----------------------------------------------------

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
        self._join(((REL_R, rid, len(tokens), signature, tokens),), (), (REL_R,))

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
        """
        n_true = len(tokens) if true_size is None else true_size
        probing = ((REL_S, rid, n_true, signature, tokens),)
        found = self._join(probing, (REL_S,), ())
        return [(other, sim) for other, _rid, sim in found] if found else []

    # -- one reduce group ----------------------------------------------

    def join_group(
        self,
        values: Iterable[tuple],
        hold: Callable[[int], Any] | None = None,
    ) -> list[tuple[int, int, float]]:
        """Run a size-ordered stream of ``(rel, rid, true_size,
        signature, tokens)`` values — one Stage-2 reduce group — through
        the index: in ``"self"`` mode every record probes, then is
        stored; in ``"rs"`` mode ``REL_S`` records probe and ``REL_R``
        records are stored.  Returns ``(stored_rid, rid, similarity)``
        per answer, in stream order.

        ``hold`` meters the index's ``live_bytes``: it is called with
        the group's high-water mark each time that rises, after the
        record that raised it, and with 0 when the stream ends or raises.
        """
        if self.mode == "self":
            return self._join(values, (REL_R, REL_S), (REL_R, REL_S), hold)
        return self._join(values, (REL_S,), (REL_R,), hold)

    def _join(
        self,
        values: Iterable[tuple],
        probes: tuple[int, ...],
        stores: tuple[int, ...],
        hold: Callable[[int], Any] | None = None,
    ) -> list[tuple[int, int, float]]:
        """The kernel, written once: records whose ``rel`` is in
        *probes* probe, those in *stores* are stored.

        Per probing record and prefix token with a posting list: cut the
        length window out of it, drop the entries this probe already
        met, run the bitmap bound over the rest — so the ~97% it rejects
        touch no container — and take each survivor through ownership,
        the positional and suffix filters and the merge at once: the
        heads are disjoint, so the overlap is 1 plus that of the two
        tails.  State and tallies live in locals until the stream ends.
        """
        (
            accepts, similarity_of, threshold, length_bounds, alpha_rows, prefix_length,
            index_prefix_length, use_positional, use_suffix, evict, width, has_sig,
            sanitizer, owner, route, owns, per_token,
            postings_of, rids, entry_tokens, sizes, sigs, slack,
        ) = self._kernel
        frontier, live_bytes, peak_live = self._frontier, self.live_bytes, self.peak_live_entries
        size_ordered = self._size_ordered
        last_added, last_probe = self._last_added_size, self._last_probe_size
        held = records = 0
        results: list[tuple[int, int, float]] = []
        p_candidates = p_length = p_foreign = p_bitmap = 0
        p_positional = p_suffix = p_verified = 0
        try:
            for rel, rid, n_true, sig, x in values:
                records += 1
                nx = len(x)
                if has_sig and nx:
                    # the bitmap bound on the merged (token-array) overlap is
                    # popcount(sx & sy) + min(x_slack, y_slack), slack = len -
                    # popcount: x's term serves its probe and is stored with it
                    if sig is None:
                        sig = bitmap_signature(x, width)
                    x_slack = nx - sig.bit_count()
                if per_token:  # where x holds the one owned token, or nx
                    at = bisect_left(x, route)
                    if at < nx and x[at] != route:
                        at = nx
                if n_true < nx and rel in probes:
                    raise ValueError(f"true_size {n_true} smaller than token count {nx}")
                if nx and rids and rel in probes:
                    if evict:
                        if n_true < last_probe:
                            raise ValueError(
                                "eviction requires probes in non-decreasing size order "
                                f"(got size {n_true} after {last_probe})"
                            )
                        last_probe = n_true
                    lo, hi = length_bounds[n_true]
                    if evict and frontier < len(sizes) and sizes[frontier] < lo:
                        # sizes are non-decreasing: evict one run, releasing
                        # exactly what the store charged (signature word included)
                        passed = bisect_left(sizes, lo, frontier)
                        for e in range(frontier, passed):
                            entry_tokens[e] = None  # free the payload
                            live_bytes -= projection_bytes(sizes[e], has_sig)
                        frontier = passed
                    alpha_row = alpha_rows[n_true]
                    p = prefix_length[nx]
                    positions: Iterable[int] = ((at,) if at < p else ()) if per_token else range(p)
                    seen: set[int] | None = None
                    met: list[int] | None = None  # the one window met so far, until a second
                    for i in positions:
                        token = x[i]
                        posting = postings_of.get(token)
                        if not posting:
                            continue
                        if posting[0] < frontier:
                            # drop the evicted head for good (the frontier only advances)
                            del posting[: bisect_left(posting, frontier)]
                            if not posting:
                                continue
                        if not size_ordered:
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
                                            "length", x, n_true, entry_tokens[e], sizes[e]
                                        )
                        # drop the entries this probe already met (a set is
                        # built only when a second posting list is hit)
                        if met is None:
                            met = fresh = window
                        else:
                            if seen is None:
                                seen = set(met)
                            fresh = list(filterfalse(seen.__contains__, window))
                            seen.update(fresh)
                        p_candidates += len(fresh)
                        if not has_sig:
                            survivors = fresh
                        else:
                            survivors = [
                                e
                                for e in fresh
                                if (sig & sigs[e]).bit_count()
                                + (x_slack if x_slack < slack[e] else slack[e])
                                >= alpha_row[sizes[e]]
                            ]
                            p_bitmap += len(fresh) - len(survivors)
                            if sanitizer is not None and len(survivors) < len(fresh):
                                kept = set(survivors)
                                for e in fresh:
                                    if e not in kept:
                                        sanitizer.check_prune(
                                            "bitmap", x, n_true, entry_tokens[e], sizes[e]
                                        )
                        if not survivors:
                            continue
                        x_head, x_tail = set(x[:i]), x[i + 1 :]
                        for e in survivors:
                            y = entry_tokens[e]
                            ny = sizes[e]
                            alpha = alpha_row[ny]
                            j = bisect_left(y, token)
                            if j and not x_head.isdisjoint(y[:j]):
                                # a smaller common prefix token routes elsewhere
                                p_foreign += 1
                                if sanitizer is not None:
                                    sanitizer.check_owner(x, y, False)
                                continue
                            if use_positional and not positional_filter_passes(
                                nx, ny, i, j, 0, alpha
                            ):
                                p_positional += 1
                                if sanitizer is not None:
                                    sanitizer.check_prune("positional", x, n_true, y, ny)
                                continue
                            y_tail = y[j + 1 :]
                            if use_suffix and not suffix_filter_passes(
                                x_tail, y_tail, alpha, overlap_so_far=1
                            ):
                                p_suffix += 1
                                if sanitizer is not None:
                                    sanitizer.check_prune("suffix", x, n_true, y, ny)
                                continue
                            p_verified += 1
                            total = 1 + overlap(x_tail, y_tail, required=alpha - 1)
                            if total >= alpha and accepts(n_true, ny, total, threshold):
                                results.append((rids[e], rid, similarity_of(n_true, ny, total)))
                                if sanitizer is not None:
                                    sanitizer.check_owner(x, y, True, sample=False)
                if rel in stores:
                    if nx < last_added:
                        if evict:
                            raise ValueError(
                                "eviction requires records added in non-decreasing size order "
                                f"(got size {nx} after {last_added}); "
                                "construct with evict=False for unordered input"
                            )
                        size_ordered = False
                    else:
                        last_added = nx
                    if nx:
                        p = index_prefix_length[nx]
                        if owner is None:
                            owned: Sequence[Any] = x[:p]
                        elif per_token:
                            owned = (route,) if at < p else ()
                        else:
                            owned = list(filter(owns, x[:p]))
                        if owned or owner is None:
                            entry_id = len(rids)
                            rids.append(rid)
                            # tuples and array('i') are kept as-is (both slice
                            # cheaply); only mutable lists are defensively copied
                            entry_tokens.append(x if isinstance(x, (tuple, array)) else tuple(x))
                            sizes.append(nx)
                            for token in owned:
                                posting = postings_of.get(token)
                                if posting is None:
                                    postings_of[token] = [entry_id]
                                else:
                                    posting.append(entry_id)
                            if has_sig:
                                sigs.append(sig)
                                slack.append(x_slack)
                            live_bytes += projection_bytes(nx, has_sig)
                            if entry_id + 1 - frontier > peak_live:
                                peak_live = entry_id + 1 - frontier
                if live_bytes > held and hold is not None:
                    held = live_bytes
                    hold(held)
        finally:
            self._frontier, self.live_bytes, self.peak_live_entries = frontier, live_bytes, peak_live
            self._size_ordered = size_ordered
            self._last_added_size, self._last_probe_size = last_added, last_probe
            self.records_seen += records
            if p_candidates or p_length:  # every other tally is a candidate's
                stats = self.filter_stats
                stats["candidates"] += p_candidates
                stats["length"] += p_length
                stats["bitmap"] += p_bitmap
                stats["foreign"] += p_foreign
                stats["positional"] += p_positional
                stats["suffix"] += p_suffix
                stats["verified"] += p_verified
            if held:
                hold(0)
        return results


def _sorted_by_size(projections: Iterable[Projection], rel: int) -> Iterable[tuple]:
    """Ascending set-size order, ties broken by RID for determinism, as
    :meth:`PPJoinIndex.join_group` values tagged *rel*."""
    return (
        (rel, p.rid, p.size, p.signature, p.tokens)
        for p in sorted(projections, key=lambda p: (p.size, p.rid))
    )


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
    return sorted(
        (min(a, b), max(a, b), similarity)
        for a, b, similarity in index.join_group(_sorted_by_size(projections, REL_R))
    )


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
    return sorted(
        index.join_group(
            chain(
                _sorted_by_size(r_projections, REL_R),
                _sorted_by_size(s_projections, REL_S),
            )
        )
    )
