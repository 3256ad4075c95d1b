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

Verification resumes the token merge after the last prefix match
(PPJoin's optimized verify) and is differential-tested against the
naive oracle.

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
from bisect import bisect_left
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

    ``filter_stats`` counts candidates pruned per filter stage
    (``length`` at posting-hit granularity, ``foreign``/``bitmap``/
    ``positional``/``suffix`` once per candidate pair) and, under
    ``candidates``, the distinct entries per probe that survived the
    length filter — each of which ends ``foreign`` (another route owns
    the pair, see :meth:`probe`), pruned by a later filter, or verified.

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
        self._bounds = bounds_for(sim, threshold)

        self._postings: dict[int, list[tuple[int, int]]] = {}
        self._rids: list[int] = []
        self._tokens: list[tuple[int, ...] | None] = []
        self._sizes: list[int] = []
        self._prefix_lens: list[int] = []
        #: per-entry signature and "size minus popcount" slack (the
        #: precomputed y-side term of the overlap upper bound)
        self._sigs: list[int] = []
        self._sig_slack: list[int] = []
        self._frontier = 0  # entries below this id are evicted
        self._last_added_size = 0
        self._last_probe_size = 0
        self.peak_live_entries = 0
        #: approximate bytes of live (non-evicted) entries, for memory metering
        self.live_bytes = 0
        #: post-length-filter candidates, and prunes per filter stage
        self.filter_stats = {
            "candidates": 0, "length": 0, "foreign": 0,
            "bitmap": 0, "positional": 0, "suffix": 0,
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
        """Index one record (rank-encoded, globally ordered tokens).

        ``signature`` supplies the precomputed bitmap signature; ignored
        when the index was built without ``bitmap_width``, computed from
        the tokens when bitmap filtering is on but none is given.
        """
        n = len(tokens)
        if self.evict and n < self._last_added_size:
            raise ValueError(
                "eviction requires records added in non-decreasing size order "
                f"(got size {n} after {self._last_added_size}); "
                "construct with evict=False for unordered input"
            )
        self._last_added_size = max(self._last_added_size, n)
        if n == 0:
            return
        entry_id = len(self._rids)
        self._rids.append(rid)
        # tuples and array('i') are kept as-is (both slice cheaply);
        # only mutable lists are defensively copied
        self._tokens.append(
            tokens if isinstance(tokens, (tuple, array)) else tuple(tokens)
        )
        self._sizes.append(n)
        if self.mode == "self":
            plen = self._bounds.index_prefix_length[n]
        else:
            plen = self._bounds.prefix_length[n]
        self._prefix_lens.append(plen)
        postings = self._postings
        for pos in range(plen):
            token = tokens[pos]
            posting = postings.get(token)
            if posting is None:
                postings[token] = [(entry_id, pos)]
            else:
                posting.append((entry_id, pos))
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
        owner: Callable[[Any], bool] | None = None,
    ) -> list[tuple[int, float]]:
        """Find indexed records similar to (*rid*, *tokens*).

        Returns ``(other_rid, similarity)`` pairs; in self mode the
        probing record itself is never reported (it is not yet added).

        ``true_size`` supports the R-S optimization that drops S-only
        tokens before shipping S projections (Section 4 Stage 1): the
        *filtered* token array is probed (dropped tokens cannot match
        any indexed R record), but the length filter and the required
        overlap are computed against the record's *original* set size
        so the reported similarity is exact.  ``signature`` is the
        probe's precomputed bitmap signature (see :meth:`add`).

        ``owner`` restricts the probe to the pairs this index *owns*
        (DESIGN.md §5k): a predicate on a prefix token, evaluated once
        per probe-prefix position, saying whether that token routes to
        the reducer running this index; ``None`` owns everything.  A
        pair belongs to the route of the smallest token common to both
        routing prefixes, which is the token of its *first* encounter:
        (1) positions are scanned in ascending token order; (2) a
        ``self`` index holds only mid-prefixes, but a mid-prefix is a
        down-closed prefix of the routing prefix, so a common token
        smaller than one inside it lies inside it too; (3) a pair with
        no common indexed token is never encountered by any index.  A
        first encounter at a token that is not *owner*'s is tallied as
        ``foreign`` and ends the entry's part in this probe.
        """
        nx = len(tokens)
        n_true = nx if true_size is None else true_size
        if n_true < nx:
            raise ValueError(f"true_size {n_true} smaller than token count {nx}")
        if nx == 0 or not self._rids:
            return []
        evict = self.evict
        if evict:
            if n_true < self._last_probe_size:
                raise ValueError(
                    "eviction requires probes in non-decreasing size order "
                    f"(got size {n_true} after {self._last_probe_size})"
                )
            self._last_probe_size = n_true
        bounds = self._bounds
        lo, hi = bounds.length_bounds[n_true]
        if evict:
            self._evict_below(lo)
        probe_len = bounds.prefix_length[nx]
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
        candidates: dict[int, list[int]] = {}
        pruned: set[int] = set()
        # hot loop: hoist per-entry tables, flags and per-stage prune
        # tallies into locals (attribute/dict lookups cost real time here)
        sizes, entry_tokens = self._sizes, self._tokens
        sigs, sig_slack = self._sigs, self._sig_slack
        alpha_of, postings_of, frontier = bounds.alpha, self._postings, self._frontier
        use_positional, use_suffix = self.use_positional, self.use_suffix
        sanitizer = self.sanitizer
        p_length = p_foreign = p_bitmap = p_positional = p_suffix = 0
        for i in range(probe_len):
            token = tokens[i]
            postings = postings_of.get(token)
            if not postings:
                continue
            if postings[0][0] < frontier:
                # drop the evicted head for good (the frontier only advances)
                start = 1
                while start < len(postings) and postings[start][0] < frontier:
                    start += 1
                del postings[:start]
            owned = owner is None or owner(token)
            for entry_id, j in postings:
                ny = sizes[entry_id]
                if ny < lo or ny > hi:
                    p_length += 1
                    if sanitizer is not None:
                        y_tokens = entry_tokens[entry_id]
                        assert y_tokens is not None
                        sanitizer.check_prune("length", tokens, n_true, y_tokens, ny)
                    continue
                if entry_id in pruned:
                    continue
                state = candidates.get(entry_id)
                if state is None and not owned:
                    # smallest common prefix token routes elsewhere
                    pruned.add(entry_id)
                    p_foreign += 1
                    if sanitizer is not None:
                        y_tokens = entry_tokens[entry_id]
                        assert y_tokens is not None
                        sanitizer.check_owner(tokens, y_tokens, False)
                    continue
                current = state[0] if state else 0
                alpha = alpha_of[n_true, ny]
                if state is None and sig_x is not None:
                    # first encounter: bitmap overlap upper bound,
                    # between the length and positional filters
                    y_slack = sig_slack[entry_id]
                    if (sig_x & sigs[entry_id]).bit_count() + (
                        y_slack if y_slack < x_slack else x_slack
                    ) < alpha:
                        pruned.add(entry_id)
                        p_bitmap += 1
                        if sanitizer is not None:
                            y_tokens = entry_tokens[entry_id]
                            assert y_tokens is not None
                            sanitizer.check_prune("bitmap", tokens, n_true, y_tokens, ny)
                        continue
                if use_positional and not positional_filter_passes(
                    nx, ny, i, j, current, alpha
                ):
                    pruned.add(entry_id)
                    candidates.pop(entry_id, None)
                    p_positional += 1
                    if sanitizer is not None:
                        y_tokens = entry_tokens[entry_id]
                        assert y_tokens is not None
                        sanitizer.check_prune("positional", tokens, n_true, y_tokens, ny)
                    continue
                if state is None:
                    if use_suffix:
                        y_tokens = entry_tokens[entry_id]
                        assert y_tokens is not None
                        if not suffix_filter_passes(
                            tokens[i + 1 :],
                            y_tokens[j + 1 :],
                            alpha,
                            overlap_so_far=1,
                        ):
                            pruned.add(entry_id)
                            p_suffix += 1
                            if sanitizer is not None:
                                sanitizer.check_prune(
                                    "suffix", tokens, n_true, y_tokens, ny
                                )
                            continue
                    candidates[entry_id] = [1, i, j]
                else:
                    state[0] = current + 1
                    state[1] = i
                    state[2] = j
        if p_length or pruned or candidates:
            stats = self.filter_stats
            stats["candidates"] += len(pruned) + len(candidates)
            stats["length"] += p_length
            stats["foreign"] += p_foreign
            stats["bitmap"] += p_bitmap
            stats["positional"] += p_positional
            stats["suffix"] += p_suffix
        if not candidates:
            return []
        return self._verify(rid, tokens, n_true, probe_len, candidates)

    def _verify(
        self,
        rid: int,
        tokens: Sequence[int],
        n_true: int,
        probe_len: int,
        candidates: dict[int, list[int]],
    ) -> list[tuple[int, float]]:
        """PPJoin optimized verification: resume the merge after the
        last prefix match instead of re-scanning the prefixes."""
        sim, threshold = self.sim, self.threshold
        alpha_of = self._bounds.alpha
        sanitizer = self.sanitizer
        nx = len(tokens)
        last_x = tokens[probe_len - 1]
        results: list[tuple[int, float]] = []
        for entry_id, (count, i, j) in candidates.items():
            y_tokens = self._tokens[entry_id]
            assert y_tokens is not None
            ny = len(y_tokens)
            alpha = alpha_of[n_true, ny]
            plen_y = self._prefix_lens[entry_id]
            if last_x < y_tokens[plen_y - 1]:
                if count + (nx - probe_len) < alpha:
                    continue
                total = count + overlap(
                    tokens[probe_len:], y_tokens[j + 1 :], required=alpha - count
                )
            else:
                if count + (ny - plen_y) < alpha:
                    continue
                total = count + overlap(
                    tokens[i + 1 :], y_tokens[plen_y:], required=alpha - count
                )
            if total >= alpha and sim.accepts_overlap(n_true, ny, total, threshold):
                similarity = sim.similarity_from_overlap(n_true, ny, total)
                results.append((self._rids[entry_id], similarity))
                if sanitizer is not None:
                    sanitizer.check_owner(tokens, y_tokens, True, sample=False)
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
