"""Synthetic DBLP-like and CITESEERX-like corpora.

The paper evaluates on preprocessed DBLP (~1.2M records, 259 bytes
average) and CITESEERX (~1.3M records, 1374 bytes average): one line
per publication with a unique integer RID, a title, a list of authors,
and "the rest of the content"; CITESEERX additionally carries an
abstract, which is what makes its records ~5x larger.

We do not have the original XML dumps, so we generate corpora that
preserve what the algorithms actually consume:

* Zipf-distributed title words over a bounded dictionary (token
  frequency skew drives prefix-filter effectiveness and routing skew);
* author names drawn from first/last name pools (short, moderately
  frequent tokens);
* a near-duplicate fraction — records whose title/authors are small
  perturbations of earlier records — so that a τ = 0.8 Jaccard
  self-join has a non-trivial, linearly growing answer, mirroring the
  paper's observation about its increased datasets;
* record payload ("the rest") sized to match the per-record byte
  averages, which is what makes the R-S Stage 3 expensive for
  CITESEERX (Section 6.2).

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.join.records import make_line

_FIRST_NAMES = (
    "james mary john patricia robert jennifer michael linda david elizabeth "
    "william barbara richard susan joseph jessica thomas sarah charles karen "
    "wei li ming yan chen raj priya anil sergey olga ivan".split()
)
_LAST_NAMES = (
    "smith johnson williams brown jones garcia miller davis rodriguez "
    "martinez hernandez lopez gonzalez wilson anderson thomas taylor moore "
    "jackson martin lee perez white harris wang zhang liu chen yang kumar "
    "singh patel ivanov petrov".split()
)
_VENUES = (
    "sigmod vldb icde kdd www sigir cikm edbt icdt pods cidr sosp osdi "
    "nsdi usenix podc spaa stoc focs soda".split()
)


@dataclass(frozen=True)
class CorpusSpec:
    """Shape parameters of a synthetic corpus."""

    name: str
    vocab_size: int = 2000
    zipf_s: float = 1.05
    title_words: tuple[int, int] = (4, 12)
    authors: tuple[int, int] = (1, 4)
    #: fraction of records generated as near-duplicates of earlier ones.
    #: Calibrated against the paper's Stage-3 profile (Section 6.1.1):
    #: a non-trivial, linearly growing join answer with clustered hot
    #: RIDs, while keeping OPRJ's broadcast RID-pair list small enough
    #: that OPRJ stays the fastest self-join combination, as observed
    #: in the paper.
    dup_fraction: float = 0.20
    #: words of filler payload appended as the "rest of the content"
    payload_words: tuple[int, int] = (8, 15)

    def __post_init__(self) -> None:
        if self.vocab_size < 10:
            raise ValueError(f"vocab_size must be >= 10, got {self.vocab_size}")
        if not 0.0 <= self.dup_fraction < 1.0:
            raise ValueError(f"dup_fraction must be in [0, 1), got {self.dup_fraction}")


#: DBLP-like: short records (title + authors + venue line).
DBLP_SPEC = CorpusSpec(name="dblp")

#: CITESEERX-like: same publication shape plus an abstract-sized payload
#: (the ~5x record-size ratio of the paper's datasets).
CITESEERX_SPEC = CorpusSpec(name="citeseerx", vocab_size=2500, payload_words=(95, 135))


class _ZipfSampler:
    """Zipf-distributed word sampler over a synthetic dictionary."""

    def __init__(self, vocab_size: int, s: float, rng: random.Random) -> None:
        self._rng = rng
        self._words = [f"term{i:05d}" for i in range(vocab_size)]
        weights = [1.0 / (rank + 1) ** s for rank in range(vocab_size)]
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1]

    def word(self) -> str:
        point = self._rng.random() * self._total
        return self._words[bisect_right(self._cum, point)]

    def words(self, count: int) -> list[str]:
        return [self.word() for _ in range(count)]


def generate_corpus(
    spec: CorpusSpec,
    num_records: int,
    seed: int = 0,
    rid_base: int = 0,
    duplicate_pool: list[tuple[str, str]] | None = None,
) -> list[str]:
    """Generate *num_records* record lines under *spec*.

    ``duplicate_pool`` optionally seeds the near-duplicate source with
    (title, authors) pairs from *another* corpus — used to make the
    R-S workload share publications between DBLP and CITESEERX the way
    the real datasets do.
    """
    rng = random.Random(f"{seed}:{spec.name}:{num_records}")
    sampler = _ZipfSampler(spec.vocab_size, spec.zipf_s, rng)
    pool: list[tuple[str, str]] = list(duplicate_pool or [])
    lines: list[str] = []
    for offset in range(num_records):
        rid = rid_base + offset
        if pool and rng.random() < spec.dup_fraction:
            title, authors = _perturb(rng.choice(pool), sampler, rng)
        else:
            title = " ".join(sampler.words(rng.randint(*spec.title_words)))
            authors = " ".join(
                f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
                for _ in range(rng.randint(*spec.authors))
            )
        pool.append((title, authors))
        payload = " ".join(
            (
                rng.choice(_VENUES),
                str(rng.randint(1980, 2010)),
                f"pages {rng.randint(1, 400)}-{rng.randint(401, 800)}",
                *sampler.words(rng.randint(*spec.payload_words)),
            )
        )
        lines.append(make_line(rid, [title, authors, payload]))
    return lines


def _perturb(
    source: tuple[str, str], sampler: _ZipfSampler, rng: random.Random
) -> tuple[str, str]:
    """Produce a near-duplicate of (title, authors): drop, replace or
    append at most one title word."""
    title, authors = source
    words = title.split()
    action = rng.random()
    if not words:
        return title, authors
    if action < 0.25 and len(words) > 1:
        words.pop(rng.randrange(len(words)))
    elif action < 0.5:
        words[rng.randrange(len(words))] = sampler.word()
    elif action < 0.75:
        words.append(sampler.word())
    # else: exact duplicate of title+authors under a new RID
    return " ".join(words), authors


def generate_dblp(num_records: int, seed: int = 0, rid_base: int = 0) -> list[str]:
    """DBLP-like corpus (short records)."""
    return generate_corpus(DBLP_SPEC, num_records, seed=seed, rid_base=rid_base)


#: knobs of the skewed corpus, fixed so every consumer (benchmarks, CI
#: smoke, tests) reproduces the identical distribution
_SKEW_NUM_HUBS = 16
_SKEW_HUB_ZIPF_S = 2.5
_SKEW_HUB_FRACTION = 0.3
_SKEW_COMMON_VOCAB = 24
_SKEW_TITLE_WORDS = (9, 13)
_SKEW_AUTHOR_POOL = 3


def generate_skewed(
    num_records: int,
    seed: int = 0,
    rid_base: int = 0,
    hub_fraction: float = _SKEW_HUB_FRACTION,
) -> list[str]:
    """Zipf/power-law *prefix-skewed* corpus: the reducer-size stress
    test.

    The generic corpora are Zipf-distributed over the whole vocabulary,
    but the prefix filter routes each record on its **rarest** tokens —
    so global skew largely cancels out of Stage-2 routing.  This
    generator is built to put the skew exactly where the router looks:

    * titles draw from a deliberately *small* common vocabulary, so
      ordinary words are all high-frequency and sort to the **end** of
      the ascending-frequency token order (out of the prefix);
    * a *hub_fraction* of records additionally carry one "hub" token
      drawn Zipf-distributed from a tiny anchor pool.  Hub tokens are
      the rarest token in their record, so they land at prefix position
      one and the Zipf head hubs each pull a few percent of the whole
      corpus onto a single Stage-2 routing key — the oversized reduce
      groups a reducer-size bound has to be judged on;
    * hub records sharing a hub are near-duplicates of each other
      (perturbed titles), so the hot groups also produce a non-trivial
      join answer instead of pure filter misses.

    Seeded and deterministic, like the other generators.
    """
    if not 0.0 < hub_fraction < 1.0:
        raise ValueError(f"hub_fraction must be in (0, 1), got {hub_fraction}")
    rng = random.Random(f"{seed}:skewed:{num_records}")
    common = [f"word{i:03d}" for i in range(_SKEW_COMMON_VOCAB)]
    hubs = [f"hub{i:03d}" for i in range(_SKEW_NUM_HUBS)]
    hub_weights = [1.0 / (rank + 1) ** _SKEW_HUB_ZIPF_S for rank in range(_SKEW_NUM_HUBS)]
    hub_cum = list(accumulate(hub_weights))
    hub_total = hub_cum[-1]
    # a single author from tiny pools: author tokens stay frequent
    # enough not to crowd the hub token out of the prefix — the hub must
    # be the *rarest* token of its record even for the hottest hub
    def draw_authors() -> str:
        first = _FIRST_NAMES[: _SKEW_AUTHOR_POOL]
        last = _LAST_NAMES[: _SKEW_AUTHOR_POOL]
        return f"{rng.choice(first)} {rng.choice(last)}"

    #: per-hub perturbation pool of (title, authors), so hub groups
    #: hold near-duplicates and the hot groups produce join answers
    hub_pool: dict[str, list[tuple[str, str]]] = {}
    lines: list[str] = []
    for offset in range(num_records):
        rid = rid_base + offset
        if rng.random() < hub_fraction:
            hub = hubs[bisect_right(hub_cum, rng.random() * hub_total)]
            pool = hub_pool.setdefault(hub, [])
            if pool and rng.random() < 0.5:
                title, authors = rng.choice(pool)
                words = title.split()
                if rng.random() < 0.5:
                    words[rng.randrange(len(words))] = rng.choice(common)
                    title = " ".join(dict.fromkeys(words))
                # else: exact duplicate of title+authors under a new RID
            else:
                count = rng.randint(*_SKEW_TITLE_WORDS)
                title = " ".join(
                    dict.fromkeys(rng.choice(common) for _ in range(count))
                )
                authors = draw_authors()
            pool.append((title, authors))
            title = f"{title} {hub}"
        else:
            count = rng.randint(*_SKEW_TITLE_WORDS)
            title = " ".join(dict.fromkeys(rng.choice(common) for _ in range(count)))
            authors = draw_authors()
        payload = f"{rng.choice(_VENUES)} {rng.randint(1980, 2010)}"
        lines.append(make_line(rid, [title, authors, payload]))
    return lines


def generate_citeseerx(
    num_records: int,
    seed: int = 1,
    rid_base: int = 0,
    shared_with: list[str] | None = None,
) -> list[str]:
    """CITESEERX-like corpus (long records).

    ``shared_with`` takes DBLP record lines whose (title, authors) seed
    the duplicate pool, so an R-S join between the two corpora finds
    the shared publications.
    """
    pool = None
    if shared_with:
        pool = []
        for line in shared_with:
            fields = line.split("\t")
            if len(fields) >= 3:
                pool.append((fields[1], fields[2]))
    return generate_corpus(
        CITESEERX_SPEC, num_records, seed=seed, rid_base=rid_base, duplicate_pool=pool
    )
