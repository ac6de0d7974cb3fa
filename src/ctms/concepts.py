"""Grouping web lists into concepts.

Lists extracted by different wrappers may realize different meanings of
the seed.  Two lists are similar when they share member terms (a list
wholly contained in another signals a sub-concept and counts as fully
similar on the content side) and when the text surrounding them on their
pages is about the same topic.  Greedy average-linkage agglomeration over
that similarity, followed by support and seed filters, yields the
concepts.

A list contained in another on its page shares its concept.  A list is
contained when its term set is a proper subset of another list's on the
same page, or equal to that of a list with a smaller id
(`maximal_lists`); character-context wrappers learned around one list
produce such nested fragments.  The pair scores 1.0 on the content side,
so only each page's maximal lists are clustered, and `mine` adds every
contained list to the cluster of its smallest-id maximal container,
whose terms already hold all of its own.  The rule applies at any
``sim_lambda`` above 0, however small; only at 0, where the content side
has no weight, is every list clustered, so a report can change between
``sim_lambda`` 0 and 1e-6.

A list's context vector is a plain word -> tf-idf weight dict, as in the
vector-space model; a cosine needs only those weights and the two norms.
Each fetched page's rendered text is tokenized once, into a
`TokenIndex` keyed by its URL: the page's token set feeds the document
frequencies, and a list's context vector reads its window's tokens off
the index of its `source_url` by the window's rendered bounds (only the
``--dump-weblists`` output renders a window to text), recomputing only a
token run the window clips, in the order `tokenize` of its text gives them.

Every float sum here (norms, dot products, linkage totals) is a loop that
adds left to right, never the built-in ``sum``: from Python 3.12 on,
``sum`` compensates rounding error, so the same floats would add up to
different bits, and could merge different clusters, on different Python
versions.

The context dot products of all list pairs come from one inverted index,
word -> [(list, weight)], so a pair costs only the words the two lists
share.  They are added in the order of the pair's smaller vector, as a
pairwise loop over that vector adds them; the words such a loop has
beyond the shared ones add ``w * 0.0``, which changes no bit.  Each
visited list adds into a plain list indexed by list number,
``[0.0] * n``, rather than a dict: a pair that shares no word keeps the
dot product 0.0, and 0.0 over a non-zero product of norms is cosine
0.0, as a pairwise loop gives.  The content part's shared-term count is
``len(a & b)`` of the two term sets, an exact integer.

The merge loop stores the average linkage of every live cluster pair
and, after each merge, rescores the merged cluster against every
survivor, summing its member pairs in the order a full rescan would;
no pair's sum is skipped, so the merges are those of the full
computation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .config import PipelineConfig
from .expansion import WebList
from .text import TokenIndex


class BackgroundCorpus:
    """Each fetched page's tokens, and document-frequency statistics over
    the pages; an idf counts documents only, so their order does not matter."""

    def __init__(self, pages: Mapping[str, str]):
        # One index per page, keyed by URL, as WebList.source_url names it.
        self.pages = {url: TokenIndex(text) for url, text in pages.items()}
        doc_freq: Counter[str] = Counter()
        for page in self.pages.values():
            doc_freq.update(set(page.tokens))
        # A word's idf is fixed for the run, so each is computed once.  A
        # window that clips a token run can make a word no page has (the
        # "北" of "北京"), of df 0.
        self.idf = {word: self._idf_of(df) for word, df in doc_freq.items()}
        self.unseen_idf = self._idf_of(0)

    def _idf_of(self, df: int) -> float:
        """log(|B| / (df + 1)), clamped at zero.

        The +1 smoothing makes the ratio dip below 1 for ubiquitous words;
        negative weights would break the [0, 1] range of cosine scores, so
        they clamp to zero instead.
        """
        if not self.pages:
            return 0.0
        value = math.log(len(self.pages) / (df + 1))
        return value if value > 0.0 else 0.0


def _norm(weights: Mapping[str, float]) -> float:
    """The Euclidean norm of a weight dict, its squares added left to right."""
    total = 0.0
    for w in weights.values():
        total += w * w
    return math.sqrt(total)


def context_vector(weblist: WebList, background: BackgroundCorpus) -> dict[str, float]:
    """The sparse tf-idf vector of the tokens of `weblist`'s context
    window, whose two halves are read off its page's index: word -> weight,
    in the order the window's words first occur, without zero weights."""
    page = background.pages[weblist.source_url]
    lo, before, after, hi = weblist.window
    tf = Counter(page.tokens_in(lo, before))
    tf.update(page.tokens_in(after, hi))
    idf, unseen = background.idf, background.unseen_idf
    weights = {}
    for word, count in tf.items():
        w = count * idf.get(word, unseen)
        if w > 0.0:
            weights[word] = w
    return weights


def _similarity_matrix(
    terms: Sequence[set[str]], vectors: Sequence[Mapping[str, float]], lam: float
) -> list[list[float]]:
    """Every list pair's similarity, in [0, 1], from the lists' term sets
    and context vectors (weight dicts), two parallel sequences: ``lam``
    times the content part |a∩b| / min(|a|, |b|) of their (non-empty) term
    sets, plus ``1 - lam`` times the cosine of their vectors.  Containment
    scores 1 on the content side, which is why `mine` clusters only each
    page's maximal lists at any ``lam`` above 0, however small; a
    zero-norm vector gives cosine 0.

    Lists are visited by descending (vector size, index).  Each starts a
    fresh dot-product accumulator, a plain list indexed by list number.
    It walks its own words in dict order, adds ``w * wb`` to the slot of
    every list already posted under the word, then posts its own weight:
    a pair is summed over its shared words, in the order of its smaller
    vector (the earlier one on equal size).  A pair's shared-term count
    is ``len(a & b)`` of its term sets.  Term-set sizes and norms
    (`_norm`) are computed once per list, on entry.  A pair
    that shares no word keeps the dot product 0.0, so its cosine is
    0.0 / (norm * norm_b) = 0.0, as a pairwise loop gives; a zero-norm
    side gives cosine 0.0 without a division.  The clamp is written as
    two tests, which give ``min(1.0, max(0.0, x))`` for every x (a NaN
    or -0.0 becomes 0.0).
    """
    n = len(terms)
    sizes = [len(t) for t in terms]
    norms = [_norm(v) for v in vectors]
    mu = 1.0 - lam
    sim = [[0.0] * n for _ in range(n)]
    word_postings: dict[str, list[tuple[int, float]]] = {}
    seen: list[int] = []
    for a in sorted(range(n), key=lambda i: (len(vectors[i]), i), reverse=True):
        dots = [0.0] * n
        for word, w in vectors[a].items():
            posted = word_postings.setdefault(word, [])
            for b, wb in posted:
                dots[b] += w * wb
            posted.append((a, w))
        own, size, norm = terms[a], sizes[a], norms[a]
        row = sim[a]
        for b in seen:
            size_b = sizes[b]
            content = len(own & terms[b]) / (size if size < size_b else size_b)
            norm_b = norms[b]
            cosine = 0.0
            if norm != 0.0 and norm_b != 0.0:
                cosine = dots[b] / (norm * norm_b)
                if not cosine > 0.0:
                    cosine = 0.0
                elif cosine > 1.0:
                    cosine = 1.0
            row[b] = sim[b][a] = lam * content + mu * cosine
        seen.append(a)
    return sim


@dataclass(frozen=True)
class ConceptCluster:
    """A group of web lists assumed to share one meaning of the seed.

    `member_terms` are the terms a concept ranks: every term of a grouped
    cluster's lists, or the well-supported ones of the ungrouped
    pseudo-concept.  A cluster may lack the seed; `filter_clusters` keeps
    only those whose `member_terms` hold it.
    """

    id: str
    lists: tuple[str, ...]  # weblist ids, sorted
    member_terms: frozenset[str]


def cluster_weblists(
    weblists: Sequence[WebList],
    vectors: Mapping[str, Mapping[str, float]],
    cfg: PipelineConfig,
) -> list[ConceptCluster]:
    """Greedy average-linkage agglomeration down to the similarity threshold.

    Clusters merge while the best average pairwise similarity between two
    clusters is at least ``cfg.cluster_threshold``.  A list pair's
    similarity blends content overlap, |a∩b| / min(|a|, |b|) of their
    terms, with the cosine of their context vectors, weighted ``lam =
    cfg.sim_lambda`` and ``1 - lam`` (`_similarity_matrix`); `vectors`
    maps each list id to its vector, the word -> weight dict
    `context_vector` returns.  Ties
    break on the lexicographically smallest (cluster id, cluster id) pair;
    a cluster's id is the smallest member weblist id, so the procedure is
    deterministic for a fixed input.  `weblists` is non-empty and each has
    at least two terms, as `harvest_page` makes them; the clusters are
    returned seed or not, for `filter_clusters` to judge.  At any
    ``sim_lambda`` above 0, however small, `mine` passes only each page's
    maximal lists (`maximal_lists`); at 0 it passes them all.

    The similarity of every list pair is computed once, into one
    matrix indexed by position in the sorted ids, from one posting table
    (`_similarity_matrix`, bit-identical to pairwise folds over each
    pair's smaller vector; see the module notes).  The average linkage of
    every live cluster pair is stored too.  Each merge is picked by
    scanning the stored linkages of the live pairs in ascending key order
    and keeping the first strict maximum.  A merge rescores the merged
    cluster against every survivor, summing its member pairs in the order
    of a full rescan (the members of the cluster with the smaller id in
    the outer loop, both sorted), so every score, threshold comparison
    and tie-break, and hence the merge schedule, is the one that
    rescanning all cluster pairs after every merge would produce.
    """
    by_id = {wl.id: wl for wl in weblists}
    ids = sorted(by_id)
    n = len(ids)
    # sim[a][b] is the pair's similarity, the smaller id as first list.
    sim = _similarity_matrix(
        [set(by_id[i].terms) for i in ids], [vectors[i] for i in ids], cfg.sim_lambda
    )

    # A cluster is keyed by its smallest member index; link[p][q] (p < q) is
    # the average linkage of live clusters p and q.  `members` iterates in
    # ascending key order (a merge reassigns p's entry and pops q's), so the
    # first strict maximum of the scan is the highest score's smallest
    # (p, q).  A singleton pair's linkage (0.0 + s) / 1 is s itself.  The
    # scan starts below every similarity, which lies in [0, 1], so at a
    # threshold of 0.0 a pair of similarity 0.0 still merges.
    members: dict[int, list[int]] = {p: [p] for p in range(n)}
    link = [row[:] for row in sim]

    while True:
        keys = list(members)
        p, score, q = -1, -1.0, -1
        for i, r in enumerate(keys):
            row = link[r]
            for c in keys[i + 1 :]:
                if row[c] > score:
                    p, score, q = r, row[c], c
        if score < cfg.cluster_threshold:
            break
        merged = sorted(members[p] + members.pop(q))
        members[p] = merged
        for c, other in members.items():
            if c == p:
                continue
            if c < p:
                outer, inner, target, col = other, merged, link[c], p
            else:
                outer, inner, target, col = merged, other, link[p], c
            total = 0.0
            for a in outer:
                row = sim[a]
                for b in inner:
                    total += row[b]
            target[col] = total / (len(outer) * len(inner))

    out = []
    for p, group in sorted(members.items()):
        out.append(
            ConceptCluster(
                id=ids[p],
                lists=tuple(ids[m] for m in group),
                member_terms=frozenset(t for m in group for t in by_id[ids[m]].terms),
            )
        )
    return out


def maximal_lists(weblists: Sequence[WebList]) -> tuple[list[WebList], dict[str, str]]:
    """Each page's maximal lists, in input order, and the container of
    every other list: contained list id -> its smallest-id maximal container.

    A list is contained when its term set is a proper subset of another
    list's on the same `source_url`, or equal to that of a list with a
    smaller id; the rest are maximal.  On a page, lists are visited by
    descending term count, then id, so every container of a list comes
    before it, and a list is contained exactly when a maximal list seen
    before it holds all its terms (containment is transitive).
    """
    by_page: dict[str, list[WebList]] = {}
    for wl in weblists:
        by_page.setdefault(wl.source_url, []).append(wl)
    containers: dict[str, str] = {}
    for page_lists in by_page.values():
        tops: list[tuple[frozenset[str], str]] = []
        for wl in sorted(page_lists, key=lambda wl: (-len(wl.terms), wl.id)):
            terms = frozenset(wl.terms)  # distinct, so as many as wl.terms
            holders = [tid for top, tid in tops if terms <= top]
            if holders:
                containers[wl.id] = min(holders)
            else:
                tops.append((terms, wl.id))
    return [wl for wl in weblists if wl.id not in containers], containers


def support_floor(min_support: float, total: int) -> float:
    """The list count a cluster (or, ungrouped, a term) must reach out of `total`.

    The tiny epsilon keeps binary-fraction noise in the product from dropping
    a count sitting exactly on the boundary (the boundary itself is kept).
    """
    return min_support * total - 1e-9


def filter_clusters(
    clusters: Iterable[ConceptCluster],
    seed: str,
    total_lists: int,
    cfg: PipelineConfig,
) -> list[ConceptCluster]:
    """Drop clusters without the seed or with fewer than min_support·|L| lists.

    This is where a grouped concept's seed is required: a cluster is kept
    only when the seed is among its `member_terms`, so every concept that
    is ranked holds it.  Survivors are ordered by descending list count
    (ties on cluster id), which is the presentation order of the final
    concepts.
    """
    floor = support_floor(cfg.min_support, total_lists)
    kept = [c for c in clusters if seed in c.member_terms and len(c.lists) >= floor]
    kept.sort(key=lambda c: (-len(c.lists), c.id))
    return kept
