import itertools
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ctms.concepts
import ctms.pipeline
from ctms.concepts import (
    BackgroundCorpus,
    ConceptCluster,
    _norm,
    _similarity_matrix,
    cluster_weblists,
    context_vector,
    filter_clusters,
    maximal_lists,
)
from ctms.config import PipelineConfig
from ctms.corpus import FixtureProvider, load_fixture
from ctms.dom import parse_html
from ctms.expansion import ParsedPage, WebList, harvest_page, parsed_page
from ctms.text import tokenize
from ctms.wrappers import Wrapper

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import WORKLOADS, materialize  # noqa: E402

W = Wrapper("<li>", "</li>", "ul/li/#text")


def background(texts):
    """The corpus of `texts` as fetched pages, the i-th at URL ``p{i}``;
    a text with no markup is its page's rendered text."""
    return BackgroundCorpus({f"p{i}": ParsedPage(parse_html(t)) for i, t in enumerate(texts)})


def make_weblist(wid, terms, url="p0", window=(0, 0, 0, 0)):
    return WebList(id=wid, terms=tuple(terms), source_url=url, wrapper=W, window=window)


def on_page(bg, wid, terms, page, window=None):
    """A list whose context window lies on page number `page` of `bg` (see
    `background`): the given rendered bounds (lo, before, after, hi), or
    the whole page as its before-half."""
    url = f"p{page}"
    text = bg.pages[url].text
    return make_weblist(wid, terms, url, window or (0, len(text), len(text), len(text)))


def _left_fold(values):
    total = 0.0
    for v in values:
        total += v
    return total


def left_fold_similarity(ta, wa, tb, wb, lam):
    """The similarity of lists (ta, wa) and (tb, wb), ta's first, with every
    sum a left fold: lam times the content part, |a∩b| / min(|a|, |b|),
    plus 1 - lam times the context cosine.

    The bits must not depend on how a Python version's `sum` rounds.
    """
    na = math.sqrt(_left_fold(w * w for w in wa.values()))
    nb = math.sqrt(_left_fold(w * w for w in wb.values()))
    cosine = 0.0
    if na and nb:
        small, large = (wa, wb) if len(wa) <= len(wb) else (wb, wa)
        dot = _left_fold(w * large.get(k, 0.0) for k, w in small.items())
        cosine = min(1.0, max(0.0, dot / (na * nb)))
    sa, sb = set(ta), set(tb)
    content = len(sa & sb) / min(len(sa), len(sb))
    return lam * content + (1.0 - lam) * cosine


def pair_similarity(ta, va, tb, vb, lam):
    """The entry `_similarity_matrix` gives the pair (ta, va), (tb, vb),
    the first list first."""
    return _similarity_matrix([set(ta), set(tb)], [va, vb], lam)[0][1]


def test_idf_formula_direct():
    # 100 documents, word in 9 of them: idf = log(100/10)
    docs = ["目标词汇目标词汇" if i < 9 else "别的" for i in range(100)]
    bg = background(docs)
    wl = on_page(bg, "a", ["x", "y"], 0)
    vec = context_vector(wl, bg)
    assert type(vec) is dict
    assert vec["目标"] == pytest.approx(2 * math.log(10))


def test_ubiquitous_word_clamps_to_zero():
    docs = ["常见词"] * 10
    bg = background(docs)
    wl = on_page(bg, "a", ["x", "y"], 0)
    vec = context_vector(wl, bg)
    # in every doc: log(10/11) < 0, clamped away entirely
    assert "常见" not in vec


def test_absent_word_has_no_weight():
    bg = background(["背景", "上下文"])
    vec = context_vector(on_page(bg, "a", ["x", "y"], 1), bg)
    assert "背景" not in vec


@given(
    st.lists(st.text(alphabet="甲乙丙丁 ab,", max_size=8), max_size=8),
    st.randoms(use_true_random=False),
)
def test_idf_does_not_depend_on_document_order(texts, rng):
    # Mining passes pages in fetch order; an idf counts documents only.
    shuffled = texts[:]
    rng.shuffle(shuffled)
    corpora = [background(t) for t in (texts, texts[::-1], shuffled)]
    words = {w for text in texts for w in tokenize(text)} | {"未见"}
    for word in words:
        assert len({bg.idf.get(word, bg.unseen_idf) for bg in corpora}) == 1, word


def test_identical_lists_similarity_one():
    bg = background(["甲", "乙", "丙"])
    a = on_page(bg, "a", ["x", "y"], 0)
    va = context_vector(a, bg)
    assert _norm(va) > 0
    assert pair_similarity(a.terms, va, a.terms, va, 0.5) == pytest.approx(1.0)


def test_disjoint_lists_orthogonal_contexts():
    bg = background(["甲词", "乙词", "丙"])
    a = on_page(bg, "a", ["x"], 0)
    b = on_page(bg, "b", ["y"], 1)
    sim = pair_similarity(a.terms, context_vector(a, bg), b.terms, context_vector(b, bg), 0.5)
    assert sim == pytest.approx(0.0)


def test_containment_scores_full_content_part():
    bg = background(["同一段文字", "别", "另"])
    a = on_page(bg, "a", ["x", "y"], 0)
    b = on_page(bg, "b", ["x", "y", "z", "w"], 0)
    sim = pair_similarity(
        a.terms, context_vector(a, bg), b.terms, context_vector(b, bg), lam=0.5
    )
    assert sim == pytest.approx(1.0)  # 0.5·1 (contained) + 0.5·1 (same context)


def test_zero_norm_context_contributes_zero():
    bg = background(["文", "字"])
    a = make_weblist("a", ["x", "y"])
    va = context_vector(a, bg)
    assert _norm(va) == 0.0
    sim = pair_similarity(a.terms, va, a.terms, va, lam=0.5)
    assert sim == pytest.approx(0.5)  # content 1, context 0


@given(
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5),
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5),
    st.dictionaries(st.sampled_from("uvwxyz"), st.floats(0.01, 5.0), max_size=4),
    st.dictionaries(st.sampled_from("uvwxyz"), st.floats(0.01, 5.0), max_size=4),
)
def test_similarity_symmetric_and_bounded(ta, tb, wa, wb):
    s1 = pair_similarity(ta, wa, tb, wb, 0.5)
    s2 = pair_similarity(tb, wb, ta, wa, 0.5)
    assert abs(s1 - s2) <= 1e-12
    assert 0.0 <= s1 <= 1.0


@given(
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5),
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5),
    st.dictionaries(st.sampled_from("uvwxyz"), st.floats(0.01, 5.0), max_size=6),
    st.dictionaries(st.sampled_from("uvwxyz"), st.floats(0.01, 5.0), max_size=6),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_similarity_bits_are_the_left_fold_formula(ta, tb, wa, wb, lam):
    want = left_fold_similarity(ta, wa, tb, wb, lam)
    assert pair_similarity(ta, wa, tb, wb, lam) == want


# Weights whose products add up to different bits in different orders: the
# products 0.1·0.6, 0.8·0.1 and 0.6·0.8 add up to 0.62 in that order, and
# to 0.6200000000000001 with the last two swapped.
_UNEVEN_WEIGHTS = (0.1, 0.6, 0.8, 1.3, 2.7)

# Up to six (word, weight) draws over four words: equal-size vectors that
# share their words in different insertion orders are common, and no draw
# at all gives an empty, zero-norm vector.
_uneven_vectors = st.lists(
    st.tuples(st.sampled_from("uvwx"), st.sampled_from(_UNEVEN_WEIGHTS)), max_size=6
).map(dict)


@settings(max_examples=400)
@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), _uneven_vectors),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_similarity_matrix_bits_are_the_left_fold_formula(specs, lam):
    # Entry [i][j] is the pair's similarity with the earlier list first, so
    # its dot product folds over the smaller vector's words, the earlier
    # one's on equal size.
    sim = _similarity_matrix([set(t) for t, _w in specs], [w for _t, w in specs], lam)
    for i, (ti, wi) in enumerate(specs):
        for j, (tj, wj) in enumerate(specs[i + 1 :], i + 1):
            want = left_fold_similarity(ti, wi, tj, wj, lam)
            assert sim[i][j] == want and sim[j][i] == want, (i, j)


def test_two_identical_lists_form_one_cluster():
    bg = background(["相同内容", "旁白", "其他"])
    lists = [
        on_page(bg, "a1", ["x", "y"], 0),
        on_page(bg, "a2", ["x", "y"], 0),
    ]
    vectors = {wl.id: context_vector(wl, bg) for wl in lists}
    clusters = cluster_weblists(lists, vectors, PipelineConfig())
    assert len(clusters) == 1
    assert clusters[0].lists == ("a1", "a2")
    assert clusters[0].member_terms == frozenset({"x", "y"})
    assert "x" in clusters[0].member_terms


def test_dissimilar_lists_stay_apart():
    bg = background(["甲önt", "乙많"])
    # Windows "甲" and "乙", the second clipping the run "乙많".
    lists = [
        on_page(bg, "a", ["x", "p"], 0, (0, 1, 1, 1)),
        on_page(bg, "b", ["y", "q"], 1, (0, 1, 1, 1)),
    ]
    vectors = {wl.id: context_vector(wl, bg) for wl in lists}
    clusters = cluster_weblists(lists, vectors, PipelineConfig())
    assert len(clusters) == 2


def test_agglomerative_schedule_three_lists():
    # Sim(a,b) high via shared terms; c shares nothing: expect {a,b},{c}
    bg = background(["文一", "文二", "旁"])
    lists = [
        on_page(bg, "a", ["x", "y", "z"], 0),
        on_page(bg, "b", ["x", "y", "z", "w"], 0),
        on_page(bg, "c", ["q", "r"], 2),
    ]
    vectors = {wl.id: context_vector(wl, bg) for wl in lists}
    clusters = cluster_weblists(lists, vectors, PipelineConfig())
    got = sorted(c.lists for c in clusters)
    assert got == [("a", "b"), ("c",)]


def test_cluster_determinism_under_shuffle():
    rng = random.Random(3)
    bg = background(["语境甲", "语境乙"])
    lists = [
        on_page(bg, f"w{i}", ["x", "y", str(i % 2)], 0 if i % 2 else 1)
        for i in range(6)
    ]
    vectors = {wl.id: context_vector(wl, bg) for wl in lists}
    baseline = cluster_weblists(lists, vectors, PipelineConfig())
    for _ in range(5):
        shuffled = lists[:]
        rng.shuffle(shuffled)
        assert cluster_weblists(shuffled, vectors, PipelineConfig()) == baseline


def grouping(threshold: float, lam: float) -> PipelineConfig:
    return PipelineConfig(cluster_threshold=threshold, sim_lambda=lam)


def rescan_reference(
    weblists,
    vectors,
    threshold=0.65,
    lam=0.5,
    similarity=left_fold_similarity,
    merge_scores=None,
):
    """Brute-force average linkage: rescan every cluster pair on every merge.

    The plain algorithm `cluster_weblists` must reproduce, with its sums
    written as left folds (as `cluster_weblists` sums) so the reference
    does not depend on how a Python version's `sum` rounds.  `similarity`
    scores one list pair, the smaller id first; by default it is the
    left-fold formula written out in this file.  When `merge_scores` is a
    list, each step's (best linkage, smaller size of its two clusters) is
    appended to it.
    """
    by_id = {wl.id: wl for wl in weblists}
    ids = sorted(by_id)
    sim = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sim[(a, b)] = similarity(
                by_id[a].terms, vectors[a], by_id[b].terms, vectors[b], lam
            )

    clusters = [[i] for i in ids]
    while len(clusters) > 1:
        best_score, best_key, best_pair = -1.0, None, None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = 0.0
                for a in clusters[i]:
                    for b in clusters[j]:
                        total += sim[(a, b) if a < b else (b, a)]
                score = total / (len(clusters[i]) * len(clusters[j]))
                key = (clusters[i][0], clusters[j][0])
                if score > best_score or (score == best_score and key < best_key):
                    best_score, best_key, best_pair = score, key, (i, j)
        if merge_scores is not None:
            i, j = best_pair
            merge_scores.append((best_score, min(len(clusters[i]), len(clusters[j]))))
        if best_score < threshold:
            break
        i, j = best_pair
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])

    out = []
    for members in clusters:
        terms = frozenset(t for wid in members for t in by_id[wid].terms)
        out.append(ConceptCluster(members[0], tuple(members), terms))
    return out


# Few distinct terms and context words, all weights 1.0: containment, equal
# similarities and exact ties between linkage averages are common, and an
# empty context gives a zero-norm vector.
_weblist_specs = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
        st.dictionaries(st.sampled_from("uvw"), st.just(1.0), max_size=3),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=400)
@given(
    _weblist_specs,
    st.randoms(use_true_random=False),
    st.sampled_from([0.3, 0.4, 0.5, 0.65]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_clustering_matches_rescan_oracle(specs, rng, threshold, lam):
    names = rng.sample([f"{c}{k}" for c in "pqrs" for k in range(1, 12)], len(specs))
    lists = [make_weblist(wid, terms) for wid, (terms, _w) in zip(names, specs)]
    vectors = {wid: w for wid, (_t, w) in zip(names, specs)}
    rng.shuffle(lists)
    got = cluster_weblists(lists, vectors, grouping(threshold, lam))
    assert got == rescan_reference(lists, vectors, threshold, lam)


# Lists whose context vectors are one of a few uneven vectors, each list's
# copy in its own insertion order: pairs that are equal on paper but whose
# dot products round differently in different orders are common.
_uneven_weblist_specs = st.lists(_uneven_vectors, min_size=1, max_size=3).flatmap(
    lambda bases: st.lists(
        st.tuples(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
            st.sampled_from(bases).flatmap(lambda v: st.permutations(list(v.items())).map(dict)),
        ),
        min_size=1,
        max_size=16,
    )
)


@settings(max_examples=400)
@given(
    _uneven_weblist_specs,
    st.randoms(use_true_random=False),
    st.sampled_from([None, 0.3, 0.4, 0.5, 0.65]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_clustering_matches_rescan_oracle_uneven_weights(specs, rng, threshold, lam):
    # As above, but with weights whose dot products round differently in
    # different orders.  A threshold of None is one of the three highest
    # list similarities, so that a last-bit slip in a score can flip the
    # first merges.
    names = rng.sample([f"{c}{k}" for c in "pqrs" for k in range(1, 12)], len(specs))
    lists = [make_weblist(wid, terms) for wid, (terms, _w) in zip(names, specs)]
    vectors = {wid: w for wid, (_t, w) in zip(names, specs)}
    if threshold is None:
        scores = sorted(
            left_fold_similarity(ta, vectors[a], tb, vectors[b], lam)
            for (a, (ta, _)), (b, (tb, _)) in itertools.combinations(
                sorted(zip(names, specs)), 2
            )
        )
        threshold = rng.choice(scores[-3:] or [0.5])
    rng.shuffle(lists)
    got = cluster_weblists(lists, vectors, grouping(threshold, lam))
    assert got == rescan_reference(lists, vectors, threshold, lam)


@settings(max_examples=400)
@given(
    _uneven_weblist_specs,
    st.randoms(use_true_random=False),
    st.sampled_from([0.0, 0.5, 1.0]),
)
def test_clustering_matches_rescan_oracle_at_linkage_thresholds(specs, rng, lam):
    # Each threshold is the linkage of one merge of the full schedule,
    # between two clusters of several lists where there are such merges.
    # Only such a linkage sums its pairs in an order that matters, so one
    # summed in another order than the rescan's (the smaller id's members
    # in the outer loop) is off in its last bits and stops the merges.
    names = rng.sample([f"{c}{k}" for c in "pqrs" for k in range(1, 12)], len(specs))
    lists = [make_weblist(wid, terms) for wid, (terms, _w) in zip(names, specs)]
    vectors = {wid: w for wid, (_t, w) in zip(names, specs)}
    merges = []
    rescan_reference(
        lists, vectors, -1.0, lam, merge_scores=merges
    )
    linkages = {score for score, size in merges if size >= 2} or {s for s, _ in merges}
    for threshold in sorted(linkages):
        rng.shuffle(lists)
        got = cluster_weblists(lists, vectors, grouping(threshold, lam))
        assert got == rescan_reference(lists, vectors, threshold, lam), threshold


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_clustering_matches_rescan_oracle_at_threshold_bounds(lam):
    # a1 and a2 are alike in terms and context, similarity 1.0; every other
    # pair shares no term, and b's and c's contexts are empty, so their
    # similarity is exactly 0.0.  At threshold 1.0 only a1 and a2 merge; at
    # 0.0 a linkage of 0.0 still reaches the threshold, so all merge.
    lists = [
        make_weblist("a1", ["x", "y"]),
        make_weblist("a2", ["x", "y"]),
        make_weblist("b", ["m", "n"]),
        make_weblist("c", ["p", "q"]),
    ]
    vectors = {"a1": {"u": 1.0}, "a2": {"u": 1.0}, "b": {}, "c": {}}
    assert pair_similarity(["x", "y"], vectors["a1"], ["m", "n"], {}, lam) == 0.0
    expected = {1.0: [("a1", "a2"), ("b",), ("c",)], 0.0: [("a1", "a2", "b", "c")]}
    for threshold, groups in expected.items():
        got = cluster_weblists(lists, vectors, grouping(threshold, lam))
        assert [c.lists for c in got] == groups, threshold
        assert got == rescan_reference(lists, vectors, threshold, lam), threshold


def clustered_inputs(term, cfg, provider):
    """Every web list a mine of `term` finds, and each one's context vector
    over the run's pages: the lists `cluster_weblists` would see if no
    list were contained in another, so the oracles judge them all."""
    report = ctms.pipeline.mine(term, cfg, provider)
    pages = {url: parsed_page(provider.fetch_page(url)) for url in report.pages}
    background = BackgroundCorpus(pages)
    return report.weblists, {wl.id: context_vector(wl, background) for wl in report.weblists}


# The lam values the miniweb checks run at: the blend's two extremes, where
# one side of the similarity is all there is, and three in between.
_MINIWEB_LAMS = (0.0, 0.3, 0.5, 0.8, 1.0)


def test_clustering_matches_rescan_oracle_on_miniweb(miniweb_provider):
    weblists, vectors = clustered_inputs("华盛顿", PipelineConfig(), miniweb_provider)
    assert len(weblists) > 20
    for threshold in (0.3, 0.5, 0.65, 0.8):
        for lam in _MINIWEB_LAMS:
            got = cluster_weblists(weblists, vectors, grouping(threshold, lam))
            want = rescan_reference(weblists, vectors, threshold, lam)
            assert got == want, (threshold, lam)


def test_clustering_matches_rescan_oracle_on_many_lists(tmp_path):
    # The generated workload with the most lists: 63 at seed 1.
    workload = WORKLOADS["many_lists"]
    bundle = materialize(workload, 1, tmp_path)
    cfg = PipelineConfig.from_dict(dict(workload.config))
    weblists, vectors = clustered_inputs(
        workload.term, cfg, FixtureProvider(load_fixture(bundle))
    )
    assert len(weblists) == 63
    for threshold in (0.3, 0.5, 0.65, 0.8):
        got = cluster_weblists(weblists, vectors, grouping(threshold, cfg.sim_lambda))
        want = rescan_reference(weblists, vectors, threshold, cfg.sim_lambda)
        assert got == want, threshold


def test_skipped_sums_keep_a_linkage_that_rounds_up_to_the_threshold(monkeypatch):
    # a, b and c are pairwise 0.9 and each 0.1 with d.  Once a, b and c
    # have merged, every member pair with d is 0.1, below the threshold, yet
    # their average ((0.1 + 0.1) + 0.1) / 3 is the threshold itself, so d
    # merges too: a skip rule that compared the largest member similarity
    # with the threshold alone would keep d apart.
    threshold = ((0.1 + 0.1) + 0.1) / 3
    assert threshold > 0.1
    pairs = {("a", "b"): 0.9, ("a", "c"): 0.9, ("b", "c"): 0.9}
    pairs.update({(x, "d"): 0.1 for x in "abc"})
    lists = [make_weblist(wid, [wid, wid + "2"]) for wid in "abcd"]
    vectors = {wid: {} for wid in "abcd"}

    def score(x, y):
        return pairs[(x, y) if x < y else (y, x)]

    def similarity(ta, _va, tb, _vb, _lam):
        return score(ta[0], tb[0])

    def matrix(terms, _vectors, _lam):
        names = [min(t) for t in terms]
        return [[score(x, y) if x != y else 0.0 for y in names] for x in names]

    monkeypatch.setattr(ctms.concepts, "_similarity_matrix", matrix)
    got = cluster_weblists(lists, vectors, grouping(threshold, 0.5))
    assert [c.lists for c in got] == [("a", "b", "c", "d")]
    assert got == rescan_reference(lists, vectors, threshold, 0.5, similarity=similarity)


def test_similarity_matrix_is_the_left_fold_formula_on_miniweb(miniweb_provider):
    # `rescan_reference` scores pairs with the left-fold formula as a
    # whole schedule; this checks each entry of the matrix of all the lists
    # a real mine finds against that formula.
    weblists, vectors = clustered_inputs("华盛顿", PipelineConfig(), miniweb_provider)
    ordered = sorted(weblists, key=lambda wl: wl.id)
    assert len(ordered) == 52  # 1,326 pairs
    terms = [set(wl.terms) for wl in ordered]
    weights = [vectors[wl.id] for wl in ordered]
    for lam in _MINIWEB_LAMS:
        sim = _similarity_matrix(terms, weights, lam)
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered[i + 1 :], i + 1):
                want = left_fold_similarity(
                    a.terms, vectors[a.id], b.terms, vectors[b.id], lam
                )
                assert sim[i][j] == want and sim[j][i] == want, (a.id, b.id, lam)


def test_proper_subset_joins_its_container():
    lists = [make_weblist("b", ["x", "y"]), make_weblist("a", ["x", "y", "z"])]
    maximal, containers = maximal_lists(lists)
    assert [wl.id for wl in maximal] == ["a"]
    assert containers == {"b": "a"}


def test_equal_term_sets_join_the_smaller_id():
    lists = [make_weblist("e2", ["x", "y"]), make_weblist("e1", ["y", "x"])]
    maximal, containers = maximal_lists(lists)
    assert [wl.id for wl in maximal] == ["e1"]
    assert containers == {"e2": "e1"}


def test_a_chain_joins_its_maximal_end():
    lists = [
        make_weblist("c1", ["a", "b"]),
        make_weblist("c2", ["a", "b", "c"]),
        make_weblist("c3", ["a", "b", "c", "d"]),
    ]
    maximal, containers = maximal_lists(lists)
    assert [wl.id for wl in maximal] == ["c3"]
    assert containers == {"c1": "c3", "c2": "c3"}


def test_a_list_in_two_maximal_lists_joins_the_smaller_id():
    lists = [
        make_weblist("m1", ["a", "b", "c", "d"]),
        make_weblist("s", ["c", "d"]),
        make_weblist("m0", ["c", "d", "e", "f"]),
    ]
    maximal, containers = maximal_lists(lists)
    assert [wl.id for wl in maximal] == ["m1", "m0"]  # input order
    assert containers == {"s": "m0"}


def test_a_subset_on_another_page_is_not_contained():
    lists = [
        make_weblist("big", ["a", "b", "c"], url="p0"),
        make_weblist("small", ["a", "b"], url="p1"),
        make_weblist("same", ["a", "b", "c"], url="p1"),
    ]
    maximal, containers = maximal_lists(lists)
    assert [wl.id for wl in maximal] == ["big", "same"]
    assert containers == {"small": "same"}


# Lists `mine` clusters at the default config, of all it finds, at workload
# seed 1 (miniweb is the committed fixture).
MAXIMAL_COUNTS = [("miniweb", 24, 52), ("many_lists", 12, 63), ("deep_snippets", 10, 20)]


def _mine_counting_clustered(name, tmp_path, monkeypatch, **overrides):
    """Mine workload `name` at seed 1; return the report and the number of
    lists each `cluster_weblists` call received."""
    workload = WORKLOADS[name]
    cfg = PipelineConfig.from_dict({**workload.config, **overrides})
    provider = FixtureProvider(load_fixture(materialize(workload, 1, tmp_path)))
    sizes = []

    def spy(weblists, *args):
        sizes.append(len(weblists))
        return cluster_weblists(weblists, *args)

    monkeypatch.setattr(ctms.pipeline, "cluster_weblists", spy)
    return ctms.pipeline.mine(workload.term, cfg, provider), sizes


@pytest.mark.parametrize("name, clustered, total", MAXIMAL_COUNTS)
def test_mine_clusters_the_maximal_lists_only(name, clustered, total, tmp_path, monkeypatch):
    report, sizes = _mine_counting_clustered(name, tmp_path, monkeypatch)
    assert report.weblist_count == total
    assert sizes == [clustered]
    _, containers = maximal_lists(report.weblists)
    assert len(containers) == total - clustered
    # A contained list is ranked in its container's concept, and counted.
    for concept in report.concepts:
        for wid in concept.list_ids:
            assert containers.get(wid, wid) in concept.list_ids
        assert concept.id == min(concept.list_ids)


def test_mine_clusters_every_list_at_sim_lambda_zero(tmp_path, monkeypatch):
    # At sim_lambda 0 the content side, where containment scores 1.0,
    # has no weight, so no list joins another.
    report, sizes = _mine_counting_clustered("many_lists", tmp_path, monkeypatch, sim_lambda=0.0)
    assert sizes == [report.weblist_count] == [63]


def test_a_long_list_page_leaves_one_maximal_list():
    # One <ul> of 250 terms that share their first 10 characters, every
    # third one known: each learned wrapper's right context runs into the
    # next item's first characters, so the learner keeps many nested lists
    # (71 here) for the one real list.
    terms = [f"东方明珠广场大道北段{i:04d}号" for i in range(250)]
    html = "<ul>" + "".join(f"<li><a>{t}</a></li>" for t in terms) + "</ul>"
    lists, _ = harvest_page("http://x/long", parse_html(html), tuple(terms[::3]), PipelineConfig())
    assert len(lists) > 1
    maximal, containers = maximal_lists(lists)
    assert len(maximal) == 1 and len(containers) == len(lists) - 1
    assert sorted(maximal[0].terms) == terms


def test_norm_is_left_fold_not_compensated_sum():
    # 0.01 + 0.36 + 0.64 rounds to 1.0100000000000002 when added left to
    # right; the exact sum (`math.fsum`, and the compensated `sum` of Python
    # 3.12+) rounds to 1.01, and the square roots differ too.
    weights = {"a": 0.1, "b": 0.6, "c": 0.8}
    squares = [w * w for w in weights.values()]
    assert _left_fold(squares) != math.fsum(squares)
    assert math.sqrt(_left_fold(squares)) != math.sqrt(math.fsum(squares))
    assert _norm(weights) == math.sqrt(_left_fold(squares))


def make_cluster(cid, n_lists, terms):
    from ctms.concepts import ConceptCluster

    return ConceptCluster(
        id=cid,
        lists=tuple(f"{cid}-{i}" for i in range(n_lists)),
        member_terms=frozenset(terms),
    )


def test_filter_drops_clusters_without_seed():
    clusters = [make_cluster("a", 10, {"种", "x"}), make_cluster("b", 10, {"y"})]
    kept = filter_clusters(clusters, "种", total_lists=20, cfg=PipelineConfig(min_support=0.05))
    assert [c.id for c in kept] == ["a"]


def test_seed_must_be_in_cluster():
    # The one seed check on grouped clusters: a cluster that meets the
    # support floor but whose member terms lack the seed is dropped, so
    # ranking never sees one.
    cluster = make_cluster("L1", 1, {"甲", "乙"})
    assert filter_clusters([cluster], "不在", total_lists=1, cfg=PipelineConfig()) == []
    assert filter_clusters([cluster], "甲", total_lists=1, cfg=PipelineConfig()) == [cluster]


def test_filter_support_boundary_is_inclusive():
    # 40 lists at 5%: clusters with fewer than 2 lists are dropped
    clusters = [
        make_cluster("a", 2, {"种"}),
        make_cluster("b", 1, {"种", "z"}),
        make_cluster("c", 30, {"种", "w"}),
    ]
    kept = filter_clusters(clusters, "种", total_lists=40, cfg=PipelineConfig(min_support=0.05))
    assert [c.id for c in kept] == ["c", "a"]  # descending list count


def test_single_surviving_cluster():
    clusters = [make_cluster("only", 5, {"种", "x"})]
    kept = filter_clusters(clusters, "种", total_lists=5, cfg=PipelineConfig())
    assert kept == clusters


def test_all_filtered_out_is_empty():
    clusters = [make_cluster("tiny", 1, {"种"})]
    assert filter_clusters(clusters, "种", total_lists=100, cfg=PipelineConfig()) == []
