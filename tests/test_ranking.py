import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctms.concepts import ConceptCluster
from ctms.config import PipelineConfig
from ctms.expansion import WebList
from ctms.ranking import (
    build_relation_graph,
    extract_affixes,
    rank_terms,
    rwr_scores,
    walk_probabilities,
)
from ctms.wrappers import Wrapper

W = Wrapper("<li>", "</li>", "ul/li/#text")


def make_weblist(wid, terms):
    return WebList(id=wid, terms=tuple(terms), source_url="u", wrapper=W, window=(0, 0, 0, 0))


def make_cluster(weblists, seed):
    terms = frozenset(t for wl in weblists for t in wl.terms)
    assert seed in terms  # as `filter_clusters` guarantees
    return ConceptCluster(
        id=min(wl.id for wl in weblists),
        lists=tuple(sorted(wl.id for wl in weblists)),
        member_terms=terms,
    )


def solve_exact(adjacency, seed, theta=0.2):
    """Oracle: closed-form fixed point of the restarting walk."""
    n = len(adjacency)
    a_star = np.zeros((n, n))
    for i, neighbors in enumerate(adjacency):
        if neighbors:
            for j in neighbors:
                a_star[i, j] += 1.0 / len(neighbors)
        else:
            a_star[i, seed] = 1.0
    e = np.zeros(n)
    e[seed] = 1.0
    # v = theta·e0·(I − (1−theta)·A*)^{-1}, solved as a linear system
    m = np.eye(n) - (1.0 - theta) * a_star
    return np.linalg.solve(m.T, theta * e)


# --- affixes ---------------------------------------------------------------


def test_shared_trailing_affix():
    affixes = extract_affixes(["北京大学", "斯坦福大学"], 1, 3)
    assert "大学" in affixes["北京大学"]
    assert "大学" in affixes["斯坦福大学"]


def test_no_shared_affixes():
    assert extract_affixes(["甲乙", "丙丁"], 1, 3) == {"甲乙": (), "丙丁": ()}


def test_single_char_terms_use_unigram_only():
    affixes = extract_affixes(["仁", "仁心"], 1, 3)
    assert affixes["仁"] == ("仁",)
    assert "仁" in affixes["仁心"]


def extract_affixes_by_scan(terms, n_min=1, n_max=3):
    """Oracle: the scan `extract_affixes` replaced, testing every shared
    affix against every term with startswith/endswith."""
    carriers = {}
    unique_terms = sorted(set(terms))
    for term in unique_terms:
        grams = set()
        for n in range(n_min, min(n_max, len(term)) + 1):
            grams.add(term[:n])
            grams.add(term[-n:])
        for gram in grams:
            carriers.setdefault(gram, set()).add(term)
    shared = {g for g, ts in carriers.items() if len(ts) >= 2}
    return {
        term: tuple(sorted(g for g in shared if term.startswith(g) or term.endswith(g)))
        for term in unique_terms
    }


@given(
    st.lists(st.text(alphabet="ab甲", min_size=1, max_size=6), max_size=12),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_affixes_match_scan(terms, a, b):
    n_min, n_max = sorted((a, b))
    assert extract_affixes(terms, n_min, n_max) == extract_affixes_by_scan(
        terms, n_min, n_max
    )


def test_affix_links_all_carriers():
    affixes = extract_affixes(["华盛顿", "波士顿", "休斯顿"], 1, 3)
    for term in ("华盛顿", "波士顿", "休斯顿"):
        assert "顿" in affixes[term]


# --- graph construction ----------------------------------------------------


def test_star_graph_one_list_three_terms():
    wl = make_weblist("L1", ["种", "甲", "乙"])
    cluster = make_cluster([wl], "种")
    g = build_relation_graph(cluster, [wl], "种", PipelineConfig())
    kinds = [k for k, _ in g.vertices]
    assert kinds.count("term") == 3 and kinds.count("list") == 1
    assert kinds.count("affix") == 0
    list_idx = g.vertices.index(("list", "L1"))
    assert sorted(len(g.adjacency[i]) for i in range(len(g.vertices))) == [1, 1, 1, 3]
    assert len(g.adjacency[list_idx]) == 3


def test_term_in_two_lists_has_degree_two():
    wls = [make_weblist("L1", ["种", "甲"]), make_weblist("L2", ["种", "乙"])]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    assert len(g.adjacency[g.seed_index]) == 2


def test_no_list_affix_or_same_kind_edges():
    wls = [make_weblist("L1", ["北京大学", "斯坦福大学", "种"])]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    for i, neighbors in enumerate(g.adjacency):
        for j in neighbors:
            kinds = {g.vertices[i][0], g.vertices[j][0]}
            assert kinds in ({"term", "list"}, {"term", "affix"})


# Concepts as ranking receives them: member lists of 2-5 distinct terms
# over a small alphabet (so affixes are shared often), and member terms
# that are the lists' terms or, as in the ungrouped pseudo-concept, a
# subset of them, always holding the seed.
@st.composite
def ranked_concepts(draw):
    term = st.text(alphabet="甲乙丙", min_size=1, max_size=4)
    term_lists = draw(
        st.lists(st.lists(term, min_size=2, max_size=5, unique=True), min_size=1, max_size=5)
    )
    weblists = [make_weblist(f"L{i}", terms) for i, terms in enumerate(term_lists)]
    union = sorted({t for terms in term_lists for t in terms})
    seed = draw(st.sampled_from(union))
    kept = draw(st.lists(st.sampled_from(union), unique=True))
    member_terms = frozenset(kept) | {seed}
    cluster = ConceptCluster(
        id="L0", lists=tuple(wl.id for wl in weblists), member_terms=member_terms
    )
    n_min = draw(st.integers(1, 3))
    cfg = PipelineConfig(affix_min_n=n_min, affix_max_n=draw(st.integers(n_min, 4)))
    return cluster, weblists, seed, cfg


@settings(max_examples=300)
@given(ranked_concepts())
def test_relation_graph_is_simple_symmetric_and_names_the_seed(concept):
    cluster, weblists, seed, cfg = concept
    g = build_relation_graph(cluster, weblists, seed, cfg)
    assert g.vertices[g.seed_index] == ("term", seed)
    assert len(set(g.vertices)) == len(g.vertices)
    assert len(g.adjacency) == len(g.vertices)
    for i, neighbors in enumerate(g.adjacency):
        assert i not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        for j in neighbors:
            assert i in g.adjacency[j]


# --- the walk itself -------------------------------------------------------


def test_single_vertex_graph_scores_one():
    scores, converged = walk_probabilities([[]], 0, PipelineConfig())
    assert converged
    assert scores[0] == pytest.approx(1.0)


def test_three_vertex_path_matches_linear_solve():
    # seed - list - other, symmetric chain
    adjacency = [[1], [0, 2], [1]]
    scores, converged = walk_probabilities(adjacency, 0, PipelineConfig())
    assert converged
    exact = solve_exact(adjacency, 0)
    assert np.max(np.abs(scores - exact)) <= 0.01


def test_symmetric_terms_get_equal_scores():
    wls = [make_weblist("L1", ["种", "甲", "乙"])]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    scores, _ = rwr_scores(g, PipelineConfig())
    assert scores[("term", "甲")] == pytest.approx(scores[("term", "乙")])


def test_scores_sum_to_one():
    wls = [
        make_weblist("L1", ["种", "华盛顿", "波士顿"]),
        make_weblist("L2", ["种", "华盛顿", "休斯顿"]),
    ]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    scores, converged = rwr_scores(g, PipelineConfig())
    assert converged
    assert sum(scores.values()) == pytest.approx(1.0, abs=0.01)


def test_nonconvergence_flag_when_budget_tiny():
    adjacency = [[1], [0, 2], [1]]
    _scores, converged = walk_probabilities(
        adjacency, 0, PipelineConfig(tolerance=1e-12, max_iters=2)
    )
    assert not converged


@given(st.integers(2, 12), st.integers(0, 10_000))
def test_random_graphs_match_linear_solve(n, seed_val):
    rng = np.random.RandomState(seed_val)
    adjacency = [[] for _ in range(n)]
    # random spanning-ish edges, vertex 0 is the walk's seed
    for v in range(1, n):
        u = int(rng.randint(0, v))
        adjacency[u].append(v)
        adjacency[v].append(u)
    extra = int(rng.randint(0, n))
    for _ in range(extra):
        u, v = int(rng.randint(0, n)), int(rng.randint(0, n))
        if u != v and v not in adjacency[u]:
            adjacency[u].append(v)
            adjacency[v].append(u)
    scores, converged = walk_probabilities(adjacency, 0, PipelineConfig())
    assert converged
    exact = solve_exact(adjacency, 0)
    assert np.max(np.abs(scores - exact)) <= 0.01
    assert abs(scores.sum() - 1.0) <= 0.01


# --- ranking ---------------------------------------------------------------


def test_seed_excluded_from_ranking():
    wls = [make_weblist("L1", ["种", "甲", "乙"])]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    scores, _ = rwr_scores(g, PipelineConfig())
    ranked = rank_terms(scores, "种")
    assert [t for t, _ in ranked] == ["乙", "甲"]  # equal scores: lexicographic


def test_ranking_descends_by_score():
    wls = [
        make_weblist("L1", ["种", "常客", "稀客"]),
        make_weblist("L2", ["种", "常客"]),
        make_weblist("L3", ["种", "常客"]),
    ]
    cluster = make_cluster(wls, "种")
    g = build_relation_graph(cluster, wls, "种", PipelineConfig())
    scores, _ = rwr_scores(g, PipelineConfig())
    ranked = rank_terms(scores, "种")
    assert ranked[0][0] == "常客"
    assert ranked[0][1] > ranked[1][1]


def test_convergence_within_contraction_bound():
    # geometric contraction by (1 - restart) per step bounds the iteration
    # count at log(tol)/log(1 - restart) for any graph
    import math

    bound = math.ceil(math.log(0.001) / math.log(0.8)) + 1
    rng = np.random.RandomState(11)
    for _ in range(25):
        n = int(rng.randint(2, 12))
        adjacency = [[] for _ in range(n)]
        for v in range(1, n):
            u = int(rng.randint(0, v))
            adjacency[u].append(v)
            adjacency[v].append(u)
        _, converged = walk_probabilities(adjacency, 0, PipelineConfig(max_iters=bound))
        assert converged


def loop_walk(adjacency, seed, cfg):
    """The walk with its transition matrix filled one entry at a time."""
    n = len(adjacency)
    e_seed = np.zeros(n)
    e_seed[seed] = 1.0
    transition = np.zeros((n, n))
    for i, neighbors in enumerate(adjacency):
        if neighbors:
            w = 1.0 / len(neighbors)
            for j in neighbors:
                transition[i, j] += w
        else:
            transition[i, seed] = 1.0
    theta = cfg.restart_prob
    v = e_seed.copy()
    for _ in range(cfg.max_iters):
        nxt = theta * e_seed + (1.0 - theta) * (v @ transition)
        delta = float(np.max(np.abs(nxt - v)))
        v = nxt
        if delta <= cfg.tolerance:
            return v, True
    return v, False


@st.composite
def walk_cases(draw):
    # Neighbour lists need not be symmetric here: any list, empty
    # (dangling) or with a vertex listed more than once, has one meaning.
    n = draw(st.integers(1, 9))
    adjacency = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=n, max_size=n))
    cfg = PipelineConfig(
        restart_prob=draw(st.sampled_from([0.15, 0.5, 0.9])),
        max_iters=draw(st.sampled_from([1, 2, 7, 100])),
        tolerance=draw(st.sampled_from([1e-12, 1e-6, 0.1])),
    )
    return adjacency, draw(st.integers(0, n - 1)), cfg


@settings(max_examples=300)
@given(walk_cases())
def test_walk_is_bit_identical_to_the_entrywise_fill(case):
    adjacency, seed, cfg = case
    got, converged = walk_probabilities(adjacency, seed, cfg)
    want, want_converged = loop_walk(adjacency, seed, cfg)
    assert got.tobytes() == want.tobytes()
    assert converged == want_converged
