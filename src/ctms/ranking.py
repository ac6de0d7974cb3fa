"""Saliency ranking of a concept's terms by a restarting random walk.

Each concept gets an undirected graph with three vertex kinds: candidate
terms, the web lists they came from, and short shared affixes (leading and
trailing character n-grams).  A term connects to every list containing it
and to every shared affix it starts or ends with; there are no other
edges.  Walking the graph with a fixed restart probability at the seed
vertex concentrates probability mass on terms that sit in many good lists
or share word formation with other candidates, and the stationary masses
are the saliency scores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .concepts import ConceptCluster
from .config import PipelineConfig
from .expansion import WebList

Vertex = tuple[str, str]  # (kind, name); kinds: "term" | "list" | "affix"


@dataclass
class RelationGraph:
    vertices: list[Vertex]
    adjacency: list[list[int]]  # symmetric neighbor lists
    seed_index: int


def extract_affixes(
    terms: Sequence[str], n_min: int, n_max: int
) -> dict[str, tuple[str, ...]]:
    """Shared leading/trailing n-grams per term (``1 <= n_min <= n_max``).

    An affix survives only when at least two distinct terms start or end
    with it; each kept affix is listed for every term carrying it.  A term
    starts with an n-gram exactly when that n-gram is its own ``term[:n]``
    (likewise for endings), so each term's own grams are all it can carry.
    """
    grams_of = {
        term: {
            g
            for n in range(n_min, min(n_max, len(term)) + 1)
            for g in (term[:n], term[-n:])
        }
        for term in sorted(set(terms))
    }
    carriers = Counter(g for grams in grams_of.values() for g in grams)
    return {
        term: tuple(sorted(g for g in grams if carriers[g] >= 2))
        for term, grams in grams_of.items()
    }


def build_relation_graph(
    cluster: ConceptCluster,
    weblists: Sequence[WebList],
    seed: str,
    cfg: PipelineConfig,
) -> RelationGraph:
    """Tripartite relation graph for one concept.

    `weblists` are the cluster's member lists.  The term vertices are the
    cluster's `member_terms`, which hold the seed (`filter_clusters`, or
    without grouping `mine`, keeps no other concept); a list's other terms
    get no vertex.  Affixes are
    ``cfg.affix_min_n`` to ``cfg.affix_max_n`` characters long.  Edges are
    undirected and simple: each vertex lists each neighbour once, never
    itself, in ascending index order.
    """
    terms = sorted(cluster.member_terms)

    affixes = extract_affixes(terms, cfg.affix_min_n, cfg.affix_max_n)
    affix_names = sorted({a for grams in affixes.values() for a in grams})

    vertices: list[Vertex] = [("term", t) for t in terms]
    vertices += [("list", wl.id) for wl in sorted(weblists, key=lambda w: w.id)]
    vertices += [("affix", a) for a in affix_names]
    index = {v: i for i, v in enumerate(vertices)}

    adjacency: list[list[int]] = [[] for _ in vertices]

    def link(a: Vertex, b: Vertex) -> None:
        ia, ib = index[a], index[b]
        adjacency[ia].append(ib)
        adjacency[ib].append(ia)

    term_set = set(terms)
    for wl in weblists:
        for term in wl.terms:
            if term in term_set:
                link(("term", term), ("list", wl.id))
    for term, grams in affixes.items():
        for gram in grams:
            link(("term", term), ("affix", gram))

    for neighbors in adjacency:
        neighbors.sort()
    return RelationGraph(
        vertices=vertices,
        adjacency=adjacency,
        seed_index=index[("term", seed)],
    )


def walk_probabilities(
    adjacency: Sequence[Sequence[int]],  # neighbor lists, symmetric
    seed: int,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, bool]:
    """Iterate v <- restart·e_seed + (1-restart)·v·A* to a fixed point.

    A* is the row-normalized adjacency matrix; rows of isolated vertices
    are replaced by the restart vector so the chain stays stochastic and
    total probability is conserved.  Returns the score vector and whether
    the iteration converged within the budget.
    """
    n = len(adjacency)
    e_seed = np.zeros(n)
    e_seed[seed] = 1.0
    # np.add.at adds every listing of a neighbour; a dangling row restarts at the seed.
    rows, cols, vals = [], [], []
    for i, neighbors in enumerate(adjacency):
        neighbors = neighbors or [seed]
        rows += [i] * len(neighbors)
        cols += neighbors
        vals += [1.0 / len(neighbors)] * len(neighbors)
    transition = np.zeros((n, n))
    np.add.at(transition, (rows, cols), vals)

    theta = cfg.restart_prob
    restart, keep = theta * e_seed, 1.0 - theta
    v = e_seed.copy()
    for _ in range(cfg.max_iters):
        nxt = restart + keep * (v @ transition)
        delta = float(abs(nxt - v).max())
        v = nxt
        if delta <= cfg.tolerance:
            return v, True
    return v, False


def rwr_scores(
    graph: RelationGraph, cfg: PipelineConfig
) -> tuple[dict[Vertex, float], bool]:
    """Saliency score per vertex; flag is False when iteration hit the cap."""
    scores, converged = walk_probabilities(graph.adjacency, graph.seed_index, cfg)
    return {v: float(scores[i]) for i, v in enumerate(graph.vertices)}, converged


def rank_terms(
    scores: Mapping[Vertex, float], seed: str
) -> list[tuple[str, float]]:
    """Term vertices only, seed excluded, descending score then lexicographic."""
    ranked = [
        (name, score)
        for (kind, name), score in scores.items()
        if kind == "term" and name != seed
    ]
    ranked.sort(key=lambda it: (-it[1], it[0]))
    return ranked
