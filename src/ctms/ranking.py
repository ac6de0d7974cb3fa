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
    terms: Sequence[str], n_min: int = 1, n_max: int = 3
) -> dict[str, tuple[str, ...]]:
    """Shared leading/trailing n-grams per term.

    An affix survives only when at least two distinct terms start or end
    with it; each kept affix is listed for every term carrying it.
    """
    carriers: dict[str, set[str]] = {}
    unique_terms = sorted(set(terms))
    for term in unique_terms:
        grams: set[str] = set()
        for n in range(n_min, min(n_max, len(term)) + 1):
            grams.add(term[:n])
            grams.add(term[-n:])
        for gram in grams:
            carriers.setdefault(gram, set()).add(term)
    shared = {g for g, ts in carriers.items() if len(ts) >= 2}
    out: dict[str, tuple[str, ...]] = {}
    for term in unique_terms:
        mine = sorted(
            g for g in shared if term.startswith(g) or term.endswith(g)
        )
        out[term] = tuple(mine)
    return out


def build_relation_graph(
    cluster: ConceptCluster,
    weblists: Sequence[WebList],
    seed: str,
    n_min: int = 1,
    n_max: int = 3,
    term_filter: frozenset[str] | None = None,
) -> RelationGraph:
    """Tripartite relation graph for one concept.

    `weblists` are the cluster's member lists.  `term_filter`, when given,
    restricts the term vertices (used by the no-disambiguation variant's
    support filter); the seed is always retained.
    """
    if seed not in cluster.member_terms:
        raise ValueError("cluster must contain the seed term")
    terms = sorted(cluster.member_terms)
    if term_filter is not None:
        terms = [t for t in terms if t in term_filter or t == seed]

    affixes = extract_affixes(terms, n_min, n_max)
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
    cfg: PipelineConfig | None = None,
) -> tuple[np.ndarray, bool]:
    """Iterate v <- restart·e_seed + (1-restart)·v·A* to a fixed point.

    A* is the row-normalized adjacency matrix; rows of isolated vertices
    are replaced by the restart vector so the chain stays stochastic and
    total probability is conserved.  Returns the score vector and whether
    the iteration converged within the budget.
    """
    cfg = cfg or PipelineConfig()
    n = len(adjacency)
    if n == 0:
        raise ValueError("graph must be non-empty")

    e_seed = np.zeros(n)
    e_seed[seed] = 1.0
    transition = np.zeros((n, n))
    for i, neighbors in enumerate(adjacency):
        if neighbors:
            w = 1.0 / len(neighbors)
            for j in neighbors:
                transition[i, j] += w
        else:
            transition[i, seed] = 1.0  # dangling mass restarts at the seed

    theta = cfg.restart_prob
    v = e_seed.copy()
    converged = False
    for _ in range(cfg.max_iters):
        nxt = theta * e_seed + (1.0 - theta) * (v @ transition)
        delta = float(np.max(np.abs(nxt - v)))
        v = nxt
        if delta <= cfg.tolerance:
            converged = True
            break
    return v, converged


def rwr_scores(
    graph: RelationGraph, cfg: PipelineConfig | None = None
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
