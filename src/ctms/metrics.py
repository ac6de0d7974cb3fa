"""Gold answers and evaluation metrics.

Term-based metrics (precision at n, average precision) judge a term
correct when it appears in any gold concept; when the system returns
several ranked lists they are first merged round-robin.  Concept-based
metrics weight per-list average precision by list sizes — by result-list
sizes (penalizing noisy clusters) or by gold-list sizes (rewarding
coverage of every category).  Cluster quality uses the purity family over
the retained terms, i.e. result terms that exist somewhere in the gold.

Matching is exact string equality after whitespace trim and Unicode NFC
normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .text import nfc_trim


@dataclass(frozen=True)
class GoldConcept:
    name: str
    terms: tuple[str, ...]


@dataclass(frozen=True)
class GoldAnswer:
    seed: str
    concepts: tuple[GoldConcept, ...]

    def union(self) -> frozenset[str]:
        return frozenset(t for c in self.concepts for t in c.terms)


@dataclass(frozen=True)
class ResultSet:
    seed: str
    lists: tuple[tuple[tuple[str, float], ...], ...]  # ranked (term, score) lists

    def term_lists(self) -> list[list[str]]:
        return [[term for term, _score in lst] for lst in self.lists]


class GoldFormatError(ValueError):
    pass


def load_gold(path: str | Path) -> GoldAnswer:
    """Read a gold file: {"seed": ..., "concepts": [{"name", "terms"}]}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GoldFormatError(f"gold file is not valid JSON: {exc}") from exc
    try:
        seed = nfc_trim(data["seed"])
        concepts: list[GoldConcept] = []
        for i, c in enumerate(data["concepts"]):
            name, terms = str(c.get("name", f"concept-{i}")), c["terms"]
            if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                raise GoldFormatError(f"gold concept {name!r}: terms must be a list of strings")
            if not terms:
                raise GoldFormatError(f"gold concept {name!r} has no terms")
            concepts.append(GoldConcept(name, tuple(dict.fromkeys(nfc_trim(t) for t in terms))))
    except (TypeError, KeyError, AttributeError) as exc:
        raise GoldFormatError(f"gold file missing field: {exc}") from exc
    return GoldAnswer(seed=seed, concepts=tuple(concepts))


def interleave(lists: Sequence[Sequence[str]]) -> list[str]:
    """Round-robin merge: first items of each list, then second, etc.

    Exhausted lists are skipped; duplicates keep their first occurrence.
    """
    merged: list[str] = []
    seen: set[str] = set()
    depth = max((len(lst) for lst in lists), default=0)
    for i in range(depth):
        for lst in lists:
            if i < len(lst) and lst[i] not in seen:
                seen.add(lst[i])
                merged.append(lst[i])
    return merged


def _norm_list(terms: Iterable[str]) -> list[str]:
    return [nfc_trim(t) for t in terms]


def precision_at_n(merged: Sequence[str], gold: Iterable[str], n: int) -> float:
    """Fraction of the top n that are gold; missing slots count as wrong."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gold_set = {nfc_trim(t) for t in gold}
    top = _norm_list(merged[:n])
    return sum(1 for t in top if t in gold_set) / n


def average_precision(ranked: Sequence[str], gold: Iterable[str]) -> float:
    """Mean of precision values at each correct rank, over the gold size."""
    gold_set = {nfc_trim(t) for t in gold}
    if not gold_set:
        raise ValueError("gold list must be non-empty")
    hits = 0
    total = 0.0
    for r, term in enumerate(_norm_list(ranked), start=1):
        if term in gold_set:
            hits += 1
            total += hits / r
    return total / len(gold_set)


def aap(results: ResultSet, gold: GoldAnswer) -> float:
    """Average of per-list best average precision, weighted by result-list size."""
    lists = results.term_lists()
    sizes = [len(lst) for lst in lists]
    denominator = sum(sizes)
    if denominator == 0:
        return 0.0
    total = 0.0
    for lst, size in zip(lists, sizes):
        best = max(
            (average_precision(lst, concept.terms) for concept in gold.concepts),
            default=0.0,
        )
        total += size * best
    return total / denominator


def iaap(results: ResultSet, gold: GoldAnswer) -> float:
    """Average of per-category best average precision, weighted by gold size."""
    if not gold.concepts:
        raise ValueError("gold answer must contain at least one concept")
    lists = results.term_lists()
    denominator = sum(len(c.terms) for c in gold.concepts)
    total = 0.0
    for concept in gold.concepts:
        best = max(
            (average_precision(lst, concept.terms) for lst in lists),
            default=0.0,
        )
        total += len(concept.terms) * best
    return total / denominator


def cluster_quality(results: ResultSet, gold: GoldAnswer) -> tuple[float, float, float]:
    """(purity, inverse purity, F) over the retained-term contingency.

    Terms absent from the gold union are excluded first; gold categories
    are likewise restricted to terms the system actually returned, so all
    three measures compare groupings of the same items.  Returns zeros when
    nothing is retained.
    """
    universe = gold.union()
    clusters = [
        [t for t in _norm_list(lst) if t in universe] for lst in results.term_lists()
    ]
    clusters = [c for c in clusters if c]
    returned = {t for c in clusters for t in c}
    categories = [
        [t for t in concept.terms if t in returned] for concept in gold.concepts
    ]
    categories = [c for c in categories if c]
    n_items = sum(len(c) for c in clusters)
    if n_items == 0 or not categories:
        return 0.0, 0.0, 0.0

    def overlap(a: Sequence[str], b: Sequence[str]) -> int:
        return len(set(a) & set(b))

    purity = sum(max(overlap(c, g) for g in categories) for c in clusters) / n_items
    inverse = sum(max(overlap(c, g) for c in clusters) for g in categories) / n_items

    def f1(c: Sequence[str], g: Sequence[str]) -> float:
        inter = overlap(c, g)
        if inter == 0:
            return 0.0
        precision = inter / len(c)
        recall = inter / len(g)
        return 2 * precision * recall / (precision + recall)

    f_total = sum(len(g) * max(f1(c, g) for c in clusters) for g in categories)
    return purity, inverse, f_total / n_items
