"""End-to-end mining pipeline and its report/evaluation plumbing.

Stages run in order: snippet mining for the initial candidates, expansion
over retrieved pages, concept grouping (optional — the no-disambiguation
variant ranks one merged pseudo-concept instead), and per-concept ranking.
Every stage's outcome lands in a MiningReport that serializes to stable
JSON: two runs over the same fixture produce byte-identical files.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from .concepts import (
    BackgroundCorpus,
    ConceptCluster,
    cluster_weblists,
    context_vector,
    filter_clusters,
    maximal_lists,
    support_floor,
)
from .config import PipelineConfig
from .corpus import SearchProvider
from .expansion import ExpandResult, WebList, expand
from .linguistic import extract_initial_candidates, build_queries
from .metrics import (
    GoldAnswer,
    aap,
    average_precision,
    cluster_quality,
    iaap,
    interleave,
    precision_at_n,
)
from .ranking import build_relation_graph, rank_terms, rwr_scores
from .text import nfc_trim, split_sentences


@dataclass
class ConceptReport:
    id: str
    list_count: int
    list_ids: list[str]
    ranked_terms: list[tuple[str, float]]
    term_lists: dict[str, list[str]]  # provenance: term -> weblist ids
    converged: bool


def _ranked_term(entry: Any) -> tuple[str, float]:
    """A report's ``[term, score]`` entry as a pair; ValueError for any other shape."""
    if isinstance(entry, list) and len(entry) == 2:
        term, score = entry
        number = isinstance(score, (int, float)) and not isinstance(score, bool)
        if isinstance(term, str) and number:
            return term, score
    raise ValueError(f"ranked term must be a [string, number] pair, got {entry!r}")


@dataclass
class MiningReport:
    seed: str
    config: dict[str, Any]
    initial_candidates: list[dict[str, Any]]
    weblist_count: int
    concepts: list[ConceptReport]
    diagnostics: dict[str, Any] = field(default_factory=dict)
    # The run's web lists and pages (URL -> rendered text), in memory only:
    # not serialized, compared or printed, so the JSON is the same without them.
    weblists: list[WebList] = field(default_factory=list, compare=False, repr=False)
    pages: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "config": self.config,
            "initial_candidates": self.initial_candidates,
            "weblist_count": self.weblist_count,
            "concepts": [asdict(c) for c in self.concepts],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MiningReport":
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError(f"report nests too deeply: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("report must be a JSON object")
        concepts = [
            ConceptReport(
                id=c["id"],
                list_count=c["list_count"],
                list_ids=list(c["list_ids"]),
                ranked_terms=[_ranked_term(entry) for entry in c["ranked_terms"]],
                term_lists={k: list(v) for k, v in c["term_lists"].items()},
                converged=c["converged"],
            )
            for c in data["concepts"]
        ]
        return cls(
            seed=data["seed"],
            config=data["config"],
            initial_candidates=data["initial_candidates"],
            weblist_count=data["weblist_count"],
            concepts=concepts,
            diagnostics=data["diagnostics"],
        )

    def result_set(self) -> tuple[tuple[str, ...], ...]:
        """The ranked terms of each concept, as the metrics take them."""
        return tuple(tuple(term for term, _ in c.ranked_terms) for c in self.concepts)


def _concept_report(
    cluster: ConceptCluster,
    weblists_by_id: dict[str, WebList],
    seed: str,
    cfg: PipelineConfig,
) -> ConceptReport:
    members = [weblists_by_id[i] for i in cluster.lists]
    graph = build_relation_graph(cluster, members, seed, cfg)
    scores, converged = rwr_scores(graph, cfg)
    # Provenance is read off the graph the walk ranked: each term vertex
    # (in term order) and its list neighbours (in id order).
    vertices = graph.vertices
    term_lists = {
        name: [vertices[j][1] for j in graph.adjacency[i] if vertices[j][0] == "list"]
        for i, (kind, name) in enumerate(vertices)
        if kind == "term"
    }
    return ConceptReport(
        id=cluster.id,
        list_count=len(cluster.lists),
        list_ids=list(cluster.lists),
        ranked_terms=rank_terms(scores, seed),
        term_lists=term_lists,
        converged=converged,
    )


def snippet_sentences(
    queries: list[str], cfg: PipelineConfig, provider: SearchProvider
) -> list[str]:
    """Stage 1's sentences: titles and snippets of every query's results,
    in query and rank order.  An error the provider raises propagates."""
    sentences: list[str] = []
    for query in queries:
        for hit in provider.search(query, cfg.snippet_results):
            sentences.extend(split_sentences(hit.title))
            sentences.extend(split_sentences(hit.snippet))
    return sentences


def check_seed(seed: str) -> None:
    """ValueError for a blank seed or one with outer whitespace, never stripped."""
    if not seed.strip():
        raise ValueError("seed must be non-empty")
    if seed != seed.strip():
        raise ValueError("seed must not begin or end with whitespace")


def mine(seed: str, cfg: PipelineConfig, provider: SearchProvider) -> MiningReport:
    """Run the full pipeline for one seed term."""
    check_seed(seed)
    notes: list[str] = []
    diagnostics: dict[str, Any] = {"notes": notes}

    # Stage 1: mine initial candidates from titles and snippets.
    queries = build_queries(seed, cfg)
    sentences = snippet_sentences(queries, cfg, provider)
    diagnostics["snippet_queries"] = queries
    diagnostics["snippet_sentences"] = len(sentences)

    candidates = extract_initial_candidates(seed, sentences, cfg)
    initial = [
        {"text": c.text, "n": c.n, "m": c.m, "score": c.score} for c in candidates
    ]
    report = MiningReport(
        seed=seed,
        config=_config_dict(cfg),
        initial_candidates=initial,
        weblist_count=0,
        concepts=[],
        diagnostics=diagnostics,
    )
    if not candidates:
        notes.append("stage failure: no initial candidates; downstream stages skipped")
        return report

    # Stage 2: expansion over retrieved pages.
    expansion: ExpandResult = expand(seed, tuple(c.text for c in candidates), provider, cfg)
    weblists = expansion.weblists
    report.weblists = weblists
    report.pages = {url: page.tree.visible_text() for url, page in expansion.pages.items()}
    report.weblist_count = len(weblists)
    diagnostics["expansion_queries"] = expansion.queries_run
    diagnostics["pages_processed"] = len(expansion.pages)
    diagnostics["wrappers_learned"] = expansion.wrappers_learned
    if not weblists:
        notes.append("stage failure: expansion produced no web lists")
        return report

    # Stage 3: concept grouping (or one pseudo-concept without it).
    weblists_by_id = {wl.id: wl for wl in weblists}

    if cfg.disambiguation:
        # A list contained in another on its page shares its concept: the
        # pair scores 1.0 on the content side, which weighs nothing at
        # sim_lambda 0.  Only the maximal lists are clustered.
        maximal, containers = weblists, {}
        if cfg.sim_lambda > 0:
            maximal, containers = maximal_lists(weblists)
        background = BackgroundCorpus(expansion.pages)
        vectors = {wl.id: context_vector(wl, background) for wl in maximal}
        grouped = cluster_weblists(maximal, vectors, cfg)
        home = {wid: k for k, cluster in enumerate(grouped) for wid in cluster.lists}
        members: list[list[str]] = [[] for _ in grouped]
        for wl in weblists:  # in id order, so each cluster's lists come sorted
            members[home[containers.get(wl.id, wl.id)]].append(wl.id)
        # A fragment adds no term, so only the id and the lists change.
        clusters = [
            replace(cluster, id=ids[0], lists=tuple(ids)) for cluster, ids in zip(grouped, members)
        ]
    else:
        # One pseudo-concept of all lists.  The cluster filter's support
        # idea applies per term: its terms are those in enough lists, and
        # the seed if any list holds it, which `filter_clusters` requires.
        support: Counter[str] = Counter()
        for wl in weblists:
            support.update(set(wl.terms))
        floor = support_floor(cfg.min_support, len(weblists))
        all_ids = tuple(sorted(weblists_by_id))
        pseudo = ConceptCluster(
            id=all_ids[0],
            lists=all_ids,
            member_terms=frozenset(t for t, c in support.items() if c >= floor or t == seed),
        )
        clusters = [pseudo]
    diagnostics["clusters_total"] = len(clusters)
    kept = filter_clusters(clusters, seed, len(weblists), cfg)
    diagnostics["clusters_kept"] = len(kept)

    if not kept:
        notes.append("no concept found: all clusters filtered out")
        return report

    # Stage 4: rank each concept.
    for cluster in kept:
        report.concepts.append(_concept_report(cluster, weblists_by_id, seed, cfg))
    return report


def _config_dict(cfg: PipelineConfig) -> dict[str, Any]:
    data = asdict(cfg)
    data["clue_words"] = list(data["clue_words"])
    return data


def evaluate(report: MiningReport, gold: GoldAnswer, n_values: list[int]) -> dict[str, Any]:
    """Metric table for a report against its gold answer."""
    if nfc_trim(report.seed) != gold.seed:
        raise ValueError(
            f"seed mismatch: report has {report.seed!r}, gold has {gold.seed!r}"
        )
    results = report.result_set()
    merged = interleave(results)
    gold_union = gold.union()

    purity, inverse_purity, f_measure = cluster_quality(results, gold)
    table: dict[str, Any] = {
        "seed": report.seed,
        "p_at": {str(n): precision_at_n(merged, gold_union, n) for n in n_values},
        "ap": average_precision(merged, gold_union),
        "aap": aap(results, gold),
        "iaap": iaap(results, gold),
        "purity": purity,
        "inverse_purity": inverse_purity,
        "f": f_measure,
        "merged_size": len(merged),
    }
    return table


def format_metric_table(table: dict[str, Any]) -> str:
    """Human-readable rendering of an evaluation table."""
    lines = [f"seed: {table['seed']}", f"{'metric':<16}{'value':>8}"]
    for n, value in table["p_at"].items():
        lines.append(f"{'P@' + n:<16}{value:>8.3f}")
    for key, label in (
        ("ap", "AP"),
        ("aap", "AAP"),
        ("iaap", "IAAP"),
        ("purity", "Purity"),
        ("inverse_purity", "InversePurity"),
        ("f", "F"),
    ):
        lines.append(f"{label:<16}{table[key]:>8.3f}")
    return "\n".join(lines) + "\n"


# Terms per concept column of `format_report_table`.
TABLE_ROWS = 10


def format_report_table(report: MiningReport) -> str:
    """Side-by-side top `TABLE_ROWS` terms per concept, one column per concept."""
    if not report.concepts:
        return f"seed: {report.seed}\n(no concepts)\n"
    headers = [f"concept {c.id} ({c.list_count} lists)" for c in report.concepts]
    columns = [[term for term, _ in c.ranked_terms[:TABLE_ROWS]] for c in report.concepts]
    width = max(12, *map(_display_width, headers + [t for col in columns for t in col])) + 2
    depth = max(len(col) for col in columns)
    rows = [headers] + [[col[i] if i < len(col) else "" for col in columns] for i in range(depth)]
    lines = [f"seed: {report.seed}"]
    # padding that a row ends in, after its last term, is left off
    lines += [
        "".join(cell + " " * (width - _display_width(cell)) for cell in row).rstrip(" ")
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _display_width(s: str) -> int:
    """Terminal columns of `s`: two for a wide or fullwidth character, one for any other."""
    return sum(2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1 for ch in s)
