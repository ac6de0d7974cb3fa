"""End-to-end mining pipeline and its report/evaluation plumbing.

Stages run in order: snippet mining for the initial candidates, expansion
over retrieved pages, concept grouping (optional — the no-disambiguation
variant ranks one merged pseudo-concept instead), and per-concept ranking.
Every stage's outcome lands in a MiningReport that serializes to stable
JSON: two runs over the same fixture produce byte-identical files.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

from .concepts import (
    BackgroundCorpus,
    ConceptCluster,
    cluster_weblists,
    context_vector,
    filter_clusters,
)
from .config import PipelineConfig
from .corpus import SearchProvider, TransientSearchError
from .expansion import ExpandResult, ExtendedSeedSet, WebList, expand
from .linguistic import extract_initial_candidates, build_queries
from .metrics import (
    GoldAnswer,
    ResultSet,
    aap,
    average_precision,
    cluster_quality,
    iaap,
    interleave,
    precision_at_n,
)
from .ranking import build_relation_graph, rank_terms, rwr_scores
from .text import split_sentences


@dataclass
class ConceptReport:
    id: str
    list_count: int
    list_ids: list[str]
    ranked_terms: list[tuple[str, float]]
    term_lists: dict[str, list[str]]  # provenance: term -> weblist ids
    converged: bool


@dataclass
class MiningReport:
    seed: str
    config: dict[str, Any]
    initial_candidates: list[dict[str, Any]]
    weblist_count: int
    concepts: list[ConceptReport]
    diagnostics: dict[str, Any] = field(default_factory=dict)
    # The run's web lists, kept in memory only: not serialized, compared
    # or printed, so the report JSON is the same with or without them.
    weblists: list[WebList] = field(default_factory=list, compare=False, repr=False)

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
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("report must be a JSON object")
        concepts = [
            ConceptReport(
                id=c["id"],
                list_count=c["list_count"],
                list_ids=list(c["list_ids"]),
                ranked_terms=[(t, s) for t, s in c["ranked_terms"]],
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

    def result_set(self) -> ResultSet:
        return ResultSet(
            seed=self.seed,
            lists=tuple(tuple(c.ranked_terms) for c in self.concepts),
        )


def _concept_report(
    cluster: ConceptCluster,
    weblists_by_id: dict[str, WebList],
    seed: str,
    cfg: PipelineConfig,
    term_filter: frozenset[str] | None = None,
) -> ConceptReport:
    members = [weblists_by_id[i] for i in cluster.lists]
    graph = build_relation_graph(
        cluster, members, seed, cfg.affix_min_n, cfg.affix_max_n, term_filter
    )
    scores, converged = rwr_scores(graph, cfg)
    ranked = rank_terms(scores, seed)
    provenance: dict[str, list[str]] = {}
    ranked_terms = {t for t, _ in ranked}
    for wl in members:
        for term in wl.terms:
            if term in ranked_terms or term == seed:
                provenance.setdefault(term, []).append(wl.id)
    return ConceptReport(
        id=cluster.id,
        list_count=len(cluster.lists),
        list_ids=list(cluster.lists),
        ranked_terms=ranked,
        term_lists={t: sorted(ids) for t, ids in sorted(provenance.items())},
        converged=converged,
    )


def mine(seed: str, cfg: PipelineConfig, provider: SearchProvider) -> MiningReport:
    """Run the full pipeline for one seed term."""
    if not seed:
        raise ValueError("seed must be non-empty")
    notes: list[str] = []
    diagnostics: dict[str, Any] = {"notes": notes}

    # Stage 1: mine initial candidates from titles and snippets.
    sentences: list[str] = []
    queries = build_queries(seed, cfg)
    failed_queries: list[str] = []
    for query in queries:
        try:
            hits = provider.search(query, cfg.snippet_results)
        except TransientSearchError as exc:
            failed_queries.append(f"{query}: {exc}")
            continue
        for hit in hits:
            sentences.extend(split_sentences(hit.title))
            sentences.extend(split_sentences(hit.snippet))
    diagnostics["snippet_queries"] = queries
    diagnostics["snippet_sentences"] = len(sentences)
    if failed_queries:
        diagnostics["failed_queries"] = failed_queries

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
    extended = ExtendedSeedSet(seed=seed, initial=tuple(c.text for c in candidates))
    expansion: ExpandResult = expand(extended, provider, cfg)
    weblists = expansion.weblists
    report.weblists = weblists
    report.weblist_count = len(weblists)
    diagnostics["expansion_queries"] = expansion.queries_run
    diagnostics["pages_processed"] = expansion.pages_processed
    diagnostics["wrappers_learned"] = expansion.wrappers_learned
    if expansion.skipped:
        diagnostics["skipped"] = expansion.skipped
    if not weblists:
        notes.append("stage failure: expansion produced no web lists")
        return report

    # Stage 3: concept grouping (or one pseudo-concept without it).
    background = BackgroundCorpus(sorted(expansion.page_texts.items()))
    weblists_by_id = {wl.id: wl for wl in weblists}

    if cfg.disambiguation:
        vectors = {wl.id: context_vector(wl, background) for wl in weblists}
        clusters = cluster_weblists(
            weblists, vectors, seed, cfg.cluster_threshold, cfg.sim_lambda
        )
        diagnostics["clusters_total"] = len(clusters)
        kept = filter_clusters(clusters, seed, len(weblists), cfg.min_support)
        diagnostics["clusters_kept"] = len(kept)
        term_filter = None
    else:
        all_ids = tuple(sorted(weblists_by_id))
        member_terms = frozenset(t for wl in weblists for t in wl.terms)
        pseudo = ConceptCluster(
            id=all_ids[0],
            lists=all_ids,
            member_terms=member_terms,
            contains_seed=seed in member_terms,
        )
        kept = [pseudo] if pseudo.contains_seed else []
        diagnostics["clusters_total"] = 1
        diagnostics["clusters_kept"] = len(kept)
        # Same support idea as the cluster filter, applied per term.
        support: Counter[str] = Counter()
        for wl in weblists:
            support.update(set(wl.terms))
        floor = cfg.min_support * len(weblists) - 1e-9
        term_filter = frozenset(t for t, c in support.items() if c >= floor)

    if not kept:
        notes.append("no concept found: all clusters filtered out")
        return report

    # Stage 4: rank each concept.
    for cluster in kept:
        report.concepts.append(
            _concept_report(cluster, weblists_by_id, seed, cfg, term_filter)
        )
    return report


def _config_dict(cfg: PipelineConfig) -> dict[str, Any]:
    data = asdict(cfg)
    data["clue_words"] = list(data["clue_words"])
    return data


def evaluate(
    report: MiningReport, gold: GoldAnswer, n_values: list[int] | None = None
) -> dict[str, Any]:
    """Metric table for a report against its gold answer."""
    if report.seed != gold.seed:
        raise ValueError(
            f"seed mismatch: report has {report.seed!r}, gold has {gold.seed!r}"
        )
    n_values = n_values or [5, 10]
    results = report.result_set()
    merged = interleave(results.term_lists())
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


def format_report_table(report: MiningReport, top: int = 10) -> str:
    """Side-by-side top terms per concept, one column per concept."""
    if not report.concepts:
        return f"seed: {report.seed}\n(no concepts)\n"
    headers = [f"concept {c.id} ({c.list_count} lists)" for c in report.concepts]
    columns = [
        [term for term, _ in c.ranked_terms[:top]] for c in report.concepts
    ]
    width = max(12, *(len(h) for h in headers)) + 2
    depth = max(len(col) for col in columns)
    lines = [f"seed: {report.seed}"]
    lines.append("".join(h.ljust(width) for h in headers))
    for i in range(depth):
        row = [col[i] if i < len(col) else "" for col in columns]
        lines.append("".join(cell.ljust(width) for cell in row))
    return "\n".join(lines) + "\n"
