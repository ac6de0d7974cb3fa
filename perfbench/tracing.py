"""Outside-in tracing of one ``mine`` call, with no edit to the miner.

`Tracer.install` rebinds the public names that ``ctms.pipeline`` and
``ctms.expansion`` look up at call time (plus ``DomTree.visible_text``)
to timing shims; `Tracer.uninstall` puts the originals back.  A shim
records a span (name, start, end, parent, mine number) around the call
and bumps counters from the call's arguments and result.  Spans and
counters stay in memory until `Tracer.dump` writes them out.

Each layer's time is self time: a span's duration minus the durations of
its direct children.  Calls never overlap (one thread), so children of a
span are disjoint and the subtraction is exact.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Span name -> per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "extract_initial_candidates": "linguistic.candidates_ms",
    "parse_html": "dom.parse_ms",
    "DomTree.visible_text": "dom.visible_text_ms",
    "learn_wrappers": "wrappers.learn_ms",
    "extract_spans": "wrappers.extract_ms",
    "harvest_page": "expansion.harvest_ms",
    "expand": "expansion.self_ms",
    "BackgroundCorpus": "concepts.background_ms",
    "context_vector": "concepts.vectors_ms",
    "cluster_weblists": "concepts.cluster_ms",
    "build_relation_graph": "ranking.graph_ms",
    "rwr_scores": "ranking.walk_ms",
    "mine": "pipeline.self_ms",
}


def _count_candidates(c: Counter, args, kwargs, result) -> None:
    sentences = kwargs.get("sentences", args[1] if len(args) > 1 else ())
    c["linguistic.sentences"] += len(sentences)
    c["linguistic.kept"] += len(result)


def _count_parse(c: Counter, args, kwargs, result) -> None:
    c["dom.chars"] += len(args[0] if args else kwargs["raw"])


def _count_learn(c: Counter, args, kwargs, result) -> None:
    c["wrappers.learned"] += len(result)


def _count_extract(c: Counter, args, kwargs, result) -> None:
    c["wrappers.spans"] += sum(len(spans) for spans in result.values())


def _count_harvest(c: Counter, args, kwargs, result) -> None:
    c["expansion.pages"] += 1
    c["expansion.weblists"] += len(result[0])


def _count_cluster(c: Counter, args, kwargs, result) -> None:
    n = len(args[0] if args else kwargs["weblists"])
    c["concepts.pairs"] += n * (n - 1) // 2
    c["concepts.merges"] += n - len(result)


def _count_graph(c: Counter, args, kwargs, result) -> None:
    c["ranking.vertices"] += len(result.vertices)
    c["ranking.edges"] += sum(len(nbrs) for nbrs in result.adjacency) // 2


def _count_walk(c: Counter, args, kwargs, result) -> None:
    c["ranking.walks"] += 1
    c["ranking.converged"] += int(result[1])


class CountingProvider:
    """Pass-through provider that counts calls and remembers fetched pages."""

    def __init__(self, inner, counters: Counter):
        self._inner = inner
        self._counters = counters
        self.fetched: dict[str, str] = {}

    def search(self, query: str, max_results: int = 200):
        self._counters["corpus.search_calls"] += 1
        return self._inner.search(query, max_results)

    def fetch_page(self, url: str):
        self._counters["corpus.fetch_calls"] += 1
        page = self._inner.fetch_page(url)
        self.fetched[url] = page.html
        return page


def count_occurrences(sources, terms) -> int:
    """Occurrences (overlaps included) of every term in every source."""
    total = 0
    for src in sources:
        for term in terms:
            pos = src.find(term)
            while pos != -1:
                total += 1
                pos = src.find(term, pos + 1)
    return total


class Tracer:
    """Span and counter recorder for a run of traced ``mine`` calls."""

    def __init__(self) -> None:
        import ctms.dom
        import ctms.expansion
        import ctms.pipeline

        # span: [name, start, end, parent index or -1, mine number]
        self.spans: list[list] = []
        self.counters: list[Counter] = []  # one per traced mine
        self._stack: list[int] = []
        # (owner, attribute, span name, counter) for every traced call site.
        self._sites: list[tuple[Any, str, str, Callable | None]] = [
            (ctms.pipeline, "extract_initial_candidates", "extract_initial_candidates", _count_candidates),
            (ctms.pipeline, "expand", "expand", None),
            (ctms.pipeline, "BackgroundCorpus", "BackgroundCorpus", None),
            (ctms.pipeline, "context_vector", "context_vector", None),
            (ctms.pipeline, "cluster_weblists", "cluster_weblists", _count_cluster),
            (ctms.pipeline, "build_relation_graph", "build_relation_graph", _count_graph),
            (ctms.pipeline, "rwr_scores", "rwr_scores", _count_walk),
            (ctms.expansion, "parse_html", "parse_html", _count_parse),
            (ctms.expansion, "harvest_page", "harvest_page", _count_harvest),
            (ctms.expansion, "learn_wrappers", "learn_wrappers", _count_learn),
            (ctms.expansion, "extract_spans", "extract_spans", _count_extract),
            (ctms.dom.DomTree, "visible_text", "DomTree.visible_text", None),
        ]
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._sites]
        self._shims = [
            self._shim(name, original, count)
            for (_, _, name, count), original in zip(self._sites, self._originals)
        ]

    def _shim(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, len(self.counters) - 1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None:
                count(self.counters[-1], args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        for (owner, attr, _, _), shim in zip(self._sites, self._shims):
            setattr(owner, attr, shim)

    def uninstall(self) -> None:
        for (owner, attr, _, _), original in zip(self._sites, self._originals):
            setattr(owner, attr, original)

    def mine(self, mine_fn: Callable, term: str, cfg, provider) -> tuple[Any, float]:
        """One traced mine; returns the report and the mine span's seconds."""
        counters: Counter = Counter()
        self.counters.append(counters)
        counting = CountingProvider(provider, counters)
        traced_mine = self._shim("mine", mine_fn, None)
        first_span = len(self.spans)
        self.install()
        try:
            report = traced_mine(term, cfg, counting)
        finally:
            self.uninstall()
        # Counted after the mine span closed, so it costs no traced time.
        terms = [term] + [c["text"] for c in report.initial_candidates]
        if len(terms) > 1:
            counters["wrappers.seed_occurrences"] = count_occurrences(
                counting.fetched.values(), terms
            )
        diagnostics = report.diagnostics
        counters["concepts.clusters_total"] = diagnostics.get("clusters_total", 0)
        counters["concepts.clusters_kept"] = diagnostics.get("clusters_kept", 0)
        _, start, end, _, _ = self.spans[first_span]
        return report, end - start

    def self_times_ms(self) -> list[dict[str, float]]:
        """Per traced mine: layer metric name -> self time in ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_mine: list[dict[str, float]] = [
            dict.fromkeys(SELF_TIME_METRICS.values(), 0.0) for _ in self.counters
        ]
        for i, (name, start, end, _, mine_no) in enumerate(self.spans):
            metric = SELF_TIME_METRICS[name]
            per_mine[mine_no][metric] += (end - start - child_time[i]) * 1000.0
        return per_mine

    def dump(self, path: Path) -> None:
        """Write every span and every mine's counters as one JSON document."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "mine"],
            "spans": self.spans,
            "counters": [dict(c) for c in self.counters],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def layer_metrics(self_times: dict[str, float], counters: Counter) -> dict[str, float]:
    """Per-layer metric values of one mine from its self times and counters."""
    out = dict(self_times)
    for key in ("linguistic.sentences", "linguistic.kept", "dom.chars",
                "wrappers.seed_occurrences", "wrappers.learned", "wrappers.spans",
                "expansion.pages", "expansion.weblists", "concepts.pairs",
                "concepts.merges", "ranking.vertices", "ranking.edges",
                "corpus.search_calls", "corpus.fetch_calls"):
        out[key] = counters.get(key, 0)
    learned = counters.get("wrappers.learned", 0)
    out["wrappers.useful_ratio"] = counters.get("expansion.weblists", 0) / learned if learned else 0.0
    total = counters.get("concepts.clusters_total", 0)
    out["concepts.kept_ratio"] = counters.get("concepts.clusters_kept", 0) / total if total else 0.0
    walks = counters.get("ranking.walks", 0)
    out["ranking.converged_ratio"] = counters.get("ranking.converged", 0) / walks if walks else 0.0
    return out
