"""Candidate-set expansion through wrapper learning on retrieved pages.

One query per initial candidate is issued — the seed plus that candidate,
two terms only, because longer conjunctions retrieve fewer list-bearing
pages.  Wrapper learning on every retrieved page still uses the *whole*
extended seed set, so a page need only mention any two of the known terms
with a shared template for its lists to be harvested.

Each learned wrapper's spans on its page become one WebList, carrying a
window of the rendered text around the list for the later concept stage.
Pages are processed once even when several queries return them, and the
result is sorted by list id so downstream stages see a stable order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .config import PipelineConfig
from .corpus import SearchProvider, TransientSearchError
from .dom import DomTree, parse_html
from .wrappers import Wrapper, learn_wrappers

# Mining never extracts; perfbench's tracer still reads and rebinds this name here.
from .wrappers import extract_spans  # noqa: F401


@dataclass(frozen=True)
class ExtendedSeedSet:
    """The user seed plus the initial candidates mined from snippets."""

    seed: str
    initial: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.seed:
            raise ValueError("seed must be non-empty")
        if self.seed in self.initial:
            raise ValueError("seed must not repeat inside the initial candidates")

    @property
    def terms(self) -> tuple[str, ...]:
        return (self.seed,) + self.initial


@dataclass(frozen=True)
class WebList:
    """One wrapper's extraction from one page."""

    id: str
    terms: tuple[str, ...]  # distinct, first-occurrence order
    source_url: str
    wrapper: Wrapper
    context: str


@dataclass
class ExpandResult:
    weblists: list[WebList]
    page_texts: dict[str, str]  # url -> rendered text, the background corpus
    queries_run: list[str]
    pages_processed: int
    wrappers_learned: int
    skipped: list[str]  # diagnostics for failed queries/pages


def expansion_queries(extended: ExtendedSeedSet) -> list[str]:
    """Two-term queries: the seed paired with each initial candidate."""
    return [f"{extended.seed} {candidate}" for candidate in extended.initial]


def weblist_id(url: str, wrapper: Wrapper) -> str:
    """Stable id derived from the page and the wrapper triplet."""
    digest = hashlib.sha1(
        "\x00".join((url, wrapper.left, wrapper.right, wrapper.path)).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _context_window(tree: DomTree, first_start: int, last_end: int, window: int) -> str:
    before = tree.visible_text(0, first_start)
    after = tree.visible_text(last_end, len(tree.source))
    return (before[-window:] + " " + after[:window]).strip()


def harvest_page(
    url: str, tree: DomTree, extended: ExtendedSeedSet, cfg: PipelineConfig
) -> tuple[list[WebList], int]:
    """Learn wrappers on one page and turn their spans into WebLists."""
    spans_by_wrapper = learn_wrappers(extended.terms, tree, cfg)
    lists: list[WebList] = []
    for wrapper, spans in spans_by_wrapper.items():
        stripped = (tree.source[a:b].strip() for a, b in spans)
        terms = [term for term in dict.fromkeys(stripped) if term]
        if len(terms) < 2:
            continue
        context = _context_window(tree, spans[0][0], spans[-1][1], cfg.context_window)
        lists.append(
            WebList(
                id=weblist_id(url, wrapper),
                terms=tuple(terms),
                source_url=url,
                wrapper=wrapper,
                context=context,
            )
        )
    return lists, len(spans_by_wrapper)


def expand(
    extended: ExtendedSeedSet,
    provider: SearchProvider,
    cfg: PipelineConfig | None = None,
) -> ExpandResult:
    """Run every expansion query and harvest all retrieved pages once."""
    if len(extended.terms) < 2:
        raise ValueError("expansion needs the seed plus at least one candidate")
    cfg = cfg or PipelineConfig()

    result = ExpandResult(
        weblists=[], page_texts={}, queries_run=[], pages_processed=0,
        wrappers_learned=0, skipped=[],
    )
    seen_urls: set[str] = set()
    for query in expansion_queries(extended):
        result.queries_run.append(query)
        try:
            hits = provider.search(query, cfg.pages_per_query)
        except TransientSearchError as exc:
            result.skipped.append(f"query {query!r}: {exc}")
            continue
        for hit in hits:
            if hit.url in seen_urls:
                continue
            seen_urls.add(hit.url)
            try:
                page = provider.fetch_page(hit.url)
            except LookupError as exc:
                result.skipped.append(f"page {hit.url!r}: {exc}")
                continue
            tree = parse_html(page.html)
            result.page_texts[hit.url] = tree.visible_text()
            result.pages_processed += 1
            lists, learned = harvest_page(hit.url, tree, extended, cfg)
            result.wrappers_learned += learned
            result.weblists.extend(lists)

    result.weblists.sort(key=lambda wl: wl.id)
    return result
