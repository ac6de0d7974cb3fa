"""Candidate-set expansion through wrapper learning on retrieved pages.

One query per initial candidate is issued — the seed plus that candidate,
two terms only, because longer conjunctions retrieve fewer list-bearing
pages.  Wrapper learning on every retrieved page still uses every known
term, the seed and all initial candidates, so a page need only mention
any two of them with a shared template for its lists to be harvested.

Each learned wrapper's spans on its page become one WebList, carrying a
window of the rendered text around the list for the later concept stage:
the rendered offsets of the list's first and last span bound it, and
only the window's characters on each side are sliced from the page's
rendered text.  The list also keeps the window's rendered bounds and its
page's number in fetch order, so that the concept stage reads the
window's tokens off the page's, tokenized once.
Pages are processed once even when several queries return them, and the
result is sorted by list id so downstream stages see a stable order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .config import PipelineConfig
from .corpus import SearchProvider, TransientSearchError
from .dom import DomTree, parse_html
from .wrappers import Wrapper, learn_wrappers

# Mining never extracts; perfbench's tracer still reads and rebinds this name here.
from .wrappers import extract_spans  # noqa: F401


@dataclass(frozen=True)
class WebList:
    """One wrapper's extraction from one page."""

    id: str
    terms: tuple[str, ...]  # distinct, first-occurrence order, at least two
    source_url: str
    wrapper: Wrapper
    context: str  # the window's text, the two halves joined by a space, stripped
    # Where the window lies, for the concept stage; not compared, and not
    # written by the dump.  `page` indexes ExpandResult.page_texts, and the
    # window is text[lo:before] and text[after:hi] of that page's rendered
    # text, for `window` = (lo, before, after, hi).
    page: int = field(compare=False)
    window: tuple[int, int, int, int] = field(compare=False)


@dataclass
class ExpandResult:
    weblists: list[WebList]  # sorted by list id
    page_texts: list[str]  # each processed page's rendered text, in fetch order
    queries_run: list[str]  # every expansion query, failed ones included
    wrappers_learned: int
    skipped: list[str]  # diagnostics for failed queries/pages


def expansion_queries(seed: str, candidates: tuple[str, ...]) -> list[str]:
    """Two-term queries: the seed paired with each initial candidate, in order."""
    return [f"{seed} {candidate}" for candidate in candidates]


def weblist_id(url: str, wrapper: Wrapper) -> str:
    """Stable id derived from the page and the wrapper triplet."""
    digest = hashlib.sha1(
        "\x00".join((url, wrapper.left, wrapper.right, wrapper.path)).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _context_window(
    tree: DomTree, first_start: int, last_end: int, window: int
) -> tuple[str, tuple[int, int, int, int]]:
    """The `window` (at least 1) rendered characters before a list's first
    span and after its last, joined by a space and stripped, and their
    rendered bounds (lo, before, after, hi); only those characters are
    sliced from the page's rendered text."""
    text = tree.visible_text()
    before, after = tree.rendered_offset(first_start), tree.rendered_offset(last_end)
    lo, hi = max(0, before - window), min(len(text), after + window)
    return (text[lo:before] + " " + text[after:hi]).strip(), (lo, before, after, hi)


def harvest_page(
    url: str, page: int, tree: DomTree, terms: tuple[str, ...], cfg: PipelineConfig
) -> tuple[list[WebList], int]:
    """Learn wrappers for `terms` (the seed, then the initial candidates) on
    page number `page` (in fetch order) and turn their spans into WebLists.

    A wrapper whose spans strip to fewer than two distinct terms yields no
    list, so every WebList has at least two.  Returns the lists and the
    number of wrappers learned.
    """
    spans_by_wrapper = learn_wrappers(terms, tree, cfg)
    lists: list[WebList] = []
    for wrapper, spans in spans_by_wrapper.items():
        stripped = (tree.source[a:b].strip() for a, b in spans)
        terms = [term for term in dict.fromkeys(stripped) if term]
        if len(terms) < 2:
            continue
        context, window = _context_window(tree, spans[0][0], spans[-1][1], cfg.context_window)
        # Positional: keyword arguments cost a page of many lists measurably more.
        lists.append(
            WebList(weblist_id(url, wrapper), tuple(terms), url, wrapper, context, page, window)
        )
    return lists, len(spans_by_wrapper)


def expand(
    seed: str, candidates: tuple[str, ...], provider: SearchProvider, cfg: PipelineConfig
) -> ExpandResult:
    """Run every expansion query and harvest all retrieved pages once.

    `candidates` are the initial candidates, none of which contains the
    seed; wrappers are learned for the seed and all of them on every page.
    """
    terms = (seed,) + candidates
    result = ExpandResult(
        weblists=[], page_texts=[], queries_run=expansion_queries(seed, candidates),
        wrappers_learned=0, skipped=[],
    )
    seen_urls: set[str] = set()
    for query in result.queries_run:
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
            number = len(result.page_texts)
            result.page_texts.append(tree.visible_text())
            lists, learned = harvest_page(hit.url, number, tree, terms, cfg)
            result.wrappers_learned += learned
            result.weblists.extend(lists)

    result.weblists.sort(key=lambda wl: wl.id)
    return result
