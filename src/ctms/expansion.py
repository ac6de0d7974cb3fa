"""Candidate-set expansion through wrapper learning on retrieved pages.

One query per initial candidate is issued — the seed plus that candidate,
two terms only, because longer conjunctions retrieve fewer list-bearing
pages.  Wrapper learning on every retrieved page still uses every known
term, the seed and all initial candidates, so a page need only mention
any two of them with a shared template for its lists to be harvested.

Each learned wrapper's spans on its page become one WebList.  A list
names its page by URL, and keeps the window of rendered text around it,
for the later concept stage, as rendered bounds only: the rendered
offsets of the list's first and last span, each widened by the window
size.  The concept stage reads the window's tokens off its page's token
index; the window is rendered to text only for the ``--dump-weblists``
output (`window_text`).
Pages are processed once per mine even when several queries return them,
and the result is sorted by list id so downstream stages see a stable
order.

What a page yields whatever the seed is derived once per page object,
not once per mine: `parsed_page` keeps each fetched `RawPage`'s tree
and (built on first use, by the concept stage) token index for as long
as that object lives, in a table that holds the page weakly.  So a
provider that returns the same object for a URL on every fetch, as
`FixtureProvider` does, has each page parsed by `parse_html` once, on
the first mine that fetches it, and tokenized at most once.  The table
keys pages by identity, never by URL, and holds nothing that depends on
the seed, the candidates or the config.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .config import PipelineConfig
from .corpus import RawPage, SearchProvider
from .dom import DomTree, parse_html
from .text import TokenIndex
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
    # (lo, before, after, hi): the window is text[lo:before] and
    # text[after:hi] of the rendered text of the page at `source_url`.
    window: tuple[int, int, int, int]


class ParsedPage:
    """What mining derives from one fetched page whatever the seed: its
    tree and, built on first use, the token index of its rendered text,
    which only the concept stage reads."""

    __slots__ = ("tree", "_tokens")

    def __init__(self, tree: DomTree):
        self.tree = tree
        self._tokens: TokenIndex | None = None

    def token_index(self) -> TokenIndex:
        """The token index of the page's rendered text, built on the first call."""
        if self._tokens is None:
            self._tokens = TokenIndex(self.tree.visible_text())
        return self._tokens


# RawPage (by identity) -> its ParsedPage; an entry goes when its page does.
_PARSED: WeakKeyDictionary[RawPage, ParsedPage] = WeakKeyDictionary()


def parsed_page(page: RawPage) -> ParsedPage:
    """`page`'s ParsedPage, its tree from `parse_html` on the first call
    for this page object.

    Workers that fetch one page at once may each parse it, and the last
    to finish keeps its ParsedPage in the table: each is a function of
    the page alone, so every caller gets an equal one and no lock is
    needed.
    """
    parsed = _PARSED.get(page)
    if parsed is None:
        parsed = _PARSED[page] = ParsedPage(parse_html(page.html))
    return parsed


@dataclass
class ExpandResult:
    weblists: list[WebList]  # sorted by list id
    pages: dict[str, ParsedPage]  # URL -> each processed page, in fetch order
    queries_run: list[str]  # every expansion query, in the order run
    wrappers_learned: int


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
) -> tuple[int, int, int, int]:
    """The rendered bounds (lo, before, after, hi) of the `window` (at least
    1) rendered characters before a list's first span and after its last."""
    before, after = tree.rendered_offset(first_start), tree.rendered_offset(last_end)
    hi = min(len(tree.visible_text()), after + window)
    return max(0, before - window), before, after, hi


def window_text(text: str, window: tuple[int, int, int, int]) -> str:
    """A list's context: the two halves of its `window` on its page's
    rendered `text`, joined by a space and stripped."""
    lo, before, after, hi = window
    return (text[lo:before] + " " + text[after:hi]).strip()


def harvest_page(
    url: str, tree: DomTree, terms: tuple[str, ...], cfg: PipelineConfig
) -> tuple[list[WebList], int]:
    """Learn wrappers for `terms` (the seed, then the initial candidates) on
    the page at `url` and turn their spans into WebLists.

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
        window = _context_window(tree, spans[0][0], spans[-1][1], cfg.context_window)
        # Positional: keyword arguments cost a page of many lists measurably more.
        lists.append(WebList(weblist_id(url, wrapper), tuple(terms), url, wrapper, window))
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
        weblists=[], pages={}, queries_run=expansion_queries(seed, candidates),
        wrappers_learned=0,
    )
    for query in result.queries_run:
        for hit in provider.search(query, cfg.pages_per_query):
            if hit.url in result.pages:
                continue
            page = result.pages[hit.url] = parsed_page(provider.fetch_page(hit.url))
            lists, learned = harvest_page(hit.url, page.tree, terms, cfg)
            result.wrappers_learned += learned
            result.weblists.extend(lists)

    result.weblists.sort(key=lambda wl: wl.id)
    return result
