"""Search providers and the offline fixture corpus.

A fixture bundle is a directory holding ``manifest.json`` plus one raw HTML
file per page.  The manifest maps exact query strings to ranked hit lists
and page URLs to files::

    {
      "queries": [{"query": "...", "hits": [{"rank": 1, "title": "...",
                                             "snippet": "...", "url": "..."}]}],
      "pages":   [{"url": "...", "file": "pages/ab12cd.html"}]
    }

Fixture lookups are deterministic and never touch the network, which makes
every experiment replayable byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol


@dataclass(frozen=True)
class SearchHit:
    """One ranked result for an exact-phrase query."""

    query: str
    rank: int
    title: str
    snippet: str
    url: str


@dataclass(frozen=True)
class RawPage:
    """Cached page bytes decoded to text."""

    url: str
    html: str


class FixtureError(ValueError):
    """Malformed or inconsistent fixture bundle."""


class MissingPageError(LookupError):
    """A URL was requested that the provider cannot resolve."""

    def __init__(self, url: str):
        super().__init__(f"no cached page for url: {url}")
        self.url = url


class TransientSearchError(RuntimeError):
    """Retryable transport failure; carries the query that failed."""

    def __init__(self, query: str, cause: str):
        super().__init__(f"search failed for query {query!r}: {cause}")
        self.query = query


class SearchProvider(Protocol):
    def search(self, query: str, max_results: int = 200) -> list[SearchHit]: ...

    def fetch_page(self, url: str) -> RawPage: ...


@dataclass
class FixtureCorpus:
    """Immutable-after-load corpus backing the fixture provider."""

    queries: dict[str, tuple[SearchHit, ...]]
    pages: dict[str, RawPage]

    def validate(self) -> None:
        dangling: list[str] = []
        for query, hits in self.queries.items():
            ranks = [h.rank for h in hits]
            if ranks != list(range(1, len(ranks) + 1)):
                raise FixtureError(
                    f"query {query!r}: ranks must be contiguous from 1, got {ranks}"
                )
            for hit in hits:
                if hit.url not in self.pages:
                    dangling.append(hit.url)
        if dangling:
            listing = ", ".join(sorted(set(dangling)))
            raise FixtureError(f"hits reference missing pages: {listing}")
        for url, page in self.pages.items():
            if not page.html:
                raise FixtureError(f"page {url!r} is empty")


def _entries(manifest: dict, key: str) -> list:
    entries = manifest.get(key, [])
    if not isinstance(entries, list):
        raise FixtureError(f"manifest {key!r} must be a list")
    return entries


def load_fixture(path: str | Path) -> FixtureCorpus:
    """Load and validate a fixture bundle directory."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FixtureError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FixtureError(f"manifest.json is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FixtureError("manifest.json must be a JSON object")

    pages: dict[str, RawPage] = {}
    for entry in _entries(manifest, "pages"):
        try:
            url, rel = entry["url"], entry["file"]
        except (TypeError, KeyError):
            raise FixtureError(f"bad page entry: {entry!r}") from None
        if not isinstance(url, str) or not isinstance(rel, str):
            raise FixtureError(f"bad page entry: {entry!r}")
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise FixtureError(f"page file for {url!r} lies outside the bundle: {rel!r}")
        page_path = root / rel
        if not page_path.is_file():
            raise FixtureError(f"page file missing for {url!r}: {page_path}")
        try:
            html = page_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FixtureError(f"page file for {url!r} is not UTF-8: {exc}") from None
        pages[url] = RawPage(url=url, html=html)

    queries: dict[str, tuple[SearchHit, ...]] = {}
    for entry in _entries(manifest, "queries"):
        try:
            query = entry["query"]
            hits = tuple(
                SearchHit(
                    query=query,
                    rank=int(h["rank"]),
                    title=str(h["title"]),
                    snippet=str(h["snippet"]),
                    url=str(h["url"]),
                )
                for h in entry["hits"]
            )
            queries[query] = hits
        except (TypeError, KeyError, ValueError):
            raise FixtureError(f"bad query entry: {entry!r}") from None

    corpus = FixtureCorpus(queries=queries, pages=pages)
    corpus.validate()
    return corpus


class FixtureProvider:
    """Deterministic provider over a loaded fixture corpus.

    Read-only after construction, so instances are safe to share between
    concurrent workers.
    """

    def __init__(self, corpus: FixtureCorpus):
        self._corpus = corpus

    def search(self, query: str, max_results: int = 200) -> list[SearchHit]:
        if not query:
            raise ValueError("query must be non-empty")
        if max_results < 1:
            raise ValueError("max_results must be >= 1")
        hits = self._corpus.queries.get(query, ())
        return list(hits[:max_results])

    def fetch_page(self, url: str) -> RawPage:
        if not url:
            raise ValueError("url must be non-empty")
        page = self._corpus.pages.get(url)
        if page is None:
            raise MissingPageError(url)
        return page
