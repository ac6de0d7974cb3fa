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
every experiment replayable byte for byte.  Mining does not catch what a
provider raises: an error from `search` or `fetch_page` (such as
`MissingPageError`) propagates out of `mine`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol


@dataclass(frozen=True)
class SearchHit:
    """One ranked result for an exact-phrase query."""

    rank: int
    title: str
    snippet: str
    url: str


@dataclass(frozen=True)
class RawPage:
    """Cached page bytes decoded to text."""

    html: str


class FixtureError(ValueError):
    """Malformed or inconsistent fixture bundle."""


class MissingPageError(LookupError):
    """A URL was requested that the provider cannot resolve."""

    def __init__(self, url: str):
        super().__init__(f"no cached page for url: {url}")
        self.url = url


class SearchProvider(Protocol):
    def search(self, query: str, max_results: int) -> list[SearchHit]: ...

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


def _hit(entry: dict) -> SearchHit:
    """One manifest hit, as stored; TypeError unless each field has its type.

    Nothing is coerced: a null title would be mined as the text "None",
    and a rank of 1.9 would pass as 1.  An empty url names no page that
    a provider can fetch, so it is a FixtureError.
    """
    rank, texts = entry["rank"], (entry["title"], entry["snippet"], entry["url"])
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise TypeError
    if not all(isinstance(t, str) for t in texts):
        raise TypeError
    if not entry["url"]:
        raise FixtureError(f"hit has an empty url: {entry!r}")
    return SearchHit(rank, *texts)


def load_fixture(path: str | Path) -> FixtureCorpus:
    """Load and validate a fixture bundle directory.

    A page file must lie under the bundle, after symlinks are resolved, and
    its name hold no NUL byte; a page or hit url must be non-empty.  A
    manifest nested too deeply to parse is malformed, as is any other
    manifest that is not JSON.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FixtureError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FixtureError(f"manifest.json is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FixtureError("manifest.json must be a JSON object")

    pages: dict[str, RawPage] = {}
    bundle = root.resolve()
    for entry in _entries(manifest, "pages"):
        try:
            url, rel = entry["url"], entry["file"]
        except (TypeError, KeyError):
            raise FixtureError(f"bad page entry: {entry!r}") from None
        # A NUL byte names no file; os.path.realpath would raise on it.
        if not isinstance(url, str) or not isinstance(rel, str) or not url or "\0" in rel:
            raise FixtureError(f"bad page entry: {entry!r}")
        if url in pages:
            raise FixtureError(f"page url {url!r} is listed twice")
        page_path = root / rel
        # realpath, unlike Path.resolve, leaves a symlink loop for the
        # is_file test below to report as missing.
        inside = Path(os.path.realpath(page_path)).is_relative_to(bundle)
        if Path(rel).is_absolute() or ".." in Path(rel).parts or not inside:
            raise FixtureError(f"page file for {url!r} lies outside the bundle: {rel!r}")
        if not page_path.is_file():
            raise FixtureError(f"page file missing for {url!r}: {page_path}")
        try:
            html = page_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FixtureError(f"page file for {url!r} is not UTF-8: {exc}") from None
        pages[url] = RawPage(html=html)

    queries: dict[str, tuple[SearchHit, ...]] = {}
    for entry in _entries(manifest, "queries"):
        try:
            query = entry["query"]
            if not isinstance(query, str):
                raise TypeError
            hits = tuple(_hit(h) for h in entry["hits"])
        except (TypeError, KeyError):
            raise FixtureError(f"bad query entry: {entry!r}") from None
        if query in queries:
            raise FixtureError(f"query {query!r} is listed twice")
        queries[query] = hits

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

    def search(self, query: str, max_results: int) -> list[SearchHit]:
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
