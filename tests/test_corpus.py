import importlib.util
import json
from pathlib import Path

import pytest

from ctms.corpus import (
    FixtureCorpus,
    FixtureError,
    FixtureProvider,
    MissingPageError,
    RawPage,
    load_fixture,
)


def make_bundle(tmp_path, queries, pages):
    (tmp_path / "pages").mkdir(exist_ok=True)
    entries = []
    for url, html in pages.items():
        name = f"pages/{abs(hash(url)) % 10**8}.html"
        (tmp_path / name).write_text(html, encoding="utf-8")
        entries.append({"url": url, "file": name})
    manifest = {"queries": queries, "pages": entries}
    (tmp_path / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False), encoding="utf-8"
    )
    return tmp_path


def hit(rank, url, title="t", snippet="s"):
    return {"rank": rank, "title": title, "snippet": snippet, "url": url}


def test_search_returns_stored_list(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "宝马比", "hits": [hit(1, "u1"), hit(2, "u2")]}],
        {"u1": "<p>a</p>", "u2": "<p>b</p>"},
    )
    provider = FixtureProvider(load_fixture(bundle))
    hits = provider.search("宝马比", 200)
    assert [h.url for h in hits] == ["u1", "u2"]
    assert [h.rank for h in hits] == [1, 2]


def test_unknown_query_is_empty_not_error(tmp_path):
    bundle = make_bundle(tmp_path, [], {})
    provider = FixtureProvider(load_fixture(bundle))
    assert provider.search("不存在", 200) == []


def test_search_truncates_to_max_results(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "q", "hits": [hit(i, f"u{i}") for i in range(1, 6)]}],
        {f"u{i}": "<p>x</p>" for i in range(1, 6)},
    )
    provider = FixtureProvider(load_fixture(bundle))
    assert [h.url for h in provider.search("q", 3)] == ["u1", "u2", "u3"]


def test_fetch_page_and_missing_page(tmp_path):
    bundle = make_bundle(tmp_path, [], {"u1": "<p>hello</p>"})
    provider = FixtureProvider(load_fixture(bundle))
    page = provider.fetch_page("u1")
    assert page.html == "<p>hello</p>"
    # deterministic: same object content on repeat calls
    assert provider.fetch_page("u1").html == page.html
    with pytest.raises(MissingPageError) as err:
        provider.fetch_page("nope")
    assert err.value.url == "nope"


def test_dangling_url_fails_validation(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "q", "hits": [hit(1, "missing-url")]}],
        {},
    )
    with pytest.raises(FixtureError, match="missing-url"):
        load_fixture(bundle)


def test_noncontiguous_ranks_rejected(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "q", "hits": [hit(1, "u1"), hit(3, "u1")]}],
        {"u1": "<p>x</p>"},
    )
    with pytest.raises(FixtureError, match="contiguous"):
        load_fixture(bundle)


def test_repeated_query_is_rejected_by_name(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "宝马比", "hits": []}, {"query": "宝马比", "hits": [hit(1, "u1")]}],
        {"u1": "<p>x</p>"},
    )
    with pytest.raises(FixtureError, match="宝马比"):
        load_fixture(bundle)


def test_repeated_page_url_is_rejected_by_name(tmp_path):
    bundle = make_bundle(tmp_path, [], {"u1": "<p>x</p>"})
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    manifest["pages"].append(dict(manifest["pages"][0]))
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(FixtureError, match="u1"):
        load_fixture(bundle)


def test_empty_hit_url_is_rejected_as_empty(tmp_path):
    # Not reported as a dangling url: no page can be listed under "".
    bundle = make_bundle(tmp_path, [{"query": "q", "hits": [hit(1, "")]}], {"u1": "<p>x</p>"})
    with pytest.raises(FixtureError, match="hit has an empty url"):
        load_fixture(bundle)


def test_url_repeated_in_one_hit_list_is_allowed(tmp_path):
    bundle = make_bundle(
        tmp_path,
        [{"query": "q", "hits": [hit(1, "u1"), hit(2, "u1")]}],
        {"u1": "<p>x</p>"},
    )
    assert [h.url for h in load_fixture(bundle).queries["q"]] == ["u1", "u1"]


def test_empty_bundle_is_valid(tmp_path):
    corpus = load_fixture(make_bundle(tmp_path, [], {}))
    assert corpus.queries == {} and corpus.pages == {}


def test_malformed_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(FixtureError, match="JSON"):
        load_fixture(tmp_path)


def test_empty_page_rejected():
    corpus = FixtureCorpus(queries={}, pages={"u": RawPage("")})
    with pytest.raises(FixtureError, match="empty"):
        corpus.validate()


def test_closure_holds_for_all_hits(miniweb_provider):
    # every url reachable from any stored hit must fetch successfully
    corpus = miniweb_provider._corpus
    for hits in corpus.queries.values():
        for h in hits:
            assert miniweb_provider.fetch_page(h.url).html


def test_search_determinism(miniweb_provider):
    a = miniweb_provider.search("华盛顿和", 200)
    b = miniweb_provider.search("华盛顿和", 200)
    assert a == b


def _built_and_committed(script_name, committed_path, tmp_path, monkeypatch):
    """The files a fixture builder writes into `tmp_path`, and those committed."""
    script = Path(__file__).resolve().parent.parent / "scripts" / script_name
    spec = importlib.util.spec_from_file_location(script.stem, script)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    monkeypatch.setattr(builder, "OUT", tmp_path)
    builder.build_bundle()

    def files(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }

    return files(tmp_path), files(committed_path)


def test_fixture_builder_regenerates_the_committed_miniweb_bundle(
    tmp_path, monkeypatch, miniweb_path
):
    built, committed = _built_and_committed(
        "build_miniweb_fixture.py", miniweb_path, tmp_path, monkeypatch
    )
    assert len(committed) == 26
    assert built == committed


def test_fixture_builder_regenerates_the_committed_hostile_bundle(
    tmp_path, monkeypatch, hostile_path
):
    built, committed = _built_and_committed(
        "build_hostile_fixture.py", hostile_path, tmp_path, monkeypatch
    )
    assert len(committed) == 8
    assert built == committed
