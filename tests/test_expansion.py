import json

from hypothesis import given, settings, strategies as st

from ctms.config import PipelineConfig
from ctms.corpus import FixtureProvider, load_fixture
from ctms.dom import parse_html
from ctms.expansion import (
    _context_window,
    expand,
    expansion_queries,
    weblist_id,
    window_text,
)
from ctms.wrappers import Wrapper

from test_dom import rendered_text

NAV_PAGE = """<html><body>
<h1>品牌导航</h1>
<ul>
<li><a href="/brand/01" class="entry">宝马</a></li>
<li><a href="/brand/02" class="entry">法拉利</a></li>
<li><a href="/brand/03" class="entry">保时捷</a></li>
<li><a href="/brand/04" class="entry">奥迪</a></li>
<li><a href="/brand/05" class="entry">捷豹</a></li>
<li><a href="/brand/06" class="entry">兰博基尼</a></li>
</ul>
</body></html>
"""


def write_bundle(tmp_path, queries, pages):
    (tmp_path / "pages").mkdir()
    page_entries = []
    for i, (url, html) in enumerate(sorted(pages.items())):
        name = f"pages/page{i}.html"
        (tmp_path / name).write_text(html, encoding="utf-8")
        page_entries.append({"url": url, "file": name})
    manifest = {
        "queries": [
            {
                "query": q,
                "hits": [
                    {"rank": r, "title": "t", "snippet": "s", "url": u}
                    for r, u in enumerate(urls, start=1)
                ],
            }
            for q, urls in queries.items()
        ],
        "pages": page_entries,
    }
    (tmp_path / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False), encoding="utf-8"
    )
    return FixtureProvider(load_fixture(tmp_path))


def test_expansion_queries_pair_seed_with_each_candidate():
    assert expansion_queries("宝马", ("法拉利",)) == ["宝马 法拉利"]


def test_expansion_queries_follow_candidate_order():
    assert expansion_queries("s", ("a", "b", "c")) == ["s a", "s b", "s c"]


def test_empty_initial_means_no_queries():
    # `mine` never expands without a candidate; no candidate, no query.
    assert expansion_queries("s", ()) == []


def test_mini_expansion_harvests_full_navigation_list(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"]},
        {"http://x/nav": NAV_PAGE},
    )
    result = expand("宝马", ("法拉利", "奥迪"), provider, PipelineConfig())
    assert list(result.pages) == ["http://x/nav"]
    harvested = {wl.terms for wl in result.weblists}
    # at least one wrapper generalizes to the full six-brand list
    assert ("宝马", "法拉利", "保时捷", "奥迪", "捷豹", "兰博基尼") in harvested


def test_no_page_with_two_seeds_yields_nothing(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/solo"]},
        {"http://x/solo": "<p>只有宝马出现。</p>"},
    )
    result = expand("宝马", ("法拉利",), provider, PipelineConfig())
    assert result.weblists == []


def test_page_shared_by_two_queries_processed_once(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"], "宝马 奥迪": ["http://x/nav"]},
        {"http://x/nav": NAV_PAGE},
    )
    result = expand("宝马", ("法拉利", "奥迪"), provider, PipelineConfig())
    assert list(result.pages) == ["http://x/nav"]


def test_weblists_sorted_by_id_and_deterministic(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"], "宝马 奥迪": ["http://x/nav2"]},
        {"http://x/nav": NAV_PAGE, "http://x/nav2": NAV_PAGE.replace("品牌", "车型")},
    )
    first = expand("宝马", ("法拉利", "奥迪"), provider, PipelineConfig())
    second = expand("宝马", ("法拉利", "奥迪"), provider, PipelineConfig())
    ids = [wl.id for wl in first.weblists]
    assert ids == sorted(ids)
    assert first.weblists == second.weblists
    assert list(first.pages.items()) == list(second.pages.items())


def test_weblist_terms_are_distinct_and_min_two(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"]},
        {"http://x/nav": NAV_PAGE},
    )
    result = expand("宝马", ("法拉利",), provider, PipelineConfig())
    for wl in result.weblists:
        assert len(wl.terms) >= 2
        assert len(set(wl.terms)) == len(wl.terms)


def test_context_window_contains_surrounding_text(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"]},
        {"http://x/nav": NAV_PAGE},
    )
    result = expand("宝马", ("法拉利",), provider, PipelineConfig())
    assert result.weblists
    for wl in result.weblists:
        context = window_text(result.pages[wl.source_url], wl.window)
        assert "品牌导航" in context
        assert "<" not in context


def test_weblist_id_stable():
    w = Wrapper("<a>", "</a>", "p/#text")
    assert weblist_id("http://x", w) == weblist_id("http://x", w)
    assert weblist_id("http://x", w) != weblist_id("http://y", w)


def test_every_weblist_covers_two_extended_seeds(tmp_path):
    provider = write_bundle(
        tmp_path,
        {"宝马 法拉利": ["http://x/nav"], "宝马 奥迪": ["http://x/nav2"]},
        {"http://x/nav": NAV_PAGE, "http://x/nav2": NAV_PAGE.replace("品牌", "车型")},
    )
    terms = ("宝马", "法拉利", "奥迪")
    result = expand(terms[0], terms[1:], provider, PipelineConfig())
    assert result.weblists
    for wl in result.weblists:
        assert len(set(terms) & set(wl.terms)) >= 2


# Pages of tags, comments and script/style bodies around text, the empty
# page included: rendered text with gaps of every kind.
context_soup = st.lists(
    st.sampled_from(
        ["<p>", "</p>", "<li>", "<a href=\"v\">", "</a>", "<br>", "<!-- c -->", "<!--", "-->"]
        + ["<script>x</script>", "<style>y", "</style>", "<SCRIPT>", "a", "宏碁", " ", "\n", "<"]
    ),
    max_size=12,
).map("".join)


@settings(max_examples=150)
@given(context_soup)
def test_context_window_slices_the_rendered_halves(html):
    # The window is `window` rendered characters from each half of the page
    # around the list, for every list range and window: its bounds slice
    # those halves from the page's rendered text, and `window_text` joins them.
    tree = parse_html(html)
    n = len(tree.source)
    text = tree.visible_text()
    for window in (1, 2, 7, 200):
        for a in range(n + 1):
            before = rendered_text(tree, 0, a)[-window:]
            for b in range(a, n + 1):
                after = rendered_text(tree, b, n)[:window]
                bounds = lo, mid_a, mid_b, hi = _context_window(tree, a, b, window)
                assert (text[lo:mid_a], text[mid_b:hi]) == (before, after), (a, b, window)
                assert 0 <= lo <= mid_a <= mid_b <= hi <= len(text), (a, b, window)
                context = window_text(text, bounds)
                assert context == (before + " " + after).strip(), (a, b, window)
