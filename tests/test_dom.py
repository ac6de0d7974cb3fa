import string

import pytest
from hypothesis import given, strategies as st

from ctms.dom import TEXT_TAG, DomNode, DomTree, parse_html

FIG_FRAGMENT = """<div class="cur_dh brand">
  <div class="dh border menu_div" id="menu_1">
    <div class="brand_logo clearfix">
      <a href="http://ideapad.zol.com.cn/" class="all_logo" target="_blank">
        <span>宏碁</span>
      </a>
      <a href="http://haseebbs.zol.com.cn/" class="all_logo" target="_blank">
        <span>索尼</span>
      </a>
      <a href="http://hpbbbs.zol.com.cn/" class="all_logo" target="_blank">
        <span>东芝</span>
      </a>
      <a href="http://asusbbs.zol.com.cn/" class="all_logo" target="_blank">
        <span>戴尔</span>
      </a>
    </div>
  </div>
</div>"""


def naive_path(tree: DomTree, pos: int) -> str:
    """Oracle: exhaustive walk for the deepest node containing pos."""
    best = None
    best_depth = -1

    def walk(node: DomNode, depth: int) -> None:
        nonlocal best, best_depth
        if node.start <= pos < node.end and depth > best_depth:
            best, best_depth = node, depth
        for child in node.children:
            walk(child, depth + 1)

    walk(tree.root, 0)
    return tree.node_path(best)


def test_simple_nesting():
    tree = parse_html("<a><span>X</span></a>")
    assert tree.path_at(tree.source.index("X")) == "#document/a/span/#text"


def test_markup_chars_belong_to_their_element():
    tree = parse_html("<a><span>X</span></a>")
    assert tree.path_at(0) == "#document/a"
    assert tree.path_at(tree.source.index("</span>")) == "#document/a/span"


def test_plain_text_document():
    tree = parse_html("plain text")
    assert tree.path_at(5) == "#document/#text"


def test_same_text_run_same_path():
    tree = parse_html("<p>hello world</p>")
    a = tree.path_at(tree.source.index("h"))
    b = tree.path_at(tree.source.index("d"))
    assert a == b == "#document/p/#text"


def test_fig_fragment_brand_paths():
    tree = parse_html(FIG_FRAGMENT)
    for brand in ("宏碁", "索尼", "东芝", "戴尔"):
        path = tree.path_at(tree.source.index(brand))
        assert path.endswith("div/div/div/a/span/#text"), path


def test_find_occurrences_on_fragment():
    tree = parse_html(FIG_FRAGMENT)
    occs = tree.find_occurrences({"宏碁", "索尼"})
    assert len(occs) == 2
    assert all(o.path.endswith("a/span/#text") for o in occs)
    assert occs[0].pos < occs[1].pos


def test_find_occurrences_absent_term():
    tree = parse_html("<p>abc</p>")
    assert tree.find_occurrences({"zz"}) == []


def test_find_occurrences_overlapping_terms():
    tree = parse_html("<p>abab</p>")
    occs = tree.find_occurrences({"ab", "ba"})
    found = {(o.term, o.pos) for o in occs}
    assert found == {("ab", 3), ("ab", 5), ("ba", 4)}


def test_attr_values_are_attr_nodes():
    tree = parse_html('<a href="/x" title=plain>t</a>')
    assert tree.path_at(tree.source.index("/x")) == "#document/a/#attr"
    assert tree.path_at(tree.source.index("plain")) == "#document/a/#attr"


def test_script_and_style_flagged_raw():
    tree = parse_html("<script>var x = '索尼';</script><p>索尼</p>")
    occs = tree.find_occurrences({"索尼"})
    assert [o.in_raw for o in occs] == [True, False]


def test_unclosed_tags_close_at_parent_boundary():
    tree = parse_html("<div><b>bold<i>both</div>tail")
    assert tree.path_at(tree.source.index("both")) == "#document/div/b/i/#text"
    assert tree.path_at(tree.source.index("tail")) == "#document/#text"


def test_stray_close_tag_ignored():
    tree = parse_html("<p>a</div>b</p>")
    assert tree.path_at(tree.source.index("a")) == "#document/p/#text"
    assert tree.path_at(tree.source.index("b")) == "#document/p/#text"


def test_bare_angle_bracket_is_text():
    tree = parse_html("<p>3 < 5 and 7 > 2</p>")
    assert tree.path_at(tree.source.index("3")) == "#document/p/#text"


def test_void_elements_do_not_nest():
    tree = parse_html("<p>a<br>b</p>")
    assert tree.path_at(tree.source.index(">b") + 1) == "#document/p/#text"


def test_comment_and_doctype():
    tree = parse_html("<!doctype html><!-- c --><p>x</p>")
    assert tree.path_at(0) == "#document/#directive"
    assert tree.path_at(tree.source.index("c ")) == "#document/#comment"


def test_visible_text_skips_markup_and_script():
    tree = parse_html("<h1>标题</h1><script>junk()</script><p>正文</p>")
    text = tree.visible_text()
    assert "标题" in text and "正文" in text
    assert "junk" not in text and "<" not in text


def test_out_of_range_position():
    tree = parse_html("<p>x</p>")
    with pytest.raises(IndexError):
        tree.path_at(len(tree.source))
    with pytest.raises(IndexError):
        tree.path_at(-1)


def _roundtrip(tree: DomTree) -> str:
    return "".join(tree.source[a:b] for _, a, b in tree.cover_segments())


def test_roundtrip_on_fragment():
    tree = parse_html(FIG_FRAGMENT)
    assert _roundtrip(tree) == tree.source


tag_soup = st.text(
    alphabet=list(string.ascii_lowercase[:6]) + list("<>/=\"' !-") + ["宏", "碁"],
    max_size=120,
)
structured = st.recursive(
    st.sampled_from(["text", "宏碁", "a < b", ""]),
    lambda inner: st.builds(
        lambda tag, kids: f"<{tag} id='x'>" + "".join(kids) + f"</{tag}>",
        st.sampled_from(["div", "span", "a", "li", "p"]),
        st.lists(inner, max_size=3),
    ),
    max_leaves=8,
)


@given(structured)
def test_roundtrip_property_structured(html):
    tree = parse_html(html)
    assert _roundtrip(tree) == tree.source


@given(tag_soup)
def test_roundtrip_property_soup(html):
    tree = parse_html(html)
    assert _roundtrip(tree) == tree.source


@given(tag_soup, st.integers(min_value=0, max_value=119))
def test_path_at_matches_naive_walk(html, pos):
    tree = parse_html(html)
    if not tree.source:
        return
    pos = pos % len(tree.source)
    assert tree.path_at(pos) == naive_path(tree, pos)


def test_invariants_hold_on_real_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        tree = parse_html(corpus.pages[url].html)
        assert _roundtrip(tree) == tree.source
        for pos in range(0, len(tree.source), 37):
            assert tree.path_at(pos) == naive_path(tree, pos)


# -- raw-text bodies ----------------------------------------------------------

DOTTED_I_PAGE = (
    "İ" * 40
    + "<script>x</script><ul><li>林肯</li><li>纽约</li></ul><script>y</script>"
)


def test_list_after_script_stays_visible_behind_wide_lowercase_chars():
    # "İ".lower() is two code points; the close-tag search must still use
    # offsets into the source itself.
    tree = parse_html(DOTTED_I_PAGE)
    text = tree.visible_text()
    assert "林肯" in text and "纽约" in text
    assert "x" not in text and "y" not in text
    for term in ("林肯", "纽约"):
        assert tree.path_at(tree.source.index(term)) == "#document/ul/li/#text"
    occs = tree.find_occurrences({"林肯", "纽约"})
    assert [o.in_raw for o in occs] == [False, False]
    assert _roundtrip(tree) == tree.source


def test_uppercase_close_tag_ends_raw_body():
    tree = parse_html("<script>a()</SCRIPT><p>b</p><STYLE>c{}</Style>d")
    assert tree.visible_text() == "bd"
    assert tree.path_at(tree.source.index("b")) == "#document/p/#text"
    assert tree.path_at(tree.source.index("d")) == "#document/#text"
    assert _roundtrip(tree) == tree.source


def test_raw_body_close_tag_matches_ascii_letters_only():
    # U+017F (long s) case-folds to "s" under Unicode rules, but HTML tag
    # names are ASCII, so "</ſcript>" does not close the body.
    tree = parse_html("<script>a</ſcript><p>b</p>")
    assert tree.visible_text() == ""
    assert tree.find_occurrences({"b"})[0].in_raw
    assert _roundtrip(tree) == tree.source


# -- cached page indexes against per-query scans -----------------------------


def oracle_visible_text(tree: DomTree, lo: int = 0, hi: int | None = None) -> str:
    """Oracle: clip every non-raw text node to the range, one node at a time."""
    if hi is None:
        hi = len(tree.source)
    nodes = sorted((n for n in tree.iter_nodes() if n.tag == TEXT_TAG), key=lambda n: n.start)
    pieces = []
    for node in nodes:
        if node.raw:
            continue
        a, b = max(node.start, lo), min(node.end, hi)
        if a < b:
            pieces.append(tree.source[a:b])
    return "".join(pieces)


raw_block = st.builds(
    lambda tag, body, close: f"<{tag}>{body}{close}",
    st.sampled_from(["script", "style", "SCRIPT", "script type='x'"]),
    st.lists(st.sampled_from(list("ab<>/ 宏İ") + ["</scr", "</p>"]), max_size=8).map("".join),
    st.sampled_from(["</script>", "</SCRIPT>", "</style>", "</Style >", ""]),
)
raw_page = st.lists(
    st.one_of(structured, raw_block, st.text(alphabet=list("ab <>") + ["İ", "宏"], max_size=6)),
    max_size=5,
).map("".join)


@given(raw_page, st.integers(min_value=-2, max_value=200), st.integers(min_value=-2, max_value=200))
def test_visible_text_ranges_match_per_node_oracle(html, lo, hi):
    tree = parse_html(html)
    n = len(tree.source)
    lo, hi = lo % (n + 4) - 2, hi % (n + 4) - 2
    assert tree.visible_text() == oracle_visible_text(tree)
    assert tree.visible_text(0, n) == oracle_visible_text(tree, 0, n)
    # Sweep one end over every position (inside text, raw and markup, and
    # past both ends, so lo >= hi occurs) with the other end held fixed.
    for pos in range(-1, n + 2):
        assert tree.visible_text(pos, hi) == oracle_visible_text(tree, pos, hi)
        assert tree.visible_text(lo, pos) == oracle_visible_text(tree, lo, pos)


@given(st.one_of(raw_page, tag_soup))
def test_markup_positions_match_brute_force_scan(html):
    tree = parse_html(html)
    src = tree.source
    assert tree.markup_positions() == [i for i, ch in enumerate(src) if ch in "<>"]
    for pos in range(len(src) + 1):
        expected = next((i for i in range(pos, len(src)) if src[i] in "<>"), len(src))
        assert tree.next_markup(pos) == expected
