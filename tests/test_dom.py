import string
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ctms import dom
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


def iter_nodes(tree: DomTree):
    """Every node of the tree in document order (preorder)."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def naive_node(tree: DomTree, pos: int) -> DomNode:
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
    return best


def naive_path(tree: DomTree, pos: int) -> str:
    return tree.node_path(naive_node(tree, pos))


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


def test_close_tag_name_stops_at_whitespace_or_angle_bracket():
    # "</b<i>" and "</b\x1c...>" both close the <b>: the name is "b".
    for close in ("</b<i>", "</b\x1cjunk>"):
        tree = parse_html("<b>x" + close + "y")
        assert [c.tag for c in tree.root.children] == ["b", TEXT_TAG], close
        assert tree.path_at(tree.source.index("y")) == "#document/#text"


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


def test_roundtrip_on_deeply_nested_page():
    depth = 5000
    tree = parse_html("<div>" * depth + "x" + "</div>" * depth)
    segments = tree.cover_segments()
    assert _roundtrip(tree) == tree.source
    # Each div owns its open and close tag; the text node owns "x".
    assert len(segments) == 2 * depth + 1
    node, a, b = segments[depth]
    assert node.tag == TEXT_TAG and tree.source[a:b] == "x"


def test_stray_close_tags_after_deep_nesting():
    # n unmatched close tags under n open elements: each is swallowed by
    # the innermost div without a scan of the stack.
    n = 8000
    tree = parse_html("<div>" * n + "x" + "</span>" * n)
    segments = tree.cover_segments()
    assert _roundtrip(tree) == tree.source
    # n open tags, the text "x", and the stray close tags as one uncovered
    # tail of the innermost div.
    assert len(segments) == n + 2
    node, a, b = segments[n]
    assert node.tag == TEXT_TAG and tree.source[a:b] == "x"
    tail, a, b = segments[n + 1]
    assert tail.tag == "div" and tail is node.parent
    assert tree.source[a:b] == "</span>" * n and b == len(tree.source)
    assert tree.path_at(tree.source.index("x")) == "#document" + "/div" * n + "/#text"


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


def _scan_open_match(stack, open_count, name):
    """The matching open element found by scanning the whole stack, counts ignored."""
    for depth in range(len(stack) - 1, 0, -1):
        if stack[depth].tag == name:
            return depth
    return -1


def stack_scan_parse(html: str) -> DomTree:
    """Reference parser: `parse_html` with every close tag matched by `_scan_open_match`."""
    with mock.patch.object(dom, "_open_match", _scan_open_match):
        return parse_html(html)


def _shape(node: DomNode):
    return (node.tag, node.start, node.end, node.raw, [_shape(c) for c in node.children])


# Open and close tags of nesting, sibling-closing and void elements, with
# close tags that match nothing open and constructs that are only text.
close_soup = st.lists(
    st.one_of(
        st.sampled_from(["div", "b", "li", "p", "td", "th", "br", "B"]).map("<{}>".format),
        st.sampled_from(["div", "b", "li", "p", "td", "span", "br", "LI"]).map("</{}>".format),
        st.sampled_from(["x", " ", "<", "</ ", "</b x>"]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=400)
@given(st.one_of(tag_soup, close_soup))
def test_parse_matches_stack_scan_parser(html):
    assert _shape(parse_html(html).root) == _shape(stack_scan_parse(html).root)


def _char_loop_parse_open_tag(raw, start, stack, open_count, add_child):
    """The open-tag scan written as a loop over characters, one at a time."""
    n = len(raw)
    j = start + 1
    k = j
    while k < n and not raw[k].isspace() and raw[k] not in (">", "/"):
        k += 1
    name = raw[j:k].lower()

    # Attribute scan; attribute value spans become #attr leaves.
    attr_spans: list[tuple[int, int]] = []
    self_closing = False
    pos = k
    while pos < n:
        while pos < n and raw[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if raw[pos] == ">":
            pos += 1
            break
        if raw.startswith("/>", pos):
            self_closing = True
            pos += 2
            break
        if raw[pos] == "/":
            pos += 1
            continue
        # attribute name
        a = pos
        while pos < n and not raw[pos].isspace() and raw[pos] not in ("=", ">", "/"):
            pos += 1
        if pos == a:
            pos += 1
            continue
        while pos < n and raw[pos].isspace():
            pos += 1
        if pos < n and raw[pos] == "=":
            pos += 1
            while pos < n and raw[pos].isspace():
                pos += 1
            if pos < n and raw[pos] in ('"', "'"):
                quote = raw[pos]
                v = pos + 1
                closeq = raw.find(quote, v)
                if closeq == -1:
                    closeq = n
                if closeq > v:
                    attr_spans.append((v, closeq))
                pos = min(closeq + 1, n)
            else:
                v = pos
                while pos < n and not raw[pos].isspace() and raw[pos] != ">":
                    pos += 1
                if pos > v:
                    attr_spans.append((v, pos))

    tag_end = pos

    # Implicit close of a same-group sibling (<li> after unclosed <li> etc).
    closers = dom._SIBLING_CLOSERS.get(name)
    if closers and stack[-1].tag in closers and len(stack) > 1:
        stack[-1].end = start
        open_count[stack.pop().tag] -= 1

    elem = add_child(name, start, tag_end)
    for a, b in attr_spans:
        child = DomNode(dom.ATTR_TAG, a, b, parent=elem)
        elem.children.append(child)

    if self_closing or name in dom.VOID_ELEMENTS:
        return tag_end

    if name in dom.RAW_TEXT_ELEMENTS:
        # Raw-text body: scan for the matching close tag, case-insensitive.
        close_tag = dom._RAW_TEXT_CLOSE[name].search(raw, tag_end)
        if close_tag is None:
            if tag_end < n:
                body = DomNode(TEXT_TAG, tag_end, n, parent=elem, raw=True)
                elem.children.append(body)
            elem.end = n
            return n
        body_end = close_tag.start()
        if body_end > tag_end:
            body = DomNode(TEXT_TAG, tag_end, body_end, parent=elem, raw=True)
            elem.children.append(body)
        close_gt = raw.find(">", body_end)
        end = n if close_gt == -1 else close_gt + 1
        elem.end = end
        return end

    stack.append(elem)
    open_count[name] += 1
    return tag_end


def char_loop_parse(html: str) -> DomTree:
    """Reference parser: `parse_html` with open tags scanned by `_char_loop_parse_open_tag`."""
    with mock.patch.object(dom, "_parse_open_tag", _char_loop_parse_open_tag):
        return parse_html(html)


# Open tags whose attributes mix `=`, both quote kinds (closed or not),
# stray and self-closing slashes, `<` inside names, and whitespace that
# `str.isspace` accepts beyond ASCII; then the same pieces loose.
spaces = ["", " ", "\t", "\n", "\x0b", "\x1c", "\xa0", "　"]
attribute = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(spaces[1:]),
        st.sampled_from(["x", "id", "a<b", "宏", "/", "=", "'", ""]),
        st.sampled_from(spaces),
        st.sampled_from(["", "=", "=="]),
        st.sampled_from(spaces),
        st.sampled_from(['"v w"', "'v'", '""', '"', "'", '"v', "'v w", "v", "v/w", "<", ">", ""]),
    ),
)
open_tag = st.builds(
    lambda name, attrs, end: name + "".join(attrs) + end,
    st.sampled_from(["<a", "<p", "<li", "<br", "<script", "<x<y", "<B1"]),
    st.lists(attribute, max_size=4),
    st.sampled_from([">", "/>", " />", "/", ""]),
)
attr_soup = st.lists(
    st.one_of(
        open_tag,
        st.sampled_from(spaces[1:] + ["=", '"', "'", "/", "/>", ">", "<", "x", "宏", "</a>"]),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=400)
@given(st.one_of(attr_soup, tag_soup))
def test_parse_matches_char_loop_parser(html):
    assert _shape(parse_html(html).root) == _shape(char_loop_parse(html).root)


def test_parse_matches_char_loop_parser_on_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        html = corpus.pages[url].html
        assert _shape(parse_html(html).root) == _shape(char_loop_parse(html).root), url


def recursive_segments(tree: DomTree):
    """Reference partition: the depth-first walk written recursively."""
    out = []

    def walk(node):
        cursor = node.start
        for child in node.children:
            if child.start > cursor:
                out.append((node, cursor, child.start))
            walk(child)
            cursor = child.end
        if node.end > cursor:
            out.append((node, cursor, node.end))

    walk(tree.root)
    return out


@given(st.one_of(structured, tag_soup))
def test_cover_segments_match_recursive_walk(html):
    tree = parse_html(html)
    expected = [(id(n), a, b) for n, a, b in recursive_segments(tree)]
    assert [(id(n), a, b) for n, a, b in tree.cover_segments()] == expected


@given(tag_soup, st.integers(min_value=0, max_value=119))
def test_path_at_matches_naive_walk(html, pos):
    tree = parse_html(html)
    if not tree.source:
        return
    pos = pos % len(tree.source)
    assert tree.path_at(pos) == naive_path(tree, pos)
    assert tree.node_at(pos) is naive_node(tree, pos)


def test_invariants_hold_on_real_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        tree = parse_html(corpus.pages[url].html)
        assert _roundtrip(tree) == tree.source
        for pos in range(0, len(tree.source), 37):
            assert tree.path_at(pos) == naive_path(tree, pos)
            assert tree.node_at(pos) is naive_node(tree, pos)


# -- inputs that a per-character or backtracking scan would make quadratic --


def test_unterminated_quotes_parse_in_one_pass():
    # Each quote closes at the next one; the last runs to the end of input.
    n = 20001
    html = "<a" + ' x="' * n
    tree = parse_html(html)
    (elem,) = tree.root.children
    assert (elem.tag, elem.start, elem.end) == ("a", 0, len(html))
    assert len(elem.children) == n // 2
    assert {html[c.start : c.end] for c in elem.children} == {" x="}


def test_many_attribute_tags_parse_in_one_pass():
    n = 20000
    unit = "<p x=1 y='2' z>"
    tree = parse_html(unit * n)
    # Each <p> closes the one before it at its own start.
    assert [(p.tag, p.start, p.end) for p in tree.root.children] == [
        ("p", k * len(unit), (k + 1) * len(unit)) for k in range(n)
    ]
    assert all(
        [tree.source[c.start : c.end] for c in p.children] == ["1", "2"]
        for p in tree.root.children
    )


def test_megabyte_text_run_is_one_node():
    html = "宏碁, 索尼 " * 125_000  # 1,000,000 characters
    tree = parse_html(html)
    (text,) = tree.root.children
    assert (text.tag, text.start, text.end) == (TEXT_TAG, 0, len(html))
    assert tree.visible_text() == html
    assert tree.path_at(len(html) - 1) == "#document/#text"


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
    nodes = sorted((n for n in iter_nodes(tree) if n.tag == TEXT_TAG), key=lambda n: n.start)
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
