import string
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ctms import dom
from ctms.dom import ATTR_TAG, COMMENT_TAG, DIRECTIVE_TAG, ROOT_TAG, TEXT_TAG, DomTree, parse_html

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


class Node:
    """A linked tree node: what the oracle parsers build, and what `rebuild`
    makes of a parsed page's flat arrays."""

    def __init__(self, tag: str, start: int, end: int, raw: bool = False, index: int = -1):
        self.tag, self.start, self.end, self.raw = tag, start, end, raw
        self.children: list[Node] = []
        self.index = index  # the node's index in the flat arrays, when rebuilt

    def add_child(self, tag: str, start: int, end: int, raw: bool = False) -> "Node":
        child = Node(tag, start, end, raw)
        self.children.append(child)
        return child


def node_tag(tree: DomTree, k: int) -> str:
    return tree.path_tag[tree.node_path[k]]


def rebuild(tree: DomTree) -> list[Node]:
    """The page's nodes, linked from the flat arrays, by index (the root first).

    A node whose parent comes after it in the arrays raises IndexError:
    the arrays must be in preorder.
    """
    nodes: list[Node] = []
    for k, parent in enumerate(tree.node_parent):
        node = Node(node_tag(tree, k), tree.node_start[k], tree.node_end[k], tree.node_raw[k], k)
        if parent >= 0:
            nodes[parent].children.append(node)
        nodes.append(node)
    return nodes


class Occurrence(NamedTuple):
    """An exact match of a term in the raw source, with its path as a string."""

    term: str
    pos: int
    path: str
    in_raw: bool


def find_occurrences(tree: DomTree, terms) -> list[Occurrence]:
    """`DomTree.occurrence_ids` with each path id spelled out by `path_string`:
    the string form the oracles compare."""
    return [
        Occurrence(term, pos, tree.path_string(path_id), raw)
        for pos, term, path_id, raw in tree.occurrence_ids(terms)
    ]


def naive_node(tree: DomTree, pos: int) -> int:
    """Oracle: exhaustive scan of the node arrays for the deepest node containing pos."""
    best, best_depth = -1, -1
    depth: list[int] = []
    for k, parent in enumerate(tree.node_parent):
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
        if tree.node_start[k] <= pos < tree.node_end[k] and depth[k] > best_depth:
            best, best_depth = k, depth[k]
    return best


def naive_path(tree: DomTree, pos: int) -> str:
    """Oracle: the tags from the deepest node up the node parent array."""
    tags = []
    k = naive_node(tree, pos)
    while k >= 0:
        tags.append(node_tag(tree, k))
        k = tree.node_parent[k]
    return "/".join(reversed(tags))


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
    occs = find_occurrences(tree, {"宏碁", "索尼"})
    assert len(occs) == 2
    assert all(o.path.endswith("a/span/#text") for o in occs)
    assert occs[0].pos < occs[1].pos


def test_find_occurrences_absent_term():
    tree = parse_html("<p>abc</p>")
    assert find_occurrences(tree, {"zz"}) == []


def test_find_occurrences_overlapping_terms():
    tree = parse_html("<p>abab</p>")
    occs = find_occurrences(tree, {"ab", "ba"})
    found = {(o.term, o.pos) for o in occs}
    assert found == {("ab", 3), ("ab", 5), ("ba", 4)}


def test_attr_values_are_attr_nodes():
    tree = parse_html('<a href="/x" title=plain>t</a>')
    assert tree.path_at(tree.source.index("/x")) == "#document/a/#attr"
    assert tree.path_at(tree.source.index("plain")) == "#document/a/#attr"


def test_script_and_style_flagged_raw():
    tree = parse_html("<script>var x = '索尼';</script><p>索尼</p>")
    occs = find_occurrences(tree, {"索尼"})
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
        assert [c.tag for c in rebuild(tree)[0].children] == ["b", TEXT_TAG], close
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


def segments(tree: DomTree) -> list[tuple[int, int, int]]:
    """The page's segment table as (node, start, end) triples."""
    ends = tree.seg_start[1:] + [len(tree.source)]
    return list(zip(tree.seg_node, tree.seg_start, ends))


def walk_segments(tree: DomTree) -> list[tuple[int, int, int]]:
    """Partition of the source by deepest node, in document order, walking
    the rebuilt tree with an explicit stack (nesting depth is unbounded)."""
    out: list[tuple[int, int, int]] = []
    root = rebuild(tree)[0]
    # (node, index of its next child, end of what is covered so far)
    stack = [(root, 0, root.start)]
    while stack:
        node, i, cursor = stack.pop()
        if i < len(node.children):
            child = node.children[i]
            if child.start > cursor:
                out.append((node.index, cursor, child.start))
            stack.append((node, i + 1, child.end))
            stack.append((child, 0, child.start))
        elif node.end > cursor:
            out.append((node.index, cursor, node.end))
    return out


def _roundtrip(tree: DomTree) -> str:
    """The source rebuilt from the node spans' partition, which must be the
    page's segment table."""
    walked = walk_segments(tree)
    assert segments(tree) == walked
    return "".join(tree.source[a:b] for _, a, b in walked)


def test_roundtrip_on_fragment():
    tree = parse_html(FIG_FRAGMENT)
    assert _roundtrip(tree) == tree.source


def test_roundtrip_on_deeply_nested_page():
    depth = 5000
    tree = parse_html("<div>" * depth + "x" + "</div>" * depth)
    table = segments(tree)
    assert _roundtrip(tree) == tree.source
    # Each div owns its open and close tag; the text node owns "x".
    assert len(table) == 2 * depth + 1
    node, a, b = table[depth]
    assert node_tag(tree, node) == TEXT_TAG and tree.source[a:b] == "x"


def test_stray_close_tags_after_deep_nesting():
    # n unmatched close tags under n open elements: each is swallowed by
    # the innermost div without a scan of the stack.
    n = 8000
    tree = parse_html("<div>" * n + "x" + "</span>" * n)
    table = segments(tree)
    assert _roundtrip(tree) == tree.source
    # n open tags, the text "x", and the stray close tags as one uncovered
    # tail of the innermost div.
    assert len(table) == n + 2
    node, a, b = table[n]
    assert node_tag(tree, node) == TEXT_TAG and tree.source[a:b] == "x"
    tail, a, b = table[n + 1]
    assert node_tag(tree, tail) == "div" and tail == tree.node_parent[node]
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


def reference_parse(html: str, scan_open_tag) -> Node:
    """Reference parser that links a tree of `Node`s as it scans.

    Every close tag is matched by a scan of the whole stack of open
    elements, and every open tag is read by `scan_open_tag`, which has
    `dom._scan_open_tag`'s contract.
    """
    n = len(html)
    root = Node(ROOT_TAG, 0, n)
    stack = [root]
    i = 0
    text_start = -1

    def flush_text(upto: int) -> None:
        nonlocal text_start
        if text_start >= 0 and upto > text_start:
            stack[-1].add_child(TEXT_TAG, text_start, upto)
        text_start = -1

    def close_until(index: int, boundary: int) -> None:
        while len(stack) - 1 > index:
            stack.pop().end = boundary

    while i < n:
        if html[i] != "<":
            if text_start < 0:
                text_start = i
            i = html.find("<", i)
            if i < 0:
                break
            continue
        nxt = html[i + 1 : i + 2]
        if nxt == "!":
            flush_text(i)
            if html.startswith("<!--", i):
                close = html.find("-->", i + 4)
                end = n if close == -1 else close + 3
                stack[-1].add_child(COMMENT_TAG, i, end)
            else:
                close = html.find(">", i)
                end = n if close == -1 else close + 1
                stack[-1].add_child(DIRECTIVE_TAG, i, end)
            i = end
        elif nxt == "?":
            flush_text(i)
            close = html.find(">", i)
            end = n if close == -1 else close + 1
            stack[-1].add_child(DIRECTIVE_TAG, i, end)
            i = end
        elif (close_tag := dom._CLOSE_TAG.match(html, i)) is not None:
            name = close_tag.group(1).lower()
            close = html.find(">", close_tag.end())
            end = n if close == -1 else close + 1
            flush_text(i)
            match = next((d for d in range(len(stack) - 1, 0, -1) if stack[d].tag == name), -1)
            if match > 0:
                close_until(match, i)
                stack.pop().end = end
            i = end
        elif nxt.isascii() and nxt.isalpha():
            flush_text(i)
            name, attr_spans, self_closing, tag_end = scan_open_tag(html, i)
            closers = dom._SIBLING_CLOSERS.get(name)
            if closers and stack[-1].tag in closers and len(stack) > 1:
                stack.pop().end = i
            elem = stack[-1].add_child(name, i, tag_end)
            for a, b in attr_spans:
                elem.add_child(ATTR_TAG, a, b)
            i = tag_end
            if self_closing or name in dom.VOID_ELEMENTS:
                continue
            if name in dom.RAW_TEXT_ELEMENTS:
                close_tag = dom._RAW_TEXT_CLOSE[name].search(html, tag_end)
                body_end = n if close_tag is None else close_tag.start()
                if body_end > tag_end:
                    elem.add_child(TEXT_TAG, tag_end, body_end, raw=True)
                close_gt = -1 if close_tag is None else html.find(">", body_end)
                elem.end = i = n if close_gt == -1 else close_gt + 1
                continue
            stack.append(elem)
        else:
            # A "<" that begins no construct is text.
            if text_start < 0:
                text_start = i
            i += 1

    flush_text(n)
    close_until(0, n)
    return root


def stack_scan_parse(html: str) -> Node:
    """Reference parser: `dom._scan_open_tag` for open tags, a stack scan for close tags."""
    return reference_parse(html, dom._scan_open_tag)


def _shape(node: Node):
    return (node.tag, node.start, node.end, node.raw, [_shape(c) for c in node.children])


def parsed_shape(html: str):
    return _shape(rebuild(parse_html(html))[0])


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
    assert parsed_shape(html) == _shape(stack_scan_parse(html))


def _char_loop_scan_open_tag(raw, start):
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

    return name, attr_spans, self_closing, pos


def char_loop_parse(html: str) -> Node:
    """Reference parser: open tags scanned by `_char_loop_scan_open_tag`."""
    return reference_parse(html, _char_loop_scan_open_tag)


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
    assert parsed_shape(html) == _shape(char_loop_parse(html))


def test_parse_matches_char_loop_parser_on_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        html = corpus.pages[url].html
        assert parsed_shape(html) == _shape(char_loop_parse(html)), url


def recursive_segments(tree: DomTree) -> list[tuple[int, int, int]]:
    """Reference partition: the depth-first walk of the rebuilt tree, written recursively."""
    out = []

    def walk(node):
        cursor = node.start
        for child in node.children:
            if child.start > cursor:
                out.append((node.index, cursor, child.start))
            walk(child)
            cursor = child.end
        if node.end > cursor:
            out.append((node.index, cursor, node.end))

    walk(rebuild(tree)[0])
    return out


@given(st.one_of(structured, tag_soup))
def test_cover_segments_match_recursive_walk(html):
    tree = parse_html(html)
    assert segments(tree) == recursive_segments(tree)


@given(tag_soup, st.integers(min_value=0, max_value=119))
def test_path_at_matches_naive_walk(html, pos):
    tree = parse_html(html)
    if not tree.source:
        return
    pos = pos % len(tree.source)
    assert tree.path_at(pos) == naive_path(tree, pos)
    assert tree._node_at(pos) == naive_node(tree, pos)


@given(st.one_of(structured, tag_soup))
def test_path_ids_are_equal_exactly_when_paths_are(html):
    # What lets the span rule compare path ids in place of path strings.
    # Paths come from the node parent array, not from the path table.
    tree = parse_html(html)
    paths = [naive_path(tree, pos) for pos in range(len(tree.source))]
    ids = [tree.path_id_at(pos) for pos in range(len(tree.source))]
    assert len(set(zip(ids, paths))) == len(set(ids)) == len(set(paths))
    for path_id, path in zip(ids, paths):
        assert tree.path_string(path_id) == path and tree.path_id(path) == path_id
    assert tree.path_id(ROOT_TAG + "/nosuchtag") == -1


def test_invariants_hold_on_real_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        tree = parse_html(corpus.pages[url].html)
        assert _roundtrip(tree) == tree.source
        for pos in range(0, len(tree.source), 37):
            assert tree.path_at(pos) == naive_path(tree, pos)
            assert tree._node_at(pos) == naive_node(tree, pos)


# -- inputs that a per-character or backtracking scan would make quadratic --


def test_unterminated_quotes_parse_in_one_pass():
    # Each quote closes at the next one; the last runs to the end of input.
    n = 20001
    html = "<a" + ' x="' * n
    tree = parse_html(html)
    (elem,) = rebuild(tree)[0].children
    assert (elem.tag, elem.start, elem.end) == ("a", 0, len(html))
    assert len(elem.children) == n // 2
    assert {html[c.start : c.end] for c in elem.children} == {" x="}


def test_many_attribute_tags_parse_in_one_pass():
    n = 20000
    unit = "<p x=1 y='2' z>"
    tree = parse_html(unit * n)
    root = rebuild(tree)[0]
    # Each <p> closes the one before it at its own start.
    assert [(p.tag, p.start, p.end) for p in root.children] == [
        ("p", k * len(unit), (k + 1) * len(unit)) for k in range(n)
    ]
    assert all(
        [tree.source[c.start : c.end] for c in p.children] == ["1", "2"]
        for p in root.children
    )


def test_megabyte_text_run_is_one_node():
    html = "宏碁, 索尼 " * 125_000  # 1,000,000 characters
    tree = parse_html(html)
    (text,) = rebuild(tree)[0].children
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
    occs = find_occurrences(tree, {"林肯", "纽约"})
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
    assert find_occurrences(tree, {"b"})[0].in_raw
    assert _roundtrip(tree) == tree.source


# -- cached page indexes against per-query scans -----------------------------


def oracle_visible_text(tree: DomTree, lo: int = 0, hi: int | None = None) -> str:
    """Oracle: clip every non-raw text node to the range, one node at a time."""
    if hi is None:
        hi = len(tree.source)
    nodes = sorted(
        (k for k in range(len(tree.node_path)) if node_tag(tree, k) == TEXT_TAG),
        key=lambda k: tree.node_start[k],
    )
    pieces = []
    for k in nodes:
        if tree.node_raw[k]:
            continue
        a, b = max(tree.node_start[k], lo), min(tree.node_end[k], hi)
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
