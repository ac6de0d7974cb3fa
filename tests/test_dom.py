import string
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ctms import dom
from ctms.config import PipelineConfig
from ctms.dom import ATTR_TAG, COMMENT_TAG, DIRECTIVE_TAG, ROOT_TAG, TEXT_TAG, DomTree, parse_html
from ctms.wrappers import learn_wrappers

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
    """A linked tree node, as the oracle parsers build it."""

    def __init__(self, tag: str, start: int, end: int, raw: bool = False):
        self.tag, self.start, self.end, self.raw = tag, start, end, raw
        self.children: list[Node] = []

    def add_child(self, tag: str, start: int, end: int, raw: bool = False) -> "Node":
        child = Node(tag, start, end, raw)
        self.children.append(child)
        return child


class Occurrence(NamedTuple):
    """An exact match of a term in the raw source, with its path as a string."""

    term: str
    pos: int
    path: str
    in_raw: bool


def find_occurrences(tree: DomTree, terms) -> list[Occurrence]:
    """`DomTree.occurrence_ids` with each path id spelled out by `path_string`
    (the string form the oracles compare) and its raw flag."""
    return [
        Occurrence(term, pos, tree.path_string(path_id), tree.path_raw[path_id])
        for pos, term, path_id in tree.occurrence_ids(terms)
    ]


def path_at(tree: DomTree, pos: int) -> str:
    """The tag path of source position `pos`, spelled out."""
    return tree.path_string(tree.path_id_at(pos))


def rendered_text(tree: DomTree, lo: int, hi: int) -> str:
    """The rendered text of the source range [lo, hi): the page's text
    between the rendered offsets of the range's ends."""
    return tree.visible_text()[tree.rendered_offset(lo) : tree.rendered_offset(hi)]


# -- what mining reads of a page: each position's tag path and raw flag -----


def segments(tree: DomTree) -> list[tuple[int, int]]:
    """The page's segment table as (start, path id) pairs."""
    return list(zip(tree.seg_start, tree.seg_path))


def index_runs(tree: DomTree) -> list[tuple[int, str]]:
    """The page's segment table as (start, path string) pairs."""
    return [(start, tree.path_string(path)) for start, path in segments(tree)]


def paint(root: Node) -> list[tuple[str, bool]]:
    """Each position's (tag path, raw flag) in an oracle tree: every node
    paints its span over its ancestors', walked with an explicit stack
    (nesting depth is unbounded)."""
    cells: list[tuple[str, bool]] = [(root.tag, root.raw)] * root.end
    stack = [(child, root.tag + "/" + child.tag) for child in root.children]
    while stack:
        node, path = stack.pop()
        cells[node.start : node.end] = [(path, node.raw)] * (node.end - node.start)
        stack.extend((child, path + "/" + child.tag) for child in node.children)
    return cells


def maximal_runs(cells: list[tuple[str, bool]]) -> list[tuple[int, str]]:
    """(start, path) of each maximal run of positions with one path."""
    return [
        (pos, path)
        for pos, (path, _) in enumerate(cells)
        if pos == 0 or cells[pos - 1][0] != path
    ]


def assert_reads_like(tree: DomTree, root: Node, label: str = "") -> None:
    """What mining reads of the parsed page is what it would read of the
    oracle tree `root`: the segment table is the painting's maximal runs,
    and each position's path, raw flag and rendered text agree."""
    cells = paint(root)
    positions = range(len(tree.source))
    assert index_runs(tree) == maximal_runs(cells), label
    assert [path_at(tree, pos) for pos in positions] == [path for path, _ in cells], label
    raw_flags = [tree.path_raw[tree.path_id_at(pos)] for pos in positions]
    assert raw_flags == [raw for _, raw in cells], label
    rendered = [
        char if not raw and path.endswith("/" + TEXT_TAG) else ""
        for char, (path, raw) in zip(tree.source, cells)
    ]
    assert [rendered_text(tree, pos, pos + 1) for pos in positions] == rendered, label
    assert tree.visible_text() == "".join(rendered), label


def flatten(root: Node) -> list[tuple[Node, int]]:
    """The oracle tree's nodes in preorder, each with its parent's index."""
    out: list[tuple[Node, int]] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        out.append((node, parent))
        stack.extend((child, len(out) - 1) for child in reversed(node.children))
    return out


def naive_path(nodes: list[tuple[Node, int]], pos: int) -> tuple[str, bool]:
    """Oracle: an exhaustive scan of a flattened oracle tree for the deepest
    node containing pos; its tag path, up the parent indices, and raw flag."""
    best, best_depth = -1, -1
    depth: list[int] = []
    for k, (node, parent) in enumerate(nodes):
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
        if node.start <= pos < node.end and depth[k] > best_depth:
            best, best_depth = k, depth[k]
    tags = []
    k = best
    while k >= 0:
        tags.append(nodes[k][0].tag)
        k = nodes[k][1]
    return "/".join(reversed(tags)), nodes[best][0].raw


def test_simple_nesting():
    tree = parse_html("<a><span>X</span></a>")
    assert path_at(tree, tree.source.index("X")) == "#document/a/span/#text"


def test_markup_chars_belong_to_their_element():
    tree = parse_html("<a><span>X</span></a>")
    assert path_at(tree, 0) == "#document/a"
    assert path_at(tree, tree.source.index("</span>")) == "#document/a/span"


def test_plain_text_document():
    tree = parse_html("plain text")
    assert path_at(tree, 5) == "#document/#text"


def test_same_text_run_same_path():
    tree = parse_html("<p>hello world</p>")
    a = path_at(tree, tree.source.index("h"))
    b = path_at(tree, tree.source.index("d"))
    assert a == b == "#document/p/#text"


def test_fig_fragment_brand_paths():
    tree = parse_html(FIG_FRAGMENT)
    for brand in ("宏碁", "索尼", "东芝", "戴尔"):
        path = path_at(tree, tree.source.index(brand))
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
    assert path_at(tree, tree.source.index("/x")) == "#document/a/#attr"
    assert path_at(tree, tree.source.index("plain")) == "#document/a/#attr"


def test_script_and_style_flagged_raw():
    tree = parse_html("<script>var x = '索尼';</script><p>索尼</p>")
    occs = find_occurrences(tree, {"索尼"})
    assert [o.in_raw for o in occs] == [True, False]


def test_unclosed_tags_close_at_parent_boundary():
    tree = parse_html("<div><b>bold<i>both</div>tail")
    assert path_at(tree, tree.source.index("both")) == "#document/div/b/i/#text"
    assert path_at(tree, tree.source.index("tail")) == "#document/#text"


def test_stray_close_tag_ignored():
    tree = parse_html("<p>a</div>b</p>")
    assert path_at(tree, tree.source.index("a")) == "#document/p/#text"
    assert path_at(tree, tree.source.index("b")) == "#document/p/#text"


def test_close_tag_name_stops_at_whitespace_or_angle_bracket():
    # "</b<i>" and "</b\x1c...>" both close the <b>: the name is "b".
    for close in ("</b<i>", "</b\x1cjunk>"):
        tree = parse_html("<b>x" + close + "y")
        assert [path for _, path in index_runs(tree)] == [
            "#document/b",
            "#document/b/#text",
            "#document/b",
            "#document/#text",
        ], close
        assert path_at(tree, tree.source.index("y")) == "#document/#text"


def test_bare_angle_bracket_is_text():
    tree = parse_html("<p>3 < 5 and 7 > 2</p>")
    assert path_at(tree, tree.source.index("3")) == "#document/p/#text"


def test_void_elements_do_not_nest():
    tree = parse_html("<p>a<br>b</p>")
    assert path_at(tree, tree.source.index(">b") + 1) == "#document/p/#text"


def test_comment_and_doctype():
    tree = parse_html("<!doctype html><!-- c --><p>x</p>")
    assert path_at(tree, 0) == "#document/#directive"
    assert path_at(tree, tree.source.index("c ")) == "#document/#comment"


def test_abruptly_closed_empty_comments_hide_nothing_after_them():
    # HTML ends "<!-->" and "<!--->" at their own ">": the list after them
    # is rendered and harvested.
    for comment in ("<!-->", "<!--->"):
        html = comment + "<ul><li>甲</li><li>乙</li></ul>"
        tree = parse_html(html)
        assert index_runs(tree)[:2] == [(0, "#document/#comment"), (len(comment), "#document/ul")]
        assert tree.visible_text() == "甲乙"
        assert path_at(tree, html.index("乙")) == "#document/ul/li/#text"
        learned = learn_wrappers({"甲", "乙"}, tree, PipelineConfig())
        harvested = {html[a:b] for spans in learned.values() for a, b in spans}
        assert harvested == {"甲", "乙"}, comment


def test_visible_text_skips_markup_and_script():
    tree = parse_html("<h1>标题</h1><script>junk()</script><p>正文</p>")
    text = tree.visible_text()
    assert "标题" in text and "正文" in text
    assert "junk" not in text and "<" not in text


def test_out_of_range_position():
    tree = parse_html("<p>x</p>")
    with pytest.raises(IndexError):
        path_at(tree, len(tree.source))
    with pytest.raises(IndexError):
        path_at(tree, -1)


def _roundtrip(tree: DomTree) -> str:
    """The source rebuilt from the segment table, which must partition it
    into maximal runs: starts ascending from 0, adjacent path ids distinct."""
    starts, paths = tree.seg_start, tree.seg_path
    assert len(starts) == len(paths) and starts[:1] == [0][: len(tree.source)]
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert all(p != q for p, q in zip(paths, paths[1:]))
    ends = starts[1:] + [len(tree.source)]
    return "".join(tree.source[a:b] for a, b in zip(starts, ends))


def test_roundtrip_on_fragment():
    tree = parse_html(FIG_FRAGMENT)
    assert _roundtrip(tree) == tree.source
    assert_reads_like(tree, stack_scan_parse(FIG_FRAGMENT))


def test_roundtrip_on_deeply_nested_page():
    depth = 5000
    tree = parse_html("<div>" * depth + "x" + "</div>" * depth)
    table = segments(tree)
    assert _roundtrip(tree) == tree.source
    # Each div owns its open and close tag; the text owns "x".
    assert len(table) == 2 * depth + 1
    start, text = table[depth]
    assert tree.path_tag[text] == TEXT_TAG and tree.source[start] == "x"
    assert [path for _, path in table[:depth]] == [path for _, path in reversed(table[depth + 1 :])]


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
    start, text = table[n]
    assert tree.path_tag[text] == TEXT_TAG and tree.source[start] == "x"
    start, tail = table[n + 1]
    assert tail == table[n - 1][1] == tree.path_parent[text] and tree.path_tag[tail] == "div"
    assert tree.source[start:] == "</span>" * n
    assert path_at(tree, tree.source.index("x")) == "#document" + "/div" * n + "/#text"


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
    assert_reads_like(tree, stack_scan_parse(html))


@given(tag_soup)
def test_roundtrip_property_soup(html):
    tree = parse_html(html)
    assert _roundtrip(tree) == tree.source
    assert_reads_like(tree, stack_scan_parse(html))


def ascii_lower(ch: str) -> str:
    """`ch` lowercased if it is an ASCII capital; HTML folds no other case."""
    return chr(ord(ch) + 32) if "A" <= ch <= "Z" else ch


def close_tag_name_end(html: str, i: int) -> int:
    """Where the name of a close tag at `i` ends, or -1 if no close tag is
    there: ``</``, an ASCII letter, then characters up to whitespace, ``<``
    or ``>`` (or the end of input)."""
    if not (html.startswith("</", i) and i + 2 < len(html)):
        return -1
    first = html[i + 2]
    if not (first.isascii() and first.isalpha()):
        return -1
    k = i + 3
    while k < len(html) and not html[k].isspace() and html[k] not in "<>":
        k += 1
    return k


def raw_text_close(html: str, name: str, start: int) -> int:
    """Start of the first close tag of `name` at or after `start` whose name
    ends there, before tab, LF, FF, CR, space, ``/`` or ``>``; -1 if none.
    Names compare with ASCII-only case folding."""
    j = html.find("</", start)
    while j >= 0:
        k = j + 2
        m = 0
        while m < len(name) and k < len(html) and ascii_lower(html[k]) == name[m]:
            k += 1
            m += 1
        if m == len(name) and k < len(html) and html[k] in "\t\n\f\r />":
            return j
        j = html.find("</", j + 1)
    return -1


def reference_parse(html: str, scan_open_tag) -> Node:
    """Reference parser that links a tree of `Node`s as it scans.

    Every close tag is matched by a scan of the whole stack of open
    elements, and every open tag is read by `scan_open_tag`, which has
    `package_scan_open_tag`'s contract.  Close-tag names and the ends of
    raw-text bodies are found by the character loops above, not by the
    parser's patterns.
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
            if html.startswith(("<!-->", "<!--->"), i):
                # An abruptly closed empty comment.
                end = html.index(">", i) + 1
                stack[-1].add_child(COMMENT_TAG, i, end)
            elif html.startswith("<!--", i):
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
        elif (name_end := close_tag_name_end(html, i)) >= 0:
            name = html[i + 2 : name_end].lower()
            close = html.find(">", name_end)
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
                close_at = raw_text_close(html, name, tag_end)
                body_end = n if close_at < 0 else close_at
                if body_end > tag_end:
                    elem.add_child(TEXT_TAG, tag_end, body_end, raw=True)
                close_gt = -1 if close_at < 0 else html.find(">", body_end)
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


def package_scan_open_tag(raw: str, start: int) -> tuple[str, list[tuple[int, int]], bool, int]:
    """The open tag at `start` as the package reads it: its lowercased name
    (from `dom._CONSTRUCT`), its non-empty attribute value spans, whether it
    ends with ``/>``, and the scan position after it (from
    `dom._scan_attributes`, stepped from the end of the name)."""
    name_end = dom._CONSTRUCT.match(raw, start).end(4)
    return (raw[start + 1 : name_end].lower(), *dom._scan_attributes(raw, name_end))


def stack_scan_parse(html: str) -> Node:
    """Reference parser: the package's open-tag scan, a stack scan for close tags."""
    return reference_parse(html, package_scan_open_tag)


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


# Comment openers, abruptly closed empty comments and comment closers, and
# raw-text bodies with close tags whose name does or does not end there.
comment_soup = st.lists(
    st.sampled_from(
        ["<!--", "<!-->", "<!--->", "-->", "-", "!", ">", "x", " ", "<p>", "</p>", "<li>"]
        + ["<script>", "<SCRIPT a=1>", "<style>", "</script>", "</scriptx>", "</SCRIPT "]
        + ["</style/", "</style>", "</Style\t", "</script"]
    ),
    max_size=24,
).map("".join)


@settings(max_examples=400)
@given(st.one_of(tag_soup, close_soup, comment_soup))
def test_parse_matches_stack_scan_parser(html):
    assert_reads_like(parse_html(html), stack_scan_parse(html))


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

# Open tags of 0-4 name="value" attributes, the commonest attributed tag
# on real pages, and near misses: empty or exotic separators, names with a
# quote, values holding a quote, `<>` or `=`, and every closer.  Half the
# names are plain attribute names, half the closers a `>` right after the
# last value, and half the values are empty.
quoted_attribute = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(spaces),
        st.one_of(st.sampled_from(["x", "data-id", "a<b", "宏"]), st.sampled_from(["it's", "'", 'a"b'])),
        st.just("="),
        st.one_of(st.just('""'), st.sampled_from(['"v w"', '"\'"', '"<>"', '"a=b"'])),
    ),
)
quoted_tag = st.builds(
    lambda name, attrs, end: name + "".join(attrs) + end,
    st.sampled_from(["<a", "<p", "<li", "<script", "<B1", '<q"']),
    st.lists(quoted_attribute, max_size=4),
    st.one_of(st.just(">"), st.sampled_from([" >", "/>", ""])),
)
quoted_soup = st.lists(
    st.tuples(quoted_tag, st.sampled_from(["", "x", "宏", " ", '"', "</a>", "</p>"])).map("".join),
    min_size=1,
    max_size=6,
).map("".join)


@settings(max_examples=400)
@given(st.one_of(attr_soup, tag_soup, comment_soup, quoted_soup))
def test_parse_matches_char_loop_parser(html):
    assert_reads_like(parse_html(html), char_loop_parse(html))


def test_parse_matches_char_loop_parser_on_fixture_pages(miniweb_provider):
    corpus = miniweb_provider._corpus
    for url in sorted(corpus.pages):
        html = corpus.pages[url].html
        assert_reads_like(parse_html(html), char_loop_parse(html), url)


# Close tags, which the construct pattern reads in one match: cut off by
# the end of the input, with their ">" in a quoted value (with nothing or
# their element open), and of the current element while one of its name
# is open deeper; and name="value" tags that the attribute scan reads to a
# "/>" or to a ">" after whitespace.
@pytest.mark.parametrize(
    "html",
    ["</b", "<b>x</b", '</b x="a>b">y', '<b>x</b x="a>b">y', "<b><i><b>x</b>y</i>z</b>"]
    + ['<a href="x"/>', '<a href="x" >'],
)
def test_one_match_constructs_read_like_both_reference_parsers(html):
    assert_reads_like(parse_html(html), stack_scan_parse(html), "stack scan")
    assert_reads_like(parse_html(html), char_loop_parse(html), "char loop")


def recursive_segments(root: Node) -> list[tuple[int, str]]:
    """Reference segment table: (start, path) of each maximal run of one
    path, from a depth-first walk of an oracle tree written recursively."""
    out: list[tuple[int, str]] = []

    def own(start: int, end: int, path: str) -> None:
        if end > start and (not out or out[-1][1] != path):
            out.append((start, path))

    def walk(node: Node, path: str) -> None:
        cursor = node.start
        for child in node.children:
            own(cursor, child.start, path)
            walk(child, path + "/" + child.tag)
            cursor = child.end
        own(cursor, node.end, path)

    walk(root, root.tag)
    return out


@given(st.one_of(structured, tag_soup))
def test_cover_segments_match_recursive_walk(html):
    tree = parse_html(html)
    assert index_runs(tree) == recursive_segments(stack_scan_parse(html))


@given(tag_soup, st.integers(min_value=0, max_value=119))
def test_path_at_matches_naive_walk(html, pos):
    tree = parse_html(html)
    if not tree.source:
        return
    pos = pos % len(tree.source)
    path, raw = naive_path(flatten(stack_scan_parse(html)), pos)
    assert path_at(tree, pos) == path
    assert tree.path_raw[tree.path_id_at(pos)] == raw


@given(st.one_of(structured, tag_soup))
def test_path_ids_are_equal_exactly_when_paths_are(html):
    # What lets the span rule compare path ids in place of path strings.
    # Paths come from an oracle tree, not from the path table.
    tree = parse_html(html)
    nodes = flatten(stack_scan_parse(html))
    paths = [naive_path(nodes, pos)[0] for pos in range(len(tree.source))]
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
        nodes = flatten(stack_scan_parse(tree.source))
        for pos in range(0, len(tree.source), 37):
            path, raw = naive_path(nodes, pos)
            assert path_at(tree, pos) == path, url
            assert tree.path_raw[tree.path_id_at(pos)] == raw, url


# -- inputs that a per-character or backtracking scan would make quadratic --


def run_texts(tree: DomTree) -> list[tuple[str, str]]:
    """(path, source characters) of each segment."""
    ends = tree.seg_start[1:] + [len(tree.source)]
    return [(path, tree.source[a:b]) for (a, path), b in zip(index_runs(tree), ends)]


def test_unterminated_quotes_parse_in_one_pass():
    # Each quote closes at the next one; the last runs to the end of input.
    n = 20001
    html = "<a" + ' x="' * n
    tree = parse_html(html)
    # The element's characters, from 0 to the end, around n // 2 values.
    runs = run_texts(tree)
    assert [path for path, _ in runs] == (
        ["#document/a", "#document/a/#attr"] * (n // 2) + ["#document/a"]
    )
    assert {text for path, text in runs if path == "#document/a/#attr"} == {" x="}


def test_many_attribute_tags_parse_in_one_pass():
    n = 20000
    unit = "<p x=1 y='2' z>"
    tree = parse_html(unit * n)
    # Each <p> closes the one before it at its own start, so none nests
    # and the end of each tag runs on into the next one.
    runs = run_texts(tree)
    assert len(runs) == 4 * n + 1
    assert {path for path, _ in runs} == {"#document/p", "#document/p/#attr"}
    assert [text for path, text in runs if path == "#document/p/#attr"] == ["1", "2"] * n


def test_megabyte_text_run_is_one_node():
    html = "宏碁, 索尼 " * 125_000  # 1,000,000 characters
    tree = parse_html(html)
    assert index_runs(tree) == [(0, "#document/#text")]
    assert tree.visible_text() == html
    assert path_at(tree, len(html) - 1) == "#document/#text"


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
        assert path_at(tree, tree.source.index(term)) == "#document/ul/li/#text"
    occs = find_occurrences(tree, {"林肯", "纽约"})
    assert [o.in_raw for o in occs] == [False, False]
    assert _roundtrip(tree) == tree.source


def test_uppercase_close_tag_ends_raw_body():
    tree = parse_html("<script>a()</SCRIPT><p>b</p><STYLE>c{}</Style>d")
    assert tree.visible_text() == "bd"
    assert path_at(tree, tree.source.index("b")) == "#document/p/#text"
    assert path_at(tree, tree.source.index("d")) == "#document/#text"
    assert _roundtrip(tree) == tree.source


def test_raw_body_ends_only_where_the_close_tag_name_ends():
    # "</scripts>" does not end a script body: the name must end after
    # "script", at whitespace, "/" or ">".
    html = "<script>a</scripts>b</script><p>c</p>"
    tree = parse_html(html)
    assert tree.visible_text() == "c"
    b = html.index("b</script>")
    assert path_at(tree, b) == "#document/script/#text" and tree.path_raw[tree.path_id_at(b)]
    tree = parse_html("<style>a</styles>b</style>c")
    assert tree.visible_text() == "c"
    for close in ("</script>", "</script >", "</script\t>", "</script/>", "</SCRIPT\n>"):
        tree = parse_html("<script>a" + close + "<p>c</p>")
        assert tree.visible_text() == "c", close
    # A "</script" at the end of input, or before any other character,
    # leaves the body running to the end.
    for tail in ("</script", "</script<p>c</p>", "</scriptx>c"):
        html = "<script>a" + tail
        tree = parse_html(html)
        assert tree.visible_text() == "", tail
        assert tree.path_raw[tree.path_id_at(len(html) - 1)], tail


def test_raw_body_close_tag_matches_ascii_letters_only():
    # U+017F (long s) case-folds to "s" under Unicode rules, but HTML tag
    # names are ASCII, so "</ſcript>" does not close the body.
    tree = parse_html("<script>a</ſcript><p>b</p>")
    assert tree.visible_text() == ""
    assert find_occurrences(tree, {"b"})[0].in_raw
    assert _roundtrip(tree) == tree.source


# -- cached page indexes against per-query scans -----------------------------


def oracle_visible_text(html: str, root: Node, lo: int = 0, hi: int | None = None) -> str:
    """Oracle: clip every non-raw text node of `html`'s oracle tree `root`
    to the range, one node at a time."""
    if hi is None:
        hi = len(html)
    texts = sorted(
        (node for node, _ in flatten(root) if node.tag == TEXT_TAG and not node.raw),
        key=lambda node: node.start,
    )
    pieces = []
    for node in texts:
        a, b = max(node.start, lo), min(node.end, hi)
        if a < b:
            pieces.append(html[a:b])
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
    root = stack_scan_parse(html)
    assert tree.visible_text() == oracle_visible_text(html, root)
    assert rendered_text(tree, 0, n) == oracle_visible_text(html, root, 0, n)
    # Sweep one end over every position (inside text, raw and markup, and
    # past both ends, so lo >= hi occurs) with the other end held fixed.
    for pos in range(-1, n + 2):
        assert rendered_text(tree, pos, hi) == oracle_visible_text(html, root, pos, hi)
        assert rendered_text(tree, lo, pos) == oracle_visible_text(html, root, lo, pos)
