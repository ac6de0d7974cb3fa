"""Permissive HTML parsing into a flat, offset-indexed page index.

The parser is a tag-soup scanner: it never fails, keeps the exact
character offsets of every construct, and builds no node objects.  One
scan appends each node to flat arrays in document order (preorder): its
path id, start, end, parent and raw flag.  The same pass fills the
segment table (each maximal run of characters with one deepest node, as
its start and node, and the rendered text before it) and joins the
rendered text.  Each position query is then one bisection into it:
``path_id_at(pos)`` / ``path_at(pos)`` (markup characters resolve to
their element), ``visible_text(lo, hi)``, and the path id and raw flag of
each hit of ``occurrence_ids(terms)``.  ``next_markup(pos)`` bisects
the sorted ``<``/``>`` positions, found on first use.

Tag paths are hash-consed: ``(parent path id, tag)`` is interned to one
id per page, so two positions have equal paths exactly when they have
equal path ids.  A path's slash-joined string is built only on request,
by walking the parent ids, and cached per id.  A tag name never holds
``/``, so ``path_id`` resolves a string back to its id.

Node spans are half-open ``[start, end)`` ranges into the source string.
Child spans are disjoint and contained in their parent, so every position
has a unique deepest node and the segments partition the source.

Text runs, tag names and attributes are found by C-level searches
(``str.find`` and precompiled patterns), never one character at a time.
Repair strategy for malformed markup: unclosed elements are closed at the
boundary of the enclosing close tag (or end of input); close tags with no
matching open element are swallowed by the current element; a ``<`` that
does not begin a recognizable construct is ordinary text.  Attribute
values become ``#attr`` leaves and text runs become ``#text`` leaves.
Script and style bodies are kept as ``#text`` leaves flagged ``raw`` so
extraction stages can skip them.  Entities are not decoded; offsets always
index the raw source.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import defaultdict

from .text import find_all

TEXT_TAG = "#text"
ATTR_TAG = "#attr"
COMMENT_TAG = "#comment"
DIRECTIVE_TAG = "#directive"
ROOT_TAG = "#document"

TEXTUAL_TAGS = frozenset({TEXT_TAG, ATTR_TAG})

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})
# Close-tag search for raw-text bodies.  ASCII-only case folding matches
# the HTML rule and keeps every match offset an offset into the source.
_RAW_TEXT_CLOSE = {name: re.compile("</" + name, re.I | re.A) for name in RAW_TEXT_ELEMENTS}
_MARKUP = re.compile("[<>]")
# Tag names start with an ASCII letter.  A close tag's name runs to
# whitespace, ``<`` or ``>``; an open tag's to whitespace, ``>`` or ``/``.
_CLOSE_TAG = re.compile(r"</([A-Za-z][^\s<>]*)")
_OPEN_TAG = re.compile(r"<([A-Za-z][^\s>/]*)")
# One step of an open tag's attribute scan, after any whitespace: the
# tag's end (``>`` or ``/>``, group 1), a stray ``/`` or ``=``, or a name
# with an optional value, double-quoted (group 2), single-quoted (3) or
# bare (4).  An unterminated quote runs to the end of the input.
_ATTR_STEP = re.compile(
    r"""\s*(?:(/?>)|[/=]|[^\s=>/]+(?:\s*=\s*(?:"([^"]*)"?|'([^']*)'?|([^\s>]*)))?)"""
)

# Opening one of these while the same-group element is current implicitly
# closes it (the common unclosed <li>/<p>/<td> idiom).
_SIBLING_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "p": frozenset({"p"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "tr": frozenset({"tr"}),
    "option": frozenset({"option"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
}


class DomTree:
    """Parsed page: the source string and its flat index, built by `parse_html`.

    Node k (node 0 is the ``#document`` root) has path id
    ``node_path[k]``, span ``[node_start[k], node_end[k])``, parent node
    ``node_parent[k]`` (-1 for the root) and raw flag ``node_raw[k]``.
    Path id p names tag ``path_tag[p]`` under path ``path_parent[p]``
    (-1 for the root's).  Segment j starts at ``seg_start[j]`` and is
    owned by node ``seg_node[j]``.
    """

    def __init__(self, source: str):
        # The root alone: node 0, path 0, owning no segment yet.
        self.source = source
        self.node_path = [0]
        self.node_start = [0]
        self.node_end = [len(source)]
        self.node_parent = [-1]
        self.node_raw = [False]
        self.path_tag = [ROOT_TAG]
        self.path_parent = [-1]
        self.seg_start: list[int] = []
        self.seg_node: list[int] = []
        # Rendered text before each segment (plus the total), and the text.
        self._rendered: list[int] = []
        self._text = ""
        self._path_ids = {(-1, ROOT_TAG): 0}  # (parent path id, tag) -> path id
        self._path_strings: dict[int, str] = {}
        self._markup: list[int] | None = None

    def _node_at(self, pos: int) -> int:
        """Deepest node whose span contains `pos`."""
        if not (0 <= pos < len(self.source)):
            raise IndexError(f"position {pos} outside source of length {len(self.source)}")
        return self.seg_node[bisect_right(self.seg_start, pos) - 1]

    def path_id_at(self, pos: int) -> int:
        """Path id of the deepest node containing `pos`."""
        return self.node_path[self._node_at(pos)]

    def path_at(self, pos: int) -> str:
        """Tag path of the deepest node containing `pos` (slash-joined)."""
        return self.path_string(self.path_id_at(pos))

    def path_string(self, path_id: int) -> str:
        """The slash-joined tag path of a path id, built on first request."""
        path = self._path_strings.get(path_id)
        if path is None:
            tags = []
            p = path_id
            while p >= 0:
                tags.append(self.path_tag[p])
                p = self.path_parent[p]
            path = self._path_strings[path_id] = "/".join(reversed(tags))
        return path

    def path_id(self, path: str) -> int:
        """Id of a slash-joined tag path; -1 when no node of the page has it."""
        p = -1
        for tag in path.split("/"):
            p = self._path_ids.get((p, tag), -1)
            if p < 0:
                break
        return p

    def markup_positions(self) -> list[int]:
        """Sorted positions of every ``<`` and ``>`` in the source."""
        if self._markup is None:
            self._markup = [m.start() for m in _MARKUP.finditer(self.source)]
        return self._markup

    def next_markup(self, pos: int) -> int:
        """Smallest markup position >= `pos`; ``len(source)`` if none."""
        marks = self.markup_positions()
        i = bisect_left(marks, pos)
        return marks[i] if i < len(marks) else len(self.source)

    def visible_text(self, lo: int = 0, hi: int | None = None) -> str:
        """Rendered text within a source range: text runs outside script/style."""
        starts, rendered = self.seg_start, self._rendered
        if hi is None:
            hi = len(self.source)

        def rendered_offset(pos: int) -> int:
            # A segment with no rendered text has equal bounds, so the
            # clamp maps every position in it to the text before it.
            i = bisect_right(starts, pos) - 1
            return 0 if i < 0 else min(rendered[i] + pos - starts[i], rendered[i + 1])

        return self._text[rendered_offset(lo) : rendered_offset(hi)]

    def occurrence_ids(self, terms) -> list[tuple[int, str, int, bool]]:
        """(pos, term, path id, raw) of every exact occurrence of every term,
        by position, longest term first on ties."""
        terms = [t for t in terms if t]
        if not terms:
            raise ValueError("terms must be non-empty")
        out = []
        for term in sorted(set(terms)):
            for pos in find_all(self.source, term):
                node = self._node_at(pos)
                out.append((pos, term, self.node_path[node], self.node_raw[node]))
        out.sort(key=lambda o: (o[0], -len(o[1]), o[1]))
        return out


def parse_html(raw: str) -> DomTree:
    """Parse possibly-malformed HTML; never raises on bad input."""
    n = len(raw)
    tree = DomTree(raw)
    node_path, node_end = tree.node_path, tree.node_end
    path_tag, path_ids = tree.path_tag, tree._path_ids
    seg_node, rendered = tree.seg_node, tree._rendered
    pieces: list[str] = []
    rendered_len = 0

    def add(tag: str, start: int, end: int, parent: int, raw_flag: bool = False) -> int:
        # Appends a node under `parent`, interning its path, and the segment
        # its first character starts; returns the node's index.
        nonlocal rendered_len
        key = (node_path[parent], tag)
        path = path_ids.get(key)
        if path is None:
            path = path_ids[key] = len(path_tag)
            path_tag.append(tag)
            tree.path_parent.append(key[0])
        node = len(node_path)
        node_path.append(path)
        tree.node_start.append(start)
        node_end.append(end)
        tree.node_parent.append(parent)
        tree.node_raw.append(raw_flag)
        tree.seg_start.append(start)
        seg_node.append(node)
        rendered.append(rendered_len)
        if tag == TEXT_TAG and not raw_flag:
            pieces.append(raw[start:end])
            rendered_len += end - start
        return node

    def own(pos: int, node: int) -> None:
        # The characters from `pos` up to the next segment are `node`'s own;
        # a run continuing the last segment's node extends that segment.
        if not seg_node or seg_node[-1] != node:
            tree.seg_start.append(pos)
            seg_node.append(node)
            rendered.append(rendered_len)

    def tag_of(node: int) -> str:
        return path_tag[node_path[node]]

    stack = [0]  # open elements, the root first
    # Open elements on the stack by tag, so a close tag that matches none
    # is swallowed without scanning the stack.
    open_count: dict[str, int] = defaultdict(int)

    def close_until(index: int, boundary: int) -> None:
        # Pop stack down to `index`, ending popped elements at `boundary`.
        while len(stack) - 1 > index:
            node = stack.pop()
            node_end[node] = boundary
            open_count[tag_of(node)] -= 1

    i = 0
    text_start = -1
    while i < n:
        if raw[i] != "<":
            # A text run reaches the next "<" or the end of the input.
            if text_start < 0:
                text_start = i
            i = raw.find("<", i)
            if i < 0:
                break
            continue

        nxt = raw[i + 1 : i + 2]
        close_tag = _CLOSE_TAG.match(raw, i) if nxt == "/" else None
        if close_tag is None and nxt != "!" and nxt != "?" and not (
            ("a" <= nxt <= "z") or ("A" <= nxt <= "Z")
        ):
            # A "<" that begins no construct ("</" before no name too) is text.
            if text_start < 0:
                text_start = i
            i += 1
            continue
        if text_start >= 0:
            add(TEXT_TAG, text_start, i, stack[-1])
            text_start = -1

        if raw.startswith("<!--", i):
            close = raw.find("-->", i + 4)
            end = n if close == -1 else close + 3
            add(COMMENT_TAG, i, end, stack[-1])
            i = end
        elif nxt == "!" or nxt == "?":
            close = raw.find(">", i)
            end = n if close == -1 else close + 1
            add(DIRECTIVE_TAG, i, end, stack[-1])
            i = end
        elif close_tag is not None:
            name = close_tag.group(1).lower()
            close = raw.find(">", close_tag.end())
            end = n if close == -1 else close + 1
            # Close the matching open element; unmatched close tags are
            # swallowed by the current element.  An unmatched name is
            # answered from `open_count` without a scan, and a matched one
            # scans only the elements it pops, so the parse stays linear.
            if open_count.get(name):
                depth = len(stack) - 1
                while tag_of(stack[depth]) != name:
                    depth -= 1
                close_until(depth, i)
                node_end[stack[-1]] = end
                open_count[name] -= 1
                own(i, stack.pop())
            else:
                own(i, stack[-1])
            i = end
        else:
            name, attr_spans, self_closing, tag_end = _scan_open_tag(raw, i)
            # Implicit close of a same-group sibling (<li> after unclosed <li> etc).
            closers = _SIBLING_CLOSERS.get(name)
            if closers and len(stack) > 1 and tag_of(stack[-1]) in closers:
                close_until(len(stack) - 2, i)
            elem = add(name, i, tag_end, stack[-1])
            # The tag's characters are its element's, but for attribute values.
            for a, b in attr_spans:
                add(ATTR_TAG, a, b, elem)
                if b < tag_end:
                    own(b, elem)
            i = tag_end
            if self_closing or name in VOID_ELEMENTS:
                continue
            if name in RAW_TEXT_ELEMENTS:
                # Raw-text body: scan for the matching close tag, case-insensitive.
                close_tag = _RAW_TEXT_CLOSE[name].search(raw, tag_end)
                body_end = n if close_tag is None else close_tag.start()
                if body_end > tag_end:
                    add(TEXT_TAG, tag_end, body_end, elem, True)
                if close_tag is None:
                    i = n
                else:
                    close_gt = raw.find(">", body_end)
                    i = n if close_gt == -1 else close_gt + 1
                    own(body_end, elem)
                node_end[elem] = i
                continue
            stack.append(elem)
            open_count[name] += 1

    if text_start >= 0:
        add(TEXT_TAG, text_start, n, stack[-1])
    close_until(0, n)
    rendered.append(rendered_len)
    tree._text = "".join(pieces)
    return tree


def _scan_open_tag(raw: str, start: int) -> tuple[str, list[tuple[int, int]], bool, int]:
    """The open tag at `start`: its lowercased name, its attribute value
    spans, whether it ends with ``/>``, and the scan position after it."""
    n = len(raw)
    tag = _OPEN_TAG.match(raw, start)
    name = tag.group(1).lower()

    # Attribute scan, one step per match; non-empty values are kept.
    attr_spans: list[tuple[int, int]] = []
    self_closing = False
    pos = tag.end()
    while True:
        step = _ATTR_STEP.match(raw, pos)
        if step is None:  # nothing but whitespace is left
            pos = n
            break
        pos = step.end()
        group = step.lastindex
        if group == 1:
            self_closing = step.group(1) == "/>"
            break
        if group is not None and step.end(group) > step.start(group):
            attr_spans.append(step.span(group))
    return name, attr_spans, self_closing, pos
