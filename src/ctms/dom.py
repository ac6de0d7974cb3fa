"""Permissive HTML parsing into an offset-indexed node tree.

The parser is a tag-soup scanner: it never fails, and it keeps the exact
character offsets of every construct so that downstream code can answer
these queries cheaply:

  * ``node_at(pos)`` / ``path_at(pos)`` -- the deepest node covering a
    character position (markup characters resolve to their element
    node), and its root-to-node tag path;
  * ``visible_text(lo, hi)`` -- the rendered text of a source range;
  * ``find_occurrences(terms)`` -- every exact occurrence of a term set
    in the raw source, with its position and path;
  * ``next_markup(pos)`` -- the first ``<`` or ``>`` at or after a
    position, by bisection into the page's sorted markup positions.

The first three are each one bisection into a single segment table built
from ``cover_segments()``: every segment's start, its deepest node, and
the length of rendered text before it.  Path strings are built per node,
on first request.  Each index is built at most once per tree, on first
use, so wrapper learning and extraction on the same page share it.

Node spans are half-open ``[start, end)`` ranges into the source string.
Child spans are disjoint and contained in their parent, so every position
has a unique deepest node and concatenating the uncovered segments of all
nodes in document order reproduces the source exactly.

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
from dataclasses import dataclass, field

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


@dataclass
class DomNode:
    tag: str
    start: int
    end: int
    parent: "DomNode | None" = None
    children: list["DomNode"] = field(default_factory=list)
    raw: bool = False  # inside script/style: invisible, skipped by learning

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DomNode {self.tag} [{self.start}:{self.end}) kids={len(self.children)}>"


@dataclass(frozen=True)
class Occurrence:
    """An exact match of a term in the raw source."""

    term: str
    pos: int
    path: str
    in_raw: bool


def _tag_path(node: DomNode) -> str:
    parts: list[str] = []
    cur: DomNode | None = node
    while cur is not None:
        parts.append(cur.tag)
        cur = cur.parent
    return "/".join(reversed(parts))


class DomTree:
    """Parsed page: the source string plus its node tree."""

    def __init__(self, source: str, root: DomNode):
        self.source = source
        self.root = root
        self._path_cache: dict[int, str] = {}  # id(node) -> tag path
        self._markup: list[int] | None = None
        # Segment table: each cover segment's start and node, the rendered
        # text length before each segment (plus the total), and the text.
        self._segments: tuple[list[int], list[DomNode], list[int], str] | None = None

    def _segment_table(self) -> tuple[list[int], list[DomNode], list[int], str]:
        if self._segments is None:
            starts: list[int] = []
            nodes: list[DomNode] = []
            rendered = [0]
            pieces: list[str] = []
            for node, a, b in self.cover_segments():
                starts.append(a)
                nodes.append(node)
                if node.tag == TEXT_TAG and not node.raw:
                    pieces.append(self.source[a:b])
                    rendered.append(rendered[-1] + b - a)
                else:
                    rendered.append(rendered[-1])
            self._segments = (starts, nodes, rendered, "".join(pieces))
        return self._segments

    def node_at(self, pos: int) -> DomNode:
        """Deepest node whose span contains `pos`."""
        if not (0 <= pos < len(self.source)):
            raise IndexError(f"position {pos} outside source of length {len(self.source)}")
        starts, nodes, _, _ = self._segment_table()
        return nodes[bisect_right(starts, pos) - 1]

    def path_at(self, pos: int) -> str:
        """Tag path of the deepest node containing `pos` (slash-joined)."""
        return self.node_path(self.node_at(pos))

    def node_path(self, node: DomNode) -> str:
        key = id(node)
        path = self._path_cache.get(key)
        if path is None:
            path = _tag_path(node)
            self._path_cache[key] = path
        return path

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
        starts, _, rendered, text = self._segment_table()
        if hi is None:
            hi = len(self.source)

        def rendered_offset(pos: int) -> int:
            # A segment with no rendered text has equal bounds, so the
            # clamp maps every position in it to the text before it.
            i = bisect_right(starts, pos) - 1
            return 0 if i < 0 else min(rendered[i] + pos - starts[i], rendered[i + 1])

        return text[rendered_offset(lo) : rendered_offset(hi)]

    def find_occurrences(self, terms) -> list[Occurrence]:
        """Every exact occurrence of every term, with position and path."""
        terms = [t for t in terms if t]
        if not terms:
            raise ValueError("terms must be non-empty")
        out: list[Occurrence] = []
        src = self.source
        for term in sorted(set(terms)):
            for pos in find_all(src, term):
                node = self.node_at(pos)
                out.append(
                    Occurrence(term=term, pos=pos, path=self.node_path(node), in_raw=node.raw)
                )
        out.sort(key=lambda o: (o.pos, -len(o.term), o.term))
        return out

    def cover_segments(self) -> list[tuple[DomNode, int, int]]:
        """Partition of the source by deepest node, in document order.

        Used by the round-trip invariant check: concatenating the segments
        reproduces the source exactly.
        """
        segments: list[tuple[DomNode, int, int]] = []
        # (node, index of its next child, end of what is covered so far);
        # an explicit stack, so nesting depth is not bounded by recursion.
        stack = [(self.root, 0, self.root.start)]
        while stack:
            node, i, cursor = stack.pop()
            if i < len(node.children):
                child = node.children[i]
                if child.start > cursor:
                    segments.append((node, cursor, child.start))
                stack.append((node, i + 1, child.end))
                stack.append((child, 0, child.start))
            elif node.end > cursor:
                segments.append((node, cursor, node.end))
        return segments


def _is_name_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def parse_html(raw: str) -> DomTree:
    """Parse possibly-malformed HTML; never raises on bad input."""
    n = len(raw)
    root = DomNode(ROOT_TAG, 0, n)
    stack: list[DomNode] = [root]
    # Open elements on the stack by tag, so a close tag that matches none
    # is swallowed without scanning the stack.
    open_count: dict[str, int] = defaultdict(int)
    i = 0
    text_start = -1

    def add_child(tag: str, start: int, end: int, raw_flag: bool = False) -> DomNode:
        node = DomNode(tag, start, end, parent=stack[-1], raw=raw_flag)
        stack[-1].children.append(node)
        return node

    def flush_text(upto: int) -> None:
        nonlocal text_start
        if text_start >= 0 and upto > text_start:
            add_child(TEXT_TAG, text_start, upto)
        text_start = -1

    def close_until(index: int, boundary: int) -> None:
        # Pop stack down to `index`, ending popped elements at `boundary`.
        while len(stack) - 1 > index:
            stack[-1].end = boundary
            open_count[stack.pop().tag] -= 1

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
        if nxt == "!":
            flush_text(i)
            if raw.startswith("<!--", i):
                close = raw.find("-->", i + 4)
                end = n if close == -1 else close + 3
                add_child(COMMENT_TAG, i, end)
            else:
                close = raw.find(">", i)
                end = n if close == -1 else close + 1
                add_child(DIRECTIVE_TAG, i, end)
            i = end
        elif nxt == "?":
            flush_text(i)
            close = raw.find(">", i)
            end = n if close == -1 else close + 1
            add_child(DIRECTIVE_TAG, i, end)
            i = end
        elif (close_tag := _CLOSE_TAG.match(raw, i)) is not None:
            name = close_tag.group(1).lower()
            close = raw.find(">", close_tag.end())
            end = n if close == -1 else close + 1
            flush_text(i)
            # Close the matching open element; unmatched close tags are
            # swallowed by the current element.
            match = _open_match(stack, open_count, name)
            if match > 0:
                close_until(match, i)
                stack[-1].end = end
                open_count[stack.pop().tag] -= 1
            i = end
        elif _is_name_start(nxt):
            flush_text(i)
            i = _parse_open_tag(raw, i, stack, open_count, add_child)
        else:
            # A "<" that begins no construct ("</" before no name too) is text.
            if text_start < 0:
                text_start = i
            i += 1

    flush_text(n)
    close_until(0, n)
    return DomTree(raw, root)


def _open_match(stack: list[DomNode], open_count: dict[str, int], name: str) -> int:
    """Stack index of the innermost open `name` element; -1 when none is open.

    An unmatched name is answered from `open_count` without a scan, and a
    matched one scans only the elements its close tag then pops, so the
    parse stays linear in the input.
    """
    if not open_count.get(name):
        return -1
    depth = len(stack) - 1
    while stack[depth].tag != name:
        depth -= 1
    return depth


def _parse_open_tag(
    raw: str, start: int, stack: list[DomNode], open_count: dict[str, int], add_child
) -> int:
    """Parse an open tag at `start`; returns the scan position after it.

    Pushes the element onto `stack` when it can have children, keeping
    `open_count` (open elements by tag) in step with every push and pop.
    """
    n = len(raw)
    tag = _OPEN_TAG.match(raw, start)
    name = tag.group(1).lower()

    # Attribute scan, one step per match; value spans become #attr leaves.
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

    tag_end = pos

    # Implicit close of a same-group sibling (<li> after unclosed <li> etc).
    closers = _SIBLING_CLOSERS.get(name)
    if closers and stack[-1].tag in closers and len(stack) > 1:
        stack[-1].end = start
        open_count[stack.pop().tag] -= 1

    elem = add_child(name, start, tag_end)
    for a, b in attr_spans:
        child = DomNode(ATTR_TAG, a, b, parent=elem)
        elem.children.append(child)

    if self_closing or name in VOID_ELEMENTS:
        return tag_end

    if name in RAW_TEXT_ELEMENTS:
        # Raw-text body: scan for the matching close tag, case-insensitive.
        close_tag = _RAW_TEXT_CLOSE[name].search(raw, tag_end)
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
