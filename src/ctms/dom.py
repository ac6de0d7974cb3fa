"""Permissive HTML parsing into an offset-indexed node tree.

The parser is a tag-soup scanner: it never fails, and it keeps the exact
character offsets of every construct so that downstream code can answer
these queries cheaply:

  * ``path_at(pos)`` -- the root-to-node tag path of the deepest node
    covering a character position (markup characters resolve to their
    element node), memoized per position;
  * ``find_occurrences(terms)`` -- every exact occurrence of a term set
    in the raw source, with its position and path;
  * ``next_markup(pos)`` -- the first ``<`` or ``>`` at or after a
    position, by bisection into the page's sorted markup positions;
  * ``visible_text(lo, hi)`` -- the rendered text of a source range, a
    slice of the page's text rendered once.

Each index behind these queries is built at most once per tree, on first
use, so wrapper learning and extraction on the same page share it.

Node spans are half-open ``[start, end)`` ranges into the source string.
Child spans are disjoint and contained in their parent, so every position
has a unique deepest node and concatenating the uncovered segments of all
nodes in document order reproduces the source exactly.

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
from dataclasses import dataclass, field

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
        self._pos_paths: dict[int, str] = {}  # position -> tag path
        self._child_starts: dict[int, list[int]] = {}
        self._markup: list[int] | None = None
        # Rendered text, the start of each visible text node, and each
        # node's offset into the rendering (plus the total length).
        self._rendered: tuple[str, list[int], list[int]] | None = None

    def node_at(self, pos: int) -> DomNode:
        """Deepest node whose span contains `pos`."""
        if not (0 <= pos < len(self.source)):
            raise IndexError(f"position {pos} outside source of length {len(self.source)}")
        node = self.root
        while node.children:
            starts = self._child_starts.get(id(node))
            if starts is None:
                starts = [c.start for c in node.children]
                self._child_starts[id(node)] = starts
            i = bisect_right(starts, pos) - 1
            if i >= 0:
                child = node.children[i]
                if child.start <= pos < child.end:
                    node = child
                    continue
            break
        return node

    def path_at(self, pos: int) -> str:
        """Tag path of the deepest node containing `pos` (slash-joined)."""
        path = self._pos_paths.get(pos)
        if path is None:
            path = self.node_path(self.node_at(pos))
            self._pos_paths[pos] = path
        return path

    def node_path(self, node: DomNode) -> str:
        key = id(node)
        path = self._path_cache.get(key)
        if path is None:
            path = _tag_path(node)
            self._path_cache[key] = path
        return path

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

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
        if self._rendered is None:
            pieces: list[str] = []
            starts: list[int] = []
            offsets = [0]
            for node in self.iter_nodes():
                if node.tag == TEXT_TAG and not node.raw:
                    pieces.append(self.source[node.start : node.end])
                    starts.append(node.start)
                    offsets.append(offsets[-1] + node.end - node.start)
            self._rendered = ("".join(pieces), starts, offsets)
        text, starts, offsets = self._rendered
        if hi is None:
            hi = len(self.source)

        def rendered_offset(pos: int) -> int:
            i = bisect_right(starts, pos) - 1
            return 0 if i < 0 else min(offsets[i] + pos - starts[i], offsets[i + 1])

        return text[rendered_offset(lo) : rendered_offset(hi)]

    def find_occurrences(self, terms) -> list[Occurrence]:
        """Every exact occurrence of every term, with position and path."""
        terms = [t for t in terms if t]
        if not terms:
            raise ValueError("terms must be non-empty")
        out: list[Occurrence] = []
        src = self.source
        for term in sorted(set(terms)):
            pos = src.find(term)
            while pos != -1:
                node = self.node_at(pos)
                out.append(
                    Occurrence(term=term, pos=pos, path=self.node_path(node), in_raw=node.raw)
                )
                pos = src.find(term, pos + 1)
        out.sort(key=lambda o: (o.pos, -len(o.term), o.term))
        return out

    def cover_segments(self) -> list[tuple[DomNode, int, int]]:
        """Partition of the source by deepest node, in document order.

        Used by the round-trip invariant check: concatenating the segments
        reproduces the source exactly.
        """
        segments: list[tuple[DomNode, int, int]] = []

        def walk(node: DomNode) -> None:
            cursor = node.start
            for child in node.children:
                if child.start > cursor:
                    segments.append((node, cursor, child.start))
                walk(child)
                cursor = child.end
            if node.end > cursor:
                segments.append((node, cursor, node.end))

        walk(self.root)
        return segments


def _is_name_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def parse_html(raw: str) -> DomTree:
    """Parse possibly-malformed HTML; never raises on bad input."""
    n = len(raw)
    root = DomNode(ROOT_TAG, 0, n)
    stack: list[DomNode] = [root]
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
            stack.pop()

    while i < n:
        ch = raw[i]
        if ch != "<":
            if text_start < 0:
                text_start = i
            i += 1
            continue

        nxt = raw[i + 1] if i + 1 < n else ""
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
        elif nxt == "/":
            j = i + 2
            if j < n and _is_name_start(raw[j]):
                k = j
                while k < n and raw[k] not in (">", "<") and not raw[k].isspace():
                    k += 1
                name = raw[j:k].lower()
                close = raw.find(">", k)
                end = n if close == -1 else close + 1
                flush_text(i)
                # Find the matching open element; unmatched close tags are
                # swallowed by the current element.
                match = -1
                for depth in range(len(stack) - 1, 0, -1):
                    if stack[depth].tag == name:
                        match = depth
                        break
                if match > 0:
                    close_until(match, i)
                    stack[-1].end = end
                    stack.pop()
                i = end
            else:
                # "</" not followed by a name: literal text
                if text_start < 0:
                    text_start = i
                i += 1
        elif _is_name_start(nxt):
            flush_text(i)
            i = _parse_open_tag(raw, i, stack, add_child)
        else:
            if text_start < 0:
                text_start = i
            i += 1

    flush_text(n)
    close_until(0, n)
    return DomTree(raw, root)


def _parse_open_tag(raw: str, start: int, stack: list[DomNode], add_child) -> int:
    """Parse an open tag at `start`; returns the scan position after it."""
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
    closers = _SIBLING_CLOSERS.get(name)
    if closers and stack[-1].tag in closers and len(stack) > 1:
        stack[-1].end = start
        stack.pop()

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
    return tag_end
