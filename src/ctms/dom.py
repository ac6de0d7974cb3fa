"""Permissive HTML parsing into an offset-indexed page index.

The parser is a tag-soup scanner: it never fails, keeps the exact
character offsets of every construct, and builds no node objects.  What
mining reads of a position is its tag path, whether it lies in a
script/style body, and the rendered text, so one scan fills only the
segment table (each maximal run of positions with one path id, as its
start and path id, and the rendered text before it) and joins the
rendered text.  Each position query is then one bisection into it:
``path_id_at(pos)`` (markup characters resolve to their element),
``rendered_offset(pos)``, and the path id of each hit of
``occurrence_ids(terms)``.

Tag paths are hash-consed: ``(parent path id, tag)`` is interned to one
id per page, so two positions have equal paths exactly when they have
equal path ids.  A path's slash-joined string is built only on request,
by walking the parent ids.  A tag name never holds ``/``, so ``path_id``
resolves a string back to its id.  A script/style body is the only
``#text`` child its element can have, so being raw is a property of the
path (``path_raw``).

The scan moves from one construct to the next with one search of one
precompiled pattern; the gap before the match is a text run.  The match
of a close tag runs through its ``>`` (or to the end of the input), and
so does that of an open tag whose name is followed by ``>``.  Any other
open tag's attributes are read by one scanner, one step per match from
the end of the name.  Comment and directive ends and raw-text bodies are
found by further C-level searches, never one character at a time.
Repair strategy for malformed markup: unclosed elements are closed at
the boundary of the enclosing close tag (or end of input); close tags
with no matching open element are swallowed by the current element; a
``<`` that begins no construct is ordinary text.  A tag's characters are
its element's, but for attribute values, which are ``#attr`` leaves;
text runs are ``#text`` leaves.  Script and style bodies are ``#text``
leaves with a raw path, kept out of the rendered text.  Entities are not
decoded; offsets always index the raw source.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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
# Close-tag search for raw-text bodies: a ``</script`` or ``</style``
# whose name ends there, before whitespace, ``/`` or ``>``.  ASCII-only
# case folding matches the HTML rule and keeps every match offset an
# offset into the source.
_RAW_TEXT_CLOSE = {
    name: re.compile("</" + name + r"(?=[\t\n\f\r />])", re.I | re.A)
    for name in RAW_TEXT_ELEMENTS
}
# The constructs a ``<`` can begin, tried in this order: a comment opener
# (group 1), a ``<!`` or ``<?`` directive (2), a close tag (3, its name)
# and an open tag (4, its name).  Tag names start with an ASCII letter.  A
# close tag's name runs to whitespace, ``<`` or ``>``, and its match on
# through its ``>`` (or to the end of the input).  An open tag's name runs
# to whitespace, ``>`` or ``/``, and its match takes a ``>`` right after
# it (5); any other open tag's match ends with its name, where
# `_scan_attributes` takes over.  A ``<`` that begins none of the four is
# text.
_CONSTRUCT = re.compile(
    r"""<(?:(!--)|([!?])|/([A-Za-z][^\s<>]*)[^>]*>?|([A-Za-z][^\s>/]*)(>)?)"""
)
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
    """Parsed page: the source string and its segment table, built by `parse_html`.

    Path id p names tag ``path_tag[p]`` under path ``path_parent[p]``
    (-1 for the root's); ``path_raw[p]`` is true for a script/style body.
    Segment j, a maximal run of positions with one path id, starts at
    ``seg_start[j]`` and has path id ``seg_path[j]``, so adjacent segments
    have different ids.
    """

    def __init__(self, source: str):
        # The root path alone, and no segment yet.
        self.source = source
        self.path_tag = [ROOT_TAG]
        self.path_parent = [-1]
        self.path_raw = [False]
        self.seg_start: list[int] = []
        self.seg_path: list[int] = []
        # Rendered text before each segment (plus the total), and the text.
        self._rendered: list[int] = []
        self._text = ""
        self._path_ids = {(-1, ROOT_TAG): 0}  # (parent path id, tag) -> path id

    def path_id_at(self, pos: int) -> int:
        """Path id of the deepest construct containing `pos`."""
        if not (0 <= pos < len(self.source)):
            raise IndexError(f"position {pos} outside source of length {len(self.source)}")
        return self.seg_path[bisect_right(self.seg_start, pos) - 1]

    def path_string(self, path_id: int) -> str:
        """The slash-joined tag path of a path id."""
        tags = []
        p = path_id
        while p >= 0:
            tags.append(self.path_tag[p])
            p = self.path_parent[p]
        return "/".join(reversed(tags))

    def path_id(self, path: str) -> int:
        """Id of a slash-joined tag path; -1 when no position of the page has it."""
        p = -1
        for tag in path.split("/"):
            p = self._path_ids.get((p, tag), -1)
            if p < 0:
                break
        return p

    def rendered_offset(self, pos: int) -> int:
        """Length of the rendered text before source position `pos`."""
        starts, rendered = self.seg_start, self._rendered
        # A segment with no rendered text has equal bounds, so the clamp
        # maps every position in it to the text before it.
        i = bisect_right(starts, pos) - 1
        return 0 if i < 0 else min(rendered[i] + pos - starts[i], rendered[i + 1])

    def visible_text(self) -> str:
        """The page's rendered text: text runs outside script/style.  A
        source range's text is its slice between its ends' `rendered_offset`s."""
        return self._text

    def occurrence_ids(self, terms) -> list[tuple[int, str, int]]:
        """(pos, term, path id) of every exact occurrence of every term,
        by position, longest term first on ties; an empty term occurs nowhere."""
        out = [
            (pos, term, self.path_id_at(pos))
            for term in sorted(set(terms))
            for pos in find_all(self.source, term)
        ]
        out.sort(key=lambda o: (o[0], -len(o[1]), o[1]))
        return out


def parse_html(raw: str) -> DomTree:
    """Parse possibly-malformed HTML; never raises on bad input."""
    n = len(raw)
    tree = DomTree(raw)
    path_tag, path_ids, path_raw = tree.path_tag, tree._path_ids, tree.path_raw
    # A segment is added as its start, path id and the rendered text before
    # it; a run continuing the last segment's path id `last` extends that
    # segment.
    add_start, add_path = tree.seg_start.append, tree.seg_path.append
    add_rendered = tree._rendered.append
    last = -1
    pieces: list[str] = []
    rendered_len = 0
    text_ids: dict[int, int] = {}  # element path id -> its #text child's path id

    def child(parent: int, tag: str) -> int:
        # The interned path id of `tag` under path `parent`.
        key = (parent, tag)
        path = path_ids.get(key)
        if path is None:
            path = path_ids[key] = len(path_tag)
            path_tag.append(tag)
            tree.path_parent.append(parent)
            path_raw.append(tag == TEXT_TAG and path_tag[parent] in RAW_TEXT_ELEMENTS)
        return path

    stack = [0]  # path ids of the open elements, the root first
    # Open elements on the stack by tag, so a close tag that matches none
    # is swallowed without scanning the stack.
    open_count: dict[str, int] = defaultdict(int)

    i = 0
    while i < n:
        construct = _CONSTRUCT.search(raw, i)
        end = n if construct is None else construct.start()
        if end > i:
            # The gap before the next construct is a text run.  Raw-text
            # elements are never on the stack, so it is rendered.
            top = stack[-1]
            path = text_ids.get(top)
            if path is None:
                path = text_ids[top] = child(top, TEXT_TAG)
            if path != last:
                add_start(i)
                add_path(path)
                add_rendered(rendered_len)
                last = path
            pieces.append(raw[i:end])
            rendered_len += end - i
        if construct is None:
            break
        i = end
        comment, directive, close_name, open_name, bare = construct.groups()

        if open_name is None:
            if comment:
                # Searched from i + 2, so "<!-->" and "<!--->" are whole
                # empty comments, as in HTML.
                close = raw.find("-->", i + 2)
                path = child(stack[-1], COMMENT_TAG)
                after = n if close == -1 else close + 3
            elif directive:
                close = raw.find(">", i)
                path = child(stack[-1], DIRECTIVE_TAG)
                after = n if close == -1 else close + 1
            else:
                name, after = close_name.lower(), construct.end()
                # Close the matching open element; unmatched close tags are
                # swallowed by the current element.  The current element
                # (never the root, whose tag no name equals) is popped
                # directly.  Any other name is answered from `open_count`:
                # an unmatched one without a scan, a matched one scanning
                # only the elements it pops, so the parse stays linear.
                path = stack[-1]
                if path_tag[path] == name:
                    stack.pop()
                    open_count[name] -= 1
                elif open_count.get(name):
                    depth = len(stack) - 1
                    while path_tag[stack[depth]] != name:
                        depth -= 1
                    path = stack[depth]
                    for popped in stack[depth:]:
                        open_count[path_tag[popped]] -= 1
                    del stack[depth:]
            if path != last:
                add_start(i)
                add_path(path)
                add_rendered(rendered_len)
                last = path
            i = after
            continue

        # A bare tag's match ends at its ">", any other's at its name.
        name, tag_end = open_name.lower(), construct.end()
        attr_spans, self_closing = (), False
        if not bare:
            attr_spans, self_closing, tag_end = _scan_attributes(raw, tag_end)
        # Implicit close of a same-group sibling (<li> after unclosed <li> etc).
        closers = _SIBLING_CLOSERS.get(name)
        if closers and len(stack) > 1 and path_tag[stack[-1]] in closers:
            open_count[path_tag[stack.pop()]] -= 1
        top = stack[-1]
        elem = path_ids.get((top, name))
        if elem is None:
            elem = child(top, name)
        if elem != last:
            add_start(i)
            add_path(elem)
            add_rendered(rendered_len)
            last = elem
        # The tag's characters are its element's, but for attribute values.
        if attr_spans:
            attr = path_ids.get((elem, ATTR_TAG))
            if attr is None:
                attr = child(elem, ATTR_TAG)
            for a, b in attr_spans:
                add_start(a)
                add_path(attr)
                add_rendered(rendered_len)
                if b < tag_end:
                    add_start(b)
                    add_path(elem)
                    add_rendered(rendered_len)
            last = elem if b < tag_end else attr
        i = tag_end
        if self_closing or name in VOID_ELEMENTS:
            continue
        if name in RAW_TEXT_ELEMENTS:
            # Raw-text body: scan for the matching close tag, case-insensitive.
            close_tag = _RAW_TEXT_CLOSE[name].search(raw, tag_end)
            body_end = n if close_tag is None else close_tag.start()
            if body_end > tag_end:  # a raw #text run, not rendered
                last = child(elem, TEXT_TAG)
                add_start(tag_end)
                add_path(last)
                add_rendered(rendered_len)
            if close_tag is None:
                break
            close_gt = raw.find(">", body_end)
            i = n if close_gt == -1 else close_gt + 1
            if elem != last:
                add_start(body_end)
                add_path(elem)
                add_rendered(rendered_len)
                last = elem
            continue
        stack.append(elem)
        open_count[name] += 1

    add_rendered(rendered_len)
    tree._text = "".join(pieces)
    return tree


def _scan_attributes(raw: str, pos: int) -> tuple[list[tuple[int, int]], bool, int]:
    """The attributes of the open tag whose name ends at `pos`: their
    non-empty value spans, whether the tag ends with ``/>``, and the scan
    position after the tag."""
    attr_spans: list[tuple[int, int]] = []
    while True:
        step = _ATTR_STEP.match(raw, pos)
        if step is None:  # nothing but whitespace is left
            return attr_spans, False, len(raw)
        pos = step.end()
        group = step.lastindex
        if group == 1:
            return attr_spans, step.group(1) == "/>", pos
        if group is not None and step.end(group) > step.start(group):
            attr_spans.append(step.span(group))
