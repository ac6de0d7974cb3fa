"""Wrapper learning and extraction over a single page.

A wrapper is a triplet (left context, right context, tag path).  It is
learned from the occurrences of known seed terms on one page and can only
be applied to that same page: the contexts are raw HTML character strings
and generalize only within the page's own template.

`learn_wrappers` is the one learner.  It returns each kept wrapper with
its spans on the page, learned per tag-path group of seed occurrences:

  1. Each occurrence has a right window (the ``MAX_CONTEXT_LEN``
     characters after it) and a left window (those before it, read
     outwards: a right window of the reversed page, so one routine,
     `_side_levels`, serves both sides).  A shared context is a non-empty
     window prefix that occurrences of two *different* seeds have in
     common: a prefix on an edge of the windows' compressed trie below
     which lie windows of two different seeds.  No two occurrences are
     compared directly.
  2. The shared contexts are collapsed into "levels": distinct sets of
     match positions on the page, each represented by its longest string.
     Shorter contexts match more positions, which is what lets a wrapper
     learned from two seeds bracket list items the seeds never mentioned.
     Along one trie edge the match sets only shrink, so `_side_levels`
     finds an edge's levels by bisecting its range of prefix lengths on
     match counts, in one walk of the trie over the windows sorted once,
     without building every shared context.  Probes on root edges scan
     the page, and the groups of a page often probe the same strings
     (their windows start alike: ``<``, ``</``, ``>``), so `learn_wrappers`
     keeps each side's scans in a table by string for the one call: a
     page is scanned at most once per probe string and side, whatever
     its number of groups.
  3. Each (left level, right level) pair is a candidate wrapper.  It is
     kept if it passes the validity rules (`_contexts_pass`; its path
     ends at a #text or #attr node), brackets at least
     ``min_distinct_seeds`` different seeds, and no candidate with
     strictly longer contexts brackets exactly the same page spans (the
     longer one is more precise at no cost, so it wins).  A level holds
     the group's occurrences it brackets as an int bitmask, so the seed
     gate clears one seed's occurrences from the pair's AND per round.
     The span rule runs once per group, over the positions of the gated
     candidates' levels (those of the pairs past the seed gate and rules
     1-3): the ends of their left levels and the starts of their right
     ones.  That union is read off the used levels' tops (those with no
     used level above them on a trie root path) with no set built: a
     context's matches are among those of every context it extends, and
     two contexts neither of which extends the other never match at one
     position, so the union is the tops' positions, sorted together when
     there are several.  Span k gets bit k, a level's mask ORs the bits
     of its positions, and a candidate's span set is its left mask AND
     its right mask.  This is exact because whether a span is valid does
     not depend on the wrapper, and the rule's two early stops (at the
     end of the segment or the next markup character, and once the
     trimmed piece is too long) are monotone in the right start: run on
     subsets of the ends and starts, it returns exactly the spans of the
     full run between them.

A span, by the span rule `spans_on_path`, runs from the end of a
left-context match to the start of a right-context match, lies within
one segment of the page (a maximal run of positions with one path id)
whose path is the wrapper's, contains no markup, and trims to a
non-empty string of at most ``MAX_TERM_LEN`` characters.  So a span
never runs from one attribute value of a tag into the next, though no
markup character stands between them.  An end's stop is the nearest of
its segment's end, the next ``<`` and the next ``>``; the last two are
each found by `str.find` and searched for again only once the ascending
ends pass it.
The rule takes the path as the page's interned path id (equal ids are
equal paths), so learning groups occurrences by id, passes each group's
id, and builds a path's string only for the wrappers it keeps.  Learning
scans the page (for left contexts, the reversed page) only for the
prefixes it probes on root edges of the trie, each string once per call,
whichever group probes it first.  A deeper edge's prefixes
extend its parent edge's longest one, and the probes along an edge are
chained: each probe's matches are those of the nearest shorter probed
prefix (for the edge's first probe, the parent's longest) that extend to
it.  One context of a side extends another exactly when its level lies
below the other's on a trie root path, so dominance compares the levels'
ancestry masks, never strings, and a `Wrapper` is built only for each
candidate kept.  Each kept wrapper's span set comes back decoded with
it, so mining never searches the page again to apply a wrapper.

Extraction (`extract_spans`) is the independent check on those spans,
not part of mining: it finds every position of its wrappers' context
strings with one C-level scan (`text.find_all`) per distinct string,
resolves each wrapper's path string to its id once, and applies the span
rule per wrapper.  By the restriction argument above, it returns exactly
the spans learning does for every learned wrapper.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .config import PipelineConfig
from .dom import TEXTUAL_TAGS, DomTree
from .text import find_all, is_punct_text

# Bounds shared by learning and extraction.
MAX_CONTEXT_LEN = 60  # per side; templated contexts are short
MAX_TERM_LEN = 50  # extracted strings longer than this are noise


@dataclass(frozen=True, order=True)
class Wrapper:
    """Page-local extraction rule: left context, right context, tag path."""

    left: str
    right: str
    path: str


def _contexts_pass(
    left: str, right: str, left_punct: bool, right_punct: bool, kappa: int
) -> bool:
    """Rules 1-3 of wrapper validity, given each side's `is_punct_text`.

    1. both sides are non-empty and at least one carries non-whitespace;
    2. the sides are both punctuation or both not;
    3. non-punctuation sides must jointly span at least `kappa` characters.

    Rule 4, a path ending at a #text or #attr node, holds per tag-path
    group; `learn_wrappers` checks it there.
    """
    if not left or not right:
        return False
    if left.isspace() and right.isspace():
        return False
    if left_punct != right_punct:
        return False
    return left_punct or len(left) + len(right) >= kappa


def _starts(
    text: str, s: str, base: list[int] | None, scans: dict[str, list[int]]
) -> list[int]:
    """Ascending match starts of `s`: `base` (the starts of a prefix of
    `s`) filtered to those that extend to `s`, or with no `base` a scan of
    `text`.  `scans` holds the scans already made of `text`, by string, so
    each string is scanned at most once; a caller must not change a list
    it gets back."""
    if base is not None:
        return [q for q in base if text.startswith(s, q)]
    starts = scans.get(s)
    if starts is None:
        starts = scans[s] = find_all(text, s)
    return starts


class _Level(NamedTuple):
    """One side's level of a tag-path group, in page coordinates."""

    context: str
    positions: tuple[int, ...]  # ascending; where spans start (left side) or end (right)
    occs: int  # the group's occurrences it brackets: bit i for occurrence i
    punct: bool  # is_punct_text(context), fixed per level
    within: int  # bit j: this context extends or equals level j's


def _side_levels(
    text: str, anchors: Sequence[tuple[str, int]], mirrored: bool, scans: dict[str, list[int]]
) -> list[_Level]:
    """One side's levels, from each occurrence's (term, window start in `text`).

    `text` is the page, or for the left side the reversed page: there a
    match start q is the page position ``len(text) - q`` and a context is
    read back to front.

    The windows ``text[a : a + MAX_CONTEXT_LEN]`` are sorted once and
    walked as a compressed trie, each of whose parts is a contiguous run
    of the sorted windows.  A part whose windows share a common prefix of
    length n (that of its first and last window), split off from its
    parent at depth d, owns the prefixes of lengths ``(d, n]``; it adds
    levels only when it holds two different terms.  Its children are its
    runs of one character at depth n, found by bisection.  Along that
    edge the match sets shrink as the prefix grows, so equal match counts
    mean equal sets, and the levels are the maximal runs of lengths with
    one count: the edge's shortest and longest prefixes are probed, and a
    range whose end counts differ is bisected.  Each run is named by its
    longest prefix and brackets exactly the part's occurrences.  A root
    edge (d = 0) probes by scanning `text`, or reads the probe's starts
    from `scans` when another group of the page already scanned `text`
    for that string; the scan table is the caller's, one per text, and a
    new scan is added to it.  A deeper edge's first probe
    filters the starts of its parent's longest prefix, and each later
    probe those of the nearest shorter length it has probed.  Runs of
    different edges never share a match set, as a child part lacks some
    anchor of its parent.  One level's context is a prefix of another's
    exactly when its run is on the other's root path, at or above it, so
    the walk hands each level's `within` mask down the trie.  Levels come
    in walk order: the learner treats them as sets and sorts the wrappers
    it keeps.
    """
    windows = [text[a : a + MAX_CONTEXT_LEN] for _, a in anchors]
    order = sorted(range(len(anchors)), key=windows.__getitem__)
    windows = [windows[i] for i in order]
    terms, bits = [anchors[i][0] for i in order], [1 << i for i in order]
    found: list[tuple[list[int], str, int, int]] = []
    # (the part's run start:stop of the sorted windows, its depth, starts
    # of its depth-long prefix, the `within` mask of its parent's levels)
    stack: list[tuple[int, int, int, list[int] | None, int]] = [(0, len(order), 0, None, 0)]
    while stack:
        start, stop, depth, base, within = stack.pop()
        if len(set(terms[start:stop])) < 2:
            continue
        first, last = windows[start], windows[stop - 1]
        n, most = depth, min(len(first), len(last))
        while n < most and first[n] == last[n]:
            n += 1
        prefix = first[:n]
        if n > depth:
            # On a deeper edge each probe filters the starts of the nearest
            # shorter probed length; on a root edge each scans `text`.
            chained = base is not None
            probed = {depth + 1: _starts(text, prefix[: depth + 1], base, scans)}
            if n > depth + 1:
                probed[n] = _starts(text, prefix, probed[depth + 1] if chained else None, scans)
            # Run ends: n, and every length whose successor matches fewer.
            ends, ranges = [n], [(depth + 1, n)]
            while ranges:
                lo, hi = ranges.pop()
                if len(probed[lo]) == len(probed[hi]):
                    continue
                if hi == lo + 1:
                    ends.append(lo)
                    continue
                mid = (lo + hi) // 2
                probed[mid] = _starts(text, prefix[:mid], probed[lo] if chained else None, scans)
                ranges += ((lo, mid), (mid, hi))
            occs = sum(bits[start:stop])
            for k in sorted(ends):  # each level is within the longer ones
                within |= 1 << len(found)
                found.append((probed[k], prefix[:k], occs, within))
            base = probed[n]
        # Windows that end at depth n sort first and have no child.
        if len(first) == n:
            start = bisect_right(windows, prefix, start, stop)
        char_at = itemgetter(n)
        while start < stop:
            end = bisect_right(windows, windows[start][n], start, stop, key=char_at)
            stack.append((start, end, n, base, within))
            start = end
    levels = []
    for starts, s, occs, within in found:
        if mirrored:
            s, starts = s[::-1], [len(text) - q for q in reversed(starts)]
        levels.append(_Level(s, tuple(starts), occs, is_punct_text(s), within))
    return levels


def _used_positions(levels: Sequence[_Level], used: set[int]) -> Sequence[int]:
    """The ascending union of the positions of the levels indexed by `used`.

    It is read off the tops: the used levels whose `within` mask holds no
    other used level.  A level's positions lie inside those of every level
    its context extends (a match of the longer context is one of the
    shorter), so each used level's lie inside its top's; and two contexts
    of which neither extends the other never match at one position, so
    different tops' positions are disjoint.  The union is thus one top's
    positions as they are, or the sorted concatenation of several tops'.
    """
    mask = 0
    for i in used:
        mask |= 1 << i
    tops = [levels[i].positions for i in used if levels[i].within & mask == 1 << i]
    if len(tops) == 1:
        return tops[0]
    return sorted(chain.from_iterable(tops))


def spans_on_path(
    tree: DomTree, ends: Sequence[int], starts: Sequence[int], path_id: int
) -> list[tuple[int, int]]:
    """The span rule: valid spans (e, s) from a left end e to a right start s.

    `ends` and `starts` must be ascending.  A span is valid when it lies
    within one segment of the page (a maximal run of positions with one
    path id), that segment's path id is `path_id` (equal ids are equal
    paths; an id of -1, a path the page lacks, admits no span), it
    contains no markup characters, and it trims to a non-empty string of
    at most `MAX_TERM_LEN` characters.  So a span never runs from one
    attribute value of a tag into the next.  Spans are returned in
    document order.
    """
    src, seg_start, seg_path = tree.source, tree.seg_start, tree.seg_path
    n = len(src)
    next_lt = next_gt = -1
    spans: list[tuple[int, int]] = []
    for e in ends:
        # A span starts at e and ends within e's segment, which must be on the path.
        k = bisect_right(seg_start, e)
        if e >= n or seg_path[k - 1] != path_id:
            continue
        # The next "<" and ">" at or after e (a miss, -1, wraps to n),
        # found again only once the ascending ends pass them: linear.
        if e > next_lt:
            next_lt = src.find("<", e) % (n + 1)
        if e > next_gt:
            next_gt = src.find(">", e) % (n + 1)
        limit = min(next_lt, next_gt, seg_start[k] if k < len(seg_start) else n)
        i = bisect_left(starts, e)
        while i < len(starts):
            s = starts[i]
            i += 1
            if s > limit:
                break
            piece = src[e:s].strip()
            if len(piece) > MAX_TERM_LEN:
                break
            if piece:
                spans.append((e, s))
    return spans


def learn_wrappers(
    seeds: Iterable[str], tree: DomTree, cfg: PipelineConfig
) -> dict[Wrapper, list[tuple[int, int]]]:
    """Learn the wrappers bracketing the seed set on one page, with their spans.

    The one learner.  Maps each kept wrapper, in sorted order, to its
    spans on the page in document order (what `extract_spans` finds for
    it); wrappers with the same span set share one list.  Empty when
    fewer than `min_distinct_seeds` different seeds occur with a shared
    tag path.
    """
    src, mirror = tree.source, None
    # Root-edge scans of the reversed page and of the page, by probe string:
    # shared by the page's groups, dropped when this call returns.
    mirror_scans: dict[str, list[int]] = {}
    src_scans: dict[str, list[int]] = {}
    groups: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for pos, term, path_id in tree.occurrence_ids(seeds):
        groups[path_id].append((term, pos))

    kept: dict[tuple[str, str, str], list[tuple[int, int]]] = {}  # (left, right, path)
    for path_id, group in groups.items():
        # Rule 4 (the path ends at a #text or #attr node), and being in a
        # script/style body, hold for all of a group or none of it.
        if tree.path_raw[path_id] or tree.path_tag[path_id] not in TEXTUAL_TAGS:
            continue
        if len({term for term, _ in group}) < cfg.min_distinct_seeds:
            continue

        if mirror is None:  # the reversed page, built once and only when needed
            mirror = src[::-1]
        sides = (
            _side_levels(mirror, [(t, len(src) - p) for t, p in group], True, mirror_scans),
            _side_levels(src, [(t, p + len(t)) for t, p in group], False, src_scans),
        )
        if not all(sides):
            continue

        # Occurrence bit -> every occurrence bit but those of its term.
        term_bits: dict[str, int] = defaultdict(int)
        for i, (term, _) in enumerate(group):
            term_bits[term] |= 1 << i
        others = {1 << i: ~term_bits[term] for i, (term, _) in enumerate(group)}

        gated: list[tuple[int, int]] = []
        need_seeds, right_occs = cfg.min_distinct_seeds, [lv.occs for lv in sides[1]]
        for li, left in enumerate(sides[0]):
            left_occs = left.occs
            for ri, bracketed in enumerate(right_occs):
                # Distinct-seed gate, before any span work: each round clears
                # every occurrence of the lowest bracketed occurrence's seed.
                bracketed &= left_occs
                need = need_seeds
                while need and bracketed:
                    bracketed &= others[bracketed & -bracketed]
                    need -= 1
                if not need:
                    right = sides[1][ri]
                    if _contexts_pass(
                        left.context, right.context, left.punct, right.punct, cfg.kappa
                    ):
                        gated.append((li, ri))
        if not gated:
            continue

        # One span-rule pass over the positions of the levels some gated
        # candidate uses (exact by the restriction argument in the module
        # notes).  Span k is bit k; a level's mask is the OR of the bits at
        # its positions (a span's first item on the left side, its second
        # on the right), so a gated candidate's span set is its two masks
        # ANDed.  A level's positions are distinct, so their bits are
        # disjoint and the OR is their sum.
        ends = _used_positions(sides[0], {li for li, _ in gated})
        starts = _used_positions(sides[1], {ri for _, ri in gated})
        spans = spans_on_path(tree, ends, starts, path_id)
        masks = []
        for item, side in enumerate(sides):
            bits: dict[int, int] = defaultdict(int)
            for k, span in enumerate(spans):
                bits[span[item]] |= 1 << k
            masks.append([sum(map(bits.get, lv.positions, repeat(0))) for lv in side])

        # Dominance: among candidates matching identical span sets, drop any
        # whose (left, right) contexts another one strictly extends: whose
        # levels are within the other's levels on both sides.
        path = tree.path_string(path_id)
        by_spans: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for li, ri in gated:
            span_set = masks[0][li] & masks[1][ri]
            if span_set:
                by_spans[span_set].append((li, ri))
        left_within, right_within = ([lv.within for lv in side] for side in sides)
        for span_set, pairs in by_spans.items():
            # Bit k set <=> span k; the reversed binary string has bit k at index k.
            decoded = [spans[k] for k in find_all(bin(span_set)[:1:-1], "1")]
            for li, ri in pairs:
                if len(pairs) == 1 or not any(
                    left_within[lj] >> li & 1 and right_within[rj] >> ri & 1 and (lj, rj) != (li, ri)
                    for lj, rj in pairs
                ):
                    kept[sides[0][li].context, sides[1][ri].context, path] = decoded

    # Sorted (left, right, path) keys are `Wrapper`'s own order.
    return {Wrapper(*key): kept[key] for key in sorted(kept)}


def extract_spans(
    tree: DomTree, wrappers: Iterable[Wrapper]
) -> dict[Wrapper, list[tuple[int, int]]]:
    """Apply wrappers to the page they were learned on; spans per wrapper.

    One C-level scan per distinct context string finds its positions; each
    wrapper's path string is resolved to the page's path id once, and its
    spans are those the span rule `spans_on_path` admits between its
    left-context ends and right-context starts, in document order.
    Mining takes its spans from `learn_wrappers` instead; this is the
    independent check that they are the wrappers' spans on the page.
    """
    wrapper_list = sorted(set(wrappers))
    contexts = {c for w in wrapper_list for c in (w.left, w.right)}
    positions = {c: find_all(tree.source, c) for c in contexts}
    out: dict[Wrapper, list[tuple[int, int]]] = {}
    for w in wrapper_list:
        ends = [p + len(w.left) for p in positions[w.left]]
        out[w] = spans_on_path(tree, ends, positions[w.right], tree.path_id(w.path))
    return out

