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
     match counts, in one walk of the trie, without building every
     shared context.
  3. Each (left level, right level) pair is a candidate wrapper.  It is
     kept if it passes the validity rules, brackets at least
     ``min_distinct_seeds`` different seeds, and no candidate with strictly
     longer contexts brackets exactly the same page spans (the longer one
     is more precise at no cost, so it wins).  The span rule runs once
     per group, over every left-level end and right-level start; span k
     gets bit k, a level's mask ORs the bits of its positions, and a
     candidate's span set is its left mask AND its right mask.  This is
     exact because whether a span is valid does not depend on the
     wrapper, and the rule's two early stops (at the next markup
     character, and once the trimmed piece is too long) are monotone in
     the right start: run on subsets of the ends and starts, it returns
     exactly the spans of the full run between them.

A span, by the span rule `spans_on_path`, runs from the end of a
left-context match to the start of a right-context match, contains no
markup, trims to a non-empty string of at most ``MAX_TERM_LEN``
characters, and starts and ends on the wrapper's path.  Learning scans
the page (for left contexts, the reversed page) only for the prefixes
it probes on root edges of the trie: a deeper edge's prefixes extend its
parent edge's longest one, so their matches are those of the parent's
that extend to them.  Each kept wrapper's span set comes back decoded
with it, so mining never searches the page again to apply a wrapper.

Extraction (`extract_spans`) is the independent check on those spans,
not part of mining: it finds every position of its wrappers' context
strings with one C-level scan per distinct pattern
(`MultiMatcher.positions`, built on `text.find_all`) and applies the span
rule per wrapper.  By the restriction argument above, it returns exactly
the spans learning does for every learned wrapper.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from os.path import commonprefix
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


class MultiMatcher:
    """Every occurrence of every pattern in a fixed set, overlaps included.

    Patterns are kept distinct, non-empty and sorted; each is found with
    its own `find_all` scan of the text.
    """

    def __init__(self, patterns: Iterable[str]):
        self.patterns: list[str] = sorted({p for p in patterns if p})

    def positions(self, text: str) -> dict[str, list[int]]:
        """Ascending start positions per pattern; ``[]`` for one that never occurs."""
        return {p: find_all(text, p) for p in self.patterns}

    def find(self, text: str) -> list[tuple[str, int]]:
        """(pattern, start) pairs by ascending start, longest pattern first on ties."""
        results = [(p, i) for p, starts in self.positions(text).items() for i in starts]
        results.sort(key=lambda m: (m[1], -len(m[0]), m[0]))
        return results


def is_valid_wrapper(w: Wrapper, cfg: PipelineConfig) -> bool:
    """Heuristic validity rules that weed out degenerate wrappers.

    1. both sides are non-empty and at least one carries non-whitespace;
    2. the sides are both punctuation or both not;
    3. non-punctuation sides must jointly span at least `kappa` characters;
    4. the path must end at a textual node (#text or #attr).
    """
    return _passes_rules(
        w.left, w.right, is_punct_text(w.left), is_punct_text(w.right), w.path, cfg.kappa
    )


def _passes_rules(
    left: str, right: str, left_punct: bool, right_punct: bool, path: str, kappa: int
) -> bool:
    """Rules 1-4 of `is_valid_wrapper`, given each side's `is_punct_text`."""
    if not left or not right:
        return False
    if left.isspace() and right.isspace():
        return False
    if left_punct != right_punct:
        return False
    if not left_punct and len(left) + len(right) < kappa:
        return False
    tail = path.rsplit("/", 1)[-1]
    return tail in TEXTUAL_TAGS


def _starts(text: str, s: str, base: list[int] | None) -> list[int]:
    """Ascending match starts of `s`: a page scan, or `base` (the starts
    of a prefix of `s`) filtered to those that extend to `s`."""
    if base is None:
        return find_all(text, s)
    return [q for q in base if text.startswith(s, q)]


def _or_bits(bits: dict[int, int], positions: Iterable[int]) -> int:
    """The OR of the bits of `positions`; 0 for positions without any."""
    mask = 0
    for p in positions:
        mask |= bits.get(p, 0)
    return mask


class _Level(NamedTuple):
    """One side's level of a tag-path group, in page coordinates."""

    context: str
    positions: tuple[int, ...]  # ascending; where spans start (left side) or end (right)
    occs: set[int]  # the group's occurrences it brackets, by index
    punct: bool  # is_punct_text(context), fixed per level


def _side_levels(
    text: str, anchors: Sequence[tuple[str, int]], mirrored: bool
) -> list[_Level]:
    """One side's levels, from each occurrence's (term, window start in `text`).

    `text` is the page, or for the left side the reversed page: there a
    match start q is the page position ``len(text) - q`` and a context is
    read back to front.

    The windows ``text[a : a + MAX_CONTEXT_LEN]`` are walked as a
    compressed trie.  A part of the occurrences whose windows share a
    common prefix of length n, split off from its parent at depth d, owns
    the prefixes of lengths ``(d, n]``; it adds levels only when it holds
    two different terms.  Along that edge the match sets shrink as the
    prefix grows, so equal match counts mean equal sets, and the levels
    are the maximal runs of lengths with one count: the edge's shortest
    and longest prefixes are probed, and a range whose end counts differ
    is bisected.  Each run is named by its longest prefix and brackets
    exactly the part's occurrences.  A root edge (d = 0) probes by
    scanning `text`; a deeper edge filters the starts of its parent's
    longest prefix.  Runs of different edges never share a match set, as
    a child part lacks some anchor of its parent.
    """
    windows = [text[a : a + MAX_CONTEXT_LEN] for _, a in anchors]
    found: list[tuple[list[int], str, set[int]]] = []
    # (depth, the part's occurrence indices, starts of its depth-long prefix)
    stack: list[tuple[int, Sequence[int], list[int] | None]] = [(0, range(len(anchors)), None)]
    while stack:
        depth, part, base = stack.pop()
        if len({anchors[i][0] for i in part}) < 2:
            continue
        prefix = commonprefix([windows[i] for i in part])
        n = len(prefix)
        if n > depth:
            probed = {k: _starts(text, prefix[:k], base) for k in (depth + 1, n)}
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
                probed[mid] = _starts(text, prefix[:mid], base)
                ranges += ((lo, mid), (mid, hi))
            occs = set(part)
            found.extend((probed[k], prefix[:k], occs) for k in ends)
            base = probed[n]
        children: dict[str, list[int]] = defaultdict(list)
        for i in part:
            if len(windows[i]) > n:
                children[windows[i][n]].append(i)
        stack.extend((n, child, base) for child in children.values())
    levels = []
    for starts, s, occs in sorted(found, key=lambda lv: lv[0]):
        if mirrored:
            s, starts = s[::-1], [len(text) - q for q in reversed(starts)]
        levels.append(_Level(s, tuple(starts), occs, is_punct_text(s)))
    return levels


def _extends(a: Wrapper, b: Wrapper) -> bool:
    """True when `a`'s contexts strictly extend `b`'s."""
    if a.left == b.left and a.right == b.right:
        return False
    return a.left.endswith(b.left) and a.right.startswith(b.right)


def spans_on_path(
    tree: DomTree, ends: Sequence[int], starts: Sequence[int], path: str
) -> list[tuple[int, int]]:
    """The span rule: valid spans (e, s) from a left end e to a right start s.

    `ends` and `starts` must be ascending.  A span is valid when it
    contains no markup characters, trims to a non-empty string of at most
    `MAX_TERM_LEN` characters, and both its first and last characters
    resolve to `path`.  Spans are returned in document order.
    """
    src = tree.source
    spans: list[tuple[int, int]] = []
    for e in ends:
        limit = tree.next_markup(e)
        i = bisect_left(starts, e)
        while i < len(starts):
            s = starts[i]
            i += 1
            if s > limit:
                break
            piece = src[e:s].strip()
            if len(piece) > MAX_TERM_LEN:
                break
            if piece and tree.path_at(e) == path and tree.path_at(s - 1) == path:
                spans.append((e, s))
    return spans


def learn_wrappers(
    seeds: Iterable[str], tree: DomTree, cfg: PipelineConfig | None = None
) -> dict[Wrapper, list[tuple[int, int]]]:
    """Learn the wrappers bracketing the seed set on one page, with their spans.

    The one learner.  Maps each kept wrapper, in sorted order, to its
    spans on the page in document order (what `extract_spans` finds for
    it); wrappers with the same span set share one list.  Empty when
    fewer than `min_distinct_seeds` different seeds occur with a shared
    tag path.
    """
    cfg = cfg or PipelineConfig()
    seed_list = sorted({s for s in seeds if s})
    if len(seed_list) < cfg.min_distinct_seeds:
        return {}
    occs = [o for o in tree.find_occurrences(seed_list) if not o.in_raw]
    if not occs:
        return {}

    src, mirror = tree.source, None
    groups: dict[str, list] = defaultdict(list)
    for occ in occs:
        groups[occ.path].append(occ)

    kept: dict[Wrapper, list[tuple[int, int]]] = {}
    for path in sorted(groups):
        group = groups[path]
        if len({o.term for o in group}) < cfg.min_distinct_seeds:
            continue

        if mirror is None:  # the reversed page, built once and only when needed
            mirror = src[::-1]
        sides = (
            _side_levels(mirror, [(o.term, len(src) - o.pos) for o in group], mirrored=True),
            _side_levels(src, [(o.term, o.pos + len(o.term)) for o in group], mirrored=False),
        )
        if not all(sides):
            continue

        gated: list[tuple[Wrapper, int, int]] = []
        for li, left in enumerate(sides[0]):
            for ri, right in enumerate(sides[1]):
                # Cheap gate: the candidate must bracket enough distinct
                # seeds before we bother computing its full span set.
                terms = {group[i].term for i in left.occs & right.occs}
                if len(terms) < cfg.min_distinct_seeds:
                    continue
                if _passes_rules(
                    left.context, right.context, left.punct, right.punct, path, cfg.kappa
                ):
                    gated.append((Wrapper(left.context, right.context, path), li, ri))
        if not gated:
            continue

        # One span-rule pass over every level's positions.  Span k is bit
        # k; a level's mask is the OR of the bits at its positions (a
        # span's first item on the left side, its second on the right), so
        # a candidate's span set is its two masks ANDed.
        spans = spans_on_path(
            tree, *(sorted({p for lv in side for p in lv.positions}) for side in sides), path
        )
        masks = []
        for item, side in enumerate(sides):
            bits: dict[int, int] = defaultdict(int)
            for k, span in enumerate(spans):
                bits[span[item]] |= 1 << k
            masks.append([_or_bits(bits, lv.positions) for lv in side])

        # Dominance: among wrappers matching identical span sets, drop any
        # whose contexts another one strictly extends.
        by_spans: dict[int, list[Wrapper]] = defaultdict(list)
        for wrapper, li, ri in gated:
            span_set = masks[0][li] & masks[1][ri]
            if span_set:
                by_spans[span_set].append(wrapper)
        for span_set, group_wrappers in by_spans.items():
            # Bit k set <=> span k; the reversed binary string has bit k at index k.
            decoded = [spans[k] for k in find_all(bin(span_set)[:1:-1], "1")]
            for w in group_wrappers:
                if not any(_extends(other, w) for other in group_wrappers):
                    kept[w] = decoded

    return {w: kept[w] for w in sorted(kept)}


def extract_spans(
    tree: DomTree, wrappers: Iterable[Wrapper]
) -> dict[Wrapper, list[tuple[int, int]]]:
    """Apply wrappers to the page they were learned on; spans per wrapper.

    One C-level scan per distinct context string finds its positions; each
    wrapper's spans are then those the span rule `spans_on_path` admits
    between its left-context ends and right-context starts, in document
    order.  Mining takes its spans from `learn_wrappers` instead; this is the
    independent check that they are the wrappers' spans on the page.
    """
    wrapper_list = sorted(set(wrappers))
    if not wrapper_list:
        return {}
    matcher = MultiMatcher(c for w in wrapper_list for c in (w.left, w.right))
    positions = matcher.positions(tree.source)
    out: dict[Wrapper, list[tuple[int, int]]] = {}
    for w in wrapper_list:
        ends = [p + len(w.left) for p in positions.get(w.left, [])]
        out[w] = spans_on_path(tree, ends, positions.get(w.right, []), w.path)
    return out

