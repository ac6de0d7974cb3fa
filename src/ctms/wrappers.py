"""Wrapper learning and extraction over a single page.

A wrapper is a triplet (left context, right context, tag path).  It is
learned from the occurrences of known seed terms on one page and can only
be applied to that same page: the contexts are raw HTML character strings
and generalize only within the page's own template.

Learning, per tag-path group of seed occurrences:

  1. For every pair of occurrences of *different* seeds, take the longest
     shared left context (a common suffix of the preceding source, capped)
     and the longest shared right context (a common prefix of the
     following source, capped).
  2. Every truncation of those contexts is also a shared context.  The
     truncations are collapsed into "levels": distinct sets of match
     positions on the page, each represented by its longest string.
     Shorter contexts match more positions, which is what lets a wrapper
     learned from two seeds bracket list items the seeds never mentioned.
  3. Each (left level, right level) pair is a candidate wrapper.  It is
     kept if it passes the validity rules, brackets at least
     ``min_distinct_seeds`` different seeds, and no candidate with strictly
     longer contexts brackets exactly the same page spans (the longer one
     is more precise at no cost, so it wins).

Extraction walks the page once with a multi-pattern matcher over all
context strings.  Each wrapper's spans are then given by the span rule
`spans_on_path`, which learning applies to every candidate too: a span
runs from the end of a left-context match to the start of a right-context
match, contains no markup, trims to a non-empty string of at most
``MAX_TERM_LEN`` characters, and starts and ends on the wrapper's path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import PipelineConfig
from .dom import TEXTUAL_TAGS, DomTree
from .text import is_punct_text

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
    """Failure-link keyword automaton over a fixed pattern set.

    Matches every occurrence of every pattern in a single left-to-right
    scan, overlapping occurrences included.  Output is normalized to
    ascending start position, ties broken by descending pattern length.
    """

    def __init__(self, patterns: Iterable[str]):
        self.patterns: list[str] = sorted({p for p in patterns if p})
        # Trie: per-node transition dict, failure link, output pattern ids.
        self._next: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._out: list[list[int]] = [[]]
        for pid, pattern in enumerate(self.patterns):
            state = 0
            for ch in pattern:
                nxt = self._next[state].get(ch)
                if nxt is None:
                    self._next.append({})
                    self._fail.append(0)
                    self._out.append([])
                    nxt = len(self._next) - 1
                    self._next[state][ch] = nxt
                state = nxt
            self._out[state].append(pid)
        self._build_failure_links()

    def _build_failure_links(self) -> None:
        queue: deque[int] = deque()
        for state in self._next[0].values():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for ch, child in self._next[state].items():
                fall = self._fail[state]
                while fall and ch not in self._next[fall]:
                    fall = self._fail[fall]
                self._fail[child] = self._next[fall].get(ch, 0)
                # Propagate outputs so suffix patterns are reported too.
                self._out[child] = self._out[child] + self._out[self._fail[child]]
                queue.append(child)

    def find(self, text: str) -> list[tuple[str, int]]:
        if not self.patterns:
            return []
        results: list[tuple[str, int]] = []
        patterns = self.patterns
        state = 0
        for i, ch in enumerate(text):
            while state and ch not in self._next[state]:
                state = self._fail[state]
            state = self._next[state].get(ch, 0)
            for pid in self._out[state]:
                pattern = patterns[pid]
                results.append((pattern, i - len(pattern) + 1))
        results.sort(key=lambda m: (m[1], -len(m[0]), m[0]))
        return results


def is_valid_wrapper(w: Wrapper, cfg: PipelineConfig) -> bool:
    """Heuristic validity rules that weed out degenerate wrappers.

    1. at least one side carries non-whitespace (empty counts as whitespace);
    2. the sides are both punctuation or both not;
    3. non-punctuation sides must jointly span at least `kappa` characters;
    4. the path must end at a textual node (#text or #attr).
    """
    if not w.left or not w.right:
        return False
    if w.left.isspace() and w.right.isspace():
        return False
    left_punct = is_punct_text(w.left)
    right_punct = is_punct_text(w.right)
    if left_punct != right_punct:
        return False
    if not left_punct and len(w.left) + len(w.right) < cfg.kappa:
        return False
    tail = w.path.rsplit("/", 1)[-1]
    return tail in TEXTUAL_TAGS


def _common_suffix_len(src: str, a_end: int, b_end: int, cap: int) -> int:
    k = 0
    while k < cap and a_end - k > 0 and b_end - k > 0 and src[a_end - k - 1] == src[b_end - k - 1]:
        k += 1
    return k


def _common_prefix_len(src: str, a: int, b: int, cap: int) -> int:
    n = len(src)
    k = 0
    while k < cap and a + k < n and b + k < n and src[a + k] == src[b + k]:
        k += 1
    return k


def _levels(
    maximal: set[str], positions_of: dict[str, list[int]], truncate
) -> list[tuple[str, tuple[int, ...]]]:
    """Collapse context truncations into (longest string, match positions) levels."""
    best: dict[tuple[int, ...], str] = {}
    for s in maximal:
        for k in range(1, len(s) + 1):
            cand = truncate(s, k)
            pos = tuple(positions_of.get(cand, ()))
            if not pos:
                continue
            prev = best.get(pos)
            if prev is None or len(cand) > len(prev) or (len(cand) == len(prev) and cand < prev):
                best[pos] = cand
    return sorted(((s, pos) for pos, s in best.items()), key=lambda it: it[0])


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
) -> list[Wrapper]:
    """Learn wrappers bracketing occurrences of the seed set on one page.

    Returns a deterministic sorted list; empty when fewer than
    `min_distinct_seeds` different seeds occur with a shared tag path.
    """
    cfg = cfg or PipelineConfig()
    seed_list = sorted({s for s in seeds if s})
    if len(seed_list) < cfg.min_distinct_seeds:
        return []
    occs = [o for o in tree.find_occurrences(seed_list) if not o.in_raw]
    if not occs:
        return []

    src = tree.source
    groups: dict[str, list] = defaultdict(list)
    for occ in occs:
        groups[occ.path].append(occ)

    kept: list[Wrapper] = []
    for path in sorted(groups):
        group = groups[path]
        if len({o.term for o in group}) < cfg.min_distinct_seeds:
            continue

        left_max: set[str] = set()
        right_max: set[str] = set()
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if a.term == b.term:
                    continue
                lk = _common_suffix_len(src, a.pos, b.pos, MAX_CONTEXT_LEN)
                if lk:
                    left_max.add(src[a.pos - lk : a.pos])
                rk = _common_prefix_len(
                    src, a.pos + len(a.term), b.pos + len(b.term), MAX_CONTEXT_LEN
                )
                if rk:
                    right_max.add(src[a.pos + len(a.term) : a.pos + len(a.term) + rk])
        if not left_max or not right_max:
            continue

        # One automaton pass finds the positions of every truncation.
        all_contexts = set()
        for s in left_max:
            all_contexts.update(s[-k:] for k in range(1, len(s) + 1))
        for s in right_max:
            all_contexts.update(s[:k] for k in range(1, len(s) + 1))
        matcher = MultiMatcher(all_contexts)
        positions: dict[str, list[int]] = defaultdict(list)
        for pattern, pos in matcher.find(src):
            positions[pattern].append(pos)

        # Left levels key on where the bracketed span would start.
        left_ends: dict[str, list[int]] = {
            s: [p + len(s) for p in positions[s]] for s in positions
        }
        l_levels = _levels(left_max, left_ends, lambda s, k: s[-k:])
        r_levels = _levels(right_max, positions, lambda s, k: s[:k])

        seed_span_terms = {(o.pos, o.pos + len(o.term)): o.term for o in group}
        candidates: list[tuple[Wrapper, frozenset[tuple[int, int]]]] = []
        for left, ends in l_levels:
            end_set = set(ends)
            for right, starts in r_levels:
                wrapper = Wrapper(left, right, path)
                if not is_valid_wrapper(wrapper, cfg):
                    continue
                # Cheap gate: the candidate must bracket enough distinct
                # seeds before we bother computing its full span set.
                start_set = set(starts)
                bracketed = {
                    term
                    for (a, b), term in seed_span_terms.items()
                    if a in end_set and b in start_set
                }
                if len(bracketed) < cfg.min_distinct_seeds:
                    continue
                spans = spans_on_path(tree, ends, starts, path)
                if not spans:
                    continue
                candidates.append((wrapper, frozenset(spans)))

        # Dominance: among wrappers matching identical span sets, drop any
        # whose contexts another one strictly extends.
        by_spans: dict[frozenset, list[Wrapper]] = defaultdict(list)
        for wrapper, spans in candidates:
            by_spans[spans].append(wrapper)
        for spans, group_wrappers in by_spans.items():
            for w in group_wrappers:
                if not any(_extends(other, w) for other in group_wrappers):
                    kept.append(w)

    return sorted(set(kept))


def extract_spans(
    tree: DomTree, wrappers: Iterable[Wrapper]
) -> dict[Wrapper, list[tuple[int, int]]]:
    """Apply wrappers to the page they were learned on; spans per wrapper.

    One keyword-automaton scan finds every context string; each wrapper's
    spans are then those the span rule `spans_on_path` admits between its
    left-context ends and right-context starts, in document order.
    """
    wrapper_list = sorted(set(wrappers))
    if not wrapper_list:
        return {}
    matcher = MultiMatcher({c for w in wrapper_list for c in (w.left, w.right)})
    positions: dict[str, list[int]] = defaultdict(list)
    for pattern, pos in matcher.find(tree.source):
        positions[pattern].append(pos)
    out: dict[Wrapper, list[tuple[int, int]]] = {}
    for w in wrapper_list:
        ends = [p + len(w.left) for p in positions[w.left]]
        out[w] = spans_on_path(tree, ends, positions[w.right], w.path)
    return out


def extract_terms(tree: DomTree, wrappers: Iterable[Wrapper]) -> dict[Wrapper, list[str]]:
    """Extracted strings per wrapper, trimmed, in document order."""
    spans = extract_spans(tree, wrappers)
    return {
        w: [tree.source[a:b].strip() for a, b in pairs] for w, pairs in spans.items()
    }
