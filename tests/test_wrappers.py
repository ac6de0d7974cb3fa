"""Wrapper learning/extraction tests, including the all-pairs oracles."""

import hashlib
import json
import random
import tracemalloc
from collections import defaultdict
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from ctms.config import PipelineConfig
from ctms.dom import DomTree, parse_html
from ctms.text import find_all, is_punct_text
from ctms.wrappers import (
    MAX_CONTEXT_LEN,
    MAX_TERM_LEN,
    Wrapper,
    _contexts_pass,
    _side_levels,
    _used_positions,
    extract_spans,
    learn_wrappers,
    spans_on_path,
)

from test_acceptance import _synthetic_page as criterion_2_page
from test_acceptance import obeys_validity_rules
from test_dom import FIG_FRAGMENT, find_occurrences, path_at


def extract_terms(tree: DomTree, wrappers: Iterable[Wrapper]) -> dict[Wrapper, list[str]]:
    """Extracted strings per wrapper, trimmed, in document order."""
    spans = extract_spans(tree, wrappers)
    return {
        w: [tree.source[a:b].strip() for a, b in pairs] for w, pairs in spans.items()
    }


def oracle_spans(tree: DomTree, wrapper: Wrapper) -> list[tuple[int, int]]:
    """Naive all-pairs oracle: every (left occurrence, right occurrence)
    pair, checked with the same path/noise predicate as extraction."""
    src = tree.source
    lefts, rights = [], []
    i = src.find(wrapper.left)
    while i != -1:
        lefts.append(i + len(wrapper.left))
        i = src.find(wrapper.left, i + 1)
    i = src.find(wrapper.right)
    while i != -1:
        rights.append(i)
        i = src.find(wrapper.right, i + 1)
    spans = []
    for e in lefts:
        for s in rights:
            if s < e:
                continue
            c = src[e:s]
            if "<" in c or ">" in c:
                continue
            piece = c.strip()
            if not piece or len(piece) > MAX_TERM_LEN:
                continue
            if path_at(tree, e) == wrapper.path and path_at(tree, s - 1) == wrapper.path:
                spans.append((e, s))
    return sorted(spans)


# --- validity rules --------------------------------------------------------


def contexts_pass(left: str, right: str, kappa: int = PipelineConfig().kappa) -> bool:
    """Rules 1-3 as the learner applies them, to contexts on a textual path;
    the rules' statement in criterion 3 must agree."""
    got = _contexts_pass(left, right, is_punct_text(left), is_punct_text(right), kappa)
    assert got == obeys_validity_rules(Wrapper(left, right, "p/#text"), kappa)
    return got


def test_valid_wrapper_span_contexts():
    assert contexts_pass("<span>", "</span>")


def test_whitespace_only_contexts_rejected():
    assert not contexts_pass(" ", " ")
    assert not contexts_pass("", ">")
    assert not contexts_pass("", "abcd")
    assert not contexts_pass("abcd", "")


def test_mixed_punctuation_rejected():
    # left all punctuation, right carries letters
    assert not contexts_pass("、", "</a>")
    # both punctuation is fine
    assert contexts_pass("、", "。")


def test_kappa_minimum_combined_length():
    assert not contexts_pass("a", "b", kappa=4)
    assert contexts_pass("ab", "cd", kappa=4)


def test_path_must_end_textually():
    # Rule 4 holds per tag-path group, so it is checked on what the learner
    # learns.  Seeds inside comments lie on a #comment path and learn
    # nothing, though their contexts pass rules 1-3; seeds in attribute
    # values learn wrappers on the #attr path.
    seeds = {"宏碁", "索尼"}
    comments = parse_html("<div><!--<b>ab 宏碁 cd</b>--><!--<b>ab 索尼 cd</b>--></div>")
    assert learn_wrappers(seeds, comments, PipelineConfig()) == {}
    titles = parse_html('<div><a title="ab 宏碁 cd">x</a><a title="ab 索尼 cd">y</a></div>')
    learned = learn_wrappers(seeds, titles, PipelineConfig())
    assert learned and {w.path for w in learned} == {"#document/div/a/#attr"}
    assert all(obeys_validity_rules(w, PipelineConfig().kappa) for w in learned)


# --- learning --------------------------------------------------------------


def test_fig_fragment_learns_four_brand_wrapper():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig())
    assert wrappers
    assert all("<span>" in w.left for w in wrappers)
    assert all(w.right.startswith("</span>") for w in wrappers)
    assert all(w.path.endswith("a/span/#text") for w in wrappers)
    extractions = extract_terms(tree, wrappers)
    assert ["宏碁", "索尼", "东芝", "戴尔"] in list(extractions.values())


def test_no_shared_path_no_wrapper():
    tree = parse_html("<p>索尼</p><div><span>宏碁</span></div>")
    assert learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig()) == {}


def test_single_seed_twice_is_not_enough():
    tree = parse_html("<ul><li>索尼</li><li>索尼</li></ul>")
    assert learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig()) == {}


def test_seed_occurrences_in_script_are_ignored():
    tree = parse_html("<script>'索尼','宏碁'</script><p>plain</p>")
    assert learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig()) == {}


def test_learned_wrappers_recover_seeds():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig())
    for w, terms in extract_terms(tree, wrappers).items():
        assert len({"宏碁", "索尼"} & set(terms)) >= 2, w


def test_dominance_no_same_span_extensions():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig())
    spans = extract_spans(tree, wrappers)
    for a in wrappers:
        for b in wrappers:
            if a == b:
                continue
            if spans[a] == spans[b]:
                extends = a.left.endswith(b.left) and a.right.startswith(b.right)
                assert not extends or (a.left == b.left and a.right == b.right)


def test_dominance_keeps_candidates_neither_of_which_extends_the_other():
    # ("<p>", " ") and (">", " </") bracket the same two spans, and neither
    # extends the other.  ("<p>", " </") extends both but fails rule 2, as
    # only its right side is punctuation; the trailing " " keeps " " a level
    # of its own, apart from " </".
    tree = parse_html("<p>乙 </p></b><p>甲 </b>x</p> ")
    learned = learn_wrappers({"甲", "乙"}, tree, PipelineConfig(kappa=1))
    path = "#document/p/#text"
    assert learned == {
        Wrapper("<p>", " ", path): [(3, 4), (16, 17)],
        Wrapper(">", " </", path): [(3, 4), (16, 17)],
    }
    assert not contexts_pass("<p>", " </", kappa=1)


def test_dominance_keeps_only_the_longest_of_a_chain():
    # Each wrapper of the chain extends the one before it, all pass the
    # validity rules, and all bracket the same two spans.
    tree = parse_html("<ul><li>甲</li><li>乙</li></ul>")
    path = "#document/ul/li/#text"
    chain = [(">", "<"), ("li>", "</l"), ("<li>", "</li>"), ("><li>", "</li><")]
    wrappers = [Wrapper(left, right, path) for left, right in chain]
    assert all(contexts_pass(w.left, w.right) for w in wrappers)
    assert all(spans == [(8, 9), (18, 19)] for spans in extract_spans(tree, wrappers).values())
    assert learn_wrappers({"甲", "乙"}, tree, PipelineConfig()) == {wrappers[-1]: [(8, 9), (18, 19)]}


def test_each_probe_string_is_scanned_once_per_page(monkeypatch):
    # Two tag-path groups whose windows share their first characters: both
    # probe "<" and "</" on the page and ">" on the reversed page.
    html = (
        "<ul><li><a>甲</a></li><li><a>乙</a></li><li><a>丙</a></li></ul>"
        "<table><tr><td>甲</td><td>乙</td><td>丁</td></tr></table>"
    )
    tree = parse_html(html)
    pages = (html, html[::-1])
    scanned = []

    def counting_find_all(text, pattern):
        if text in pages:
            scanned.append((pages.index(text), pattern))
        return find_all(text, pattern)

    monkeypatch.setattr("ctms.wrappers.find_all", counting_find_all)
    learned = learn_wrappers({"甲", "乙"}, tree, PipelineConfig())
    monkeypatch.undo()
    assert {(0, "<"), (0, "</"), (1, ">")} <= set(scanned)
    assert len(scanned) == len(set(scanned)), sorted(scanned)
    assert len({w.path for w in learned}) == 2
    assert learned == extract_spans(tree, learned)


# --- extraction ------------------------------------------------------------


def test_extraction_document_order_and_trim():
    html = '<ul><li class="i"> 甲 </li><li class="i"> 乙 </li><li class="i"> 丙 </li></ul>'
    tree = parse_html(html)
    wrappers = learn_wrappers({"甲", "乙"}, tree, PipelineConfig())
    assert wrappers
    best = max(extract_terms(tree, wrappers).values(), key=len)
    assert best == ["甲", "乙", "丙"]


def test_wrapper_whose_left_never_occurs():
    tree = parse_html("<p>abc</p>")
    w = Wrapper("NOPE", "</p>", "#document/p/#text")
    assert extract_terms(tree, [w]) == {w: []}


def test_span_crossing_node_boundary_excluded():
    # right context matches in a different node: the path check must fail
    html = "<div><b>AA</b>xx<b>BB</b>yy</div>"
    tree = parse_html(html)
    w = Wrapper("<b>", "</b>yy", "#document/div/b/#text")
    terms = extract_terms(tree, [w])[w]
    assert terms == ["BB"]


def test_extraction_matches_oracle_on_fragment():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig())
    got = extract_spans(tree, wrappers)
    for w in wrappers:
        assert got[w] == oracle_spans(tree, w)


def _synthetic_page(rng: random.Random, seeds: list[str]) -> str:
    """Templated lists with decoys plus unstructured filler."""
    decoys = ["甲流", "乙方", "丙烷", "丁香", "戊戌", "己任", "庚子", "辛丑"]
    parts = ["<html><body>"]
    for _block in range(rng.randint(1, 3)):
        parts.append(f"<p>{'閒' * rng.randint(0, 40)}</p>")
        items = rng.sample(seeds, k=rng.randint(2, len(seeds))) + rng.sample(
            decoys, k=rng.randint(0, 4)
        )
        rng.shuffle(items)
        css = rng.choice(["entry", "row", "cell"])
        parts.append("<ul>")
        for i, item in enumerate(items):
            parts.append(f'<li><a href="/x/{i:02d}" class="{css}">{item}</a></li>')
        parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)


def test_extraction_matches_oracle_on_synthetic_pages():
    rng = random.Random(7)
    seeds = ["华盛顿", "林肯", "杰斐逊", "纽约"]
    for _ in range(12):
        tree = parse_html(_synthetic_page(rng, seeds))
        wrappers = learn_wrappers(seeds, tree, PipelineConfig())
        got = extract_spans(tree, wrappers)
        extracted = extract_terms(tree, wrappers)
        for w in wrappers:
            assert got[w] == oracle_spans(tree, w)
            # seed recovery: every wrapper re-extracts the seeds it learned from
            assert len(set(seeds) & set(extracted[w])) >= 2


def test_wrappers_over_attribute_values():
    html = """<div>
<img src="/i/01.png" alt="索尼" class="logo">
<img src="/i/02.png" alt="宏碁" class="logo">
<img src="/i/03.png" alt="东芝" class="logo">
<img src="/i/04.png" alt="戴尔" class="logo">
</div>"""
    tree = parse_html(html)
    wrappers = learn_wrappers({"索尼", "宏碁"}, tree, PipelineConfig())
    assert any(w.path.endswith("#attr") for w in wrappers)
    extractions = extract_terms(tree, wrappers)
    assert ["索尼", "宏碁", "东芝", "戴尔"] in list(extractions.values())


# --- learning vs the all-pairs reference -----------------------------------
#
# `reference_learn` learns the direct way, as the oracle for
# `learn_wrappers`: the longest shared contexts of every pair of
# occurrences of different seeds, every truncation of them, levels and a
# distinct-seed gate recomputed for every (left, right) pair.


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


def _reference_levels(
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


def reference_learn(
    seeds: Iterable[str], tree: DomTree, cfg: PipelineConfig | None = None
) -> list[Wrapper]:
    cfg = cfg or PipelineConfig()
    seed_list = sorted({s for s in seeds if s})
    if len(seed_list) < cfg.min_distinct_seeds:
        return []
    occs = [o for o in find_occurrences(tree, seed_list) if not o.in_raw]
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

        # The positions of every truncation on the page.
        all_contexts = set()
        for s in left_max:
            all_contexts.update(s[-k:] for k in range(1, len(s) + 1))
        for s in right_max:
            all_contexts.update(s[:k] for k in range(1, len(s) + 1))
        positions = {s: find_all(src, s) for s in all_contexts}

        # Left levels key on where the bracketed span would start.
        left_ends: dict[str, list[int]] = {
            s: [p + len(s) for p in starts] for s, starts in positions.items()
        }
        l_levels = _reference_levels(left_max, left_ends, lambda s, k: s[-k:])
        r_levels = _reference_levels(right_max, positions, lambda s, k: s[:k])

        seed_span_terms = {(o.pos, o.pos + len(o.term)): o.term for o in group}
        candidates: list[tuple[Wrapper, frozenset[tuple[int, int]]]] = []
        for left, ends in l_levels:
            end_set = set(ends)
            for right, starts in r_levels:
                wrapper = Wrapper(left, right, path)
                if not obeys_validity_rules(wrapper, cfg.kappa):
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
                spans = spans_on_path(tree, ends, starts, tree.path_id(path))
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


# Seeds overlap one another ("甲乙" holds "甲" and "乙"); "丁" is a decoy.
SEED_POOL = ["甲", "乙", "丙", "甲乙"]
TEXT_TOKENS = ["a", " ", "、", "\n"]
# LONG_TOKEN is longer than MAX_CONTEXT_LEN, so rows opening with it share
# capped left contexts.
LONG_TOKEN = '<li class="' + "ab" * 30 + '">'
ROW_TAGS = [("<li>", "</li>"), (LONG_TOKEN, "</li>"), ("<b>", "</b>"), ("", "、")]


@st.composite
def learning_pages(draw):
    seeds = draw(st.lists(st.sampled_from(SEED_POOL), min_size=2, max_size=4, unique=True))
    text = st.lists(st.sampled_from(TEXT_TOKENS), max_size=3).map("".join)
    open_, close = draw(st.sampled_from(ROW_TAGS))
    before = draw(text) + open_ + draw(text)
    after = draw(text) + close + draw(text)
    # Rows share one template; loose tokens and bare items break it up.
    # Pages are short, so many windows are cut by a page edge.
    item = st.sampled_from(seeds + ["丁"])
    row = item.map(lambda term: before + term + after)
    loose = st.sampled_from(TEXT_TOKENS + ["<ul>", "</ul>"])
    html = "".join(draw(st.lists(st.one_of(row, row, row, item, loose), min_size=2, max_size=12)))
    cfg = PipelineConfig(
        kappa=draw(st.sampled_from([1, 4])),
        min_distinct_seeds=draw(st.sampled_from([2, 3])),
    )
    return seeds, html, cfg


@settings(max_examples=300)
@given(learning_pages())
def test_learning_matches_all_pairs_reference(case):
    seeds, html, cfg = case
    tree = parse_html(html)
    learned = learn_wrappers(seeds, tree, cfg)
    assert list(learned) == reference_learn(seeds, tree, cfg)
    assert learned == extract_spans(tree, learned)


def test_learning_matches_all_pairs_reference_on_synthetic_pages():
    rng = random.Random(11)
    seeds = ["华盛顿", "林肯", "杰斐逊", "纽约"]
    for _ in range(12):
        tree = parse_html(_synthetic_page(rng, seeds))
        assert list(learn_wrappers(seeds, tree, PipelineConfig())) == reference_learn(seeds, tree)


def test_learning_on_a_deep_page_builds_no_path_string_per_node():
    # 8,000 nested divs make every list item's tag path a 32 KB string.
    # Learning compares interned path ids and builds that string once, for
    # the kept wrappers: parse + learn peak at about 4.4 MB (Python 3.11),
    # and about 4.0 MB with 40 items.  A path string cached per queried
    # text node, 400 of them, peaked at 17.7 MB.  The bound sits between.
    terms = ["索尼", "宏碁"] + [f"品牌{k}" for k in range(398)]
    html = "<div>" * 8000 + "<ul>" + "".join(f"<li>{t}</li>" for t in terms) + "</ul>"
    tracemalloc.start()
    try:
        learned = learn_wrappers(["索尼", "宏碁"], parse_html(html), PipelineConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(len(spans) for spans in learned.values()) == [399, 400]
    assert peak < 8_000_000, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _pairwise_truncations(windows: list[tuple[str, str]]) -> set[str]:
    """Every non-empty common prefix of two windows of different terms."""
    out: set[str] = set()
    for i, (term_a, a) in enumerate(windows):
        for term_b, b in windows[i + 1 :]:
            if term_a == term_b:
                continue
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            out.update(a[:j] for j in range(1, k + 1))
    return out


def check_within_is_the_prefix_order(levels, mirrored: bool) -> None:
    """Bit i of level j's `within` is set exactly when level i's context,
    read outwards, is a prefix of level j's."""
    outwards = [lv.context[::-1] if mirrored else lv.context for lv in levels]
    for j, lv in enumerate(levels):
        assert lv.within >> len(levels) == 0
        for i, context in enumerate(outwards):
            assert bool(lv.within >> i & 1) == outwards[j].startswith(context), (i, j)


def check_levels_are_the_truncations(text: str, anchors: list[tuple[str, int]], mirrored: bool):
    """`_side_levels` against the pairwise truncations of its windows.

    Every shared truncation's match set, found by scanning `text`, is
    exactly one level's positions (mapped back by ``len(text) - q`` on the
    mirrored side); that level's context is the longest truncation with
    that set; and every level is one of these sets.  Returns the levels.
    """
    n = len(text)
    levels = _side_levels(text, anchors, mirrored, {})
    check_within_is_the_prefix_order(levels, mirrored)
    by_positions = {lv.positions: lv for lv in levels}
    assert len(by_positions) == len(levels)
    longest: dict[tuple[int, ...], str] = {}
    for t in _pairwise_truncations([(term, text[a : a + MAX_CONTEXT_LEN]) for term, a in anchors]):
        scan = find_all(text, t)
        positions = tuple(n - q for q in reversed(scan)) if mirrored else tuple(scan)
        assert positions in by_positions, t
        longest[positions] = max(longest.get(positions, ""), t, key=len)
    assert set(longest) == set(by_positions)
    for positions, t in longest.items():
        assert by_positions[positions].context == (t[::-1] if mirrored else t)
    return levels


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.text("xy", max_size=8)), max_size=10))
def test_shared_contexts_are_the_pairwise_truncations(windows):
    # Each window is followed by a character of its own, so the windows on
    # the page share exactly the prefixes the drawn windows share.
    text, anchors = "", []
    for k, (term, w) in enumerate(windows):
        anchors.append((term, len(text)))
        text += w + chr(0x4E00 + k)
    page_windows = [(term, text[a : a + MAX_CONTEXT_LEN]) for term, a in anchors]
    assert _pairwise_truncations(page_windows) == _pairwise_truncations(windows)
    check_levels_are_the_truncations(text, anchors, mirrored=False)


# --- the learning loop's shortcuts ------------------------------------------
#
# Learning runs the span rule once per tag-path group and reads each
# candidate's spans off that one result, and it probes a context's matches
# only at the ends of trie edges, by filtering its parent edge's.  Both
# are exact; these properties pin down why.

# Whitespace runs, markup, and a piece longer than MAX_TERM_LEN.
SPAN_TOKENS = ["甲", "ab", " ", "\n\t  ", "<b>", "</b>", "<i>", "</i>", "、", "x" * (MAX_TERM_LEN + 3)]


@st.composite
def span_rule_cases(draw):
    html = "".join(draw(st.lists(st.sampled_from(SPAN_TOKENS), min_size=1, max_size=14)))
    positions = st.lists(st.integers(0, len(html)), unique=True, max_size=30).map(sorted)
    ends, starts = draw(positions), draw(positions)
    sub_ends = [e for e in ends if draw(st.booleans())]
    sub_starts = [s for s in starts if draw(st.booleans())]
    path_pos = draw(st.integers(0, len(html) - 1))
    return html, ends, starts, sub_ends, sub_starts, path_pos


@settings(max_examples=300)
@given(span_rule_cases())
def test_span_rule_on_subsets_is_a_restriction(case):
    html, ends, starts, sub_ends, sub_starts, path_pos = case
    tree = parse_html(html)
    path_id = tree.path_id_at(path_pos)
    full = spans_on_path(tree, ends, starts, path_id)
    kept_ends, kept_starts = set(sub_ends), set(sub_starts)
    restricted = [(e, s) for e, s in full if e in kept_ends and s in kept_starts]
    assert spans_on_path(tree, sub_ends, sub_starts, path_id) == restricted


def brute_force_spans(
    tree: DomTree, ends: list[int], starts: list[int], path_id: int
) -> list[tuple[int, int]]:
    """The span rule checked on every (end, start) pair on its own: no
    ``<`` or ``>`` inside, a non-empty trimmed piece of at most
    MAX_TERM_LEN characters, and first and last characters on the path."""
    src = tree.source
    spans = []
    for e in ends:
        for s in starts:
            piece = src[e:s]
            if s <= e or e >= len(src) or "<" in piece or ">" in piece:
                continue
            if not 0 < len(piece.strip()) <= MAX_TERM_LEN:
                continue
            if tree.path_id_at(e) == path_id == tree.path_id_at(s - 1):
                spans.append((e, s))
    return spans


# Markup of both kinds, whitespace to trim, and runs that put a piece's
# length on either side of MAX_TERM_LEN.
SPAN_RULE_TOKENS = ["甲", "ab", " ", "\n\t ", "<b>", "</b>", "<", ">", "、"]
SPAN_RULE_TOKENS += ["x" * (MAX_TERM_LEN - 1), "x" * (MAX_TERM_LEN + 1)]


@st.composite
def span_rule_pages(draw):
    html = "".join(draw(st.lists(st.sampled_from(SPAN_RULE_TOKENS), min_size=1, max_size=12)))
    n = len(html)
    ends = draw(st.lists(st.integers(0, n), unique=True, max_size=25))
    starts = set(draw(st.lists(st.integers(0, n), max_size=25)))
    # Starts a whole bound's length, and one more, after some ends.
    for e in ends:
        if draw(st.booleans()):
            starts.update(s for s in (e + MAX_TERM_LEN, e + MAX_TERM_LEN + 1) if s <= n)
    path_pos = draw(st.integers(-1, n - 1))
    return html, sorted(ends), sorted(starts), path_pos


@settings(max_examples=300)
@given(span_rule_pages())
def test_span_rule_matches_per_pair_brute_force(case):
    html, ends, starts, path_pos = case
    tree = parse_html(html)
    path_id = -1 if path_pos < 0 else tree.path_id_at(path_pos)
    assert spans_on_path(tree, ends, starts, path_id) == brute_force_spans(tree, ends, starts, path_id)


@st.composite
def context_cases(draw):
    # Few letters, so contexts repeat and overlap themselves ("aa" in
    # "aaaa"); short pages, so windows reach the page edges.
    src = draw(st.text("aab<", min_size=1, max_size=MAX_CONTEXT_LEN + 20))
    cuts = st.tuples(st.sampled_from("xyz"), st.integers(0, len(src)))
    return src, draw(st.lists(cuts, max_size=8))


@settings(max_examples=300)
@given(context_cases())
def test_parent_filtered_positions_equal_full_scans(case):
    src, cuts = case
    n, mirror = len(src), src[::-1]
    for lv in check_levels_are_the_truncations(src, cuts, mirrored=False):
        assert list(lv.positions) == find_all(src, lv.context)
    # Left contexts are right contexts of the reversed page: the left
    # window read outwards starts there at n - p.
    anchors = [(term, n - p) for term, p in cuts]
    windows = [mirror[a : a + MAX_CONTEXT_LEN] for _, a in anchors]
    assert windows == [src[max(0, p - MAX_CONTEXT_LEN) : p][::-1] for _, p in cuts]
    for lv in check_levels_are_the_truncations(mirror, anchors, mirrored=True):
        # A mirrored start q is the page position n - q where the left
        # context ends.
        assert list(lv.positions) == [p + len(lv.context) for p in find_all(src, lv.context)]


def levels_from_page(src: str, cuts: list[tuple[str, int]], left: bool) -> list[tuple]:
    """One side's levels built on the page itself, without the reversed page.

    A cut (term, p) is an occurrence boundary: its left window ends at p
    (read outwards), its right window starts at p.  A level's positions
    are where its context ends (left) or starts (right).
    """
    if left:
        windows = [(t, src[max(0, p - MAX_CONTEXT_LEN) : p][::-1]) for t, p in cuts]
        contexts = {w[::-1] for w in _pairwise_truncations(windows)}
    else:
        contexts = _pairwise_truncations([(t, src[p : p + MAX_CONTEXT_LEN]) for t, p in cuts])
    best: dict[tuple[int, ...], str] = {}
    for s in sorted(contexts, key=len, reverse=True):
        found = find_all(src, s)
        best.setdefault(tuple(q + len(s) for q in found) if left else tuple(found), s)
    return sorted(
        (positions, s, {i for i, (_, p) in enumerate(cuts) if p in positions}, is_punct_text(s))
        for positions, s in best.items()
    )


def occurrence_indices(mask: int) -> set[int]:
    """The occurrence indices whose bits a level's `occs` mask sets."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def check_side_levels_on_both_sides(src: str, cuts: list[tuple[str, int]]) -> None:
    n = len(src)
    for left, text, anchors in (
        (True, src[::-1], [(t, n - p) for t, p in cuts]),
        (False, src, cuts),
    ):
        levels = _side_levels(text, anchors, mirrored=left, scans={})
        check_within_is_the_prefix_order(levels, mirrored=left)
        got = [(lv.positions, lv.context, occurrence_indices(lv.occs), lv.punct) for lv in levels]
        assert sorted(got) == levels_from_page(src, cuts, left)


@settings(max_examples=300)
@given(context_cases())
def test_side_levels_equal_levels_built_on_the_page(case):
    check_side_levels_on_both_sides(*case)


# Templated pages: rows repeat one long item template with single-character
# mutations, so the windows' trie has edges of ten and more characters;
# rows without a cut match an edge's shorter prefixes but not its longer
# ones, so one edge holds several levels; templates run past
# MAX_CONTEXT_LEN, so windows are cut there; and cuts at the page ends give
# empty and page-edge windows.


def _mutated(draw, template: str, alphabet: str) -> str:
    chars = list(template)
    for _ in range(draw(st.integers(0, 2))):
        chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(alphabet))
    return "".join(chars)


@st.composite
def templated_cases(draw):
    # A repeated piece: its prefixes also match inside rows, off the cuts.
    piece = draw(st.text("ab<", min_size=5, max_size=25))
    template = piece * draw(st.integers(2, 5))
    src, cuts = "", []
    for _ in range(draw(st.integers(3, 8))):
        term = draw(st.sampled_from("xyxyz-"))  # "-": a row nothing is cut before
        src += term
        if term != "-":
            cuts.append((term, len(src)))
        src += _mutated(draw, template, "abc")
    for p in (0, len(src)):
        if draw(st.booleans()):
            cuts.append((draw(st.sampled_from("xyz")), p))
    return src, cuts


@settings(max_examples=300)
@given(templated_cases())
def test_side_levels_on_templated_pages(case):
    check_side_levels_on_both_sides(*case)


@settings(max_examples=300)
@given(st.one_of(templated_cases(), context_cases()), st.data())
def test_used_positions_are_the_union_of_the_used_levels(case, data):
    # Templated pages put several levels on one long edge; the short pages
    # of `context_cases` give tries that branch, so a subset has several
    # tops.
    src, cuts = case
    n = len(src)
    for left, text, anchors in (
        (True, src[::-1], [(t, n - p) for t, p in cuts]),
        (False, src, cuts),
    ):
        levels = _side_levels(text, anchors, left, {})
        if not levels:
            continue
        # The deepest levels, each a top of its own.
        deepest = {i for i in range(len(levels)) if sum(lv.within >> i & 1 for lv in levels) == 1}
        subsets = st.sets(st.integers(0, len(levels) - 1))
        for used in (deepest, *(data.draw(subsets) for _ in range(3))):
            union = sorted(set().union(*(levels[i].positions for i in used)))
            assert list(_used_positions(levels, used)) == union


@st.composite
def templated_learning_pages(draw):
    seeds = draw(st.lists(st.sampled_from(SEED_POOL), min_size=2, max_size=4, unique=True))
    template = draw(st.text("ab ", min_size=10, max_size=MAX_CONTEXT_LEN + 15))
    rows = []
    for _ in range(draw(st.integers(2, 8))):
        term = draw(st.sampled_from(seeds + ["丁"]))
        rows.append(f'<li class="{_mutated(draw, template, "abc")}">{term}</li>')
    html = "<ul>" + "".join(rows) + "</ul>"
    return seeds, html, draw(st.sampled_from([1, 4]))


@settings(max_examples=150)
@given(templated_learning_pages())
def test_learning_matches_all_pairs_reference_on_templated_pages(case):
    seeds, html, kappa = case
    tree = parse_html(html)
    for min_distinct_seeds in (2, 3):
        cfg = PipelineConfig(kappa=kappa, min_distinct_seeds=min_distinct_seeds)
        wrappers = learn_wrappers(seeds, tree, cfg)
        assert list(wrappers) == reference_learn(seeds, tree, cfg)
        assert wrappers == extract_spans(tree, wrappers)


# Criterion 2's pages, seeds and seed order (tests/test_acceptance.py).
CRITERION_2_SEEDS = ["华盛顿", "林肯", "杰斐逊", "罗斯福", "纽约"]
CRITERION_2_WRAPPERS = 9021
CRITERION_2_DIGEST = "ffc084169a7eefe3b62baaccb9e5084f0752b3790e129b08abdf0aa48216acdb"


def criterion_2_trees() -> list[DomTree]:
    rng = random.Random(0x5EED)
    return [parse_html(criterion_2_page(rng, CRITERION_2_SEEDS)) for _ in range(50)]


def test_learned_wrappers_on_criterion_2_pages_are_pinned():
    seeds = CRITERION_2_SEEDS
    learned = [learn_wrappers(seeds, tree, PipelineConfig()) for tree in criterion_2_trees()]
    payload = json.dumps(
        [[[w.left, w.right, w.path] for w in wrappers] for wrappers in learned],
        ensure_ascii=False,
    )
    assert sum(map(len, learned)) == CRITERION_2_WRAPPERS
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == CRITERION_2_DIGEST


# --- learning's spans --------------------------------------------------------
#
# Mining takes each wrapper's spans from `learn_wrappers` (its span-set bits)
# and never runs extraction; extraction is the independent check.


def test_learned_spans_equal_extraction_on_criterion_2_pages():
    seeds = CRITERION_2_SEEDS
    for tree in criterion_2_trees():
        got = learn_wrappers(seeds, tree, PipelineConfig())
        assert got == extract_spans(tree, got)
        assert all(got.values())


def test_learned_spans_equal_extraction_on_miniweb_pages(miniweb_provider, monkeypatch):
    import ctms.expansion
    import ctms.pipeline

    calls = []

    def spy(seeds, tree, cfg):
        calls.append((seeds, tree, cfg))
        return learn_wrappers(seeds, tree, cfg)

    monkeypatch.setattr(ctms.expansion, "learn_wrappers", spy)
    ctms.pipeline.mine("华盛顿", PipelineConfig(), miniweb_provider)
    assert len(calls) == 24  # every page of the fixture
    learned = 0
    for seeds, tree, cfg in calls:
        got = learn_wrappers(seeds, tree, cfg)
        assert got == extract_spans(tree, got)
        learned += len(got)
    assert learned == 52


def test_span_pass_covers_only_the_gated_candidates_levels(monkeypatch):
    # The levels " " match every one of the 4,000 spaces, but no candidate
    # built on them passes the seed gate and the rules, so the span pass
    # gets only the positions of the one gated pair ("x ", " y").
    import ctms.wrappers

    html = "<p>x 甲 y" + " " * 4000 + "x 乙 y</p>"
    tree = parse_html(html)
    calls = []

    def spy(tree, ends, starts, path_id):
        calls.append((len(ends), len(starts)))
        return spans_on_path(tree, ends, starts, path_id)

    monkeypatch.setattr(ctms.wrappers, "spans_on_path", spy)
    got = learn_wrappers(["甲", "乙"], tree, PipelineConfig())
    assert calls == [(2, 2)]
    wrapper = Wrapper("x ", " y", path_at(tree, html.index("甲")))
    assert list(got) == [wrapper]
    assert [html[a:b].strip() for a, b in got[wrapper]] == ["甲", "乙"]
