"""Wrapper learning/extraction tests, including the all-pairs oracle."""

import random

from ctms.config import PipelineConfig
from ctms.dom import DomTree, parse_html
from ctms.wrappers import (
    MAX_TERM_LEN,
    Wrapper,
    extract_spans,
    extract_terms,
    is_valid_wrapper,
    learn_wrappers,
)

from test_dom import FIG_FRAGMENT


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
            if tree.path_at(e) == wrapper.path and tree.path_at(s - 1) == wrapper.path:
                spans.append((e, s))
    return sorted(spans)


# --- validity rules --------------------------------------------------------


def test_valid_wrapper_span_contexts():
    w = Wrapper("<span>", "</span>", "div/a/span/#text")
    assert is_valid_wrapper(w, PipelineConfig())


def test_whitespace_only_contexts_rejected():
    assert not is_valid_wrapper(Wrapper(" ", " ", "p/#text"), PipelineConfig())
    assert not is_valid_wrapper(Wrapper("", ">", "p/#text"), PipelineConfig())


def test_mixed_punctuation_rejected():
    # left all punctuation, right carries letters
    assert not is_valid_wrapper(Wrapper("、", "</a>", "p/#text"), PipelineConfig())
    # both punctuation is fine
    assert is_valid_wrapper(Wrapper("、", "。", "p/#text"), PipelineConfig())


def test_kappa_minimum_combined_length():
    assert not is_valid_wrapper(Wrapper("a", "b", "p/#text"), PipelineConfig(kappa=4))
    assert is_valid_wrapper(Wrapper("ab", "cd", "p/#text"), PipelineConfig(kappa=4))


def test_path_must_end_textually():
    assert not is_valid_wrapper(Wrapper("ab", "cd", "div/a"), PipelineConfig())
    assert is_valid_wrapper(Wrapper("ab", "cd", "div/a/#attr"), PipelineConfig())


# --- learning --------------------------------------------------------------


def test_fig_fragment_learns_four_brand_wrapper():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree)
    assert wrappers
    assert all("<span>" in w.left for w in wrappers)
    assert all(w.right.startswith("</span>") for w in wrappers)
    assert all(w.path.endswith("a/span/#text") for w in wrappers)
    extractions = extract_terms(tree, wrappers)
    assert ["宏碁", "索尼", "东芝", "戴尔"] in list(extractions.values())


def test_no_shared_path_no_wrapper():
    tree = parse_html("<p>索尼</p><div><span>宏碁</span></div>")
    assert learn_wrappers({"宏碁", "索尼"}, tree) == []


def test_single_seed_twice_is_not_enough():
    tree = parse_html("<ul><li>索尼</li><li>索尼</li></ul>")
    assert learn_wrappers({"宏碁", "索尼"}, tree) == []


def test_seed_occurrences_in_script_are_ignored():
    tree = parse_html("<script>'索尼','宏碁'</script><p>plain</p>")
    assert learn_wrappers({"宏碁", "索尼"}, tree) == []


def test_learned_wrappers_recover_seeds():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree)
    for w, terms in extract_terms(tree, wrappers).items():
        assert len({"宏碁", "索尼"} & set(terms)) >= 2, w


def test_dominance_no_same_span_extensions():
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree)
    spans = extract_spans(tree, wrappers)
    for a in wrappers:
        for b in wrappers:
            if a == b:
                continue
            if spans[a] == spans[b]:
                extends = a.left.endswith(b.left) and a.right.startswith(b.right)
                assert not extends or (a.left == b.left and a.right == b.right)


# --- extraction ------------------------------------------------------------


def test_extraction_document_order_and_trim():
    html = '<ul><li class="i"> 甲 </li><li class="i"> 乙 </li><li class="i"> 丙 </li></ul>'
    tree = parse_html(html)
    wrappers = learn_wrappers({"甲", "乙"}, tree)
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
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree)
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
        wrappers = learn_wrappers(seeds, tree)
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
    wrappers = learn_wrappers({"索尼", "宏碁"}, tree)
    assert any(w.path.endswith("#attr") for w in wrappers)
    extractions = extract_terms(tree, wrappers)
    assert ["索尼", "宏碁", "东芝", "戴尔"] in list(extractions.values())
