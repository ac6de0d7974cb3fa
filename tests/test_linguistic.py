import pytest
from hypothesis import example, given, settings, strategies as st

from ctms import linguistic
from ctms.config import PipelineConfig
from ctms.linguistic import (
    build_queries,
    extract_competitor_baseline,
    extract_initial_candidates,
)
from ctms.text import find_all
from text_oracle import MIXED_ALPHABET, is_term_char_by_category


def brute_candidates(seed, sentences, cfg):
    """Oracle: enumerate every substring adjacent to a clue junction and
    count sentence-level matches directly."""
    cands = set()
    for s in sentences:
        for f in cfg.clue_words:
            left = f + seed
            i = s.find(left)
            while i != -1:
                for k in range(1, cfg.max_candidate_len + 1):
                    if i - k < 0 or not is_term_char_by_category(s[i - k]):
                        break
                    cands.add(s[i - k : i])
                i = s.find(left, i + 1)
            right = seed + f
            i = s.find(right)
            while i != -1:
                base = i + len(right)
                for k in range(1, cfg.max_candidate_len + 1):
                    if base + k > len(s) or not is_term_char_by_category(s[base + k - 1]):
                        break
                    cands.add(s[base : base + k])
                i = s.find(right, i + 1)
    cands.discard(seed)
    cands = {c for c in cands if seed not in c}
    scored = []
    for x in sorted(cands):
        n = sum(
            1 for s in sentences if any(x + f + seed in s for f in cfg.clue_words)
        )
        m = sum(
            1 for s in sentences if any(seed + f + x in s for f in cfg.clue_words)
        )
        if n * m > cfg.tau:
            scored.append((x, n, m))
    scored.sort(key=lambda t: (-(t[1] * t[2]), t[0]))
    return scored[: cfg.top_n]


def test_build_queries_single_clue():
    cfg = PipelineConfig(clue_words=("比",))
    assert build_queries("宝马", cfg) == ["宝马比", "比宝马"]


def test_build_queries_order_contract():
    cfg = PipelineConfig(clue_words=("和", "比"))
    assert build_queries("宝马", cfg) == ["宝马和", "和宝马", "宝马比", "比宝马"]


def test_empty_clue_words_rejected():
    with pytest.raises(ValueError):
        PipelineConfig(clue_words=())


def test_bidirectional_score_example():
    sentences = [
        "街上奔驰比宝马多",
        "他说奔驰比宝马贵",
        "老李觉得奔驰比宝马稳",
        "为何宝马比奔驰少",
        "其实宝马比奔驰帅",
    ]
    cfg = PipelineConfig(clue_words=("比",))
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert [(c.text, c.n, c.m, c.score) for c in got] == [("奔驰", 3, 2, 6)]


def test_seed_alone_yields_nothing():
    sentences = ["宝马是德国品牌", "我喜欢宝马", "宝马 很贵"]
    assert extract_initial_candidates("宝马", sentences, PipelineConfig()) == []


def test_tie_break_is_lexicographic():
    sentences = [
        "乙比宝马大", "宝马比乙小",
        "甲比宝马大", "宝马比甲小",
        "乙比宝马高", "宝马比乙低",
        "甲比宝马高", "宝马比甲低",
    ]
    cfg = PipelineConfig(clue_words=("比",), tau=2)
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert [c.text for c in got] == ["乙", "甲"]
    assert got[0].score == got[1].score == 4


def test_candidates_containing_seed_discarded():
    sentences = ["新宝马比宝马好", "宝马比新宝马差"] * 2
    cfg = PipelineConfig(clue_words=("比",))
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert all("宝马" not in c.text for c in got)


def test_seed_not_allowed_in_initial():
    # "宝马比宝马" offers the seed itself on both sides of the junction, in
    # more sentences than any real candidate; expansion takes the candidates
    # as given, so the seed must not come back among them.
    sentences = ["宝马比宝马好", "宝马比宝马贵", "奔驰比宝马多", "宝马比奔驰少"] * 2
    cfg = PipelineConfig(clue_words=("比",))
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert [c.text for c in got] == ["奔驰"]
    assert all("宝马" not in c.text for c in got)


def test_matches_brute_force_oracle_fixed():
    sentences = [
        "奔驰和宝马都是豪车",
        "宝马和奔驰经常被比较",
        "奥迪和宝马谁好",
        "宝马和奥迪的差别",
        "奔驰比宝马贵",
        "宝马比奔驰多",
        "宝马和奔驰和奥迪",
    ]
    cfg = PipelineConfig(clue_words=("和", "比"))
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert [(c.text, c.n, c.m) for c in got] == brute_candidates("宝马", sentences, cfg)


def _junction_sentences(word):
    """A clue junction with `word` or mixed-script text on either side."""
    side = st.one_of(
        st.just(word), st.text(alphabet=st.sampled_from(MIXED_ALPHABET), max_size=3)
    )
    junction = st.sampled_from(["和宝马", "比宝马", "宝马和", "宝马比"])
    return st.tuples(side, junction, side).map("".join)


# Sentences over the seed's own alphabet, mixed with junction sentences that
# share one word, so that some candidate recurs often enough to pass tau.
sentence_chunks = st.text(
    alphabet=st.sampled_from(MIXED_ALPHABET), min_size=1, max_size=4
).flatmap(
    lambda word: st.lists(
        st.one_of(
            st.text(alphabet="奔驰奥迪和比宝马多贵的", min_size=1, max_size=12),
            _junction_sentences(word),
        ),
        min_size=1,
        max_size=25,
    )
)


@settings(max_examples=300)
@given(sentence_chunks, st.integers(1, 10))
def test_matches_brute_force_oracle_random(sentences, max_len):
    cfg = PipelineConfig(
        clue_words=("和", "比"), tau=1, top_n=10, max_candidate_len=max_len
    )
    got = extract_initial_candidates("宝马", sentences, cfg)
    assert [(c.text, c.n, c.m) for c in got] == brute_candidates("宝马", sentences, cfg)


# Seeds at the junction edges: a seed opening a sentence that ends with a
# clue word (a clue test that wraps a negative start around to the
# sentence end takes that clue for the one before the seed), a seed that
# holds a clue character, and a seed whose occurrences overlap.  The
# drawn sentences are made of whole seeds, clue words and seed pieces, so
# that seeds touch each other, the clue words and both sentence edges.
@settings(max_examples=300)
@given(
    st.sampled_from(["宝马", "和平", "哈哈", "比和", "和"]).flatmap(
        lambda seed: st.tuples(
            st.just(seed),
            st.lists(
                st.lists(
                    st.sampled_from([seed, seed[0], seed[-1], "和", "比", "甲", "乙", "，"]),
                    max_size=8,
                ).map("".join),
                min_size=1,
                max_size=12,
            ),
        )
    ),
    st.integers(1, 10),
)
@example(("宝马", ["宝马比奔驰和", "宝马和奔驰比", "奔驰比宝马", "宝马比奥迪和"]), 10)
@example(("和平", ["战争和和平", "和平和战争", "和和平比战争", "战争比和平和", "和平和战争和"]), 10)
@example(("哈哈", ["嘻嘻和哈哈哈", "哈哈哈和嘻嘻", "哈哈比嘻嘻和", "嘻嘻比哈哈哈和", "哈哈哈和"]), 10)
def test_matches_brute_force_oracle_at_seed_edges(seed_and_sentences, max_len):
    seed, sentences = seed_and_sentences
    cfg = PipelineConfig(clue_words=("和", "比"), tau=1, top_n=10, max_candidate_len=max_len)
    got = extract_initial_candidates(seed, sentences, cfg)
    assert [(c.text, c.n, c.m) for c in got] == brute_candidates(seed, sentences, cfg)


def test_each_sentence_is_scanned_once(monkeypatch):
    # One scan per sentence, for the seed; the clue words are checked in
    # place at each seed occurrence.
    calls = []

    def counting_find_all(text, pattern):
        calls.append((text, pattern))
        return find_all(text, pattern)

    sentences = ["奔驰比宝马贵", "宝马和奔驰", "今天天气好", "宝马比奔驰和宝马"]
    monkeypatch.setattr(linguistic, "find_all", counting_find_all)
    extract_initial_candidates("宝马", sentences, PipelineConfig(clue_words=("和", "比")))
    assert calls == [(s, "宝马") for s in sentences]


# One word before and after the seed across one clue, each side one to
# three times, so that the word's score n·m can clear tau.  The word is
# mixed-script text, often of term characters only.
_repeated_junctions = st.tuples(
    st.one_of(
        st.text(
            alphabet=st.sampled_from([c for c in MIXED_ALPHABET if is_term_char_by_category(c)]),
            min_size=1,
            max_size=4,
        ),
        st.text(alphabet=st.sampled_from(MIXED_ALPHABET), min_size=1, max_size=4),
    ),
    st.sampled_from(["和", "比"]),
    st.integers(1, 3),
    st.integers(1, 3),
).map(lambda t: [t[0] + t[1] + "宝马"] * t[2] + ["宝马" + t[1] + t[0]] * t[3])


@given(sentence_chunks, _repeated_junctions, st.integers(1, 3))
def test_bidirectional_property(sentences, junctions, tau):
    cfg = PipelineConfig(clue_words=("和", "比"), tau=tau)
    got = extract_initial_candidates("宝马", sentences + junctions, cfg)
    assert len(got) <= cfg.top_n
    scores = [c.score for c in got]
    assert scores == sorted(scores, reverse=True)
    for c in got:
        assert c.n >= 1 and c.m >= 1  # attested in both directions
        assert c.score == c.n * c.m > cfg.tau
        assert len(c.text) <= cfg.max_candidate_len
        assert all(is_term_char_by_category(ch) for ch in c.text)


# --- competitor-pattern baseline -------------------------------------------


def test_comparison_pattern_sentence_initial():
    assert extract_competitor_baseline("索尼", ["尼康比索尼更专业"]) == ["尼康"]


def test_comparison_pattern_bounded_both_sides():
    assert extract_competitor_baseline("索尼", ["索尼比尼康更时尚"]) == ["尼康"]


def test_alternative_at_sentence_end():
    assert extract_competitor_baseline("索尼", ["你可以选择索尼或佳能。"]) == ["佳能"]


def test_alternative_mid_sentence_boundary_undefined():
    assert extract_competitor_baseline("索尼", ["求购索尼或佳能单反相机。"]) == []


def test_alternative_sentence_initial():
    assert extract_competitor_baseline("索尼", ["佳能或索尼都可以"]) == ["佳能"]


def test_enumeration_patterns():
    assert extract_competitor_baseline("索尼", ["例如索尼、飞利浦和TDK"]) == ["飞利浦", "TDK"]
    assert extract_competitor_baseline("索尼", ["知名品牌包括索尼、尼康和佳能"]) == ["尼康", "佳能"]
    # trailing conjunct fused with a head noun: boundary undefined
    assert extract_competitor_baseline("索尼", ["特别是索尼、佳能和松下相机"]) == ["佳能"]


def test_dedup_keeps_first_occurrence_order():
    got = extract_competitor_baseline(
        "索尼", ["尼康比索尼更专业", "索尼比佳能更贵", "索尼比尼康更小"]
    )
    assert got == ["尼康", "佳能"]


@pytest.mark.parametrize(
    "seed, sentence, expected",
    [
        # enumeration: a conjunct at once, edge-bounded
        ("索尼", "例如索尼和佳能", ["佳能"]),
        ("索尼", "例如索尼或松下电器公司", []),
        # enumeration running to the sentence edge: the last item is edge-bounded
        ("索尼", "包括索尼、尼康、佳能", ["尼康", "佳能"]),
        ("索尼", "包括索尼、尼康、佳能数码相机", ["尼康"]),
        # an empty item between two 、 is skipped
        ("索尼", "例如索尼、、尼康和佳能", ["尼康", "佳能"]),
        # an anchor and seed followed by no pattern element
        ("索尼", "例如索尼的相机", []),
        # only the first 比EN更 is read; at the sentence start it yields nothing
        ("索尼", "比索尼更好的是尼康比索尼更好", []),
        # overlapping seed occurrences: EN或 at the second 哈哈
        ("哈哈", "哈哈哈或佳能", ["佳能"]),
        # the seed is literal text, not a pattern
        ("a.b", "axb或佳能", []),
        # the seed itself is never returned
        ("索尼", "索尼或索尼", []),
        # EN比CN更 strips the bounded term; an empty one is dropped
        ("索尼", "索尼比 尼康 更贵", ["尼康"]),
        ("索尼", "索尼比更贵", []),
    ],
)
def test_baseline_pattern_branches(seed, sentence, expected):
    assert extract_competitor_baseline(seed, [sentence]) == expected


def test_baseline_on_miniweb_stage_1_sentences(miniweb_provider):
    from ctms.pipeline import snippet_sentences

    cfg = PipelineConfig()
    sentences = snippet_sentences(build_queries("华盛顿", cfg), cfg, miniweb_provider)
    assert len(sentences) == 60
    assert extract_competitor_baseline("华盛顿", sentences) == ["林肯", "杰斐逊"]
