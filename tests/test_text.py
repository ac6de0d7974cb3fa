import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ctms import text as text_module
from ctms.text import (
    SENTENCE_BREAKS,
    TokenIndex,
    is_punct_char,
    is_punct_text,
    nfc_trim,
    split_sentences,
    term_run,
    tokenize,
)
from text_oracle import MIXED_ALPHABET, is_term_char_by_category, tokenize_by_loop


def test_split_on_cjk_and_ascii_terminators():
    text = "第一句。第二句！第三句？4th sentence; 第五句\n第六句"
    assert split_sentences(text) == [
        "第一句", "第二句", "第三句", "4th sentence", "第五句", "第六句",
    ]


def test_split_drops_empty_pieces():
    assert split_sentences("。。！  \n") == []
    assert split_sentences("") == []


def test_ascii_period_is_not_a_boundary():
    assert split_sentences("见 www.example.com 第1.5节") == ["见 www.example.com 第1.5节"]


def _split_sentences_by_loop(text: str) -> list[str]:
    """The character-buffer splitter `split_sentences` replaced."""
    out: list[str] = []
    buf: list[str] = []
    for ch in text:
        if ch in SENTENCE_BREAKS:
            piece = "".join(buf).strip()
            if piece:
                out.append(piece)
            buf.clear()
        else:
            buf.append(ch)
    piece = "".join(buf).strip()
    if piece:
        out.append(piece)
    return out


@settings(max_examples=500)
@given(st.text(alphabet="".join(sorted(SENTENCE_BREAKS)) + " \t\u3000.a句子", max_size=40))
def test_split_matches_character_loop(text):
    assert split_sentences(text) == _split_sentences_by_loop(text)


def test_punct_classes():
    for ch in "、。《》<>(),\"'“”":
        assert is_punct_char(ch), ch
    for ch in "a9宏 ":
        assert not is_punct_char(ch) or ch == " ", ch


def test_punct_text_requires_some_punct():
    assert is_punct_text("、")
    assert is_punct_text("<>")
    assert is_punct_text("、 。")
    assert not is_punct_text("   ")
    assert not is_punct_text("")
    assert not is_punct_text("<span>")


def test_term_chars():
    assert term_run("宏") == 1
    assert term_run("a") == 1
    assert term_run("、") == 0
    assert term_run(" ") == 0


def test_tokenize_latin_runs_and_cjk_bigrams():
    assert tokenize("BMW 宝马2024款") == ["bmw", "宝马", "2024", "款"]
    assert tokenize("北京大学") == ["北京", "京大", "大学"]
    assert tokenize("") == []
    assert tokenize("美") == ["美"]


@settings(max_examples=500)
@given(st.text(alphabet=st.sampled_from(MIXED_ALPHABET), max_size=40))
def test_tokenize_matches_character_loop(text):
    assert tokenize(text) == tokenize_by_loop(text)


# ASCII words, CJK, hiragana, katakana, hangul, ASCII and CJK punctuation
# and whitespace, plus the mixed alphabet's edge cases: runs of each kind
# that touch, and runs of one character.
_INDEX_ALPHABET = MIXED_ALPHABET + "abXY7中国大学かなカナ한국어。，、.!- \u3000"


@settings(max_examples=300)
@given(st.text(alphabet=st.sampled_from(_INDEX_ALPHABET), max_size=30))
def test_token_index_slices_equal_tokenize_of_the_slice(text):
    index = TokenIndex(text)
    assert index.tokens == tokenize(text)
    for x in range(len(text) + 1):
        for y in range(x, len(text) + 2):
            assert index.tokens_in(x, y) == tokenize(text[x:y]), (x, y)


def test_token_index_recomputes_clipped_runs():
    index = TokenIndex("北京大学 Washington")
    assert index.tokens == ["北京", "京大", "大学", "washington"]
    assert index.tokens_in(1, 3) == ["京大"]
    assert index.tokens_in(3, 7) == ["学", "wa"]
    assert index.tokens_in(0, 4) == ["北京", "京大", "大学"]
    assert index.tokens_in(2, 2) == []


def test_term_char_matches_category_definition():
    astral = random.Random(0).sample(range(0x10000, 0x110000), 20000)
    for cp in [*range(0x10000), *astral]:
        ch = chr(cp)
        assert (term_run(ch) == 1) == is_term_char_by_category(ch), hex(cp)


def test_astral_characters_are_not_memoised():
    astral = "".join(map(chr, range(0x20000, 0x20400)))
    size = len(text_module._CHAR_CLASSES)
    assert len(tokenize(astral)) == len(astral) - 1
    assert all(term_run(ch) == 1 for ch in astral)
    assert len(text_module._CHAR_CLASSES) == size


def test_nfc_trim():
    assert nfc_trim("  宏碁 ") == "宏碁"
    # decomposed e + combining acute normalizes to the precomposed form
    assert nfc_trim("Café") == "Café"
