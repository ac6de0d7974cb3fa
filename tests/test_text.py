from hypothesis import given, settings
from hypothesis import strategies as st

from ctms.text import (
    SENTENCE_BREAKS,
    is_punct_char,
    is_punct_text,
    is_term_char,
    nfc_trim,
    split_sentences,
    tokenize,
)


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
    assert is_term_char("宏")
    assert is_term_char("a")
    assert not is_term_char("、")
    assert not is_term_char(" ")


def test_tokenize_latin_runs_and_cjk_bigrams():
    assert tokenize("BMW 宝马2024款") == ["bmw", "宝马", "2024", "款"]
    assert tokenize("北京大学") == ["北京", "京大", "大学"]
    assert tokenize("") == []
    assert tokenize("美") == ["美"]


def test_nfc_trim():
    assert nfc_trim("  宏碁 ") == "宏碁"
    # decomposed e + combining acute normalizes to the precomposed form
    assert nfc_trim("Café") == "Café"
