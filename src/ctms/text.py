"""Shared text primitives: substring search, sentence splitting, character
classes, tokenization.

Everything downstream (candidate extraction, wrapper validity, context
vectors, gold matching) must agree on what counts as punctuation, how
text is segmented and where a string occurs, so the rules live in one place.
"""

from __future__ import annotations

import re
import unicodedata

# Sentence-final punctuation plus newlines. ASCII '.' is deliberately
# excluded: it appears inside URLs and decimals far more often than as a
# sentence boundary in the mixed-script text we handle.
SENTENCE_BREAKS = frozenset("。！？!?；;\n\r")
_SENTENCE_SPLIT = re.compile("[" + re.escape("".join(sorted(SENTENCE_BREAKS))) + "]")

_CJK_PUNCT_LO = 0x3000
_CJK_PUNCT_HI = 0x303F


def find_all(text: str, pattern: str) -> list[int]:
    """Every start of `pattern` in `text`, overlaps included, ascending.

    One C-level ``str.find`` per match; an empty pattern matches nowhere.
    """
    starts: list[int] = []
    if not pattern:
        return starts
    i = text.find(pattern)
    while i != -1:
        starts.append(i)
        i = text.find(pattern, i + 1)
    return starts


def is_punct_char(ch: str) -> bool:
    """True for punctuation and symbol characters, in any script."""
    cp = ord(ch)
    if _CJK_PUNCT_LO <= cp <= _CJK_PUNCT_HI:
        return True
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punct_text(s: str) -> bool:
    """True when `s` consists of punctuation (whitespace allowed, but not alone)."""
    seen = False
    for ch in s:
        if ch.isspace():
            continue
        if not is_punct_char(ch):
            return False
        seen = True
    return seen


def is_term_char(ch: str) -> bool:
    """Characters allowed inside a candidate term: no space, no punctuation."""
    return not ch.isspace() and not is_punct_char(ch)


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation and newlines, dropping empties."""
    return [piece for piece in map(str.strip, _SENTENCE_SPLIT.split(text)) if piece]


def _is_latin_digit(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ("0" <= ch <= "9")


def tokenize(text: str) -> list[str]:
    """Tokenize mixed-script text without a word segmenter.

    Latin/digit runs become single lowercased tokens; CJK runs are emitted
    as overlapping character bigrams (a lone CJK character is its own
    token). Everything else separates tokens.
    """
    tokens: list[str] = []
    latin: list[str] = []
    cjk: list[str] = []

    def flush_latin() -> None:
        if latin:
            tokens.append("".join(latin).lower())
            latin.clear()

    def flush_cjk() -> None:
        if len(cjk) == 1:
            tokens.append(cjk[0])
        else:
            for i in range(len(cjk) - 1):
                tokens.append(cjk[i] + cjk[i + 1])
        cjk.clear()

    for ch in text:
        if _is_latin_digit(ch):
            if cjk:
                flush_cjk()
            latin.append(ch)
        elif is_term_char(ch) and ord(ch) > 0x2E7F:
            # CJK ideographs and similar; kana/hangul get the same bigram
            # treatment, which is adequate for our purposes.
            if latin:
                flush_latin()
            cjk.append(ch)
        else:
            flush_latin()
            flush_cjk()
    flush_latin()
    flush_cjk()
    return tokens


def nfc_trim(s: str) -> str:
    """Canonical form used for gold-answer matching."""
    return unicodedata.normalize("NFC", s).strip()
