"""Shared text primitives: substring search, sentence splitting, character
classes, tokenization.

Everything downstream (candidate extraction, wrapper validity, context
vectors, gold matching) must agree on what counts as punctuation, how
text is segmented and where a string occurs, so the rules live in one place.

Each character's class is decided once, in one memoised table; one
``str.translate`` gives a text's class string, which tokenization and the
candidate-run rule read with a regex or ``strip``, not character by character.
"""

from __future__ import annotations

import re
import unicodedata
from operator import add

# Sentence-final punctuation plus newlines. ASCII '.' is deliberately
# excluded: it appears inside URLs and decimals far more often than as a
# sentence boundary in the mixed-script text we handle.
SENTENCE_BREAKS = frozenset("。！？!?；;\n\r")
_SENTENCE_SPLIT = re.compile("[" + re.escape("".join(sorted(SENTENCE_BREAKS))) + "]")

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
    if 0x3000 <= ord(ch) <= 0x303F:  # the CJK symbols and punctuation block
        return True
    return unicodedata.category(ch)[0] in ("P", "S")


class _CharClasses(dict):
    """Code point -> class, filled on first sight: ``s`` whitespace (U+3000
    too), ``p`` punctuation, ``a`` ASCII letter or digit, ``c`` other term
    character above U+2E7F (CJK, kana, hangul), ``o`` any other term character.

    Astral code points are classified on every lookup, not memoised, so
    distinct astral characters cannot grow the table past 64 k entries.
    """

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        if ch.isspace():
            cls = "s"
        elif is_punct_char(ch):
            cls = "p"
        elif ch.isascii() and ch.isalnum():
            cls = "a"
        else:
            cls = "c" if cp > 0x2E7F else "o"
        if cp < 0x10000:
            self[cp] = cls
        return cls


_CHAR_CLASSES = _CharClasses()
_TERM_CLASSES = "aco"
# ASCII runs (group 1) and CJK runs, each maximal.
_TOKEN_RUNS = re.compile("(a+)|c+")


def term_run(text: str, at_end: bool = False) -> int:
    """Length of the run of term characters that `text` starts (or ends) with."""
    classes = text.translate(_CHAR_CLASSES)
    rest = classes.rstrip(_TERM_CLASSES) if at_end else classes.lstrip(_TERM_CLASSES)
    return len(classes) - len(rest)


def is_punct_text(s: str) -> bool:
    """True when `s` consists of punctuation (whitespace allowed, but not alone).

    A loop, not one ``translate``: short wrapper contexts mostly fail early.
    """
    seen = False
    for ch in s:
        cls = _CHAR_CLASSES[ord(ch)]
        if cls == "s":
            continue
        if cls != "p":
            return False
        seen = True
    return seen


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation and newlines, dropping empties."""
    return [piece for piece in map(str.strip, _SENTENCE_SPLIT.split(text)) if piece]


def tokenize(text: str) -> list[str]:
    """Tokenize mixed-script text without a word segmenter.

    Latin/digit runs become single lowercased tokens; CJK runs are emitted
    as overlapping character bigrams (a lone CJK character is its own
    token).  Kana and hangul count as CJK here, which is adequate for our
    purposes.  Everything else separates tokens.
    """
    tokens: list[str] = []
    for m in _TOKEN_RUNS.finditer(text.translate(_CHAR_CLASSES)):
        run = text[m.start() : m.end()]
        if m[1]:
            tokens.append(run.lower())
        elif len(run) == 1:
            tokens.append(run)
        else:
            tokens.extend(map(add, run, run[1:]))
    return tokens


def nfc_trim(s: str) -> str:
    """Canonical form used for gold-answer matching."""
    return unicodedata.normalize("NFC", s).strip()
