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
from bisect import bisect_left, bisect_right
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
# Token runs: maximal ASCII runs and maximal CJK runs.
_TOKEN_RUNS = re.compile("a+|c+")


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
    return TokenIndex(text).tokens


def _run_tokens(run: str) -> list[str]:
    """The tokens of one token run; only a Latin/digit run is ASCII."""
    if run.isascii():
        return [run.lower()]
    if len(run) == 1:
        return [run]
    return list(map(add, run, run[1:]))


class TokenIndex:
    """The tokens of one text, kept by token run, so that the tokens of any
    slice of it are mostly read, not recomputed.

    Token runs are the maximal ASCII and CJK runs of the text: run i
    spans ``text[starts[i]:ends[i]]`` and its tokens are
    ``tokens[firsts[i]:firsts[i + 1]]``.  ``tokens`` is ``tokenize(text)``.
    """

    __slots__ = ("text", "starts", "ends", "firsts", "tokens")

    def __init__(self, text: str):
        self.text = text
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.firsts: list[int] = []
        self.tokens: list[str] = []
        starts, ends, firsts, tokens = self.starts, self.ends, self.firsts, self.tokens
        for m in _TOKEN_RUNS.finditer(text.translate(_CHAR_CLASSES)):
            start, end = m.span()
            starts.append(start)
            ends.append(end)
            firsts.append(len(tokens))
            tokens += _run_tokens(text[start:end])
        firsts.append(len(tokens))

    def tokens_in(self, x: int, y: int) -> list[str]:
        """``tokenize(text[x:y])``, for ``0 <= x <= y``.

        No token spans two runs, so the tokens are: those of the first
        run's part inside the slice, recomputed when the slice clips it;
        a slice of ``tokens`` for the runs wholly inside; and those of
        the last run's part, recomputed when clipped.
        """
        starts, ends = self.starts, self.ends
        i = bisect_right(ends, x)  # the first run that ends after x
        j = bisect_left(starts, y)  # runs i .. j-1 overlap the slice
        if i >= j:
            return []
        text, firsts, tokens = self.text, self.firsts, self.tokens
        if starts[i] < x and ends[i] > y:  # the slice lies inside one run
            return tokenize(text[x:y])
        head: list[str] = []
        tail: list[str] = []
        if starts[i] < x:
            head = tokenize(text[x : ends[i]])
            i += 1
        if ends[j - 1] > y:
            j -= 1
            tail = tokenize(text[starts[j] : y])
        return head + tokens[firsts[i] : firsts[j]] + tail


def nfc_trim(s: str) -> str:
    """Canonical form used for gold-answer matching."""
    return unicodedata.normalize("NFC", s).strip()
