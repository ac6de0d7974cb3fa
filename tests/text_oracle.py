"""Character-by-character definitions that `ctms.text` replaced, kept as
oracles for its table-driven rules, plus a mixed-script alphabet to draw
test strings from."""

import unicodedata

# ASCII and Latin-1, fullwidth digits and letters, code points either side
# of U+2E7F, the CJK punctuation block (々 and 〇 included), kana, CJK,
# combining marks, emoji presentation and joiners, private use, a lone
# surrogate, astral ideographs and emoji, and whitespace beyond the space.
MIXED_ALPHABET = (
    "aZz09\xe9\xdf"
    "\uff10\uff19\uff21\uff3a\uff41\uff5a"
    "\u2e7e\u2e7f\u2e80\u2e81"
    "\u3001\u3002\u3005\u3007\u303f"
    "\u304b\u30ab\u30fc"
    "\u4e2d\u6587\u5b9d\u9a6c"
    "\u0301\u3099\ufe0f\u200d"
    "\ue000\ud800"
    "\U00020000\U0001f600"
    " \t\n\x1c\x85\u2028\u3000"
    ",<>"
)


def is_term_char_by_category(ch: str) -> bool:
    """Not whitespace, not in the CJK punctuation block, not a P* or S* category."""
    if ch.isspace() or 0x3000 <= ord(ch) <= 0x303F:
        return False
    return unicodedata.category(ch)[0] not in ("P", "S")


def tokenize_by_loop(text: str) -> list[str]:
    """The per-character state machine `ctms.text.tokenize` replaced."""
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
        if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ("0" <= ch <= "9"):
            if cjk:
                flush_cjk()
            latin.append(ch)
        elif is_term_char_by_category(ch) and ord(ch) > 0x2E7F:
            if latin:
                flush_latin()
            cjk.append(ch)
        else:
            flush_latin()
            flush_cjk()
    flush_latin()
    flush_cjk()
    return tokens
