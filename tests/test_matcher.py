"""Seed-occurrence search: the (term, pos) pairs of `DomTree.occurrence_ids`,
the search wrapper learning runs, against a brute-force scan."""

import random

from hypothesis import given, strategies as st

from ctms.dom import parse_html
from ctms.text import find_all


def find(patterns, text):
    """(term, pos) of every occurrence of `patterns` in `text`, as mining finds them."""
    return [(term, pos) for pos, term, _ in parse_html(text).occurrence_ids(patterns)]


def brute_force(patterns, text):
    """Independent oracle: per-pattern substring scan."""
    out = []
    for p in patterns:
        if not p:
            continue
        start = text.find(p)
        while start != -1:
            out.append((p, start))
            start = text.find(p, start + 1)
    out.sort(key=lambda m: (m[1], -len(m[0]), m[0]))
    return out


def test_overlapping_matches_in_position_order():
    assert find({"ab", "b"}, "abab") == [("ab", 0), ("b", 1), ("ab", 2), ("b", 3)]


def test_empty_pattern_set():
    assert find(set(), "anything") == []


def test_pattern_longer_than_text():
    assert find({"abcdef"}, "abc") == []


def test_tie_at_same_pos_longest_first():
    assert find({"a", "ab", "abc"}, "abc") == [("abc", 0), ("ab", 0), ("a", 0)]


def test_suffix_pattern_reported_via_failure_links():
    assert find({"sony", "ny"}, "xsonyx") == [("sony", 1), ("ny", 3)]


def test_cjk_patterns():
    assert find({"索尼", "尼康"}, "索尼康") == [("索尼", 0), ("尼康", 1)]


@given(
    st.lists(st.text(alphabet="ab宏", min_size=1, max_size=6), min_size=0, max_size=12),
    st.text(alphabet="ab宏", max_size=200),
)
def test_matches_equal_brute_force(patterns, text):
    assert find(patterns, text) == brute_force(set(patterns), text)
    # Extraction scans each context string with `find_all`.
    for p in set(patterns):
        assert find_all(text, p) == [i for _, i in brute_force({p}, text)]


def test_randomized_against_brute_force_bulk():
    rng = random.Random(20240811)
    alphabet = "abc"
    for _ in range(200):
        patterns = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 20))
        }
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 500)))
        assert find(patterns, text) == brute_force(patterns, text)
