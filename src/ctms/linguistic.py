"""Linguistic-pattern extraction of initial coordinate-term candidates.

Comparative and coordinative sentences place coordinate terms on either
side of a small set of grammaticalized function words ("clue words").
Because the same comparison can be written with the two terms swapped, a
genuine coordinate term shows up both immediately *before* ``clue+seed``
and immediately *after* ``seed+clue``.  Scoring by the product of the two
direction counts keeps only candidates attested in both directions, which
is what makes this stage high precision.

There is no reliable word segmentation for web text, so candidate
boundaries come purely from adjacency: a candidate is a maximal-or-shorter
run of term characters touching the clue-word junction, capped in length.

The module also carries the comparison baseline,
``extract_competitor_baseline``: manually defined surface patterns in the
manner of Hearst's lexico-syntactic patterns.  One regex reads the
enumeration after each anchor word and the seed; a table of four
``(pattern, bounded)`` pairs reads the comparisons and alternatives.
Every match goes through one rule: a term that pattern elements bound on
both sides is kept at any length, one the sentence edge ends only if it
is short.  Anchors and patterns are tried one after the other, never as
one alternation, because the first-occurrence order of the result
depends on it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .config import PipelineConfig
from .text import find_all, split_sentences, term_run


@dataclass(frozen=True)
class ScoredCandidate:
    text: str
    n: int  # sentences matching <candidate, clue, seed>
    m: int  # sentences matching <seed, clue, candidate>

    @property
    def score(self) -> int:
        return self.n * self.m


def build_queries(seed: str, cfg: PipelineConfig) -> list[str]:
    """Exact-phrase queries: for each clue word f, `seed+f` then `f+seed`."""
    queries: list[str] = []
    for clue in cfg.clue_words:
        queries.append(seed + clue)
        queries.append(clue + seed)
    return queries


def extract_initial_candidates(
    seed: str, sentences: list[str], cfg: PipelineConfig
) -> list[ScoredCandidate]:
    """Mine the initial candidate set from retrieved titles and snippets.

    `sentences` is the pooled sentence set from every query.  For each
    candidate x, n counts the sentences containing ``x·f·seed`` for any
    clue word f and m counts those containing ``seed·f·x``; each sentence
    counts once per direction no matter how many clue words hit.
    Candidates scoring strictly above tau survive, sorted by descending
    score then lexicographically, truncated to the top_n best.  No
    candidate contains the seed, so the seed never repeats among them.
    """
    # Each ``clue+seed`` or ``seed+clue`` occurrence is a seed occurrence
    # with the clue word touching it, so one seed scan finds every
    # junction.  Candidates are term characters only and at most
    # max_candidate_len long, so counting the sets as they are built is
    # the same as rescanning each sentence for ``x·f·seed`` and ``seed·f·x``.
    max_len = cfg.max_candidate_len
    n_counts: Counter[str] = Counter()
    m_counts: Counter[str] = Counter()
    for sentence in sentences:
        left: set[str] = set()
        right: set[str] = set()
        for at in find_all(sentence, seed):
            after = at + len(seed)
            for clue in cfg.clue_words:
                if sentence.endswith(clue, 0, at):
                    end = at - len(clue)
                    run = term_run(sentence[max(0, end - max_len) : end], at_end=True)
                    left.update(sentence[end - k : end] for k in range(1, run + 1))
                if sentence.startswith(clue, after):
                    start = after + len(clue)
                    run = term_run(sentence[start : start + max_len])
                    right.update(sentence[start : start + k] for k in range(1, run + 1))
        n_counts.update(left)
        m_counts.update(right)

    # tau >= 1: a candidate seen in one direction only scores 0, never kept.
    scored = [
        ScoredCandidate(text=c, n=n_counts[c], m=m_counts[c])
        for c in n_counts.keys() & m_counts.keys()
        if seed not in c and n_counts[c] * m_counts[c] > cfg.tau
    ]
    scored.sort(key=lambda s: (-s.score, s.text))
    return scored[: cfg.top_n]


# --- competitor-pattern baseline ------------------------------------------

# An edge-bounded term is one the sentence edge ends rather than a pattern
# element; it has no reliable boundary (佳能单反相机 fuses the brand with a
# head noun), so it is kept only up to this length.
_EDGE_TERM_MAX = 3

_LIST_ANCHORS = ("例如", "特别是", "包括")
# What follows ``anchor EN``: ``(、CN)* 和|或 CN``, the conjunct optional.
_ENUMERATION = re.compile(r"((?:、[^、和或]*)*)(?:[和或](.*))?", re.S)


def extract_competitor_baseline(seed: str, sentences: list[str]) -> list[str]:
    """Baseline extractor driven by fixed comparison/coordination patterns.

    Patterns (EN = seed, CN = extracted term), tried on each sentence in
    this order:
      enumerations  ``例如|特别是|包括 EN (、CN)* 和|或 CN``, one anchor
                    after the other, at every ``anchor EN``
      comparisons   ``CN 比 EN 更`` (CN sentence-initial, first match only),
                    ``EN 比 CN 更`` (every match)
      alternatives  ``EN 或 CN`` (CN at the sentence edge, every match),
                    ``CN 或 EN`` (CN sentence-initial, first match only)

    Each CN is stripped and dropped if empty.  A CN that pattern elements
    bound on both sides (every term of an enumeration but its last, and
    ``EN 比 CN 更``) is kept at any length; one the sentence edge ends (an
    enumeration's last term, a sentence-initial CN, ``EN 或 CN``) only up
    to `_EDGE_TERM_MAX` characters.  Matches are returned deduplicated, in first-occurrence
    order, without the seed; that order is why the patterns are tried one
    by one rather than as a single alternation.
    """
    en = re.escape(seed)
    patterns = (
        (re.compile(f"^(.*?)比{en}更", re.S), False),
        (re.compile(f"(?={en}比([^更]+)更)", re.S), True),
        (re.compile(f"(?={en}或(.*))", re.S), False),
        (re.compile(f"^(.*?)或{en}", re.S), False),
    )
    found: list[str] = []

    def keep(cn: str, bounded: bool) -> None:
        cn = cn.strip()
        if cn and (bounded or len(cn) <= _EDGE_TERM_MAX):
            found.append(cn)

    # Splitting is idempotent for pre-split input; raw strings carrying
    # their sentence-final punctuation behave identically.
    for sentence in (s for raw in sentences for s in split_sentences(raw)):
        for anchor in _LIST_ANCHORS:
            for idx in find_all(sentence, anchor + seed):
                items, conjunct = _ENUMERATION.match(sentence, idx + len(anchor + seed)).groups()
                terms = items.split("、")[1:]
                if conjunct is not None:
                    terms.append(conjunct)
                # the next 、, 和 or 或 bounds every term but the last
                for i, cn in enumerate(terms, 1):
                    keep(cn, bounded=i < len(terms))
        for pattern, bounded in patterns:
            for m in pattern.finditer(sentence):
                keep(m[1], bounded)

    return [term for term in dict.fromkeys(found) if term != seed]
