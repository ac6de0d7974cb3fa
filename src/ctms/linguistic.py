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

The module also carries a pattern-matching baseline extractor used for
comparison runs; see ``extract_competitor_baseline``.
"""

from __future__ import annotations

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
#
# Hand-written surface patterns adapted for Chinese.  EN is the seed term,
# CN a coordinate term.  A CN bounded on both sides by pattern elements is
# extracted verbatim; a CN bounded by the sentence edge has no reliable
# boundary (e.g. 佳能单反相机 fuses the brand with a head noun), so edge-
# bounded candidates are accepted only up to a short length.

_EDGE_TERM_MAX = 3

_LIST_ANCHORS = ("例如", "特别是", "包括")
_LIST_SEPARATORS = ("、", "和", "或")


def _edge_ok(candidate: str) -> bool:
    return 0 < len(candidate) <= _EDGE_TERM_MAX


def _list_pattern_terms(sentence: str, seed: str, anchor: str) -> list[str]:
    """`anchor EN (、 CN)* 和|或 CN` — enumeration after an anchor word."""
    found: list[str] = []
    for idx in find_all(sentence, anchor + seed):
        rest = sentence[idx + len(anchor) + len(seed) :]
        if rest[:1] in ("和", "或"):
            # zero enumerated items: straight to the final conjunct
            tail = rest[1:].strip()
            if _edge_ok(tail):
                found.append(tail)
            continue
        while rest.startswith("、"):
            rest = rest[1:]
            cut = len(rest)
            sep_at = None
            for sep in _LIST_SEPARATORS:
                j = rest.find(sep)
                if j != -1 and j < cut:
                    cut, sep_at = j, sep
            candidate = rest[:cut].strip()
            if sep_at is None:
                # enumeration ran to the sentence edge
                if _edge_ok(candidate):
                    found.append(candidate)
                rest = ""
                break
            if candidate:
                found.append(candidate)
            if sep_at == "、":
                rest = rest[cut:]
                continue
            # final conjunct: bounded only by the sentence edge
            tail = rest[cut + len(sep_at) :].strip()
            if _edge_ok(tail):
                found.append(tail)
            rest = ""
            break
    return found


def extract_competitor_baseline(seed: str, sentences: list[str]) -> list[str]:
    """Baseline extractor driven by fixed comparison/coordination patterns.

    Patterns (EN = seed, CN = extracted term):
      enumerations  ``例如|特别是|包括 EN (、CN)* 和|或 CN``
      comparisons   ``CN 比 EN 更`` (CN sentence-initial), ``EN 比 CN 更``
      alternatives  ``EN 或 CN`` (CN at the sentence edge), ``CN 或 EN``
                    (CN sentence-initial)

    Matches are returned deduplicated, in first-occurrence order.
    """
    found: list[str] = []

    # Idempotent for pre-split input; makes raw strings carrying their
    # sentence-final punctuation behave identically.
    split: list[str] = []
    for raw in sentences:
        split.extend(split_sentences(raw))

    for sentence in split:
        for anchor in _LIST_ANCHORS:
            found.extend(_list_pattern_terms(sentence, seed, anchor))

        # CN 比 EN 更 : CN runs from the sentence start
        marker = "比" + seed + "更"
        idx = sentence.find(marker)
        if idx > 0:
            prefix = sentence[:idx].strip()
            if _edge_ok(prefix):
                found.append(prefix)

        # EN 比 CN 更 : CN bounded by 比 and 更
        for idx in find_all(sentence, seed + "比"):
            rest = sentence[idx + len(seed) + 1 :]
            j = rest.find("更")
            if j > 0:
                candidate = rest[:j].strip()
                if candidate:
                    found.append(candidate)

        # EN 或 CN : CN must reach the sentence edge
        for idx in find_all(sentence, seed + "或"):
            tail = sentence[idx + len(seed) + 1 :].strip()
            if _edge_ok(tail):
                found.append(tail)

        # CN 或 EN : CN runs from the sentence start
        marker = "或" + seed
        idx = sentence.find(marker)
        if idx > 0:
            prefix = sentence[:idx].strip()
            if _edge_ok(prefix):
                found.append(prefix)

    return [term for term in dict.fromkeys(found) if term and term != seed]
