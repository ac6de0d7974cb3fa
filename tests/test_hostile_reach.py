"""Mining the hostile bundle runs the code written for unclean pages.

The mini-web pages are clean templates, so the parser's repairs and the
learner's skips would be reached by unit tests at most.  One `mine` of
the hostile bundle (see `scripts/build_hostile_fixture.py`) must run each
construct below; a construct is named by its function and a piece of its
source (`line_events.marker_line`), never by a line number.
"""

import pytest

from ctms import dom, ranking, text, wrappers
from ctms.config import PipelineConfig
from ctms.corpus import FixtureProvider, load_fixture
from ctms.pipeline import mine
from line_events import lines_run, marker_line

SEED = "苹果"

# construct -> (function, the source that ends on the line that must run)
CONSTRUCTS = {
    "comment": (dom.parse_html, "path = child(stack[-1], COMMENT_TAG)"),
    "doctype": (dom.parse_html, "path = child(stack[-1], DIRECTIVE_TAG)"),
    "close tag popping several elements": (dom.parse_html, "depth = len(stack) - 1"),
    "<li> closed by the next <li>": (dom.parse_html, "open_count[path_tag[stack.pop()]] -= 1"),
    "void or self-closing tag": (dom.parse_html, "VOID_ELEMENTS:\n            continue"),
    "unclosed <script> at the end": (dom.parse_html, "if close_tag is None:\n                break"),
    "closed <style> body": (dom.parse_html, 'close_gt = raw.find(">", body_end)'),
    "page cut off inside a tag": (dom._scan_attributes, "return attr_spans, False, len(raw)"),
    "item over MAX_TERM_LEN": (
        wrappers.spans_on_path, "if len(piece) > MAX_TERM_LEN:\n                break"
    ),
    "several level tops": (wrappers._used_positions, "return sorted(chain.from_iterable(tops))"),
    "raw or non-textual group": (
        wrappers.learn_wrappers, "not in TEXTUAL_TAGS:\n            continue"
    ),
    "one-seed group": (
        wrappers.learn_wrappers, "< cfg.min_distinct_seeds:\n            continue"
    ),
    "level-less group": (wrappers.learn_wrappers, "if not all(sides):\n            continue"),
    "group with no gated pair": (wrappers.learn_wrappers, "if not gated:\n            continue"),
    "whitespace on both sides": (
        wrappers._contexts_pass, "right.isspace():\n        return False"
    ),
    "window inside one token run": (text.TokenIndex.tokens_in, "return tokenize(text[x:y])"),
    "window clipping a run's head": (
        text.TokenIndex.tokens_in, "head = tokenize(text[x : ends[i]])"
    ),
    "window clipping a run's tail": (
        text.TokenIndex.tokens_in, "tail = tokenize(text[starts[j] : y])"
    ),
    "window with no token": (text.TokenIndex.tokens_in, "if i >= j:\n            return []"),
}


@pytest.fixture(scope="module")
def hostile_provider(hostile_path):
    return FixtureProvider(load_fixture(hostile_path))


@pytest.fixture(scope="module")
def hostile_lines(hostile_provider):
    functions = {function for function, _ in CONSTRUCTS.values()}
    report, ran = lines_run(functions, lambda: mine(SEED, PipelineConfig(), hostile_provider))
    assert report.concepts
    return ran


@pytest.mark.parametrize("construct", list(CONSTRUCTS))
def test_mining_the_hostile_bundle_runs(construct, hostile_lines):
    function, marker = CONSTRUCTS[construct]
    assert marker_line(function, marker) in hostile_lines[function]


def test_hostile_pages_hold_seed_terms_in_script_bodies_and_comments(hostile_provider):
    # One skip serves raw and non-textual groups, so the line event alone
    # cannot tell that both kinds occur; the pages show it.
    kinds = set()
    for url in hostile_provider._corpus.pages:
        tree = dom.parse_html(hostile_provider.fetch_page(url).html)
        for _, _, path in tree.occurrence_ids([SEED]):
            if tree.path_raw[path]:
                kinds.add("raw")
            elif tree.path_tag[path] == dom.COMMENT_TAG:
                kinds.add("comment")
    assert kinds == {"raw", "comment"}


def test_a_short_walk_budget_ends_the_walk_unconverged(hostile_provider):
    # At the default restart probability the walk converges in about 35
    # iterations; only a config with a smaller budget reaches this exit.
    marker = marker_line(ranking.walk_probabilities, "return v, False")
    cfg = PipelineConfig(max_iters=3)
    report, ran = lines_run([ranking.walk_probabilities], lambda: mine(SEED, cfg, hostile_provider))
    assert marker in ran[ranking.walk_probabilities]
    assert report.concepts
