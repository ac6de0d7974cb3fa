"""Context vectors read off each page's token index, checked on real runs.

`context_vector` reads a list's window from its page's `TokenIndex` by
rendered offset.  On miniweb and on the three generated benchmark
workloads (grouping on), every mined list's vector over the run's pages
must equal, item by item and in order, the vector built by tokenizing
the list's context (its window rendered to text, as the web-list dump
writes it), and its window's tokens must be that text's.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import ctms.pipeline
from ctms.concepts import BackgroundCorpus, context_vector
from ctms.config import PipelineConfig
from ctms.corpus import FixtureProvider, load_fixture
from ctms.expansion import parsed_page, window_text
from ctms.text import tokenize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import WORKLOADS, materialize  # noqa: E402


def weights_from_context(context, background):
    """The tf-idf weights of ``tokenize(context)``."""
    weights = {}
    for word, count in Counter(tokenize(context)).items():
        w = count * background.idf.get(word, background.unseen_idf)
        if w > 0.0:
            weights[word] = w
    return weights


@pytest.mark.parametrize("name", ["miniweb", "dense_pages", "many_lists", "deep_snippets"])
def test_context_vectors_equal_those_of_the_context_strings(name, tmp_path):
    workload = WORKLOADS[name]
    bundle = materialize(workload, 1, tmp_path)
    cfg = PipelineConfig.from_dict({**workload.config, "disambiguation": True})
    provider = FixtureProvider(load_fixture(bundle))
    report = ctms.pipeline.mine(workload.term, cfg, provider)
    assert report.weblist_count > 0
    # Every list, contained ones too: mining builds vectors for the
    # maximal lists only, so their vectors are a subset of these.
    pages = {url: parsed_page(provider.fetch_page(url)) for url in report.pages}
    background = BackgroundCorpus(pages)
    seen = [(wl, context_vector(wl, background)) for wl in report.weblists]
    for weblist, vector in seen:
        index = background.pages[weblist.source_url]
        assert index.text == report.pages[weblist.source_url]
        context = window_text(index.text, weblist.window)
        lo, before, after, hi = weblist.window
        tokens = index.tokens_in(lo, before) + index.tokens_in(after, hi)
        assert tokens == tokenize(context), weblist.id
        want = weights_from_context(context, background)
        assert list(vector.items()) == list(want.items()), weblist.id
    # dense_pages has 3 pages, so a word in 2 or 3 of them weighs nothing.
    assert any(vector for _, vector in seen)
