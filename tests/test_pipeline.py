import gc
import json
import re
import subprocess
import sys
import threading
import unicodedata
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ctms import expansion, pipeline
from ctms.cli import _weblists_jsonl
from ctms.concepts import ConceptCluster
from ctms.corpus import FixtureCorpus, FixtureProvider, MissingPageError, RawPage, load_fixture
from ctms.dom import parse_html
from ctms.expansion import ExpandResult, WebList
from ctms.linguistic import ScoredCandidate
from ctms.metrics import GoldAnswer, GoldConcept, load_gold
from ctms.pipeline import (
    MiningReport,
    PipelineConfig,
    check_seed,
    evaluate,
    format_metric_table,
    format_report_table,
    mine,
)
from ctms.ranking import build_relation_graph
from ctms.text import TokenIndex
from ctms.wrappers import Wrapper

EXPERIMENT = Path(__file__).resolve().parent.parent / "scripts" / "run_miniweb_experiment.py"


@pytest.fixture(scope="module")
def report(miniweb_provider):
    return mine("华盛顿", PipelineConfig(), miniweb_provider)


@pytest.fixture(scope="module")
def gold(miniweb_path):
    return load_gold(miniweb_path / "gold.json")


def test_config_defaults_match_working_set():
    cfg = PipelineConfig()
    assert cfg.clue_words == ("和", "比")
    assert cfg.tau == 2
    assert cfg.top_n == 5
    assert cfg.kappa == 4
    assert cfg.sim_lambda == 0.5
    assert cfg.cluster_threshold == 0.65
    assert cfg.min_support == 0.05
    assert cfg.restart_prob == 0.2
    assert cfg.tolerance == 0.001
    assert cfg.snippet_results == 200


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"bogus": 1})


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 3, "clue_words": ["和"]}), encoding="utf-8")
    cfg = PipelineConfig.from_file(path)
    assert cfg.tau == 3 and cfg.clue_words == ("和",)


@pytest.mark.parametrize("data", [None, 5, [1], "tau"])
def test_config_rejects_non_objects(data):
    with pytest.raises(ValueError, match="config must be a JSON object"):
        PipelineConfig.from_dict(data)


def test_config_accepts_boundary_values():
    edges = {
        "tau": 1,
        "min_distinct_seeds": 2,
        "context_window": 1,
        "max_iters": 1,
        "affix_min_n": 2,
        "affix_max_n": 2,
        "sim_lambda": 0,
        "cluster_threshold": 1,
        "min_support": 0.0,
        "tolerance": 1e-12,
    }
    cfg = PipelineConfig.from_dict(edges)
    assert all(getattr(cfg, name) == value for name, value in edges.items())


def test_config_is_checked_on_construction():
    # Lists are turned into tuples only when loading JSON.
    with pytest.raises(ValueError, match="clue_words"):
        PipelineConfig(clue_words=["和"])
    with pytest.raises(ValueError, match="restart_prob"):
        PipelineConfig(restart_prob=1.0)
    with pytest.raises(ValueError, match="sim_lambda"):
        PipelineConfig(sim_lambda=float("nan"))


# One non-default value per config field that changes the miniweb report.
# A stage that read a constant of its own in place of its field would mine
# the default report for that value.
FIELD_VALUES = {
    "clue_words": ("和",),
    "tau": 3,
    "top_n": 2,
    "max_candidate_len": 2,
    "snippet_results": 3,
    "kappa": 30,
    "min_distinct_seeds": 3,
    "pages_per_query": 1,
    "context_window": 2,
    "cluster_threshold": 0.9,
    "min_support": 0.5,
    "restart_prob": 0.5,
    "tolerance": 0.1,
    "max_iters": 1,
    "affix_min_n": 2,
    "disambiguation": False,
}


def _mined(cfg, provider) -> dict:
    """The miniweb report as JSON data, without its echo of the config."""
    data = json.loads(mine("华盛顿", cfg, provider).to_json())
    del data["config"]
    return data


@pytest.mark.parametrize("name", list(FIELD_VALUES))
def test_every_config_field_reaches_its_stage(name, miniweb_provider):
    changed = replace(PipelineConfig(), **{name: FIELD_VALUES[name]})
    assert _mined(changed, miniweb_provider) != _mined(PipelineConfig(), miniweb_provider)


def test_sim_lambda_reaches_grouping(miniweb_provider):
    # At the default threshold, every sim_lambda from 0 to 1 gives the
    # default miniweb report.
    strict = PipelineConfig(cluster_threshold=0.9)
    changed = replace(strict, sim_lambda=0.8)
    assert _mined(changed, miniweb_provider) != _mined(strict, miniweb_provider)


def test_affix_max_n_reaches_the_graph():
    # No miniweb report depends on affix_max_n; these two terms share the
    # suffix 学 at n <= 1 and also 大学 at n <= 2.
    terms = ("北京大学", "斯坦福大学")
    wrapper = Wrapper("<li>", "</li>", "ul/li/#text")
    lists = [WebList("L1", terms, "u", wrapper, (0, 0, 0, 0))]
    cluster = ConceptCluster("L1", ("L1",), frozenset(terms))
    graphs = [
        build_relation_graph(cluster, lists, terms[0], PipelineConfig(affix_max_n=n))
        for n in (1, 2)
    ]
    assert graphs[0].vertices != graphs[1].vertices


def test_affix_max_n_reorders_a_mined_ranking(tmp_path):
    # Every term ends in 学; the 大学 terms also share 大学 with the seed,
    # and the 中学 terms share 中学.  Only at n >= 2 do those two-character
    # endings join the graph, lifting 丙大学 above 东中学.
    seed = "甲大学"
    pages = {
        "http://x/0": ["甲大学", "乙大学", "东中学"],
        "http://x/1": ["甲大学", "乙大学", "西中学", "丙大学"],
        "http://x/2": ["甲大学", "乙大学", "西中学"],
    }
    (tmp_path / "pages").mkdir()
    for i, items in enumerate(pages.values()):
        html = "<ul>" + "".join(f"<li>{t}</li>" for t in items) + "</ul>"
        (tmp_path / "pages" / f"p{i}.html").write_text(html, encoding="utf-8")

    def hits(snippet, urls=("http://x/0",)):
        return [{"rank": r, "title": "t", "snippet": snippet, "url": u}
                for r, u in enumerate(urls, start=1)]

    manifest = {
        "queries": [
            {"query": seed + "和", "hits": hits("甲大学和乙大学。" * 3)},
            {"query": "和" + seed, "hits": hits("乙大学和甲大学。" * 3)},
            {"query": seed + "比", "hits": []},
            {"query": "比" + seed, "hits": []},
            {"query": seed + " 乙大学", "hits": hits("s", list(pages))},
        ],
        "pages": [{"url": u, "file": f"pages/p{i}.html"} for i, u in enumerate(pages)],
    }
    (tmp_path / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False), encoding="utf-8"
    )
    provider = FixtureProvider(load_fixture(tmp_path))
    orders = {}
    for n in (1, 3):
        cfg = PipelineConfig(affix_max_n=n, disambiguation=False)
        (concept,) = mine(seed, cfg, provider).concepts
        orders[n] = [t for t, _ in concept.ranked_terms]
    assert orders[1] == ["乙大学", "西中学", "东中学", "丙大学"]
    assert orders[3] == ["乙大学", "西中学", "丙大学", "东中学"]


def test_every_config_field_is_checked_for_reach():
    checked = set(FIELD_VALUES) | {"sim_lambda", "affix_max_n"}
    assert checked == {f.name for f in fields(PipelineConfig)}


def test_report_keeps_weblists_out_of_json(report):
    assert len(report.weblists) == report.weblist_count > 0
    assert len(report.pages) == report.diagnostics["pages_processed"] > 0
    assert {"weblists", "pages"}.isdisjoint(json.loads(report.to_json()))
    assert MiningReport.from_json(report.to_json()) == report


def test_mine_finds_two_concepts(report):
    assert len(report.concepts) == 2
    assert report.weblist_count > 0
    sizes = [c.list_count for c in report.concepts]
    assert sizes == sorted(sizes, reverse=True)


def test_initial_candidates_cover_both_meanings(report):
    texts = [c["text"] for c in report.initial_candidates]
    assert "林肯" in texts and "纽约" in texts
    for c in report.initial_candidates:
        assert c["score"] == c["n"] * c["m"] > 2


def test_ranked_lists_score_descending(report):
    for concept in report.concepts:
        scores = [s for _, s in concept.ranked_terms]
        assert scores == sorted(scores, reverse=True)
        terms = [t for t, _ in concept.ranked_terms]
        assert "华盛顿" not in terms  # seed never appears in its own results


def test_provenance_complete(report):
    for concept in report.concepts:
        for term, _score in concept.ranked_terms:
            assert concept.term_lists.get(term), term
            for wid in concept.term_lists[term]:
                assert wid in concept.list_ids


def _graph_term_lists(graph) -> dict[str, list[str]]:
    """Each term vertex's list neighbours, by id, read off the edges."""
    lists: dict[str, list[str]] = {
        name: [] for kind, name in graph.vertices if kind == "term"
    }
    for i, neighbours in enumerate(graph.adjacency):
        for j in neighbours:
            (kind_a, a), (kind_b, b) = graph.vertices[i], graph.vertices[j]
            if kind_a == "term" and kind_b == "list":
                lists[a].append(b)
    return {term: sorted(ids) for term, ids in lists.items()}


@pytest.mark.parametrize("disambiguation", [True, False])
def test_provenance_is_the_ranked_graph(disambiguation, miniweb_provider, monkeypatch):
    graphs = []
    build = pipeline.build_relation_graph

    def spy(*args, **kwargs):
        graphs.append(build(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(pipeline, "build_relation_graph", spy)
    mined = mine("华盛顿", PipelineConfig(disambiguation=disambiguation), miniweb_provider)
    assert len(graphs) == len(mined.concepts) > 0
    for concept, graph in zip(mined.concepts, graphs):
        expected = _graph_term_lists(graph)
        assert concept.term_lists == expected
        assert all(expected.values()), [t for t, ids in expected.items() if not ids]


def test_term_below_the_support_floor_has_no_provenance(monkeypatch):
    # Grouping off, three lists, a floor of 1.5 lists: "丙" sits in one
    # list but is no member term, so it gets neither a rank nor an entry.
    wrapper = Wrapper("<li>", "</li>", "#document/ul/li/#text")
    lists = [
        WebList("w1", ("甲", "乙", "丙"), "u1", wrapper, (0, 0, 0, 0)),
        WebList("w2", ("甲", "乙"), "u2", wrapper, (0, 0, 0, 0)),
        WebList("w3", ("乙", "甲"), "u3", wrapper, (0, 0, 0, 0)),
    ]
    monkeypatch.setattr(
        pipeline, "extract_initial_candidates", lambda *a: [ScoredCandidate("乙", 2, 2)]
    )
    monkeypatch.setattr(
        pipeline, "expand", lambda *a: ExpandResult(lists, {}, [], 3)
    )

    class NoSnippets:
        def search(self, query, max_results=200):
            return []

    cfg = PipelineConfig(disambiguation=False, min_support=0.5)
    (concept,) = mine("甲", cfg, NoSnippets()).concepts
    assert [t for t, _ in concept.ranked_terms] == ["乙"]
    assert concept.term_lists == {"乙": ["w1", "w2", "w3"], "甲": ["w1", "w2", "w3"]}


def test_report_json_roundtrip(report):
    text = report.to_json()
    clone = MiningReport.from_json(text)
    assert clone.to_json() == text


def test_mine_deterministic(miniweb_provider, report):
    again = mine("华盛顿", PipelineConfig(), miniweb_provider)
    assert again.to_json() == report.to_json()


class UntouchedProvider:
    """A provider that fails the test if any stage reaches it."""

    def search(self, query, max_results):
        raise AssertionError(f"searched {query!r}")

    def fetch_page(self, url):
        raise AssertionError(f"fetched {url!r}")


def test_empty_seed_rejected():
    # `check_seed` is the one owner of the seed rule; no stage re-checks it.
    with pytest.raises(ValueError, match="seed must be non-empty"):
        check_seed("")


@pytest.mark.parametrize("seed", ["", " ", "\t", " \n "])
def test_blank_seed_rejected(seed):
    # The entry check fires before any stage can search or fetch.
    with pytest.raises(ValueError, match="seed must be non-empty"):
        mine(seed, PipelineConfig(), UntouchedProvider())


@pytest.mark.parametrize("seed", [" 华盛顿", "华盛顿\n", "\u3000华盛顿"])
def test_seed_with_outer_whitespace_rejected(seed):
    with pytest.raises(ValueError, match="seed must not begin or end with whitespace"):
        mine(seed, PipelineConfig(), UntouchedProvider())


def test_absent_seed_gives_empty_report(miniweb_provider):
    report = mine("不存在的种子", PipelineConfig(), miniweb_provider)
    assert report.concepts == []
    assert report.initial_candidates == []
    assert any("no initial candidates" in n for n in report.diagnostics["notes"])


def test_no_disambiguation_merges_everything(miniweb_provider, report):
    nd = mine("华盛顿", PipelineConfig(disambiguation=False), miniweb_provider)
    assert len(nd.concepts) == 1
    merged_terms = {t for t, _ in nd.concepts[0].ranked_terms}
    separate_terms = {
        t for c in report.concepts for t, _ in c.ranked_terms
    }
    # support filter drops rare noise, the real candidates all survive
    assert {"林肯", "纽约", "里根", "休斯顿"} <= merged_terms
    assert merged_terms <= separate_terms


def test_no_disambiguation_builds_no_background_corpus(miniweb_provider, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("background corpus built with grouping off")

    monkeypatch.setattr(pipeline, "BackgroundCorpus", refuse)
    nd = mine("华盛顿", PipelineConfig(disambiguation=False), miniweb_provider)
    assert len(nd.concepts) == 1


def test_no_disambiguation_builds_no_token_index(fresh_miniweb_provider, monkeypatch):
    # Pages are tokenized only for grouping, never in expansion.  A fresh
    # provider, because a page tokenized by an earlier mine stays so.
    def refuse(self, text):
        raise AssertionError("token index built")

    monkeypatch.setattr(TokenIndex, "__init__", refuse)
    nd = mine("华盛顿", PipelineConfig(disambiguation=False), fresh_miniweb_provider)
    assert len(nd.concepts) == 1
    with pytest.raises(AssertionError, match="token index built"):
        mine("华盛顿", PipelineConfig(), fresh_miniweb_provider)


# -- each fetched page parsed once per page object ----------------------------


def outputs(report):
    """What a mine writes: its report JSON and its --dump-weblists lines."""
    return report.to_json(), _weblists_jsonl(report)


def counting_parses(monkeypatch):
    """The HTML of every `parse_html` call mining makes, from now on."""
    parsed = []

    def counting_parse(html):
        parsed.append(html)
        return parse_html(html)

    monkeypatch.setattr(expansion, "parse_html", counting_parse)
    return parsed


@pytest.mark.parametrize("disambiguation", [True, False])
def test_a_warm_mine_writes_what_a_cold_one_does(disambiguation, fresh_miniweb_provider):
    cfg = PipelineConfig(disambiguation=disambiguation)
    cold = outputs(mine("华盛顿", cfg, fresh_miniweb_provider))
    assert outputs(mine("华盛顿", cfg, fresh_miniweb_provider)) == cold


def test_two_mines_parse_each_fetched_page_once(fresh_miniweb_provider, monkeypatch):
    parsed = counting_parses(monkeypatch)
    first = mine("华盛顿", PipelineConfig(), fresh_miniweb_provider)
    # A cold mine parses each page it processes once, as every mine did
    # before pages kept their parse.
    assert len(parsed) == len(set(parsed)) == first.diagnostics["pages_processed"] == 24
    second = mine("华盛顿", PipelineConfig(disambiguation=False), fresh_miniweb_provider)
    assert second.diagnostics["pages_processed"] == 24
    assert len(parsed) == 24


def test_each_page_is_tokenized_at_most_once(fresh_miniweb_provider, monkeypatch):
    built = Counter()

    class CountingIndex(TokenIndex):
        __slots__ = ()

        def __init__(self, text):
            built[text] += 1
            super().__init__(text)

    monkeypatch.setattr(expansion, "TokenIndex", CountingIndex)
    for _ in range(2):
        report = mine("华盛顿", PipelineConfig(), fresh_miniweb_provider)
    assert sorted(built) == sorted(report.pages.values())
    assert set(built.values()) == {1}


def test_the_parse_table_lets_go_of_a_dropped_corpus(miniweb_path):
    gc.collect()
    before = len(expansion._PARSED)
    corpus = load_fixture(miniweb_path)
    mine("华盛顿", PipelineConfig(), FixtureProvider(corpus))
    assert len(expansion._PARSED) == before + 24
    pages = [weakref.ref(page) for page in corpus.pages.values()]
    del corpus
    gc.collect()
    assert [page() for page in pages] == [None] * len(pages)
    assert len(expansion._PARSED) == before


def test_a_new_page_object_is_parsed_afresh(miniweb_path, monkeypatch):
    # Nothing is kept by URL: a provider that hands back a new RawPage for
    # a URL, with new HTML or the same, gets that page parsed again.
    corpus = load_fixture(miniweb_path)
    url = "https://miniweb.test/presidents/p01.html"
    old = corpus.pages[url].html
    new = old.replace("亚当斯", "格兰特")
    assert new != old

    def mine_over(pages):
        provider = FixtureProvider(replace(corpus, pages=pages))
        return outputs(mine("华盛顿", PipelineConfig(), provider))

    first = mine_over(corpus.pages)
    parsed = counting_parses(monkeypatch)
    for html in (old, new):
        pages = {**corpus.pages, url: RawPage(html)}
        warm = mine_over(pages)
        assert parsed == [html]
        cold = mine_over({u: RawPage(page.html) for u, page in pages.items()})
        assert len(parsed) == 1 + 24
        assert warm == cold
        assert (warm == first) is (html == old)
        parsed.clear()


def test_threads_mining_one_cold_provider_write_what_one_mine_does(
    miniweb_path, fresh_miniweb_provider
):
    # Four threads switching every 10 us, so that several of them parse and
    # tokenize one page at once: a page's parse or token index that one
    # thread could read half built would change another thread's report.
    serial = outputs(mine("华盛顿", PipelineConfig(), fresh_miniweb_provider))
    workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            provider = FixtureProvider(load_fixture(miniweb_path))
            start = threading.Barrier(workers)
            results = [None] * workers

            def work(i):
                start.wait(timeout=60)
                results[i] = outputs(mine("华盛顿", PipelineConfig(), provider))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [serial] * workers
    finally:
        sys.setswitchinterval(interval)


def test_a_provider_error_propagates_out_of_mine(miniweb_path):
    # A hit whose page the provider cannot fetch fails the run; no page is
    # skipped in silence.
    corpus = load_fixture(miniweb_path)
    missing = "https://miniweb.test/presidents/p01.html"
    pages = {url: page for url, page in corpus.pages.items() if url != missing}
    provider = FixtureProvider(FixtureCorpus(queries=corpus.queries, pages=pages))
    with pytest.raises(MissingPageError) as err:
        mine("华盛顿", PipelineConfig(), provider)
    assert err.value.url == missing


def test_miniweb_experiment_script_runs():
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    stage_1, baseline = proc.stdout.splitlines()[-2:]
    assert re.fullmatch(r"stage 1\s+5/5\s+林肯, 纽约, 杰斐逊, 芝加哥, 罗斯福", stage_1), stage_1
    assert re.fullmatch(r"baseline\s+2/2\s+林肯, 杰斐逊", baseline), baseline


def test_evaluate_seed_mismatch_rejected(report):
    other = GoldAnswer(seed="别的", concepts=(GoldConcept("g", ("x",)),))
    with pytest.raises(ValueError, match="mismatch"):
        evaluate(report, other, [5, 10])


def test_evaluate_accepts_a_seed_spelled_alike_in_nfd(report, gold, tmp_path):
    # load_gold NFC-normalizes the gold seed; the report's seed must be
    # matched in the same form, or an NFD "Å" in both files is a mismatch.
    nfd = "A\u030a"
    concepts = [{"name": c.name, "terms": list(c.terms)} for c in gold.concepts]
    path = tmp_path / "gold.json"
    path.write_text(
        json.dumps({"seed": nfd, "concepts": concepts}, ensure_ascii=False), encoding="utf-8"
    )
    table = evaluate(replace(report, seed=nfd), load_gold(path), [5, 10])
    assert table == {**evaluate(report, gold, [5, 10]), "seed": nfd}


def test_evaluate_perfect_on_miniweb(report, gold):
    table = evaluate(report, gold, [5, 10])
    assert table["p_at"]["5"] == 1.0
    assert table["p_at"]["10"] == 1.0
    assert table["aap"] == pytest.approx(1.0)
    assert table["iaap"] == pytest.approx(1.0)
    assert table["purity"] == 1.0


def test_evaluate_empty_report_is_all_zero(miniweb_provider, gold):
    empty = mine("不存在的种子", PipelineConfig(), miniweb_provider)
    empty.seed = gold.seed  # align the seed; result lists stay empty
    table = evaluate(empty, gold, [10])
    assert table["p_at"]["10"] == 0.0
    assert table["ap"] == 0.0
    assert table["aap"] == 0.0
    assert table["iaap"] == 0.0


def test_format_tables_render(report, gold):
    rendered = format_report_table(report)
    assert "concept" in rendered and "林肯" in rendered
    table = evaluate(report, gold, [5])
    text = format_metric_table(table)
    assert "P@5" in text and "IAAP" in text


def display_cells(line: str, starts: list[int]) -> list[str]:
    """The pieces of `line` between the display columns `starts`, with
    trailing spaces stripped, where a wide or fullwidth character takes two
    columns.  A cell that starts after its column keeps its leading spaces."""
    slots: list[str] = []
    for ch in line:
        slots += [ch] + [""] * (unicodedata.east_asian_width(ch) in ("W", "F"))
    ends = starts[1:] + [len(slots)]
    return ["".join(slots[a:b]).rstrip() for a, b in zip(starts, ends)]


def test_report_table_cells_start_at_the_header_columns(report):
    # The miniweb report's 2- and 3-character terms, and a column with a
    # term wider than its header and rows left blank under it.
    terms = [("中华人民共和国国务院办公厅秘书局综合处第一科", 1.0), ("ab", 0.5)]
    wide = replace(report.concepts[0], ranked_terms=terms)
    for shown in (report, replace(report, concepts=[wide, *report.concepts[1:]])):
        header, *rows = format_report_table(shown).splitlines()[1:]
        starts = [m.start() for m in re.finditer("concept ", header)]
        assert len(starts) == len(shown.concepts) == 2 and starts[0] == 0
        columns = [[t for t, _ in c.ranked_terms[: pipeline.TABLE_ROWS]] for c in shown.concepts]
        assert len(rows) == max(map(len, columns))
        for i, row in enumerate(rows):
            assert display_cells(row, starts) == [col[i] if i < len(col) else "" for col in columns]


def test_report_table_lines_end_in_no_whitespace(report):
    # The miniweb report, and one whose last column holds a 22-character
    # term and leaves the rows below its two terms blank.
    terms = [("中华人民共和国国务院办公厅秘书局综合处第一科", 1.0), ("ab", 0.5)]
    wide = replace(report.concepts[0], ranked_terms=terms)
    for shown in (report, replace(report, concepts=[*report.concepts[1:], wide])):
        lines = format_report_table(shown).splitlines()
        assert len(lines) > 2
        assert [line for line in lines if line != line.rstrip()] == []


def test_candidates_but_no_weblists_reports_stage_failure(tmp_path):
    import json as _json

    from ctms.corpus import FixtureProvider, load_fixture

    (tmp_path / "pages").mkdir()
    (tmp_path / "pages" / "p.html").write_text("<p>nothing here</p>", encoding="utf-8")
    url = "http://x/p"
    queries = []
    # bidirectional snippets yield one candidate, but the expansion query
    # is unknown to the fixture, so no pages come back
    for query, snippet in [
        ("种和", "种和伴都好。种和伴难分。种和伴常见。"),
        ("和种", "伴和种都好。伴和种难分。伴和种常见。"),
        ("种比", "种比伴大。"),
        ("比种", "伴比种小。"),
    ]:
        queries.append(
            {"query": query,
             "hits": [{"rank": 1, "title": "t", "snippet": snippet, "url": url}]}
        )
    manifest = {"queries": queries, "pages": [{"url": url, "file": "pages/p.html"}]}
    (tmp_path / "manifest.json").write_text(
        _json.dumps(manifest, ensure_ascii=False), encoding="utf-8"
    )
    provider = FixtureProvider(load_fixture(tmp_path))
    report = mine("种", PipelineConfig(), provider)
    assert [c["text"] for c in report.initial_candidates] == ["伴"]
    assert report.weblist_count == 0
    assert report.concepts == []
    assert any("no web lists" in n for n in report.diagnostics["notes"])
