"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test registers a PASS/FAIL line that the terminal summary prints, so a
plain `pytest tests/test_acceptance.py` run ends with one line per criterion.
"""

import functools
import itertools
import random
import subprocess
import sys
import time
from collections import deque

import numpy as np
import pytest

import acceptance_log as conftest
from ctms.concepts import _norm, _similarity_matrix
from ctms.dom import TEXTUAL_TAGS, parse_html
from ctms.linguistic import extract_initial_candidates
from ctms.metrics import GoldAnswer, GoldConcept, aap, average_precision, iaap, load_gold
from ctms.pipeline import PipelineConfig, evaluate, mine
from ctms.ranking import RelationGraph, rwr_scores, walk_probabilities
from ctms.text import is_punct_text
from ctms.wrappers import MAX_TERM_LEN, extract_spans, learn_wrappers

from test_dom import FIG_FRAGMENT, path_at


def _record(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.record_acceptance(name, False)
                raise
            conftest.record_acceptance(name, True)
            return result

        return inner

    return wrap


# -- 1. seed-occurrence search vs brute force ---------------------------------


@_record("criterion 1: matcher ≡ brute-force scan, 1000 random cases, <5s")
def test_criterion_1_matcher_oracle():
    def brute(patterns, text):
        out = []
        for p in patterns:
            i = text.find(p)
            while i != -1:
                out.append((p, i))
                i = text.find(p, i + 1)
        out.sort(key=lambda m: (m[1], -len(m[0]), m[0]))
        return out

    rng = random.Random(0xC7F5)
    alphabet = "ab宏碁索c"
    started = time.monotonic()
    for _ in range(1000):
        patterns = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 20))
        }
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2048)))
        found = [(term, pos) for pos, term, _ in parse_html(text).occurrence_ids(patterns)]
        assert found == brute(patterns, text)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"matcher oracle took {elapsed:.2f}s"


# -- 2. extraction vs the naive all-pairs oracle -----------------------------


@functools.lru_cache(maxsize=1)
def _oracle_tables(tree):
    """Per page, built once: the position of the next ``<`` or ``>`` at or
    after each position (the source length when there is none), and a
    memo of `path_at` by position."""
    src = tree.source
    nxt = [len(src)] * (len(src) + 1)
    for i in range(len(src) - 1, -1, -1):
        nxt[i] = i if src[i] in "<>" else nxt[i + 1]
    return nxt, {}


def _oracle_spans(tree, wrapper):
    src = tree.source
    nxt, paths = _oracle_tables(tree)

    def path(pos):
        if pos not in paths:
            paths[pos] = path_at(tree, pos)
        return paths[pos]

    lefts, rights = [], []
    i = src.find(wrapper.left)
    while i != -1:
        lefts.append(i + len(wrapper.left))
        i = src.find(wrapper.left, i + 1)
    i = src.find(wrapper.right)
    while i != -1:
        rights.append(i)
        i = src.find(wrapper.right, i + 1)
    spans = []
    for e in lefts:
        for s in rights:
            if s < e:
                continue
            if nxt[e] < s:  # src[e:s] holds a "<" or ">"
                continue
            piece = src[e:s].strip()
            if not piece or len(piece) > MAX_TERM_LEN:
                continue
            if path(e) == wrapper.path and path(s - 1) == wrapper.path:
                spans.append((e, s))
    return sorted(spans)


def _synthetic_page(rng, seeds):
    decoys = ["甲流", "乙方", "丙烷", "丁香", "戊戌", "己任", "庚申", "辛丑", "壬寅", "癸卯"]
    filler_words = ["浏览", "页面", "内容", "介绍", "资料", "讨论", "评论", "转发"]
    parts = ["<html><body>"]
    target = rng.randint(2_000, 50_000)
    while sum(len(p) for p in parts) < target:
        kind = rng.random()
        if kind < 0.45:
            prose = "".join(rng.choice(filler_words) for _ in range(rng.randint(5, 120)))
            parts.append(f"<p>{prose}</p>")
        elif kind < 0.6:
            parts.append(f"<script>var x = {rng.randint(0, 9999)};</script>")
        else:
            items = rng.sample(seeds, k=rng.randint(2, len(seeds))) + rng.sample(
                decoys, k=rng.randint(0, 5)
            )
            rng.shuffle(items)
            css = rng.choice(["entry", "row", "tag"])
            stem = rng.choice(["item", "node", "x"])
            parts.append("<ul>")
            for i, item in enumerate(items):
                parts.append(
                    f'<li><a href="/{stem}/{i:02d}" class="{css}">{item}</a></li>'
                )
            parts.append("</ul>")
    parts.append("</body></html>")
    return "\n".join(parts)


@_record("criterion 2: learned and extracted spans ≡ all-pairs oracle on 50 synthetic pages")
def test_criterion_2_wrapper_oracle():
    rng = random.Random(0x5EED)
    seeds = ["华盛顿", "林肯", "杰斐逊", "罗斯福", "纽约"]
    mismatches = 0
    for _page in range(50):
        html = _synthetic_page(rng, seeds)
        assert len(html) <= 51_200
        tree = parse_html(html)
        wrappers = learn_wrappers(seeds, tree, PipelineConfig())
        got = extract_spans(tree, wrappers)
        for w, learned in wrappers.items():
            # Both the extraction path and the spans mining takes from the
            # learner answer to the one oracle run.
            want = _oracle_spans(tree, w)
            if got[w] != want or learned != want:
                mismatches += 1
    assert mismatches == 0


# -- 3. the four-brand fragment ----------------------------------------------


def obeys_validity_rules(wrapper, kappa):
    """The four wrapper validity rules, stated apart from the learner's code.

    1. both sides are non-empty and at least one carries non-whitespace;
    2. the sides are both punctuation or both not;
    3. non-punctuation sides jointly span at least `kappa` characters;
    4. the path ends at a textual node (#text or #attr).
    """
    left, right = wrapper.left, wrapper.right
    if not left or not right or (left.isspace() and right.isspace()):
        return False
    punct = is_punct_text(left)
    if punct != is_punct_text(right):
        return False
    if not punct and len(left) + len(right) < kappa:
        return False
    return wrapper.path.rsplit("/", 1)[-1] in TEXTUAL_TAGS


@_record("criterion 3: four-brand fragment wrapper reproduction, <1s")
def test_criterion_3_fragment_reproduction():
    started = time.monotonic()
    tree = parse_html(FIG_FRAGMENT)
    wrappers = learn_wrappers({"宏碁", "索尼"}, tree, PipelineConfig())
    cfg = PipelineConfig()
    assert wrappers and all(obeys_validity_rules(w, cfg.kappa) for w in wrappers)
    extractions = extract_spans(tree, wrappers)
    exact = [
        w
        for w, spans in extractions.items()
        if [tree.source[a:b].strip() for a, b in spans] == ["宏碁", "索尼", "东芝", "戴尔"]
    ]
    elapsed = time.monotonic() - started
    assert exact, "no wrapper extracted exactly the four brands"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- 4. bidirectional filtering of initial candidates ------------------------


@_record("criterion 4: bidirectional candidates kept, one-sided decoys dropped")
def test_criterion_4_lingex_bidirectionality():
    truths = {
        "奔驰": (["奔驰比宝马贵一些", "奔驰比宝马更有面子"], ["宝马比奔驰好开", "宝马比奔驰运动"]),
        "奥迪": (["奥迪比宝马低调", "奥迪比宝马便宜点"], ["宝马比奥迪帅气", "宝马比奥迪贵些"]),
        "本田": (["本田比宝马省油", "本田比宝马耐用"], ["宝马比本田高级", "宝马比本田快多了"]),
    }
    decoys = {
        "丰田": ["丰田比宝马保值", "丰田比宝马可靠"],
        "大众": ["大众比宝马亲民"],
        "别克": ["别克比宝马舒适"],
        "福特": ["宝马比福特精致"],
        "马自达": ["宝马比马自达有名"],
    }
    sentences = []
    for left, right in truths.values():
        sentences.extend(left)
        sentences.extend(right)
    for lines in decoys.values():
        sentences.extend(lines)
    filler = [
        "宝马的内饰很讲究", "今天去看了宝马的新车", "宝马俱乐部周末聚会",
        "二手宝马的价格走势", "宝马售后网点查询", "朋友推荐了一家宝马改装店",
        "宝马的操控口碑不错", "宝马车主分享保养心得", "这代宝马的外观更凌厉",
        "宝马发布了新的概念车", "宝马的导航系统升级了", "论坛里都在聊宝马新款",
        "宝马经销商在搞活动", "宝马的座椅支撑到位", "网上有宝马的试驾视频",
        "宝马的灯组设计很有辨识度", "年底宝马有优惠", "宝马的发动机参数公布了",
        "宝马车友会招新成员", "宝马的行李箱空间够用", "代驾开走了那辆宝马",
        "宝马的保值率讨论", "宝马和奔驰的历史渊源要从百年前说起",
        "有人收购老款宝马", "宝马的轮毂样式更新了", "宝马内饰做工点评",
        "宝马的隔音表现一般", "试驾员点评宝马底盘", "宝马品牌故事连载",
        "宝马的油耗实测数据", "宝马冬季胎推荐", "宝马钥匙更换流程",
    ]
    sentences.extend(filler)
    assert len(sentences) == 50

    got = extract_initial_candidates("宝马", sentences, PipelineConfig())
    texts = {c.text for c in got}
    assert {"奔驰", "奥迪", "本田"} <= texts
    assert texts.isdisjoint(set(decoys))
    for c in got:
        assert c.n >= 1 and c.m >= 1 and c.score > 2


# -- 5. end-to-end mini-web ---------------------------------------------------


def _hand_ap(ranked, gold_terms):
    gold_set = set(gold_terms)
    hits, total = 0, 0.0
    for r, term in enumerate(ranked, start=1):
        if term in gold_set:
            hits += 1
            total += hits / r
    return total / len(gold_set)


@_record("criterion 5: mini-web end to end (2 concepts, purity 1, metrics ≥0.9), <10s")
def test_criterion_5_miniweb_end_to_end(miniweb_provider, miniweb_path):
    started = time.monotonic()
    report = mine("华盛顿", PipelineConfig(), miniweb_provider)
    elapsed = time.monotonic() - started
    gold = load_gold(miniweb_path / "gold.json")

    assert len(report.concepts) == 2

    table = evaluate(report, gold, [10])
    assert table["purity"] == 1.0

    gold_union = gold.union()
    mined = {t for c in report.concepts for t, _ in c.ranked_terms}
    recall = len(mined & gold_union)
    assert recall >= 14, f"recall {recall}/16"

    assert table["p_at"]["10"] >= 0.9
    assert table["aap"] >= 0.9
    assert table["iaap"] >= 0.9

    # cross-check the cluster-aware averages by direct transcription
    ranked_lists = [[t for t, _ in c.ranked_terms] for c in report.concepts]
    gold_lists = [list(c.terms) for c in gold.concepts]
    sizes = [len(lst) for lst in ranked_lists]
    hand_aap = sum(
        size * max(_hand_ap(lst, g) for g in gold_lists)
        for lst, size in zip(ranked_lists, sizes)
    ) / sum(sizes)
    hand_iaap = sum(
        len(g) * max(_hand_ap(lst, g) for lst in ranked_lists) for g in gold_lists
    ) / sum(len(g) for g in gold_lists)
    assert table["aap"] == pytest.approx(hand_aap, abs=1e-12)
    assert table["iaap"] == pytest.approx(hand_iaap, abs=1e-12)

    assert elapsed < 10.0, f"mining took {elapsed:.2f}s"


# -- 6. walk scores vs direct linear solve, exhaustively ----------------------


def _connected(adjacency):
    n = len(adjacency)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def _solve_exact(adjacency, seed, theta=0.2):
    n = len(adjacency)
    a_star = np.zeros((n, n))
    for i, neighbors in enumerate(adjacency):
        if neighbors:
            for j in neighbors:
                a_star[i, j] += 1.0 / len(neighbors)
        else:
            a_star[i, seed] = 1.0
    e = np.zeros(n)
    e[seed] = 1.0
    return np.linalg.solve((np.eye(n) - (1.0 - theta) * a_star).T, theta * e)


@_record("criterion 6: walk ≡ linear solve on all connected graphs ≤6 vertices")
def test_criterion_6_walk_exhaustive():
    cfg = PipelineConfig()
    checked = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            adjacency = [[] for _ in range(n)]
            for bit, (u, v) in enumerate(pairs):
                if mask >> bit & 1:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
            if not _connected(adjacency):
                continue
            scores, _converged = walk_probabilities(adjacency, 0, cfg)
            exact = _solve_exact(adjacency, 0)
            assert float(np.max(np.abs(scores - exact))) <= 0.01
            assert abs(float(scores.sum()) - 1.0) <= 0.01
            checked += 1
    # all connected labeled graphs on 1..6 vertices
    assert checked == 1 + 1 + 4 + 38 + 728 + 26704

    # and the public scoring op is a dict view over the same walk
    graph = RelationGraph(
        vertices=[("term", "种"), ("list", "L"), ("term", "甲")],
        adjacency=[[1], [0, 2], [1]],
        seed_index=0,
    )
    by_vertex, _ = rwr_scores(graph, cfg)
    direct, _ = walk_probabilities(graph.adjacency, 0, cfg)
    for i, vertex in enumerate(graph.vertices):
        assert by_vertex[vertex] == pytest.approx(float(direct[i]))


# -- 7. metric hand values -----------------------------------------------------


@_record("criterion 7: metric hand-values (AP 5/9, weighted AAP/IAAP)")
def test_criterion_7_metric_hand_values():
    assert abs(average_precision(["g1", "x", "g2"], {"g1", "g2", "g3"}) - 5 / 9) <= 1e-9

    def results(*lists):
        return tuple(tuple(lst) for lst in lists)

    def gold(*lists):
        return GoldAnswer(
            seed="s",
            concepts=tuple(GoldConcept(f"g{i}", tuple(l)) for i, l in enumerate(lists)),
        )

    g = gold([f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)])
    r = results(["a0", "a1", "a2", "a3"], ["b0", "b1", "x", "y"])
    hand = (4 * 0.8 + 4 * 0.4) / 8
    assert aap(r, g) == pytest.approx(hand, abs=1e-12)
    assert hand == pytest.approx(0.6, abs=1e-12)

    g2 = gold([f"a{i}" for i in range(10)], [f"b{i}" for i in range(30)])
    r2 = results([f"a{i}" for i in range(5)], [f"b{i}" for i in range(27)])
    hand2 = (10 * 0.5 + 30 * 0.9) / 40
    assert iaap(r2, g2) == pytest.approx(hand2, abs=1e-12)
    assert hand2 == pytest.approx(0.8, abs=1e-12)


# -- 8. similarity bounds over random pairs ------------------------------------


@_record("criterion 8: similarity bounded, symmetric, reflexive on 10k pairs")
def test_criterion_8_similarity_bounds():
    rng = random.Random(0x51B)
    vocabulary = [f"w{i}" for i in range(30)]
    terms_pool = [f"t{i}" for i in range(20)]

    def random_vector():
        words = rng.sample(vocabulary, k=rng.randint(0, 6))
        return {w: rng.uniform(0.01, 5.0) for w in words}

    def similarity(x, y, lam):
        # The pair's entry of the matrix clustering reads, x the first list;
        # a list is its (term set, context vector).
        return _similarity_matrix([x[0], y[0]], [x[1], y[1]], lam)[0][1]

    for _ in range(10_000):
        a_terms = rng.sample(terms_pool, k=rng.randint(1, 8))
        b_terms = rng.sample(terms_pool, k=rng.randint(1, 8))
        va, vb = random_vector(), random_vector()
        lam = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        a = (set(a_terms), va)
        b = (set(b_terms), vb)
        s_ab = similarity(a, b, lam)
        s_ba = similarity(b, a, lam)
        assert 0.0 <= s_ab <= 1.0
        assert abs(s_ab - s_ba) <= 1e-12
        if _norm(va) > 0.0:
            assert abs(similarity(a, a, lam) - 1.0) <= 1e-12


# -- 9. concept grouping helps (direction only) --------------------------------


@_record("criterion 9: grouping on beats grouping off (AAP direction)")
def test_criterion_9_ablation_direction(miniweb_provider, miniweb_path):
    gold = load_gold(miniweb_path / "gold.json")
    with_grouping = mine("华盛顿", PipelineConfig(), miniweb_provider)
    without = mine("华盛顿", PipelineConfig(disambiguation=False), miniweb_provider)
    aap_on = evaluate(with_grouping, gold, [10])["aap"]
    aap_off = evaluate(without, gold, [10])["aap"]
    assert aap_on >= aap_off, (aap_on, aap_off)


# -- 10. byte-identical reruns --------------------------------------------------


@_record("criterion 10: two CLI runs produce byte-identical reports")
def test_criterion_10_cli_determinism(miniweb_path, tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"report{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ctms", "mine", "华盛顿",
             "--corpus", str(miniweb_path), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
