"""Workload definitions and the generators behind the synthetic ones.

Each generator takes the workload seed, writes a fixture bundle
(``manifest.json``, ``pages/*.html``, ``gold.json``) in the layout
``ctms.corpus.load_fixture`` reads, and nothing else: the miner receives
only the generated files.  The same seed and sizes give the same bytes.

Two random streams feed a generator.  The *shape* stream has a fixed seed
and decides every size and position: how many lists, which slot holds
which role (the mining seed, a candidate, a decoy), prose lengths.  The
workload seed decides the content: which name fills each role (names are
only swapped with names of the same length) and which filler words fill
the prose.  So different seeds give different inputs that cost the miner
the same work, and run-to-run spread measures the machine, not the draw.

Workloads, and the layer each one is built to load:

* ``miniweb`` -- the committed 24-page fixture; balanced, real-shaped, and
  the correctness anchor (its report digest never changes).  It ignores
  the workload seed.
* ``dense_pages`` -- a few large pages mixing prose, ``<script>`` blocks
  and many lists of the five seeds plus decoys (the shape of the
  criterion-2 synthetic pages), mined with grouping off: wrapper learning
  (the per-page occurrence-pair loop and the all-pairs gate) dominates.
* ``many_lists`` -- a template corpus of four concepts x pages with two
  lists per page and noise items, mined with grouping on: the
  average-linkage clustering (cubic in the list count) dominates.
* ``deep_snippets`` -- deep snippet result pages with varied punctuated
  text around the clue-word anchors and a small expansion: initial
  candidate extraction (sentences x candidates) dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
MINIWEB_DIR = REPO / "tests" / "fixtures" / "miniweb"

SHAPE_SEED = 0x5EED
CLUES = ("和", "比")
# Filler vocabulary for prose and snippet text; every word has two characters.
FILLER = ["浏览", "页面", "内容", "介绍", "资料", "讨论", "评论", "转发",
          "网友", "今天", "看到", "觉得", "推荐", "分享", "整理", "消息"]


@dataclass(frozen=True)
class Workload:
    """How to obtain a workload's bundle and how to mine and judge it."""

    name: str
    why: str
    term: str  # the seed term handed to ``mine``
    config: dict = field(default_factory=dict)  # PipelineConfig overrides
    build: Callable[..., None] | None = None  # None: the committed miniweb bundle
    # Output floors checked on every report, whatever the workload seed.
    min_concepts: int = 1
    min_aap: float = 0.0
    min_iaap: float = 0.0
    min_p10: float = 0.0
    require_purity: bool = False


class Draw:
    """The fixed shape stream plus the seeded content stream."""

    def __init__(self, seed: int):
        self.shape = random.Random(SHAPE_SEED)
        self.words = random.Random(seed)

    def prose(self, lo: int, hi: int) -> str:
        count = self.shape.randint(lo, hi)
        return "".join(self.words.choice(FILLER) for _ in range(count))

    def names(self, pool: list[str]) -> list[str]:
        """`pool` with each name swapped among the names of its length."""
        by_len: dict[int, list[str]] = {}
        for name in pool:
            by_len.setdefault(len(name), []).append(name)
        for group in by_len.values():
            self.words.shuffle(group)
        return [by_len[len(name)].pop() for name in pool]


# --- bundle writing ----------------------------------------------------------


def write_bundle(
    out: Path, pages: dict[str, str], queries: dict[str, list[dict]], gold: dict
) -> None:
    """Write pages (named by content hash), manifest and gold under `out`."""
    pages_dir = out / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    page_entries = []
    for url in sorted(pages):
        html = pages[url]
        name = hashlib.sha1(html.encode("utf-8")).hexdigest()[:16] + ".html"
        (pages_dir / name).write_text(html, encoding="utf-8")
        page_entries.append({"url": url, "file": f"pages/{name}"})
    manifest = {
        "queries": [{"query": q, "hits": hits} for q, hits in queries.items()],
        "pages": page_entries,
    }
    for path, doc in ((out / "manifest.json", manifest), (out / "gold.json", gold)):
        path.write_text(
            json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _clue_queries(
    d: Draw, seed: str, attested: list[tuple[str, int, int]], url: str
) -> dict[str, list[dict]]:
    """The four clue-word queries, one sentence per hit.

    `attested` lists (term, left, right): `left` sentences shaped
    term·clue·seed and `right` shaped seed·clue·term, so each term scores
    left x right in the candidate stage.
    """
    sentences: dict[str, list[str]] = {c + seed: [] for c in CLUES}
    sentences.update({seed + c: [] for c in CLUES})
    for term, left, right in attested:
        for _ in range(left):
            clue = d.shape.choice(CLUES)
            sentences[clue + seed].append(f"{d.prose(1, 3)}，{term}{clue}{seed}{d.prose(1, 3)}")
        for _ in range(right):
            clue = d.shape.choice(CLUES)
            sentences[seed + clue].append(f"{d.prose(1, 3)}{seed}{clue}{term}，{d.prose(1, 3)}")
    return {
        query: [
            {"rank": rank, "title": f"网友讨论第{rank}楼", "snippet": s + "。", "url": url}
            for rank, s in enumerate(pool, start=1)
        ]
        for query, pool in sentences.items()
    }


def _expansion_hits(query_pages: dict[str, list[str]]) -> dict[str, list[dict]]:
    return {
        query: [
            {"rank": rank, "title": "列表页面", "snippet": "页面内含条目列表", "url": url}
            for rank, url in enumerate(urls, start=1)
        ]
        for query, urls in query_pages.items()
    }


def _list_html(items: list[str], row: Callable[[int, str], str], open_: str, close: str) -> str:
    return "\n".join([open_] + [row(i, item) for i, item in enumerate(items, start=1)] + [close])


# --- dense_pages ---------------------------------------------------------------

DENSE_SEED = "华盛顿"
DENSE_TERMS = ["林肯", "杰斐逊", "罗斯福", "纽约"]
DENSE_DECOYS = ["甲流", "乙方", "丙烷", "丁香", "戊戌", "己任", "庚申", "辛丑", "壬寅", "癸卯"]
DENSE_CSS = ["entry", "row", "tag"]
DENSE_STEMS = ["item", "node", "x"]


def dense_page(d: Draw, seeds: list[str], decoys: list[str], chars: int, lists: int) -> str:
    """One large page: `lists` lists among prose and scripts, ~`chars` long.

    List i holds 2 + i mod 4 of the five seeds and i mod 6 decoys, in an
    order the shape stream picks; class and href stem cycle through three
    values each.  Prose and ``<script>`` blocks are inserted between lists
    until the page reaches `chars` characters.
    """
    blocks: list[str] = []
    for i in range(lists):
        items = d.shape.sample(seeds, k=2 + i % 4) + d.shape.sample(decoys, k=i % 6)
        d.shape.shuffle(items)
        css, stem = DENSE_CSS[i % 3], DENSE_STEMS[i // 3 % 3]
        blocks.append(_list_html(
            items, lambda j, item: f'<li><a href="/{stem}/{j:02d}" class="{css}">{item}</a></li>',
            "<ul>", "</ul>",
        ))
    size = sum(len(b) for b in blocks)
    while size < chars:
        if d.shape.random() < 0.75:
            block = f"<p>{d.prose(5, 120)}</p>"
        else:
            block = f"<script>var x = {d.words.randint(1000, 9999)};</script>"
        blocks.insert(d.shape.randint(0, len(blocks)), block)
        size += len(block) + 1
    return "\n".join(["<html><body>"] + blocks + ["</body></html>"])


def build_dense_pages(
    seed: int, out: Path, pages: int = 3, chars: int = 6_000, lists: int = 14
) -> None:
    d = Draw(seed)
    # The five seeds fill symmetric roles; only the names move between them.
    seeds = d.names([DENSE_SEED] + DENSE_TERMS)
    decoys = d.names(DENSE_DECOYS)
    urls = [f"https://dense.test/p{i:02d}.html" for i in range(pages)]
    page_html = {url: dense_page(d, seeds, decoys, chars, lists) for url in urls}
    queries = _clue_queries(d, DENSE_SEED, [(t, 2, 2) for t in DENSE_TERMS], urls[0])
    queries.update(_expansion_hits({f"{DENSE_SEED} {t}": urls for t in DENSE_TERMS}))
    gold = {"seed": DENSE_SEED, "concepts": [{"name": "seeds", "terms": DENSE_TERMS}]}
    write_bundle(out, page_html, queries, gold)


# --- many_lists ----------------------------------------------------------------

MANY_SEED = "华盛顿"
PRESIDENTS = ["林肯", "杰斐逊", "罗斯福", "亚当斯", "杜鲁门", "肯尼迪", "尼克松", "里根"]
CITIES = ["纽约", "芝加哥", "洛杉矶", "旧金山", "波士顿", "费城", "西雅图", "休斯顿"]
FIGURES = ["爱迪生", "富兰克林", "爱因斯坦", "达尔文"]
WORLD = ["伦敦", "巴黎", "东京", "罗马"]
MANY_NOISE = ["更多信息", "点击这里", "全部名单", "历史资料", "相关链接", "返回首页"]
MANY_TEXT = {
    "presidents": ("历任美国总统的任期与政党资料都在这里，白宫档案馆按就职顺序整理了总统名单",
                   "总统资料整理自公开档案，任期与政党信息经过志愿者校对"),
    "cities": ("美国主要大城市的人口与旅游景点排名，城市指南覆盖交通与生活成本信息",
               "城市人口数据来自最新普查，旅游景点推荐持续更新"),
    "figures": ("历史名人的生平故事与传记资料，读书会成员轮流撰写人物小传",
                "名人传记由读书会供稿，欢迎补充史料"),
    "world": ("全球国际大都会的风光与文化指南，摄影师记录各地街头景色",
              "环球风光图片来自摄影师投稿，转载请注明出处"),
}


def _many_items(d: Draw, pool: list[str], known: int, size: int) -> list[str]:
    """`size` items of `pool` including its first `known`, none of them last.

    Keeping known terms out of the final slot, as on the committed fixture,
    keeps their right contexts uniform.
    """
    items = pool[:known] + d.shape.sample(pool[known:], k=size - known)
    d.shape.shuffle(items)
    if items[-1] in pool[:known]:
        swap = next(i for i, t in enumerate(items) if t not in pool[:known])
        items[-1], items[swap] = items[swap], items[-1]
    return items


def many_page(d: Draw, kind: str, pool: list[str], number: int, noise: list[str]) -> str:
    """A template page: the concept's full list plus a five-item side table."""
    intro, outro = MANY_TEXT[kind]
    main = _many_items(d, pool, 2, len(pool)) + noise
    side = _many_items(d, pool, 2, 5)
    return "\n".join([
        "<html>",
        f"<head><title>{intro[:8]}第{number}辑</title></head>",
        "<body>",
        f"<p>{intro}。</p>",
        _list_html(main, lambda i, t: f'<li><a href="/item/{i:02d}" class="entry">{t}</a></li>',
                   "<ul>", "</ul>"),
        f"<p>{outro}，第{number}卷。</p>",
        _list_html(side, lambda i, t: f'<tr><td class="cell">{t}</td></tr>', "<table>", "</table>"),
        f"<p>{d.prose(3, 8)}。</p>",
        "</body>",
        "</html>",
        "",
    ])


def build_many_lists(
    seed: int, out: Path, pages_per_concept: int = 4, minor_pages: int = 2
) -> None:
    """Four concepts x pages, two lists per page, noise in a few lists.

    Presidents and cities contain the seed; figures and world cities reuse
    two of their candidates but not the seed, so the seed filter must drop
    them.  Each candidate query returns at most 10 pages (the default
    ``pages_per_query``): its concept's pages round-robin, then the minor
    concept's.
    """
    d = Draw(seed)
    # Candidates keep their names: moving them could create a fragment
    # attested both ways (林肯和华盛顿 + 华盛顿和肯尼迪 attest 肯).
    presidents = PRESIDENTS[:3] + d.names(PRESIDENTS[3:])
    cities = CITIES[:2] + d.names(CITIES[2:])
    pools = {
        "presidents": [MANY_SEED] + presidents,
        "cities": [MANY_SEED] + cities,
        "figures": presidents[:2] + d.names(FIGURES),
        "world": cities[:2] + d.names(WORLD),
    }
    candidates = {"presidents": presidents[:3], "cities": cities[:2]}
    counts = {"presidents": pages_per_concept, "cities": pages_per_concept,
              "figures": minor_pages, "world": minor_pages}
    noise_pool = d.names(MANY_NOISE)
    pages: dict[str, str] = {}
    by_kind: dict[str, list[str]] = {}
    number = 0
    for kind, pool in pools.items():
        by_kind[kind] = []
        for i in range(counts[kind]):
            number += 1
            url = f"https://lists.test/{kind}/{i:03d}.html"
            # One noise string on every third seed-bearing page.
            noise = [noise_pool.pop()] if kind in candidates and i % 3 == 2 and noise_pool else []
            pages[url] = many_page(d, kind, pool, number, noise)
            by_kind[kind].append(url)

    query_pages: dict[str, list[str]] = {}
    for kind, minor in (("presidents", "figures"), ("cities", "world")):
        cands = candidates[kind]
        for j, cand in enumerate(cands):
            urls = by_kind[kind][j :: len(cands)] + by_kind[minor][j :: len(cands)]
            query_pages[f"{MANY_SEED} {cand}"] = urls[:10]
    attested = [(c, 3, 2 + k % 2)
                for k, c in enumerate(candidates["presidents"] + candidates["cities"])]
    queries = _clue_queries(d, MANY_SEED, attested, by_kind["presidents"][0])
    queries.update(_expansion_hits(query_pages))
    gold = {"seed": MANY_SEED, "concepts": [
        {"name": "presidents", "terms": presidents},
        {"name": "cities", "terms": cities},
    ]}
    write_bundle(out, pages, queries, gold)


# --- deep_snippets ---------------------------------------------------------------

DEEP_SEED = "宝马"
DEEP_TERMS = ["奔驰", "奥迪", "本田", "丰田", "大众"]
DEEP_DECOYS = ["别克", "福特", "马自达", "日产", "现代", "起亚", "雪佛兰", "标致",
               "雪铁龙", "斯柯达", "沃尔沃", "路虎", "捷豹", "保时捷", "法拉利",
               "兰博基尼", "玛莎拉蒂", "宾利", "劳斯莱斯", "凯迪拉克", "林肯车",
               "英菲尼迪", "雷克萨斯", "讴歌", "菲亚特", "吉利", "长城", "比亚迪",
               "奇瑞", "长安", "红旗", "荣威", "名爵", "传祺", "哈弗", "领克"]
DEEP_PAD = ["新款", "二手", "进口", "国产", "高配", "入门", "顶配", "改款", "老款", "混动"]


def _deep_sentence(d: Draw, term: str, pad: str, left: bool, clue: str) -> str:
    """One clue sentence with varied text glued to the term's far side.

    Half the time the padded term runs straight into the prose with no
    punctuation between, so the candidate run grows to the length cap and
    the sentence contributes several distinct candidate strings.
    """
    glue = "" if d.shape.random() < 0.5 else "，"
    if left:
        return f"{d.prose(1, 4)}{glue}{pad}{term}{clue}{DEEP_SEED}，{d.prose(1, 4)}"
    return f"{d.prose(1, 4)}，{DEEP_SEED}{clue}{term}{pad}{glue}{d.prose(1, 4)}"


def build_deep_snippets(
    seed: int, out: Path, hits_per_query: int = 10, pages_per_query: int = 2
) -> None:
    """Four clue queries with `hits_per_query` hits of three sentences each.

    Every hit carries one sentence that truly pairs the seed with a brand
    in the query's direction, one that pairs it with a one-sided decoy, and
    one of plain prose.  True brands are attested in both directions, so
    they are the five initial candidates; decoys only ever show one side.
    """
    d = Draw(seed)
    terms, decoys, pads = d.names(DEEP_TERMS), d.names(DEEP_DECOYS), d.names(DEEP_PAD)
    side_decoys = {True: decoys[::2], False: decoys[1::2]}
    urls = [f"https://cars.test/{i:02d}.html" for i in range(len(terms) * pages_per_query)]
    queries: dict[str, list[dict]] = {}
    for clue in CLUES:
        for query, left in ((DEEP_SEED + clue, False), (clue + DEEP_SEED, True)):
            hits = []
            for rank in range(1, hits_per_query + 1):
                sentences = [
                    _deep_sentence(d, terms[rank % len(terms)], d.shape.choice(pads), left, clue),
                    _deep_sentence(d, d.shape.choice(side_decoys[left]), d.shape.choice(pads),
                                   left, clue),
                    d.prose(4, 12),
                ]
                d.shape.shuffle(sentences)
                hits.append({
                    "rank": rank,
                    "title": f"车友论坛第{rank}帖",
                    "snippet": "。".join(sentences) + "。",
                    "url": urls[rank % len(urls)],
                })
            queries[query] = hits
    queries.update(_expansion_hits({
        f"{DEEP_SEED} {term}": urls[j * pages_per_query : (j + 1) * pages_per_query]
        for j, term in enumerate(terms)
    }))
    pages = {}
    for n, url in enumerate(urls, start=1):
        items = [DEEP_SEED] + d.shape.sample(terms, k=len(terms))
        pages[url] = "\n".join([
            "<html>", f"<head><title>汽车品牌大全第{n}期</title></head>", "<body>",
            "<p>主流汽车品牌的车型与价格对比，车友俱乐部整理了口碑排行。</p>",
            _list_html(items, lambda i, t: f'<li><a href="/brand/{i:02d}" class="brand">{t}</a></li>',
                       "<ul>", "</ul>"),
            f"<p>汽车资料来自车友投稿，第{n}期。</p>", "</body>", "</html>", "",
        ])
    gold = {"seed": DEEP_SEED, "concepts": [{"name": "brands", "terms": terms}]}
    write_bundle(out, pages, queries, gold)


# --- registry ------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="miniweb",
            why="committed 24-page fixture; balanced real-shaped run and the byte-identical correctness anchor",
            term="华盛顿",
            min_concepts=2, min_aap=0.9, min_iaap=0.9, min_p10=0.9, require_purity=True,
        ),
        Workload(
            name="dense_pages",
            why="few large pages dense with seed occurrences, grouping off; wrapper learning dominates",
            term=DENSE_SEED,
            config={"disambiguation": False},
            build=build_dense_pages,
            min_aap=0.9,
        ),
        Workload(
            name="many_lists",
            why="many small template pages, two lists each, grouping on; cubic list clustering dominates",
            term=MANY_SEED,
            build=build_many_lists,
            min_concepts=2, min_aap=0.9, min_iaap=0.9,
        ),
        Workload(
            name="deep_snippets",
            why="deep varied snippet pages, small expansion; initial candidate extraction dominates",
            term=DEEP_SEED,
            build=build_deep_snippets,
            min_aap=0.9,
        ),
    )
}


def materialize(workload: Workload, seed: int, work: Path, **sizes) -> Path:
    """Bundle directory for `workload` at `seed`, generated under `work`."""
    if workload.build is None:
        return MINIWEB_DIR
    suffix = "".join(f"-{k}{v}" for k, v in sorted(sizes.items()))
    out = work / f"{workload.name}-s{seed}{suffix}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    workload.build(seed, out, **sizes)
    return out
