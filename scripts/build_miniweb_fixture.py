#!/usr/bin/env python3
"""Build the mini-web fixture: a 24-page corpus for the seed 华盛顿.

The seed is ambiguous on purpose: eleven pages list US presidents, eleven
list US cities, one lists historical figures (too small to survive the
support filter) and one lists world cities (never mentions the seed, so
the seed filter drops it).  Six navigation-style noise strings are mixed
into a few lists.  Snippet queries are crafted so the initial-candidate
stage finds exactly five bidirectionally attested terms spanning both
meanings.

Run from the repository root:

    python scripts/build_miniweb_fixture.py

Writes tests/fixtures/miniweb/{manifest.json,gold.json,pages/*.html} and
then re-runs the full pipeline over the bundle to assert the corpus keeps
the properties the test suite relies on.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "tests" / "fixtures" / "miniweb"

SEED = "华盛顿"

PRESIDENTS = ["亚当斯", "杰斐逊", "杜鲁门", "林肯", "肯尼迪", "罗斯福", "尼克松", "里根"]
CITIES = ["纽约", "芝加哥", "洛杉矶", "旧金山", "波士顿", "费城", "西雅图", "休斯顿"]

# Page item orders keep the extended-seed terms away from the final slot so
# wrapper learning sees uniform right contexts.
PRESIDENT_ITEMS = ["华盛顿", "亚当斯", "杰斐逊", "杜鲁门", "林肯", "肯尼迪", "罗斯福", "尼克松", "里根"]
CITY_ITEMS = ["纽约", "华盛顿", "芝加哥", "洛杉矶", "旧金山", "波士顿", "费城", "西雅图", "休斯顿"]
FIGURE_ITEMS = ["华盛顿", "林肯", "爱迪生", "富兰克林", "爱因斯坦"]
WORLD_ITEMS = ["纽约", "芝加哥", "伦敦", "巴黎", "东京"]

NOISE = {
    "p03": ["更多信息", "点击这里"],
    "p07": ["全部名单"],
    "c02": ["历史资料", "相关链接"],
    "c09": ["返回首页"],
}

# Template sites repeat their boilerplate; the shared sentences are what
# lets the context cosine pull same-concept lists together, so they carry
# most of the prose mass and the per-page variation is just a number.
PRESIDENT_INTRO = "历任美国总统的任期与政党资料都在这里，白宫档案馆按就职顺序整理了总统名单"
PRESIDENT_OUTRO = "总统资料整理自公开档案，任期与政党信息经过志愿者校对，第{i}卷"
CITY_INTRO = "美国主要大城市的人口与旅游景点排名，城市指南覆盖交通与生活成本信息"
CITY_OUTRO = "城市人口数据来自最新普查，旅游景点推荐持续更新，第{i}期"

SENTENCES = {
    # candidate -> ([x·clue·seed sentences], [seed·clue·x sentences])
    "林肯": (
        ["林肯和华盛顿都是伟大的总统", "有人说林肯和华盛顿改变了美国", "林肯比华盛顿晚了几十年"],
        ["华盛顿和林肯常被一起纪念", "华盛顿和林肯谁的贡献更大", "华盛顿比林肯更早执政"],
    ),
    "纽约": (
        ["纽约和华盛顿都在美国东部", "从纽约和华盛顿出发的航班", "纽约比华盛顿繁华一些"],
        ["华盛顿和纽约相距不远", "华盛顿比纽约安静许多"],
    ),
    "杰斐逊": (
        ["杰斐逊和华盛顿同为开国元勋", "杰斐逊比华盛顿年轻十一岁"],
        ["华盛顿和杰斐逊交情深厚", "华盛顿比杰斐逊更受军队爱戴"],
    ),
    "芝加哥": (
        ["芝加哥和华盛顿的气候差异明显", "芝加哥比华盛顿大一圈"],
        ["华盛顿和芝加哥都值得一游", "华盛顿比芝加哥清静"],
    ),
    "罗斯福": (
        ["罗斯福和华盛顿都连任过总统", "罗斯福比华盛顿晚一百多年", "有学者把罗斯福和华盛顿相提并论"],
        ["华盛顿和罗斯福都面对过危机"],
    ),
    # score stays at the threshold (2·1 = 2, not above): must be excluded
    "奥巴马": (
        ["奥巴马和华盛顿相隔两个世纪", "奥巴马比华盛顿年轻得多"],
        ["华盛顿和奥巴马都当过总统"],
    ),
    # one-sided decoys: attested in a single direction only
    "特朗普": (
        ["特朗普和华盛顿没有可比性", "特朗普比华盛顿有钱"],
        [],
    ),
    "美国": (
        [],
        ["华盛顿和美国的建国史", "华盛顿比美国任何城市都有纪念意义"],
    ),
}

EXPECTED_C_INIT = ["林肯", "纽约", "杰斐逊", "芝加哥", "罗斯福"]


def page_url(page_id: str) -> str:
    kind = {"p": "presidents", "c": "cities", "f": "misc", "w": "misc"}[page_id[0]]
    return f"https://miniweb.test/{kind}/{page_id}.html"


def render_page(title: str, heading: str, intro: str, items: list[str],
                href_stem: str, css_class: str, outro: str) -> str:
    lines = [
        "<html>",
        f"<head><title>{title}</title></head>",
        "<body>",
        f"<h1>{heading}</h1>",
        f"<p>{intro}。</p>",
        "<ul>",
    ]
    for i, item in enumerate(items, start=1):
        lines.append(f'<li><a href="/{href_stem}/{i:02d}" class="{css_class}">{item}</a></li>')
    lines += ["</ul>", f"<p>{outro}。</p>", "</body>", "</html>", ""]
    return "\n".join(lines)


def build_pages() -> dict[str, str]:
    pages: dict[str, str] = {}
    for i in range(1, 12):
        pid = f"p{i:02d}"
        items = PRESIDENT_ITEMS + NOISE.get(pid, [])
        pages[pid] = render_page(
            title=f"美国总统资料站第{i}辑",
            heading="历任美国总统名单",
            intro=PRESIDENT_INTRO,
            items=items,
            href_stem="president",
            css_class="entry",
            outro=PRESIDENT_OUTRO.format(i=i),
        )
    for i in range(1, 12):
        pid = f"c{i:02d}"
        items = CITY_ITEMS + NOISE.get(pid, [])
        pages[pid] = render_page(
            title=f"美国城市导航第{i}期",
            heading="美国主要城市指南",
            intro=CITY_INTRO,
            items=items,
            href_stem="city",
            css_class="entry",
            outro=CITY_OUTRO.format(i=i),
        )
    pages["f01"] = render_page(
        title="历史名人故事集",
        heading="值得铭记的历史名人",
        intro="历史名人的生平故事与传记资料",
        items=FIGURE_ITEMS,
        href_stem="figure",
        css_class="fig",
        outro="名人传记由读书会供稿",
    )
    pages["w01"] = render_page(
        title="环球都市博览",
        heading="全球国际大都会",
        intro="全球国际大都会的风光与文化指南",
        items=WORLD_ITEMS,
        href_stem="world",
        css_class="wcity",
        outro="环球风光图片来自摄影师投稿",
    )
    return pages


def snippet_hits() -> dict[str, list[dict]]:
    """Hits for the four clue-word queries; snippets carry the sentences."""
    left: list[str] = []   # sentences shaped x·clue·seed
    right: list[str] = []  # sentences shaped seed·clue·x
    for has_left, has_right in SENTENCES.values():
        left.extend(has_left)
        right.extend(has_right)

    and_left = [s for s in left if "和" + SEED in s]
    cmp_left = [s for s in left if "比" + SEED in s]
    and_right = [s for s in right if SEED + "和" in s]
    cmp_right = [s for s in right if SEED + "比" in s]

    page_ids = [f"p{i:02d}" for i in range(1, 12)] + [f"c{i:02d}" for i in range(1, 12)]

    def hits_for(sentences: list[str], salt: int) -> list[dict]:
        hits = []
        for rank, sentence in enumerate(sentences, start=1):
            pid = page_ids[(salt * 7 + rank * 3) % len(page_ids)]
            hits.append(
                {
                    "rank": rank,
                    "title": f"网友讨论第{salt}{rank}楼",
                    "snippet": sentence + "。",
                    "url": page_url(pid),
                }
            )
        return hits

    return {
        SEED + "和": hits_for(and_right, 1),
        "和" + SEED: hits_for(and_left, 2),
        SEED + "比": hits_for(cmp_right, 3),
        "比" + SEED: hits_for(cmp_left, 4),
    }


def expansion_hits() -> dict[str, list[str]]:
    """Query -> page ids, in rank order."""
    p = [f"p{i:02d}" for i in range(1, 12)]
    c = [f"c{i:02d}" for i in range(1, 12)]
    return {
        f"{SEED} 林肯": p[0:10],
        f"{SEED} 纽约": c[0:10],
        f"{SEED} 杰斐逊": p[4:11] + ["f01"],
        f"{SEED} 芝加哥": c[5:11] + ["w01"],
        f"{SEED} 罗斯福": [p[0], p[1], p[2], p[10]],
    }


def write_bundle(out: Path, pages: dict[str, str], page_url: Callable[[str], str],
                 snippet_hits: dict[str, list[dict]], expansion_hits: dict[str, list[str]],
                 gold: dict) -> None:
    """Write a fixture bundle under `out`: each page as pages/<sha1 prefix>.html
    (stale pages removed), manifest.json with the snippet queries' hits and
    each expansion query's page ids as hits in rank order, and gold.json.
    The hostile fixture builder writes its bundle with it too."""
    pages_dir = out / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    for stale in pages_dir.glob("*.html"):
        stale.unlink()

    page_entries = []
    for pid in sorted(pages):
        html = pages[pid]
        name = hashlib.sha1(html.encode("utf-8")).hexdigest()[:16] + ".html"
        (pages_dir / name).write_text(html, encoding="utf-8")
        page_entries.append({"url": page_url(pid), "file": f"pages/{name}"})

    query_entries = [{"query": q, "hits": hits} for q, hits in snippet_hits.items()]
    for query, pids in expansion_hits.items():
        hits = [
            {"rank": rank, "title": f"列表页面{pid}", "snippet": "页面内含条目列表", "url": page_url(pid)}
            for rank, pid in enumerate(pids, start=1)
        ]
        query_entries.append({"query": query, "hits": hits})

    manifest = {"queries": query_entries, "pages": page_entries}
    for name, doc in (("manifest.json", manifest), ("gold.json", gold)):
        (out / name).write_text(
            json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def build_bundle() -> None:
    gold = {
        "seed": SEED,
        "concepts": [
            {"name": "presidents", "terms": PRESIDENTS},
            {"name": "cities", "terms": CITIES},
        ],
    }
    write_bundle(OUT, build_pages(), page_url, snippet_hits(), expansion_hits(), gold)


def self_check() -> None:
    from ctms.corpus import FixtureProvider, load_fixture
    from ctms.metrics import load_gold
    from ctms.pipeline import PipelineConfig, evaluate, mine

    corpus = load_fixture(OUT)
    provider = FixtureProvider(corpus)
    cfg = PipelineConfig()
    report = mine(SEED, cfg, provider)

    got_c_init = [c["text"] for c in report.initial_candidates]
    assert got_c_init == EXPECTED_C_INIT, f"initial candidates drifted: {got_c_init}"
    assert len(report.concepts) == 2, f"expected 2 concepts, got {len(report.concepts)}"

    gold = load_gold(OUT / "gold.json")
    table = evaluate(report, gold, [5, 10])
    mined = {t for c in report.concepts for t, _ in c.ranked_terms}
    recall = len(mined & set(PRESIDENTS + CITIES))
    assert recall == 16, f"term recall {recall}/16"
    assert table["purity"] == 1.0, f"purity {table['purity']}"
    assert table["p_at"]["10"] >= 0.9, f"P@10 {table['p_at']['10']}"
    assert table["aap"] >= 0.9 and table["iaap"] >= 0.9, (table["aap"], table["iaap"])

    nd_cfg = PipelineConfig(disambiguation=False)
    nd_report = mine(SEED, nd_cfg, provider)
    nd_table = evaluate(nd_report, gold, [10])
    assert table["aap"] >= nd_table["aap"], (table["aap"], nd_table["aap"])

    print(f"self-check ok: weblists={report.weblist_count} "
          f"concepts={len(report.concepts)} recall={recall}/16 "
          f"P@10={table['p_at']['10']:.3f} AAP={table['aap']:.3f} "
          f"IAAP={table['iaap']:.3f} ND-AAP={nd_table['aap']:.3f}")


if __name__ == "__main__":
    build_bundle()
    self_check()
