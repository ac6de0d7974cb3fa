#!/usr/bin/env python3
"""Build the hostile fixture: a 6-page corpus of unclean HTML for the seed 苹果.

The seed has two meanings: three pages list fruit, three list technology
companies.  Where the mini-web fixture's pages are clean templates, these
are laid out as real pages often are, each with markup that a
hand-written or truncated page has:

- f01, a market price list: a doctype, comments that name seed terms,
  ``<li>`` items without close tags, a ``</ul>`` that pops the open item
  with the list, an item over ``MAX_TERM_LEN`` characters, and a
  ``<script>`` left open at the end of the page;
- f02, a blog post: run-on paragraphs with no punctuation for hundreds of
  characters, so context windows clip token runs, items set apart by
  long runs of spaces in a ``<pre>`` block, and a heading that names two
  terms with no shared context;
- f03, a shop menu after a run-on introduction: plain items and items
  behind a "新品：" label, so one list is learned from two contexts of
  which neither extends the other;
- c01, a ranking table: ``<td>`` cells without close tags, closed by a
  ``</tr>`` that pops the cell with the row, under a title that names
  the seed alone;
- c02, a news sidebar: items split by ``<br>`` and ``<br/>``, a strip of
  logos whose ``alt`` attributes name the companies after each ``src``,
  and a page cut off inside an open tag;
- c03, a brand list that is the last text on its page, after a style
  sheet that names seed terms.

Run from the repository root:

    python scripts/build_hostile_fixture.py

Writes tests/fixtures/hostile/{manifest.json,gold.json,pages/*.html} and
then mines the bundle to assert the properties the test suite relies on.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from build_miniweb_fixture import write_bundle  # noqa: E402

OUT = ROOT / "tests" / "fixtures" / "hostile"

SEED = "苹果"

FRUITS = ["香蕉", "葡萄", "橘子", "西瓜", "草莓", "桃子"]
COMPANIES = ["微软", "三星", "谷歌", "华为", "索尼", "联想"]

SENTENCES = {
    # candidate -> ([x·clue·seed sentences], [seed·clue·x sentences])
    "香蕉": (
        ["香蕉和苹果都是常见的水果", "香蕉比苹果更软糯", "有人觉得香蕉和苹果一样好吃"],
        ["苹果和香蕉一起榨汁", "苹果比香蕉耐储存"],
    ),
    "微软": (
        ["微软和苹果争夺个人电脑市场", "微软比苹果更早上市", "投资者常把微软和苹果相提并论"],
        ["苹果和微软都是科技巨头", "苹果比微软更重视设计"],
    ),
    "葡萄": (
        ["葡萄和苹果都适合酿酒", "葡萄比苹果甜"],
        ["苹果和葡萄的产季不同", "苹果比葡萄便宜"],
    ),
    "三星": (
        ["三星和苹果的手机销量接近", "三星比苹果出货量大"],
        ["苹果和三星打过专利官司", "苹果比三星利润高"],
    ),
    "橘子": (
        ["橘子和苹果摆在一起卖", "橘子比苹果酸"],
        ["苹果和橘子是冬季水果", "苹果比橘子脆"],
    ),
    # score stays at the threshold (2·1 = 2, not above): must be excluded
    "梨": (
        ["梨和苹果都能炖汤", "梨比苹果水分多"],
        ["苹果和梨的热量差不多"],
    ),
}

EXPECTED_C_INIT = ["微软", "香蕉", "三星", "橘子", "葡萄"]

FRUIT_INTRO = "新鲜水果的产地与价格行情每天更新，果园直供的应季水果按品种整理成清单"
FRUIT_OUTRO = "水果价格来自批发市场的当日报价，产地信息经过果农核实，第{i}期"
TECH_INTRO = "全球科技公司的市值与手机出货量排名，科技公司名单按营收规模整理"
TECH_OUTRO = "科技公司数据来自公开财报，市值信息随股价变化，第{i}期"
# Over MAX_TERM_LEN (50) characters, between an item's <li> and the next tag.
LONG_ITEM = "本店所有水果均由合作果园当天采摘并冷链直送到店如遇天气原因延迟发货我们将另行短信通知每一位顾客敬请谅解"
# Hundreds of term characters with no punctuation or space: a context
# window that starts or ends in it clips the run.
RUN_ON = (
    "我家楼下那个水果摊的老板每天天不亮就去批发市场进货他说水果这东西最讲究新鲜"
    "隔夜的货就算便宜一半也没人要所以每天下午他都会把剩下的水果打折卖掉我常常在"
    "那个时候去买一袋回家慢慢吃老板还会告诉我哪个产地的水果今年最甜哪些品种快要"
    "下市了得抓紧时间买听他讲这些比看任何美食节目都有意思他的摊位上总是挤满了人"
    "大家一边挑一边聊天不知不觉就买了很多有时候老板忙不过来还会让熟客自己称重找零这种"
    "信任在别的地方很少见到附近的居民都说这个摊位开了二十多年从来没有缺斤少两过"
)


def page_url(page_id: str) -> str:
    kind = {"f": "fruit", "c": "tech"}[page_id[0]]
    return f"https://hostile.test/{kind}/{page_id}.html"


def build_pages() -> dict[str, str]:
    pages: dict[str, str] = {}
    market_items = ["苹果", "香蕉", "葡萄", "橘子", "西瓜", "草莓", LONG_ITEM]
    pages["f01"] = "\n".join(
        [
            "<!DOCTYPE html>",
            "<html>",
            "<head>",
            '<meta charset="utf-8">',
            "<title>今日水果批发价格</title>",
            "<!-- 模板第二版：苹果 香蕉 葡萄 为示例数据 -->",
            "</head>",
            "<body>",
            "<h1>应季水果清单</h1>",
            f"<p>{FRUIT_INTRO}。</p>",
            '<ul class="fruits">',
            *(f"<li>{item}" for item in market_items),
            "</ul>",
            f"<p>{FRUIT_OUTRO.format(i=1)}。</p>",
            "<!-- 统计代码 -->",
            "<script>",
            'var featured = ["苹果", "香蕉", "葡萄"];',
            "track(featured);",
            "",
        ]
    )
    pages["f02"] = "\n".join(
        [
            "<!DOCTYPE html>",
            "<html>",
            "<head><title>水果小站的日常</title></head>",
            "<body>",
            "<h2>苹果与香蕉的营养对比</h2>",
            '<div class="post">',
            f"<p>{RUN_ON}我喜欢吃苹果。我喜欢吃香蕉。我喜欢吃葡萄。我喜欢吃橘子。{RUN_ON}</p>",
            "<pre>",
            "苹果      香蕉      葡萄      橘子",
            "</pre>",
            f"<p>{FRUIT_OUTRO.format(i=2)}。</p>",
            "</div>",
            "</body>",
            "</html>",
            "",
        ]
    )
    pages["f03"] = "\n".join(
        [
            "<html>",
            "<head><title>水果店菜单</title></head>",
            "<body>",
            f"<p>{FRUIT_INTRO}。</p>",
            f"<p>{RUN_ON}。</p>",
            '<ul class="menu">',
            "<li>苹果</li>",
            "<li>香蕉</li>",
            "<li>西瓜</li>",
            "<li>新品：葡萄</li>",
            "<li>新品：橘子</li>",
            "<li>新品：桃子</li>",
            "</ul>",
            f"<p>{FRUIT_OUTRO.format(i=3)}。</p>",
            "</body>",
            "</html>",
            "",
        ]
    )
    rows = [("苹果", "美国"), ("微软", "美国"), ("三星", "韩国"), ("谷歌", "美国"), ("华为", "中国")]
    pages["c01"] = "\n".join(
        [
            "<!DOCTYPE html>",
            "<html>",
            "<head>",
            '<meta charset="utf-8">',
            "<title>苹果领衔的科技公司市值排行</title>",
            "</head>",
            "<body>",
            "<h1>全球科技公司排行</h1>",
            f"<p>{TECH_INTRO}。</p>",
            "<table>",
            *(f"<tr><td>{name}<td>{country}</tr>" for name, country in rows),
            "</table>",
            f"<p>{TECH_OUTRO.format(i=1)}。</p>",
            "</body>",
            "</html>",
            "",
        ]
    )
    pages["c02"] = "\n".join(
        [
            "<html>",
            "<head><title>科技新闻</title></head>",
            "<body>",
            '<div class="sidebar">',
            "<h3>热门公司</h3>",
            "苹果<br>",
            "微软<br>",
            "三星<br>",
            "谷歌<br>",
            "索尼<br/>",
            "</div>",
            '<div class="content">',
            '<p class="logos">'
            + " ".join(
                f'<img src="/logo/{i}.png" alt="{name}">'
                for i, name in enumerate(COMPANIES, start=1)
            )
            + "</p>",
            f"<p>{TECH_INTRO}。</p>",
            f"<p>{TECH_OUTRO.format(i=2)}。</p>",
            '<a href="/news/next" class="more"',
        ]
    )
    pages["c03"] = "\n".join(
        [
            "<!DOCTYPE html>",
            "<html>",
            "<head>",
            "<title>手机品牌大全</title>",
            "<style>ol li { margin: 0 } /* 苹果 三星 */</style>",
            "</head>",
            "<body>",
            f"<p>{TECH_INTRO}。</p>",
            f"<p>{TECH_OUTRO.format(i=3)}。</p>",
            "<ol>",
            *(
                f'<li><a href="/brand/{i}">{name}</a></li>'
                for i, name in enumerate(["苹果", "三星", "华为", "微软", "联想"], start=1)
            ),
            "</ol>",
            "<!-- 页脚 -->",
            "</body>",
            "</html>",
            "",
        ]
    )
    return pages


def snippet_hits() -> dict[str, list[dict]]:
    """Hits for the four clue-word queries; snippets carry the sentences."""
    left: list[str] = []  # sentences shaped x·clue·seed
    right: list[str] = []  # sentences shaped seed·clue·x
    for has_left, has_right in SENTENCES.values():
        left.extend(has_left)
        right.extend(has_right)
    page_ids = sorted(build_pages())

    def hits_for(sentences: list[str], salt: int) -> list[dict]:
        return [
            {
                "rank": rank,
                "title": f"网友讨论第{salt}{rank}楼",
                "snippet": sentence + "。",
                "url": page_url(page_ids[(salt + rank) % len(page_ids)]),
            }
            for rank, sentence in enumerate(sentences, start=1)
        ]

    return {
        SEED + "和": hits_for([s for s in right if SEED + "和" in s], 1),
        "和" + SEED: hits_for([s for s in left if "和" + SEED in s], 2),
        SEED + "比": hits_for([s for s in right if SEED + "比" in s], 3),
        "比" + SEED: hits_for([s for s in left if "比" + SEED in s], 4),
    }


def expansion_hits() -> dict[str, list[str]]:
    """Query -> page ids, in rank order."""
    return {
        f"{SEED} 微软": ["c01", "c02", "c03"],
        f"{SEED} 香蕉": ["f01", "f02", "f03"],
        f"{SEED} 三星": ["c03", "c01"],
        f"{SEED} 橘子": ["f02", "f03"],
        f"{SEED} 葡萄": ["f01"],
    }


def build_bundle() -> None:
    gold = {
        "seed": SEED,
        "concepts": [
            {"name": "fruit", "terms": FRUITS},
            {"name": "companies", "terms": COMPANIES},
        ],
    }
    write_bundle(OUT, build_pages(), page_url, snippet_hits(), expansion_hits(), gold)


def self_check() -> None:
    from ctms.corpus import FixtureProvider, load_fixture
    from ctms.metrics import load_gold
    from ctms.pipeline import PipelineConfig, evaluate, mine

    report = mine(SEED, PipelineConfig(), FixtureProvider(load_fixture(OUT)))
    got_c_init = [c["text"] for c in report.initial_candidates]
    assert got_c_init == EXPECTED_C_INIT, f"initial candidates drifted: {got_c_init}"
    assert report.diagnostics["pages_processed"] == 6, report.diagnostics
    table = evaluate(report, load_gold(OUT / "gold.json"), [5, 10])
    print(f"self-check ok: weblists={report.weblist_count} "
          f"concepts={len(report.concepts)} P@10={table['p_at']['10']:.3f} "
          f"AAP={table['aap']:.3f} IAAP={table['iaap']:.3f} purity={table['purity']:.3f}")


if __name__ == "__main__":
    build_bundle()
    self_check()
