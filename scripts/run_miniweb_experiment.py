#!/usr/bin/env python3
"""Run the mini-web experiment: concept grouping on vs. off.

Mines the ambiguous seed twice over the bundled fixture corpus — once with
concept grouping, once ranking a single merged list — and prints both
mining tables plus the evaluation metrics side by side.  A last table
sets stage 1's initial candidates beside the competitor-pattern baseline
run over the same snippet sentences, with how many of each are gold terms.

    python scripts/run_miniweb_experiment.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctms.corpus import FixtureProvider, load_fixture  # noqa: E402
from ctms.linguistic import build_queries, extract_competitor_baseline  # noqa: E402
from ctms.metrics import load_gold  # noqa: E402
from ctms.pipeline import (  # noqa: E402
    PipelineConfig,
    evaluate,
    format_report_table,
    mine,
    snippet_sentences,
)

FIXTURE = ROOT / "tests" / "fixtures" / "miniweb"
SEED = "华盛顿"


def main() -> None:
    provider = FixtureProvider(load_fixture(FIXTURE))
    gold = load_gold(FIXTURE / "gold.json")

    variants = {
        "grouping on": PipelineConfig(),
        "grouping off": PipelineConfig(disambiguation=False),
    }
    tables = {}
    initial: list[str] = []
    for label, cfg in variants.items():
        report = mine(SEED, cfg, provider)
        initial = [c["text"] for c in report.initial_candidates]
        tables[label] = evaluate(report, gold, [5, 10])
        print(f"=== {label} "
              f"({report.weblist_count} web lists, {len(report.concepts)} concepts) ===")
        print(format_report_table(report))

    metrics = ["ap", "aap", "iaap", "purity", "inverse_purity", "f"]
    header = f"{'metric':<16}" + "".join(f"{label:>14}" for label in variants)
    print(header)
    for n in ("5", "10"):
        row = f"{'P@' + n:<16}"
        row += "".join(f"{tables[label]['p_at'][n]:>14.3f}" for label in variants)
        print(row)
    for metric in metrics:
        row = f"{metric:<16}"
        row += "".join(f"{tables[label][metric]:>14.3f}" for label in variants)
        print(row)

    gold_terms = {t for concept in gold.concepts for t in concept.terms}
    cfg = PipelineConfig()
    sentences = snippet_sentences(build_queries(SEED, cfg), cfg, provider)
    baseline = extract_competitor_baseline(SEED, sentences)
    print("\n=== initial candidates (gold / found) ===")
    for label, terms in (("stage 1", initial), ("baseline", baseline)):
        hits = sum(t in gold_terms for t in terms)
        print(f"{label:<16}{hits:>3}/{len(terms):<3} {', '.join(terms)}")


if __name__ == "__main__":
    main()
