"""Command-line entry points: mine, eval, fixture-validate.

Exit codes: 0 success, 1 empty mining result, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import FixtureError, FixtureProvider, load_fixture
from .metrics import GoldFormatError, load_gold
from .pipeline import (
    MiningReport,
    PipelineConfig,
    evaluate,
    format_metric_table,
    format_report_table,
    mine,
)

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctms", description="Coordinate term mining from web list structures"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine coordinate terms for one seed")
    p_mine.add_argument("seed", help="seed term")
    p_mine.add_argument("--corpus", required=True, help="fixture bundle directory")
    p_mine.add_argument("--config", help="pipeline config JSON (defaults apply)")
    p_mine.add_argument(
        "--no-disambiguation",
        action="store_true",
        help="skip concept grouping and rank one merged list",
    )
    p_mine.add_argument("--dump-weblists", help="also write raw web lists (JSON lines)")
    p_mine.add_argument("--out", required=True, help="report output path")

    p_eval = sub.add_parser("eval", help="score a mining report against gold answers")
    p_eval.add_argument("--report", required=True, help="report JSON from `ctms mine`")
    p_eval.add_argument("--gold", required=True, help="gold answer JSON")
    p_eval.add_argument(
        "--at", default="5,10", help="comma-separated cut-offs for P@n (default 5,10)"
    )
    p_eval.add_argument("--out", help="also write the metric table as JSON")

    p_val = sub.add_parser("fixture-validate", help="check a fixture bundle")
    p_val.add_argument("--corpus", required=True, help="fixture bundle directory")
    return parser


def _run_mine(args: argparse.Namespace) -> int:
    if not args.seed:
        print("error: seed must be non-empty", file=sys.stderr)
        return EXIT_USAGE
    try:
        corpus = load_fixture(args.corpus)
    except (FixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    except (ValueError, OSError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.no_disambiguation:
        cfg = replace(cfg, disambiguation=False)

    report = mine(args.seed, cfg, FixtureProvider(corpus))
    if args.dump_weblists:
        Path(args.dump_weblists).write_text(_weblists_jsonl(report), encoding="utf-8")
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(format_report_table(report), end="")
    if not any(c.ranked_terms for c in report.concepts):
        return EXIT_EMPTY
    return EXIT_OK


def _weblists_jsonl(report: MiningReport) -> str:
    """The run's web lists, one JSON object per line, in list-id order."""
    return "".join(
        json.dumps(
            {
                "id": wl.id,
                "source_url": wl.source_url,
                "terms": list(wl.terms),
                "context": wl.context,
                "wrapper": {
                    "left": wl.wrapper.left,
                    "right": wl.wrapper.right,
                    "path": wl.wrapper.path,
                },
            },
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for wl in report.weblists
    )


def _run_eval(args: argparse.Namespace) -> int:
    try:
        report = MiningReport.from_json(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"error: bad report file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        gold = load_gold(args.gold)
    except (GoldFormatError, OSError) as exc:
        print(f"error: bad gold file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cutoffs = [int(x) for x in args.at.split(",") if x.strip()]
        if not cutoffs or any(n < 1 for n in cutoffs):
            raise ValueError(args.at)
    except ValueError:
        print(f"error: bad --at value: {args.at!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = evaluate(report, gold, cutoffs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(format_metric_table(table), end="")
    if args.out:
        Path(args.out).write_text(
            json.dumps(table, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    try:
        corpus = load_fixture(args.corpus)
    except (FixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"ok: {len(corpus.queries)} queries, {len(corpus.pages)} pages, "
        "all hit urls resolve"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "mine":
        return _run_mine(args)
    if args.command == "eval":
        return _run_eval(args)
    if args.command == "fixture-validate":
        return _run_validate(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
