"""Command-line entry points: mine, eval, fixture-validate.

Exit codes: 0 success, 1 empty mining result, 2 usage/configuration error
or output that cannot be written (a file or stdout).  Every failure exits
2 by one path: each command step names the exceptions it maps and the
message prefix they take (`_fails_as`), and `main` alone catches the
`_UsageError` that results, prints ``error: <message>`` and returns
`EXIT_USAGE`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .corpus import FixtureError, FixtureProvider, load_fixture
from .expansion import window_text
from .metrics import GoldFormatError, load_gold
from .pipeline import (
    MiningReport,
    PipelineConfig,
    check_seed,
    evaluate,
    format_metric_table,
    format_report_table,
    mine,
)

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """A failure that ends the command with `EXIT_USAGE`; `main` prints it."""


@contextmanager
def _fails_as(prefix: str, *errors: type[Exception]) -> Iterator[None]:
    """Raise any of `errors` from the block as a `_UsageError` reading
    `prefix` and then the error."""
    try:
        yield
    except errors as exc:
        raise _UsageError(f"{prefix}{exc}") from exc


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
    with _fails_as("", ValueError):
        check_seed(args.seed)
    with _fails_as("", FixtureError, OSError):
        corpus = load_fixture(args.corpus)
    with _fails_as("bad config: ", ValueError, OSError):
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.no_disambiguation:
        cfg = replace(cfg, disambiguation=False)

    report = mine(args.seed, cfg, FixtureProvider(corpus))
    with _fails_as("cannot write output: ", OSError):
        if args.dump_weblists:
            Path(args.dump_weblists).write_text(_weblists_jsonl(report), encoding="utf-8")
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    _write_stdout(format_report_table(report))
    return EXIT_OK if any(c.ranked_terms for c in report.concepts) else EXIT_EMPTY


def _weblists_jsonl(report: MiningReport) -> str:
    """The run's web lists, one JSON object per line, in list-id order;
    each list's context is its window rendered from its page's text."""
    return "".join(
        json.dumps(
            {
                "id": wl.id,
                "source_url": wl.source_url,
                "terms": list(wl.terms),
                "context": window_text(report.pages[wl.source_url], wl.window),
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
    with _fails_as("bad report file: ", OSError, ValueError, KeyError, TypeError, AttributeError):
        report = MiningReport.from_json(Path(args.report).read_text(encoding="utf-8"))
    with _fails_as("bad gold file: ", GoldFormatError, OSError):
        gold = load_gold(args.gold)
    try:
        cutoffs = [int(x) for x in args.at.split(",") if x.strip()]
    except ValueError:
        cutoffs = []
    if not cutoffs or any(n < 1 for n in cutoffs):
        raise _UsageError(f"bad --at value: {args.at!r}")
    with _fails_as("", ValueError):
        table = evaluate(report, gold, cutoffs)
    if args.out:
        with _fails_as("cannot write output: ", OSError):
            Path(args.out).write_text(
                json.dumps(table, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
    _write_stdout(format_metric_table(table))
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    with _fails_as("", FixtureError, OSError):
        corpus = load_fixture(args.corpus)
    _write_stdout(
        f"ok: {len(corpus.queries)} queries, {len(corpus.pages)} pages, all hit urls resolve\n"
    )
    return EXIT_OK


def _write_stdout(text: str) -> None:
    """Write `text` to stdout and flush it; a `_UsageError` when stdout
    cannot take it or is closed.  An open stdout is then pointed at the
    null device, so the interpreter's final flush of what is left in its
    buffer fails no second time."""
    out = sys.stdout  # None when the process started with stdout closed
    try:
        if out is None:
            raise OSError("stdout is closed")
        out.write(text)
        out.flush()
    except OSError as exc:
        if out is not None:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        raise _UsageError(f"cannot write to stdout: {exc}") from exc


_RUNNERS = {"mine": _run_mine, "eval": _run_eval, "fixture-validate": _run_validate}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
