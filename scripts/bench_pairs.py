#!/usr/bin/env python3
"""Alternating benchmark pairs: a base git ref against the working tree.

Extracts the base ref with ``git archive`` into a temporary directory
outside the repository, and beside it copies the working tree as it is
on disk: its tracked files, uncommitted edits included, and its untracked
files that git does not ignore.  It then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in the two copies, one pair at a time, switching which side runs first in
each pair so that drift of the host's speed falls on both sides alike.
Neither side runs in the repository itself: run there, the change side
read ``mine_ms_p50`` 2-6% higher than a fresh copy of the same files, on
all four workloads (2-vCPU VM).  Each side writes and reads all its bytecode, the
standard library's too, in a fresh ``PYTHONPYCACHEPREFIX`` directory of
its own, whatever ``PYTHONDONTWRITEBYTECODE`` says, so that no cache left
from an earlier run starts one side warmer.
Before pair 0, each side makes one run that is thrown away, so that no
recorded run compiles bytecode: a cold cache raises that run's
``peak_rss_mb`` by about 11% (40.2 against 36.2 MB on ``many_lists``),
more than the metric's bound.  Every recorded run's metrics, ``correct``
and ``failed`` go to the ``--out`` JSON, with each side's median and
interquartile range per metric and the number of pairs the working tree
won.  A metric's ``gain_shown`` says that the working tree won at least
9 in 10 pairs and beat the base's median by more than the base's
interquartile range; its ``beyond_bound`` says that the working tree's
median is worse than the base's by more than the metric's ``bound`` in
``BENCHMARK.json`` (end-to-end metrics only) times the base's median.
The last line printed says whether any metric is beyond its bound.
Exits 1 if any recorded run was not ``correct``.

    python3 scripts/bench_pairs.py --workload dense_pages --pairs 5 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def better_directions(benchmark: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def end_to_end_bounds(benchmark: Path) -> dict[str, float]:
    """End-to-end metric name -> its bound, a fraction of the base's value,
    from a BENCHMARK.json."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-side medians and IQRs, and pairs won by the change, per metric.

    `runs` holds one record per run: ``pair``, ``side`` ("base" or
    "change"), ``correct`` and ``metrics`` (name -> value).  A metric
    named ``workload.name`` takes the direction and bound of ``name``;
    one not in `better` counts lower as better.  A pair is won when the
    change's value is strictly better than the base's, so a tie is won by
    neither side.  ``gain_shown`` is true when the change won at least 9
    in 10 of the pairs and its median is better than the base's by more
    than the base's IQR.  ``beyond_bound`` is true when the metric has a
    bound in `bounds` and the change's median is worse than the base's by
    more than that bound times the base's median.
    """
    bounds = bounds or {}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        for name, value in run["metrics"].items():
            values[run["side"]].setdefault(name, []).append(value)
    metrics = {}
    for name in sorted(set(values["base"]) | set(values["change"])):
        higher = better.get(name.rsplit(".", 1)[-1], "lower") == "higher"
        bound = bounds.get(name.rsplit(".", 1)[-1])
        won = compared = 0
        for sides in by_pair.values():
            if all(name in sides.get(side, {}) for side in SIDES):
                compared += 1
                base, change = sides["base"][name], sides["change"][name]
                won += change > base if higher else change < base
        entry: dict = {"better": "higher" if higher else "lower", "bound": bound,
                       "pairs": compared, "pairs_won": won}
        for side in SIDES:
            side_values = values[side].get(name, [])
            entry[side] = {
                "median": statistics.median(side_values) if side_values else None,
                "iqr": _quartile_spread(side_values),
                "runs": len(side_values),
            }
        # A compared pair gives both sides a median.
        base, change = entry["base"]["median"], entry["change"]["median"]
        entry["gain_shown"] = compared > 0 and 10 * won >= 9 * compared and (
            (change - base if higher else base - change) > entry["base"]["iqr"]
        )
        entry["beyond_bound"] = bound is not None and None not in (base, change) and (
            (base - change if higher else change - base) > bound * abs(base)
        )
        metrics[name] = entry
    return {"correct": all(run["correct"] for run in runs), "metrics": metrics}


def _number(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def extract_ref(ref: str, dest: Path) -> str:
    """Write the tree of `ref` into `dest`; return its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref} failed")
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked files as they are on disk, and its
    untracked files that are not ignored, into `dest`; a tracked file
    deleted from the working tree is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    for name in filter(None, listed.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """One perfbench run in `tree`, its bytecode cached under `pycache`.

    Returns its summary line, or a failed record.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, env=env,
    )
    try:
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        summary = None
    if proc.returncode != 0 or summary is None:
        return {"correct": False, "failed": None, "attempted": None, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    return {
        "correct": bool(summary["correct"]),
        "failed": summary["failed"],
        "attempted": summary["attempted"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    parser.add_argument("--workload", required=True, help="perfbench workload, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out.resolve()

    better = better_directions(ROOT / "BENCHMARK.json")
    bounds = end_to_end_bounds(ROOT / "BENCHMARK.json")
    runs: list[dict] = []
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: scratch / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        base_commit = extract_ref(args.base, trees["base"])
        copy_working_tree(trees["change"])
        caches = {side: scratch / f"pycache-{side}" for side in SIDES}
        for side in SIDES:  # the discarded warm-up runs
            run = run_once(trees[side], args.workload, args.seed, args.seconds, caches[side])
            print(f"warm-up {side:<6} correct={run['correct']} (discarded)", flush=True)
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(trees[side], args.workload, args.seed, args.seconds,
                               caches[side])
                runs.append({"pair": pair, "side": side, "position": position, **run})
                shown = ", ".join(f"{k} {v:.4g}" for k, v in sorted(run["metrics"].items()))
                print(f"pair {pair} {side:<6} correct={run['correct']} {shown}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(runs, better, bounds)
    record = {
        "command": ["python3", "perfbench/run.py", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        "base_ref": args.base,
        "base_commit": base_commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "runs": runs,
        "summary": summary,
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        sides = "  ".join(
            f"{side} {_number(m[side]['median'])} (IQR {m[side]['iqr']:.3g})" for side in SIDES
        )
        shown = "  gain shown" if m["gain_shown"] else ""
        if m["beyond_bound"]:
            shown += f"  BEYOND BOUND ({m['bound']:.0%})"
        print(f"{name:<32} {sides}  won {m['pairs_won']}/{m['pairs']} ({m['better']} is better){shown}")
    beyond = [name for name, m in summary["metrics"].items() if m["beyond_bound"]]
    print("metrics worse than their bound: " + (", ".join(beyond) if beyond else "none"))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
