"""End-to-end and per-layer benchmark of ``ctms.pipeline.mine``.

Run from the repository root:

    python3 perfbench/run.py --workload miniweb --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

For one workload it generates the inputs from ``--seed`` (``miniweb`` is
the committed fixture and ignores the seed), then in fresh processes:

* mines back to back for ``--seconds`` (and at least 100 timed mines),
  checking every report (see ``worker.ReportChecker``);
* with ``--trace 0``, times set-up in several more fresh processes and
  reports the end-to-end metrics; with ``--trace 1``, alternates traced
  and untraced mines and reports the per-layer metrics.

BLAS is pinned to one thread in every child.  Human-readable lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, environment
included, is written to ``perfbench/_work/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from worker import MAX_LOOP_FACTOR
from workloads import MINIWEB_DIR, WORKLOADS, materialize

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / "_work"
SRC = REPO / "src"

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120
LOOP_SLACK_S = 60  # warm-up and imports on top of the loop's own hard stop
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "mine_ms_p50": "ms",
    "mine_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "aap": "ratio",
    "iaap": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=REPO,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def committed_digest(workload: str, seed: int) -> str | None:
    """The report digest committed for this workload at this seed, if any."""
    entry = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return None
    return entry["sha256"]


def source_commit() -> str:
    """Git commit of the checkout when it is a repository, else 'unknown'."""
    if not (REPO / ".git").exists():
        return "unknown"  # keep git from finding an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, loop: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": loop["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": loop["blas_threads"],
        "git_commit": source_commit(),
        "workload_seed": seed,
        "timed_mines": loop["timed_mines"],
        "traced_mines": loop.get("traced_mines", 0),
        "warmup_mines": loop["warmup_mines"],
        "p90_is_percentile": loop["tail_percentile"],
    }


def _as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    bundle = materialize(workload, seed, WORK)
    tag = f"{name}-s{seed}-t{trace}"
    loop_args = ["loop", "--workload", name, "--bundle", str(bundle),
                 "--seconds", str(seconds), "--trace", str(trace)]
    digest = committed_digest(name, seed)
    if digest:
        loop_args += ["--digest", digest]
    if trace:
        loop_args += ["--trace-out", str(WORK / f"trace-{tag}.json")]
    loop = run_child(loop_args, MAX_LOOP_FACTOR * seconds + LOOP_SLACK_S)

    error_rate = loop["failed"] / loop["attempted"]
    # Printed and recorded, not gated: raw times drift with the host's speed.
    ungated = {
        "mine_wall_ms_p50": (loop["mine_wall_ms_p50"], "ms"),
        "mine_wall_ms_p90": (loop["mine_wall_ms_tail"], "ms"),
        "mine_cpu_ms_p50": (loop["mine_cpu_ms_p50"], "ms"),
        "error_rate": (error_rate, "ratio"),
    }
    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(loop["layers"].items())}
    else:
        setups = [run_child(["setup", "--bundle", str(bundle)], SETUP_TIMEOUT_S)
                  for _ in range(SETUP_PROBES)]
        ungated["setup_wall_s"] = (statistics.median(p["setup_wall_s"] for p in setups), "s")
        values = {
            "mine_ms_p50": loop["mine_ms_p50"],
            "mine_ms_p90": loop["mine_ms_tail"],
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "peak_rss_mb": loop["peak_rss_mb"],
            "aap": loop.get("aap", 0.0),
            "iaap": loop.get("iaap", 0.0),
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": name,
        "trace": trace,
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "failure_reasons": loop["failure_reasons"],
        "report_sha256": loop.get("report_sha256"),
        "metrics": _as_json(metrics),
        "ungated": _as_json(ungated),
        "env": environment(seed, loop),
    }
    (WORK / f"result-{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} (trace {record['trace']}): "
          f"{record['attempted']} mines, {record['failed']} failed")
    for reason in record["failure_reasons"]:
        print(f"  failure: {reason}")
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.4f} {m['unit']}")
    for name, m in record["ungated"].items():
        print(f"  {name:<32} {m['value']:>14.4f} {m['unit']}  (not gated)")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark ctms mine per workload.")
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctms" / "pipeline.py").is_file():
        print(f"error: no ctms sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if "miniweb" in names and not (MINIWEB_DIR / "manifest.json").is_file():
        print(f"error: miniweb fixture missing under {MINIWEB_DIR}", file=sys.stderr)
        return 2

    records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for record in records:
        print_record(record)
    prefix = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in records
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
