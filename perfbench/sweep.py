"""Scaling sweep: per-layer time along each input axis, with fitted exponents.

    python3 perfbench/sweep.py

Not one of the gated workloads.  It runs the generators at several sizes
along each axis, mines each bundle a few times with tracing on, and
reports the median self time of every layer per point plus the exponent
k of a least-squares fit time ~ x^k over the points (log-log).  Times are
raw wall times of traced mines (the sweep compares sizes within one
process, so host drift matters less than in the gated runs).  Axes:

* ``page_chars``     -- page size at fixed list count (dense_pages);
* ``occ_per_page``   -- seed occurrences per page at fixed page size
  (dense_pages, more lists per page);
* ``weblists``       -- web lists per run (many_lists, more pages);
* ``sentences``      -- snippet sentences per run (deep_snippets, more hits).
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)  # before numpy loads, as in the gated runs

from ctms.corpus import FixtureProvider, load_fixture  # noqa: E402
from ctms.pipeline import PipelineConfig, mine  # noqa: E402

from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, materialize  # noqa: E402

SEED = 1
REPEATS = 5  # traced mines per point, after one warm-up

# axis -> (workload, size parameter sets, x as a function of the counters)
AXES = {
    "page_chars": (
        "dense_pages",
        [{"pages": 2, "lists": 8, "chars": c} for c in (8_000, 16_000, 32_000, 64_000)],
        lambda c: c["dom.chars"] / c["expansion.pages"],
    ),
    "occ_per_page": (
        "dense_pages",
        [{"pages": 2, "lists": n, "chars": 24_000} for n in (6, 12, 24, 48)],
        lambda c: c["wrappers.seed_occurrences"] / c["expansion.pages"],
    ),
    "weblists": (
        "many_lists",
        [{"pages_per_concept": m} for m in (2, 4, 7, 10)],
        lambda c: c["expansion.weblists"],
    ),
    "sentences": (
        "deep_snippets",
        [{"hits_per_query": h} for h in (5, 10, 20, 40)],
        lambda c: c["linguistic.sentences"],
    ),
}


def fit_exponent(xs: list[float], ys: list[float]) -> float | None:
    """Slope of log y on log x; None when some y is zero or x does not vary."""
    if min(ys) <= 0.0 or len(set(xs)) < 2:
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    var = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / var


def measure(workload_name: str, sizes: dict, work: Path) -> dict:
    workload = WORKLOADS[workload_name]
    bundle = materialize(workload, SEED, work, **sizes)
    provider = FixtureProvider(load_fixture(bundle))
    cfg = PipelineConfig.from_dict(dict(workload.config))
    tracer = Tracer()
    mine(workload.term, cfg, provider)  # warm-up
    walls = [tracer.mine(mine, workload.term, cfg, provider)[1] for _ in range(REPEATS)]
    per_mine = tracer.self_times_ms()
    layers = {k: statistics.median(t[k] for t in per_mine) for k in SELF_TIME_METRICS.values()}
    return {
        "sizes": sizes,
        "mine_ms": statistics.median(walls) * 1000.0,
        "layers_ms": layers,
        "counters": dict(tracer.counters[-1]),
    }


def sweep(work: Path) -> dict:
    out = {}
    for axis, (workload_name, size_sets, x_of) in AXES.items():
        points = [measure(workload_name, s, work) for s in size_sets]
        xs = [x_of(p["counters"]) for p in points]
        for p, x in zip(points, xs):
            p["x"] = x
        exponents = {"mine_ms": fit_exponent(xs, [p["mine_ms"] for p in points])}
        for metric in SELF_TIME_METRICS.values():
            exponents[metric] = fit_exponent(xs, [p["layers_ms"][metric] for p in points])
        out[axis] = {"workload": workload_name, "points": points, "exponents": exponents}
    return out


def print_table(result: dict) -> None:
    for axis, data in result.items():
        print(f"axis {axis} ({data['workload']})")
        xs = "  ".join(f"{p['x']:>9.0f}" for p in data["points"])
        print(f"  {'x':<28}{xs}   exponent")
        rows = [("mine_ms", [p["mine_ms"] for p in data["points"]])]
        rows += [(m, [p["layers_ms"][m] for p in data["points"]])
                 for m in SELF_TIME_METRICS.values()]
        for name, values in rows:
            if max(values) < 0.5:
                continue  # layer idle on this axis
            k = data["exponents"][name]
            cells = "  ".join(f"{v:>9.2f}" for v in values)
            print(f"  {name:<28}{cells}   {'-' if k is None else f'{k:.2f}'}")


def main() -> int:
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        print_table(sweep(Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
