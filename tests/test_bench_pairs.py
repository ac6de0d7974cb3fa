"""The summary of `scripts/bench_pairs.py`, on canned runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(pair, side, ms, aap, correct=True):
    return {"pair": pair, "side": side, "correct": correct,
            "metrics": {"mine_ms_p50": ms, "aap": aap}}


CANNED = [
    run(0, "base", 30.0, 1.0), run(0, "change", 25.0, 1.0),
    run(1, "change", 26.0, 1.0), run(1, "base", 28.0, 0.9),
    run(2, "base", 29.0, 1.0), run(2, "change", 31.0, 1.0),
    run(3, "change", 24.0, 1.0), run(3, "base", 27.0, 1.0),
]
BETTER = {"mine_ms_p50": "lower", "aap": "higher"}


def test_summary_medians_quartiles_and_pairs_won():
    summary = bench_pairs.summarize(CANNED, BETTER)
    assert summary["correct"] is True
    ms = summary["metrics"]["mine_ms_p50"]
    assert ms["better"] == "lower" and ms["pairs"] == 4
    assert ms["pairs_won"] == 3  # pair 2 is slower
    assert ms["base"] == {"median": 28.5, "iqr": pytest.approx(29.25 - 27.75), "runs": 4}
    assert ms["change"] == {"median": 25.5, "iqr": pytest.approx(27.25 - 24.75), "runs": 4}
    aap = summary["metrics"]["aap"]
    assert aap["better"] == "higher"
    assert aap["pairs_won"] == 1  # only pair 1 is strictly higher
    assert aap["base"]["median"] == 1.0 and aap["change"]["median"] == 1.0


def test_summary_prefixed_names_failed_runs_and_missing_metrics():
    runs = [
        {"pair": 0, "side": "base", "correct": True, "metrics": {"miniweb.aap": 0.5}},
        {"pair": 0, "side": "change", "correct": False, "metrics": {}},
        {"pair": 1, "side": "change", "correct": True, "metrics": {"miniweb.aap": 0.75}},
        {"pair": 1, "side": "base", "correct": True, "metrics": {"miniweb.aap": 0.5}},
    ]
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["correct"] is False
    entry = summary["metrics"]["miniweb.aap"]
    assert entry["better"] == "higher"
    assert (entry["pairs"], entry["pairs_won"]) == (1, 1)  # pair 0 has no change value
    assert entry["change"] == {"median": 0.75, "iqr": 0.0, "runs": 1}
