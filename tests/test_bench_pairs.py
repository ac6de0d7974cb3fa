"""`scripts/bench_pairs.py`: its summary on canned runs, the trees each side
runs in, and each side's bytecode cache."""

import importlib.util
import json
import subprocess
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


def ten_pairs(change_ms):
    """Ten pairs whose base reads 20.0-20.9 ms (IQR 0.45) and whose change
    reads `change_ms`, in pair order."""
    runs = []
    for pair, ms in enumerate(change_ms):
        runs += [run(pair, "base", 20.0 + pair / 10, 1.0), run(pair, "change", ms, 1.0)]
    return runs


@pytest.mark.parametrize("wins, shown", [(9, True), (8, False)])
def test_gain_shown_needs_nine_of_ten_pairs(wins, shown):
    # The change is 2 ms faster, beyond the base's IQR, in all but the
    # last 10 - wins pairs; the first of those ties and the rest are slower.
    change_ms = [20.0 + pair / 10 - 2.0 for pair in range(wins)]
    change_ms += [20.0 + pair / 10 + (pair > wins) for pair in range(wins, 10)]
    ms = bench_pairs.summarize(ten_pairs(change_ms), BETTER)["metrics"]["mine_ms_p50"]
    assert (ms["pairs"], ms["pairs_won"]) == (10, wins)
    assert ms["base"]["median"] - ms["change"]["median"] > ms["base"]["iqr"]
    assert ms["gain_shown"] is shown
    aap = bench_pairs.summarize(ten_pairs(change_ms), BETTER)["metrics"]["aap"]
    assert aap["pairs_won"] == 0 and aap["gain_shown"] is False  # every pair ties


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


def test_run_once_caches_bytecode_under_the_given_prefix(monkeypatch, tmp_path):
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(cwd=cwd, env=env)
        line = '{"correct": true, "failed": 0, "attempted": 3, "metrics": {}}'
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    run = bench_pairs.run_once(tmp_path, "miniweb", 1, 1.0, tmp_path / "pycache")
    assert run["correct"] is True and run["attempted"] == 3
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache")
    # Written once per side, so later runs of both sides start warm alike.
    assert "PYTHONDONTWRITEBYTECODE" not in seen["env"]


def test_each_side_has_its_own_fresh_bytecode_cache(monkeypatch, tmp_path):
    # A fresh prefix per side starts both alike, whatever caches either
    # tree was made with.
    calls = []

    def fake_run_once(tree, workload, seed, seconds, pycache):
        fresh = not pycache.exists() or not any(pycache.iterdir())
        calls.append((tree, pycache, fresh))
        return {"correct": True, "failed": 0, "attempted": 1, "metrics": {"mine_ms_p50": 1.0}}

    monkeypatch.setattr(bench_pairs, "extract_ref", lambda ref, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--workload", "miniweb", "--pairs", "2", "--out", str(out)]) == 0
    assert len(calls) == 6  # a warm-up run per side, then two pairs
    caches = {}
    for tree, pycache, fresh in calls:
        caches.setdefault(tree, set()).add(pycache)
        assert fresh
        assert not pycache.is_relative_to(tree)
        assert not pycache.is_relative_to(bench_pairs.ROOT)
    assert len(caches) == 2
    (base_cache,), (change_cache,) = caches.values()
    assert base_cache != change_cache


def test_each_side_records_runs_only_after_a_discarded_warm_up(monkeypatch, tmp_path):
    # A cold bytecode cache adds its compile to a run's peak RSS, so the
    # first run of each side only warms the side's cache.
    calls = []

    def fake_run_once(tree, workload, seed, seconds, pycache):
        warm = pycache.exists() and any(pycache.iterdir())
        pycache.mkdir(parents=True, exist_ok=True)
        (pycache / f"module{len(calls)}.pyc").write_bytes(b"")
        calls.append((tree, pycache, warm))
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {"peak_rss_mb": 40.0 if not warm else 36.0}}

    monkeypatch.setattr(bench_pairs, "extract_ref", lambda ref, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--workload", "miniweb", "--pairs", "3", "--out", str(out)]) == 0
    assert len(calls) == 2 + 2 * 3
    assert [warm for _, _, warm in calls[:2]] == [False, False]
    assert {tree for tree, _, _ in calls[:2]} == {tree for tree, _, _ in calls}
    record = json.loads(out.read_text(encoding="utf-8"))
    assert len(record["runs"]) == 6
    assert all(run["metrics"]["peak_rss_mb"] == 36.0 for run in record["runs"])
    rss = record["summary"]["metrics"]["peak_rss_mb"]
    for side in ("base", "change"):
        assert rss[side] == {"median": 36.0, "iqr": 0.0, "runs": 3}


def test_neither_side_runs_in_the_repository(monkeypatch, tmp_path):
    # Run in place, the change side read slower than a fresh copy of the
    # same files; both sides run in copies beside each other.
    made, ran = {}, []

    def fake_extract_ref(ref, dest):
        made["base"] = dest
        return "0" * 40

    def fake_run_once(tree, workload, seed, seconds, pycache):
        ran.append(tree)
        return {"correct": True, "failed": 0, "attempted": 1, "metrics": {"mine_ms_p50": 1.0}}

    monkeypatch.setattr(bench_pairs, "extract_ref", fake_extract_ref)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: made.update(change=dest))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--workload", "miniweb", "--pairs", "2", "--out", str(out)]) == 0
    assert set(ran) == set(made.values()) and len(set(ran)) == 2
    assert made["base"].parent == made["change"].parent
    for tree in ran:
        assert not tree.is_relative_to(bench_pairs.ROOT)
        assert not bench_pairs.ROOT.is_relative_to(tree)


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_change_copy_holds_uncommitted_edits_and_untracked_files(monkeypatch, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "mod.py").write_text("VALUE = 1\n", encoding="utf-8")
    (repo / "gone.py").write_text("", encoding="utf-8")
    (repo / ".gitignore").write_text("_work/\n", encoding="utf-8")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "mod.py").write_text("VALUE = 2\n", encoding="utf-8")
    (repo / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("NEW = 3\n", encoding="utf-8")
    (repo / "_work").mkdir()
    (repo / "_work" / "result.json").write_text("{}", encoding="utf-8")
    dest.mkdir()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.copy_working_tree(dest)
    assert (dest / "src" / "mod.py").read_text(encoding="utf-8") == "VALUE = 2\n"
    assert (dest / "src" / "new.py").read_text(encoding="utf-8") == "NEW = 3\n"
    copied = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/mod.py", "src/new.py"]


@pytest.mark.parametrize("worse, beyond", [(0.20, True), (0.10, False)])
def test_beyond_bound_flags_a_median_worse_than_the_bound(worse, beyond):
    # Against a 15% bound: a change 20% worse is beyond it, 10% worse is not,
    # in either direction of "better".
    runs = []
    for pair in range(4):
        runs += [run(pair, "base", 20.0, 0.5),
                 run(pair, "change", 20.0 * (1 + worse), 0.5 * (1 - worse))]
    bounds = {"mine_ms_p50": 0.15, "aap": 0.15}
    metrics = bench_pairs.summarize(runs, BETTER, bounds)["metrics"]
    for name in ("mine_ms_p50", "aap"):
        assert metrics[name]["bound"] == 0.15
        assert metrics[name]["beyond_bound"] is beyond
        assert metrics[name]["gain_shown"] is False
    # A metric without a bound, as a per-layer one, is never beyond it.
    assert bench_pairs.summarize(runs, BETTER)["metrics"]["mine_ms_p50"]["beyond_bound"] is False


def test_bounds_are_read_for_end_to_end_metrics_only(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({
        "end_to_end": [{"name": "mine_ms_p50", "better": "lower", "bound": 0.15},
                       {"name": "aap", "better": "higher", "bound": 0.05}],
        "per_layer": [{"name": "concepts.cluster_ms", "better": "lower"}],
    }), encoding="utf-8")
    assert bench_pairs.end_to_end_bounds(spec) == {"mine_ms_p50": 0.15, "aap": 0.05}


def test_prefixed_metric_takes_its_bound():
    runs = [run(0, "base", 20.0, 1.0), run(0, "change", 24.0, 1.0)]
    runs = [{**r, "metrics": {f"miniweb.{k}": v for k, v in r["metrics"].items()}} for r in runs]
    metrics = bench_pairs.summarize(runs, BETTER, {"mine_ms_p50": 0.15})["metrics"]
    assert metrics["miniweb.mine_ms_p50"]["beyond_bound"] is True
    assert metrics["miniweb.aap"]["bound"] is None


def test_last_line_names_the_metrics_beyond_their_bound(monkeypatch, tmp_path, capsys):
    def fake_run_once(tree, workload, seed, seconds, pycache):
        ms = 20.0 if tree.name == "base" else 24.0  # 20% slower
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {"miniweb.mine_ms_p50": ms, "miniweb.concepts.cluster_ms": ms}}

    monkeypatch.setattr(bench_pairs, "extract_ref", lambda ref, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--workload", "all", "--pairs", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "metrics worse than their bound: miniweb.mine_ms_p50"
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["summary"]["metrics"]["miniweb.concepts.cluster_ms"]["beyond_bound"] is False
