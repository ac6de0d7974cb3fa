import hashlib
import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "ctms"]


def run_cli(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def mined_report(miniweb_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "report.json"
    proc = run_cli(
        "mine", "华盛顿", "--corpus", str(miniweb_path), "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_mine_writes_report_and_exits_zero(mined_report):
    data = json.loads(mined_report.read_text(encoding="utf-8"))
    assert data["seed"] == "华盛顿"
    assert len(data["concepts"]) == 2


def test_mine_empty_result_exits_one(miniweb_path, tmp_path):
    out = tmp_path / "empty.json"
    proc = run_cli("mine", "毫无结果", "--corpus", str(miniweb_path), "--out", str(out))
    assert proc.returncode == 1
    assert out.exists()  # empty report still written


def test_mine_missing_corpus_exits_two(tmp_path):
    proc = run_cli(
        "mine", "x", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "r.json")
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_unknown_flag_exits_two(miniweb_path, tmp_path):
    proc = run_cli(
        "mine", "x", "--corpus", str(miniweb_path),
        "--out", str(tmp_path / "r.json"), "--frobnicate",
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_bad_config_exits_two(miniweb_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_knob": 1}', encoding="utf-8")
    proc = run_cli(
        "mine", "华盛顿", "--corpus", str(miniweb_path),
        "--config", str(cfg), "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 2


# Each config is rejected at load: exit 2 and one error line naming the
# field (or the shape problem), never a traceback from a later stage.
BAD_CONFIGS = [
    ('{"restart_prob": 2}', "restart_prob"),
    ('{"kappa": 0}', "kappa"),
    ('{"top_n": 0}', "top_n"),
    ('{"pages_per_query": 0}', "pages_per_query"),
    ('{"snippet_results": 0}', "snippet_results"),
    ('{"min_distinct_seeds": 1}', "min_distinct_seeds"),
    ('{"tolerance": 0}', "tolerance"),
    ('{"tau": "2"}', "tau"),
    ('{"tau": true}', "tau"),
    ('{"cluster_threshold": "x"}', "cluster_threshold"),
    ('{"clue_words": "和比"}', "clue_words"),
    ('{"clue_words": []}', "clue_words"),
    ('{"clue_words": ["和", "比", "和"]}', "clue_words"),
    ('{"disambiguation": "no"}', "disambiguation"),
    ('{"max_iters": 0}', "max_iters"),
    ('{"context_window": -5}', "context_window"),
    ('{"affix_min_n": 3, "affix_max_n": 1}', "affix_max_n"),
    ("null", "config must be a JSON object"),
    ("5", "config must be a JSON object"),
    ("[1]", "config must be a JSON object"),
]


@pytest.mark.parametrize("text, named", BAD_CONFIGS, ids=[t for t, _ in BAD_CONFIGS])
def test_bad_config_value_exits_two(miniweb_path, tmp_path, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    proc = run_cli(
        "mine", "华盛顿", "--corpus", str(miniweb_path),
        "--config", str(cfg), "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad config")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mine_empty_seed_exits_two(miniweb_path, tmp_path):
    proc = run_cli(
        "mine", "", "--corpus", str(miniweb_path), "--out", str(tmp_path / "r.json")
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


def test_dump_weblists(miniweb_path, tmp_path, monkeypatch):
    import ctms.expansion
    import ctms.pipeline
    from ctms import cli

    calls = []
    original = ctms.expansion.expand

    def counting_expand(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Both names are patched so that any second expansion pass is counted.
    monkeypatch.setattr(ctms.pipeline, "expand", counting_expand)
    monkeypatch.setattr(ctms.expansion, "expand", counting_expand)

    dumps = []
    for flags in ([], ["--no-disambiguation"]):
        out = tmp_path / "r.json"
        dump = tmp_path / "weblists.jsonl"
        calls.clear()
        code = cli.main(
            ["mine", "华盛顿", "--corpus", str(miniweb_path), "--out", str(out),
             "--dump-weblists", str(dump), *flags]
        )
        assert code == 0
        assert len(calls) == 1
        dumps.append(dump.read_bytes())
        if not flags:
            report = json.loads(out.read_text(encoding="utf-8"))

    lines = dumps[0].decode("utf-8").strip().splitlines()
    assert lines
    rows = [json.loads(line) for line in lines]
    assert {"id", "source_url", "terms", "context", "wrapper"} <= set(rows[0])
    assert len(rows) == report["weblist_count"]
    ids = {row["id"] for row in rows}
    assert len(ids) == len(rows)
    for concept in report["concepts"]:
        assert set(concept["list_ids"]) <= ids
    assert dumps[1] == dumps[0]


# sha256 of the miniweb outputs. The report scores come from a numpy/BLAS
# matrix-vector product, so these values assume the numpy/OpenBLAS build
# they were computed with (numpy 2.4, Python 3.11).
MINIWEB_DIGESTS = {
    "report": (
        "report.json",
        [],
        "f9261b943a35f6832a78df3f694ca97d722d9f3a2df3f7bdf0b2957cdd714c97",
    ),
    "no-disambiguation": (
        "report.json",
        ["--no-disambiguation"],
        "1309160f2eddeb39866a68608fbaf4e3efd6d9467961eaa76df538cac93f215c",
    ),
    "dump-weblists": (
        "weblists.jsonl",
        ["--dump-weblists", "weblists.jsonl"],
        "9856b4a427f3f31c8123d8cf348f347793d95ce598e7563a23acc61fc6d5338b",
    ),
}


@pytest.mark.parametrize("case", list(MINIWEB_DIGESTS))
def test_miniweb_outputs_keep_their_digests(case, miniweb_path, tmp_path, monkeypatch):
    from ctms import cli

    hashed, flags, digest = MINIWEB_DIGESTS[case]
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["mine", "华盛顿", "--corpus", str(miniweb_path), "--out", "report.json", *flags]
    )
    assert code == 0
    assert hashlib.sha256((tmp_path / hashed).read_bytes()).hexdigest() == digest


def test_mining_never_runs_extraction(miniweb_path, tmp_path, monkeypatch):
    # Learning hands over each wrapper's spans; extraction is only the
    # tests' independent check on them.
    import ctms.expansion
    import ctms.wrappers
    from ctms import cli

    def refuse(*args, **kwargs):
        raise AssertionError("extract_spans called while mining")

    monkeypatch.setattr(ctms.expansion, "extract_spans", refuse)
    monkeypatch.setattr(ctms.wrappers, "extract_spans", refuse)
    monkeypatch.chdir(tmp_path)
    hashed, flags, digest = MINIWEB_DIGESTS["report"]
    code = cli.main(["mine", "华盛顿", "--corpus", str(miniweb_path), "--out", hashed, *flags])
    assert code == 0
    assert hashlib.sha256((tmp_path / hashed).read_bytes()).hexdigest() == digest


def test_eval_prints_metric_table(mined_report, miniweb_path):
    proc = run_cli(
        "eval", "--report", str(mined_report),
        "--gold", str(miniweb_path / "gold.json"),
    )
    assert proc.returncode == 0, proc.stderr
    for label in ("P@5", "P@10", "AP", "AAP", "IAAP", "Purity"):
        assert label in proc.stdout


def test_eval_custom_cutoffs(mined_report, miniweb_path):
    proc = run_cli(
        "eval", "--report", str(mined_report),
        "--gold", str(miniweb_path / "gold.json"), "--at", "10",
    )
    assert proc.returncode == 0
    assert "P@10" in proc.stdout and "P@5" not in proc.stdout


def test_eval_seed_mismatch_exits_two(mined_report, tmp_path):
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps({"seed": "别的", "concepts": [{"name": "g", "terms": ["x"]}]}),
        encoding="utf-8",
    )
    proc = run_cli("eval", "--report", str(mined_report), "--gold", str(gold))
    assert proc.returncode == 2


def test_eval_malformed_gold_exits_two(mined_report, tmp_path):
    gold = tmp_path / "gold.json"
    gold.write_text("{broken", encoding="utf-8")
    proc = run_cli("eval", "--report", str(mined_report), "--gold", str(gold))
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize(
    "payload", ["[]", '"report"', '{"concepts": [1]}'], ids=["list", "string", "bad-concept"]
)
def test_eval_report_of_wrong_shape_exits_two(payload, miniweb_path, tmp_path):
    report = tmp_path / "r.json"
    report.write_text(payload, encoding="utf-8")
    proc = run_cli(
        "eval", "--report", str(report), "--gold", str(miniweb_path / "gold.json")
    )
    assert proc.returncode == 2
    assert "error: bad report file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_gold_terms_string_exits_two(mined_report, tmp_path):
    gold = tmp_path / "gold.json"
    gold.write_text(
        json.dumps(
            {"seed": "华盛顿", "concepts": [{"name": "g", "terms": "林肯"}]},
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    proc = run_cli("eval", "--report", str(mined_report), "--gold", str(gold))
    assert proc.returncode == 2
    assert "error: bad gold file" in proc.stderr
    assert "list of strings" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_gold_not_utf8_exits_two(mined_report, tmp_path):
    gold = tmp_path / "gold.json"
    gold.write_bytes(json.dumps({"seed": "华盛顿"}, ensure_ascii=False).encode("gb18030"))
    proc = run_cli("eval", "--report", str(mined_report), "--gold", str(gold))
    assert proc.returncode == 2
    assert "error: bad gold file" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("entry", [[1, 0.5], ["林肯", "0.5"]], ids=["int-term", "string-score"])
def test_eval_misshaped_ranked_term_exits_two(entry, mined_report, miniweb_path, tmp_path):
    data = json.loads(mined_report.read_text(encoding="utf-8"))
    data["concepts"][0]["ranked_terms"][0] = entry
    report = tmp_path / "r.json"
    report.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    proc = run_cli(
        "eval", "--report", str(report), "--gold", str(miniweb_path / "gold.json")
    )
    assert proc.returncode == 2
    assert "error: bad report file" in proc.stderr
    assert "ranked term" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fixture_validate_ok(miniweb_path):
    proc = run_cli("fixture-validate", "--corpus", str(miniweb_path))
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_fixture_validate_detects_dangling(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "queries": [
                    {"query": "q", "hits": [
                        {"rank": 1, "title": "t", "snippet": "s", "url": "ghost"}
                    ]}
                ],
                "pages": [],
            }
        ),
        encoding="utf-8",
    )
    proc = run_cli("fixture-validate", "--corpus", str(tmp_path))
    assert proc.returncode == 2
    assert "ghost" in proc.stderr


# name -> (manifest.json bytes, p.html bytes)
BAD_FIXTURES = {
    "manifest-list": (b"[]", b"<p>x</p>"),
    "pages-int": (b'{"pages": 5}', b"<p>x</p>"),
    "file-int": (b'{"pages": [{"url": "u", "file": 7}]}', b"<p>x</p>"),
    "page-not-utf8": (b'{"pages": [{"url": "u", "file": "p.html"}]}', b"<p>\xff\xfe</p>"),
    "manifest-not-utf8": (b'{"pages": ["\xff"]}', b"<p>x</p>"),
    "query-list": (b'{"queries": [{"query": [], "hits": []}]}', b"<p>x</p>"),
}


@pytest.mark.parametrize("case", list(BAD_FIXTURES))
def test_malformed_fixture_exits_two(case, tmp_path):
    manifest, page = BAD_FIXTURES[case]
    (tmp_path / "manifest.json").write_bytes(manifest)
    (tmp_path / "p.html").write_bytes(page)
    for args in (
        ("fixture-validate", "--corpus", str(tmp_path)),
        ("mine", "华盛顿", "--corpus", str(tmp_path), "--out", str(tmp_path / "r.json")),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("where", ["relative", "absolute"])
def test_page_file_outside_bundle_exits_two(where, tmp_path):
    outside = tmp_path / "outside.html"
    outside.write_text("<p>x</p>", encoding="utf-8")
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    rel = "../outside.html" if where == "relative" else str(outside)
    (bundle / "manifest.json").write_text(
        json.dumps({"pages": [{"url": "u", "file": rel}]}), encoding="utf-8"
    )
    proc = run_cli("fixture-validate", "--corpus", str(bundle))
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "outside the bundle" in lines[0]


@pytest.mark.parametrize("flag", ["--out", "--dump-weblists", "eval --out"])
def test_unwritable_output_exits_two(flag, mined_report, miniweb_path, tmp_path):
    missing = str(tmp_path / "missing_dir" / "out.json")
    if flag == "eval --out":
        args = ["eval", "--report", str(mined_report),
                "--gold", str(miniweb_path / "gold.json"), "--out", missing]
    else:
        args = ["mine", "华盛顿", "--corpus", str(miniweb_path),
                "--out", str(tmp_path / "r.json"), flag, missing]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
