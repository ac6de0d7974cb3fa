"""The benchmark's own checks: deterministic inputs and transparent shims.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import ctms.dom
import ctms.expansion
import ctms.pipeline
from ctms.corpus import FixtureProvider, load_fixture
from ctms.pipeline import PipelineConfig, mine
from tracing import Tracer
from worker import percentile_with_tail
from workloads import WORKLOADS, materialize

GENERATED = [name for name, w in WORKLOADS.items() if w.build is not None]


def _bundle_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_same_bundle_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    first = _bundle_bytes(materialize(workload, 7, tmp_path / "a"))
    again = _bundle_bytes(materialize(workload, 7, tmp_path / "b"))
    other = _bundle_bytes(materialize(workload, 8, tmp_path / "c"))
    assert first == again
    assert first != other
    assert {"manifest.json", "gold.json"} <= set(first)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shims_are_transparent(name, tmp_path):
    workload = WORKLOADS[name]
    bundle = materialize(workload, 1, tmp_path)
    provider = FixtureProvider(load_fixture(bundle))
    cfg = PipelineConfig.from_dict(dict(workload.config))
    sites = [(ctms.pipeline, "expand"), (ctms.expansion, "learn_wrappers"),
             (ctms.dom.DomTree, "visible_text")]
    before = [getattr(owner, attr) for owner, attr in sites]

    untraced = mine(workload.term, cfg, provider).to_json()
    tracer = Tracer()
    traced, span_s = tracer.mine(mine, workload.term, cfg, provider)

    assert traced.to_json() == untraced
    assert [getattr(owner, attr) for owner, attr in sites] == before
    assert span_s > 0
    # Every span closed inside its parent, and the mine span is the root.
    spans = tracer.spans
    assert spans[0][0] == "mine" and spans[0][3] == -1
    for name_, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    counters = tracer.counters[-1]
    assert counters["corpus.search_calls"] > 0
    assert counters["expansion.pages"] == counters["corpus.fetch_calls"]


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert percentile_with_tail(samples) == (90, 90.0)
    pct, _ = percentile_with_tail(samples[:60])
    assert pct == 80


def test_benchmark_json_names_what_the_runs_print():
    from run import END_TO_END_UNITS, REPO
    from tracing import SELF_TIME_METRICS, layer_metrics

    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layer_names = set(layer_metrics(dict.fromkeys(SELF_TIME_METRICS.values(), 0.0), Counter()))
    assert {m["name"] for m in spec["per_layer"]} == layer_names | {"tracing.overhead_ratio"}
