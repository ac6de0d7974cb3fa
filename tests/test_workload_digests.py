"""The generated benchmark workloads mine to their committed reports.

perfbench checks every report it times against `perfbench/digests.json`.
This checks the same digests here, at the workload seed each was
committed for, so a change to what mining returns on dense pages, many
lists or deep snippets fails the unit tests and not only a benchmark run.
The digests file is only read.  Two more runs, at a non-default
`sim_lambda`, pin reports that the default runs cannot tell apart.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from ctms.config import PipelineConfig
from ctms.corpus import FixtureProvider, load_fixture
from ctms.pipeline import mine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import WORKLOADS, materialize  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def mined(name, seed, bundle_dir, **overrides):
    """The report of mining workload `name` at workload seed `seed`."""
    workload = WORKLOADS[name]
    bundle = materialize(workload, seed, bundle_dir)
    cfg = PipelineConfig.from_dict({**workload.config, **overrides})
    return mine(workload.term, cfg, FixtureProvider(load_fixture(bundle)))


def sha256(report):
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


def body(report):
    """The report as JSON data, without its echo of the config."""
    data = json.loads(report.to_json())
    del data["config"]
    return data


@pytest.mark.parametrize("name", ["dense_pages", "many_lists", "deep_snippets"])
def test_generated_workload_report_keeps_its_digest(name, tmp_path):
    committed = DIGESTS[name]
    assert sha256(mined(name, committed["seed"], tmp_path)) == committed["sha256"]


# The miniweb report is the same under every sim_lambda, so these runs
# are what pins the similarity blend, context vectors included: each
# report differs from the workload's default run beyond the config echo.
SIM_LAMBDA_DIGESTS = [
    ("many_lists", 0.0, "37c9766f357dcabd0ed8b5bedae9cfa5b75e2bbbdc48623aa77d2a69c29c37d7"),
    ("deep_snippets", 0.8, "573e5455a9d865da9ec5f275f3f5e10d8a2aa9b3b5fd71e0ec4e4df469bce9f9"),
]


@pytest.mark.parametrize("name, lam, digest", SIM_LAMBDA_DIGESTS)
def test_sim_lambda_changes_a_generated_report(name, lam, digest, tmp_path):
    report = mined(name, 1, tmp_path / "lam", sim_lambda=lam)
    assert sha256(report) == digest
    assert body(report) != body(mined(name, 1, tmp_path / "default"))
