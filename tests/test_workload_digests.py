"""The generated benchmark workloads mine to their committed reports.

perfbench checks every report it times against `perfbench/digests.json`.
This checks the same digests here, at the workload seed each was
committed for, so a change to what mining returns on dense pages, many
lists or deep snippets fails the unit tests and not only a benchmark run.
The digests file is only read.
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


@pytest.mark.parametrize("name", ["dense_pages", "many_lists", "deep_snippets"])
def test_generated_workload_report_keeps_its_digest(name, tmp_path):
    workload, committed = WORKLOADS[name], DIGESTS[name]
    bundle = materialize(workload, committed["seed"], tmp_path)
    cfg = PipelineConfig.from_dict(dict(workload.config))
    report = mine(workload.term, cfg, FixtureProvider(load_fixture(bundle)))
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == committed["sha256"]
