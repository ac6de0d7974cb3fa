"""The benchmark's tracer reaches every call site it times.

perfbench's `Tracer` rebinds names on `ctms.pipeline` and `ctms.expansion`
and times whatever is called through them.  A name that mining stops
calling leaves its metric at 0 with no error, so one traced miniweb mine
must record a span for every timed name.  `extract_spans` is the one
exception: mining takes its spans from `learn_wrappers` and never
extracts.
"""

import sys
from pathlib import Path

from ctms.config import PipelineConfig
from ctms.pipeline import mine

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402


def test_traced_miniweb_mine_reaches_every_timed_site(miniweb_provider):
    tracer = Tracer()
    report, _ = tracer.mine(mine, "华盛顿", PipelineConfig(), miniweb_provider)

    recorded = {span[0] for span in tracer.spans}
    assert sorted(set(SELF_TIME_METRICS) - {"extract_spans"} - recorded) == []
    assert tracer.counters[-1]["wrappers.learned"] == report.diagnostics["wrappers_learned"]
    assert report.diagnostics["wrappers_learned"] == 52
