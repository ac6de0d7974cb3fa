"""The benchmark's tracer reaches every call site it times.

perfbench's `Tracer` rebinds names on `ctms.pipeline` and `ctms.expansion`
and times whatever is called through them.  A name that mining stops
calling leaves its metric at 0 with no error, so one traced miniweb mine
must record a span for every timed name.  `extract_spans` is the one
exception: mining takes its spans from `learn_wrappers` and never
extracts.  The mine runs on a freshly loaded provider: mining keeps each
page object's parse, so `parse_html` is called, and timed, only by the
first mine that fetches a page, never by a later one.
"""

import sys
from pathlib import Path

from ctms.config import PipelineConfig
from ctms.pipeline import mine

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402


def test_traced_miniweb_mine_reaches_every_timed_site(fresh_miniweb_provider):
    tracer = Tracer()
    report, _ = tracer.mine(mine, "华盛顿", PipelineConfig(), fresh_miniweb_provider)

    recorded = {span[0] for span in tracer.spans}
    assert sorted(set(SELF_TIME_METRICS) - {"extract_spans"} - recorded) == []
    assert tracer.counters[-1]["wrappers.learned"] == report.diagnostics["wrappers_learned"]
    assert report.diagnostics["wrappers_learned"] == 52

    tracer.mine(mine, "华盛顿", PipelineConfig(), fresh_miniweb_provider)
    second = [name for name, _, _, _, mine_no in tracer.spans if mine_no == 1]
    assert "learn_wrappers" in second and "parse_html" not in second
    assert tracer.counters[-1]["dom.chars"] == 0
