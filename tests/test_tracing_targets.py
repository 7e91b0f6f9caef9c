"""The benchmark's tracer patches avoidkit's module attributes by name, and
its pipeline reads engine counters through getattr with a default.

A refactor that drops or renames a patched name would only crash the traced
benchmark run, and one that renames a counter would make the benchmark read
0 without failing, so check both here.
"""

from __future__ import annotations

import importlib.util
from operator import attrgetter
from pathlib import Path

import pytest

from avoidkit.couplers import simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# The counters perfbench/pipeline.py reads off each engine, by engine.
COUNTERS = {
    "cubic": ("cache.hits", "cache.misses", "scenario_counts"),
    "squarefree": ("cache.hits", "cache.misses"),
    "regular": ("cache.hits", "cache.misses", "round_checks"),
}


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    assert "Xoshiro256" in tracing.couplers.__dict__


def test_pipeline_reads_the_counters_listed_here():
    pipeline = (PERFBENCH / "pipeline.py").read_text()
    for name in ("round_checks", "cache", "scenario_counts"):
        assert f'getattr(eng, "{name}"' in pipeline
    assert "cache.hits" in pipeline and "cache.misses" in pipeline


@pytest.mark.parametrize("engine,host", [("cubic", "pet"), ("squarefree", "hea"), ("regular", "circ9")])
def test_engines_set_the_counters_perfbench_reads(request, engine, host):
    _, eng = simulate(request.getfixturevalue(host), engine, 200, 1)
    for counter in COUNTERS[engine]:
        value = attrgetter(counter)(eng)
        assert (sum(value.values()) if isinstance(value, dict) else value) > 0, counter
