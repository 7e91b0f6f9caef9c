"""The benchmark's tracer patches avoidkit's module attributes by name, and
its pipeline reads engine counters through getattr with a default.

A refactor that drops or renames a patched name would only crash the traced
benchmark run, one that renames a counter would make the benchmark read 0
without failing, and one that stops calling a patched name (calling its
replacement directly) would zero that name's spans without failing, so
check all three here.
"""

from __future__ import annotations

import importlib.util
from operator import attrgetter
from pathlib import Path

import pytest

from avoidkit import couplers, experiment, generate, structure, verify
from avoidkit.couplers import simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# The counters perfbench/pipeline.py reads off each engine, by engine.
COUNTERS = {
    "cubic": ("cache.hits", "cache.misses", "scenario_counts"),
    "squarefree": ("cache.hits", "cache.misses"),
    "regular": ("cache.hits", "cache.misses", "round_checks"),
}


# The traced names that none of the benchmark's workloads calls, because
# the package calls something else in their place (`configuration_models`,
# `Multigraph.census`, `solve_transport` from inside `matching`): their
# spans and counters read 0.  A name that joins this set has silently
# dropped out of the traced benchmark.
NEVER_CALLED = {
    "avoidkit.couplers.solve_transport",
    "avoidkit.experiment.configuration_model",
    "avoidkit.generate.configuration_model",
    "Multigraph.is_simple",
    "Multigraph.loop_count",
    "Multigraph.multi_edge_count",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def target_name(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    missing = [target_name(owner, attr) for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
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


def test_the_workloads_call_every_traced_name_but_the_known_few(monkeypatch):
    """Small forms of the benchmark's workloads, called as its pipeline
    calls them: the four canonical hosts, a random cubic and a random
    5-regular host, each simulated, written, read back and put through both
    checks of `verify`, then one-worker prevalence sweeps at d=3 and d=4,
    with and without `simple_connected`."""
    targets = load_tracing().TARGETS
    calls = dict.fromkeys((target_name(owner, attr) for owner, attr, _ in targets), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, attr, _ in targets:
        monkeypatch.setattr(owner, attr, counting(target_name(owner, attr), owner.__dict__[attr]))
    monkeypatch.setenv("AVOIDKIT_THREADS", "1")
    hosts = [
        (generate.petersen(), "cubic", 2),
        (generate.heawood(), "squarefree", 2),
        (generate.circulant(9, [1, 2]), "regular", 2),
        (generate.cycle(10), "cycle", 5),
        (generate.random_regular_simple(40, 3, 0, connected_required=True)[0], "cubic", 2),
        (generate.random_regular_simple(24, 5, 0, connected_required=True)[0], "regular", 2),
    ]
    for g, engine, walkers in hosts:
        structure.admissibility_verdict(g)
        traj, _ = couplers.simulate(g, engine, 200, 1, walkers=walkers)
        parsed = couplers.parse_trajectory(traj.to_text())
        verify.check_avoidance(g, parsed)
        verify.chi_square_faithfulness(g, parsed)
    for d, n in ((3, 16), (4, 10)):
        for simple_connected in (False, True):
            experiment.prevalence_experiment(d, [n], 2, 5, simple_connected=simple_connected)
    assert {name for name, count in calls.items() if not count} == NEVER_CALLED
