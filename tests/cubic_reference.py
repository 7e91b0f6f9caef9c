"""The cubic engine's per-block loop as it was before stretches, kept as
the reference that the stretched `CubicEngine.block` is checked against,
draw for draw: one block per call, every block from the cache or from
`cubic_plan`, and every S1 block classified by `classify_scenario` and drawn
by `independent_steps`."""

from __future__ import annotations

from avoidkit.couplers import CubicEngine, Trajectory, cubic_plan
from avoidkit.structure import radius2_set


def reference_block(eng: CubicEngine, ticks: list) -> None:
    """One block from the state `ticks[-1]`, appended to `ticks`."""
    key = ticks[-1]
    cache = eng.cache
    plan = cache.get(key)
    if plan is None:
        g, (a, b) = eng.g, key
        plan = cubic_plan(g, a, b, cache.table(g, b, radius2_set))
        if plan[0].tag != "S1":
            cache.put(key, plan)
    scenario, law, arg = plan
    counts = eng.scenario_counts
    counts[scenario.tag] = counts.get(scenario.tag, 0) + 1
    law(eng.rng, arg, ticks)


def reference_run(eng: CubicEngine, ticks: int) -> Trajectory:
    """`Engine.run` with one `reference_block` per pass, each block's mark
    appended by the loop."""
    positions = [eng.state]
    marks = [0]
    t = 0
    while t < ticks:
        reference_block(eng, positions)
        t = len(positions) - 1
        marks.append(t)
    eng.blocks += len(marks) - 1
    eng.state = positions[-1]
    return Trajectory(eng.name, eng.seed, eng.g.digest(), positions, marks)
