"""The two-walker engines' per-block loops as they were before the one
stretch loop, kept as the reference that `Engine.stretch` is checked
against, draw for draw: one block per call, each block (each regular
round) looking its state up once and counting that lookup here, every
cubic S1 block classified by `classify_scenario` and drawn by
`independent_steps`, and every regular round checking its invariant
before its lookup."""

from __future__ import annotations

from avoidkit.couplers import Engine, Trajectory, cubic_plan, regular_round, squarefree_sampler, squarefree_step
from avoidkit.matching import BoundedCache, build_regular_transport, build_squarefree_transport, regular_table
from avoidkit.structure import radius2_set


def lookup(cache: BoundedCache, key):
    """The value stored under key, or None, counted as a hit or a miss."""
    value = cache.find(key)
    if value is None:
        cache.misses += 1
    else:
        cache.hits += 1
    return value


def cubic_block(eng: Engine, ticks: list) -> None:
    """One cubic block from the state `ticks[-1]`, appended to `ticks`."""
    key = ticks[-1]
    cache = eng.cache
    plan = lookup(cache, key)
    if plan is None:
        g, (a, b) = eng.g, key
        plan = cubic_plan(g, a, b, cache.table(g, b, radius2_set))
        if plan[0].tag != "S1":
            cache.put(key, plan)
    scenario, law, arg = plan
    counts = eng.scenario_counts
    counts[scenario.tag] = counts.get(scenario.tag, 0) + 1
    law(eng.rng, arg, ticks)


def squarefree_block(eng: Engine, ticks: list) -> None:
    """One square-free step from the state `ticks[-1]`."""
    key = ticks[-1]
    sampler = lookup(eng.cache, key)
    if sampler is None:
        sampler = squarefree_sampler(build_squarefree_transport(eng.g, *key))
        eng.cache.put(key, sampler)
    squarefree_step(eng.rng, sampler, ticks)


def sample_round(eng: Engine, a: int, b: int, e: int) -> tuple[int, int, int, int]:
    """One transport draw for the triple (mover=a, other=b, excluded=e),
    after checking its invariant: (mover_step1, mover_step2, other_step,
    next_excluded)."""
    if b == a:
        raise AssertionError("round invariant violated: other == mover")
    if b != e and b in eng.g.adjacency[a]:
        raise AssertionError("round invariant violated: adjacent other != excluded")
    eng.reference_checks = getattr(eng, "reference_checks", 0) + 1
    key = (a, b, e)
    cache = eng.cache
    tm = lookup(cache, key)
    if tm is None:
        g = eng.g
        tm = build_regular_transport(g, a, b, e, cache.table(g, b, regular_table))
        cache.put(key, tm)
    return regular_round(tm, eng.rng)


def regular_block(eng: Engine, ticks: list) -> None:
    """Alice moves twice while Bob steps once, then Bob moves twice while
    Alice steps once; the excluded vertex, the key's last entry, carries
    over between rounds."""
    a, b = ticks[-1]
    a1, a2, b1, e2 = sample_round(eng, a, b, eng.key[2])
    x1, x2, y, e3 = sample_round(eng, b1, a2, e2)
    ticks.extend(((a1, b1), (a2, x1), (y, x2)))
    eng.key = (y, x2, e3)


BLOCKS = {"cubic": cubic_block, "squarefree": squarefree_block, "regular": regular_block}


def reference_run(eng: Engine, ticks: int) -> Trajectory:
    """`Engine.run` with one reference block per pass, each block's mark
    appended by the loop when the engine writes marks."""
    block = BLOCKS[eng.name]
    positions = [eng.state]
    marks = [0] if eng.marks_blocks else []
    drawn = 0
    while len(positions) <= ticks:
        block(eng, positions)
        drawn += 1
        if eng.marks_blocks:
            marks.append(len(positions) - 1)
    eng.blocks += drawn
    eng.state = positions[-1]
    if eng.name != "regular":
        eng.key = eng.state
    return Trajectory(eng.name, eng.seed, eng.g.digest(), positions, marks)
