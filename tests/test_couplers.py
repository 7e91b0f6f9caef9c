from __future__ import annotations

import functools
import gc
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest

from avoidkit.couplers import (
    CubicEngine,
    CycleEngine,
    RegularEngine,
    SquarefreeEngine,
    Trajectory,
    cubic_plan,
    default_b0,
    k22_excursion,
    one_step_matching,
    parse_trajectory,
    s3b_rows,
    simulate,
    squarefree_sampler,
    squarefree_step,
)
from avoidkit.generate import complete, cycle, petersen, random_regular_simple
from avoidkit.graphs import graph_from_edges
from avoidkit.matching import build_regular_transport, build_squarefree_transport, regular_table
from avoidkit.rng import FAST_ACCEPT, MASK64, Xoshiro256
from avoidkit.structure import HypothesisError, admissibility_verdict, classify_scenario, radius2_set
from avoidkit.verify import check_avoidance
from conftest import distance_capped, make_s6_host, per_walker_k22_excursion
from cubic_reference import reference_run


def test_package_exports_resolve():
    import avoidkit

    assert all(hasattr(avoidkit, name) for name in avoidkit.__all__)
    assert len(set(avoidkit.__all__)) == len(avoidkit.__all__)


def test_trajectory_text_round_trip(pet):
    traj, _ = simulate(pet, "cubic", 50, 3)
    back = parse_trajectory(traj.to_text())
    assert back == traj


def test_trajectory_parse_errors():
    with pytest.raises(ValueError, match="header incomplete"):
        parse_trajectory("0 1 2\n")
    with pytest.raises(ValueError, match="non-contiguous"):
        parse_trajectory("# graph-digest x\n# seed 0\n# engine cubic\n0 1 2\n2 3 4\n")
    with pytest.raises(ValueError, match="bare '#'"):
        parse_trajectory("# graph-digest x\n#\n# seed 0\n# engine cubic\n0 1 2\n")
    with pytest.raises(ValueError, match="without a value"):
        parse_trajectory("# graph-digest x\n# seed\n# engine cubic\n0 1 2\n")
    with pytest.raises(ValueError, match="tick 1 has 1 walkers, tick 0 has 2"):
        parse_trajectory("# graph-digest x\n# seed 0\n# engine cubic\n0 1 2\n1 3\n")


HEADER = "# graph-digest x\n# seed 0\n# engine cubic\n"


@pytest.mark.parametrize("text", [
    "  # graph-digest x \n# seed 0\t\n\t# engine cubic\n  0 1 2  \n1 3 4\n# block 1\n",
    "# graph-digest x\n# seed 0\n# engine cubic\n0\t1\t2\n1 \t3\t 4\n# block\t1\n",
    "\n# graph-digest x\n\n  \n# seed 0\n\t\n# engine cubic\n0 1 2\n\n1 3 4\n# block 1\n\n",
    "# graph-digest x\r\n# seed 0\r\n# engine cubic\r\n0 1 2\r\n1 3 4\r\n# block 1\r\n",
    "#graph-digest x\n#seed 0\n#engine cubic\n0 1 2\n1 3 4\n#block 1\n",
    "# graph-digest x\n# note written by hand\n# seed 0 extra\n# engine cubic\n#\tcomment\n0 1 2\n1 3 4\n"
    "# block 1\n# unknown-key\n",
], ids=["edge-whitespace", "tabs", "blank-lines", "crlf", "no-space-after-hash", "unknown-keys"])
def test_trajectory_parse_tolerance(text):
    assert parse_trajectory(text) == Trajectory("cubic", 0, "x", [(1, 2), (3, 4)], [1])


def test_trajectory_text_writes_each_mark_inside_the_ticks_once():
    ticks = [(0, 2), (1, 3), (4, 2)]
    assert Trajectory("cubic", 7, "x", ticks, [2, 2, 0]).to_text() == (
        "# graph-digest x\n# seed 7\n# engine cubic\n0 0 2\n# block 0\n1 1 3\n2 4 2\n# block 2\n")
    # a mark outside the ticks is refused, not dropped
    for marks in ([2, 2, -1, 3, 0], [-1], [3]):
        with pytest.raises(ValueError, match=r"outside ticks 0\.\.2"):
            Trajectory("cubic", 7, "x", ticks, marks).to_text()
    with pytest.raises(ValueError, match="different walker counts"):
        Trajectory("cycle", 7, "x", [(0, 2), (1, 3, 5)]).to_text()


def test_trajectory_round_trip_five_cycle_walkers():
    traj, _ = simulate(cycle(10), "cycle", 300, 4, walkers=5)
    assert len(traj.positions[0]) == 5 and not traj.block_marks
    assert parse_trajectory(traj.to_text()) == traj


@pytest.mark.parametrize("body,message", [
    ("0 1 2\n", "trajectory header incomplete"),
    (HEADER + "0 1 2\n2 3 4\n", "non-contiguous tick 2"),
    (HEADER + "#\n0 1 2\n", "bare '#' line"),
    ("# graph-digest x\n# seed\n# engine cubic\n0 1 2\n", "'# seed' line without a value"),
    (HEADER + "0 1 2\n# block\n", "'# block' line without a value"),
    (HEADER + "0 1 2\n1\n", "tick 1 has no walker"),
    (HEADER + "0\n", "tick 0 has no walker"),
    (HEADER + "0 1 2\n1 3\n", "tick 1 has 1 walkers, tick 0 has 2"),
    (HEADER + "0 1 2\n1 3 4\n2 5 6 7\n", "tick 2 has 3 walkers, tick 0 has 2"),
    (HEADER + "0 1 x\n", "invalid literal for int() with base 10: 'x'"),
    (HEADER + "0 1 2\n# block y\n", "invalid literal for int() with base 10: 'y'"),
    (HEADER, "trajectory has no ticks"),
    ("# graph-digest x\n# seed 0\n# engine bogus\n0 1 2\n", "unknown engine 'bogus'"),
    (HEADER + "0 1 2 3\n", "engine 'cubic' runs exactly 2 walkers, got 3"),
    (HEADER + "0 1 2\n# block 1\n", "block marks 1..1 outside ticks 0..0"),
    (HEADER + "0 1 2\n# block -1\n", "block marks -1..-1 outside ticks 0..0"),
    # the first error in file order wins
    (HEADER + "0 1 2\n2 3 4\n#\n", "non-contiguous tick 2"),
    (HEADER + "#\n0 1 2\n2 3 4\n", "bare '#' line"),
    (HEADER + "0 1 2\n1 3\n3 x\n", "tick 1 has 1 walkers, tick 0 has 2"),
    (HEADER + "0 1 2\n5 x 4\n", "invalid literal for int() with base 10: 'x'"),
    ("0 1 2\n2 3 4\n", "non-contiguous tick 2"),
    (HEADER + "0 1 2\n1\n2 3\n", "tick 1 has no walker"),
], ids=["no-header", "gap", "bare-hash", "no-seed", "no-mark", "no-walker", "empty-first", "narrower",
        "wider", "bad-int", "bad-mark", "no-ticks", "unknown-engine", "three-walkers", "mark-past-end",
        "mark-below-0", "gap-before-bare", "bare-before-gap", "width-before-int", "int-before-gap",
        "gap-before-header", "no-walker-before-width"])
def test_trajectory_parse_error_messages(body, message):
    with pytest.raises(ValueError) as err:
        parse_trajectory(body)
    assert str(err.value) == message


def test_one_step_matching_is_bijection(pet, k33):
    for g in (pet, k33):
        for a in range(g.n):
            for b in range(g.n):
                if a == b or g.has_edge(a, b):
                    continue
                if classify_scenario(g, a, b).tag not in ("S2", "S3a", "S4", "S5"):
                    continue
                sigma = [step for (step,) in one_step_matching(g, a, b)]
                firsts = [x for x, _ in sigma]
                seconds = [y for _, y in sigma]
                assert sorted(firsts) == sorted(g.adjacency[a])
                assert sorted(seconds) == sorted(g.adjacency[b])
                for ap, bp in sigma:
                    assert bp != ap and not g.has_edge(ap, bp)


def test_one_step_matching_is_sum_checked(pet, monkeypatch):
    """The cubic one-step matching is solved through `solved_cells`, which
    sum-checks its cells like every other transport build."""
    import avoidkit.matching as matching

    calls = []
    check = matching.check_cells
    monkeypatch.setattr(matching, "check_cells", lambda *args: calls.append(args[2:]) or check(*args))
    scenario, _, rows = cubic_plan(pet, 0, 2)
    assert scenario.tag == "S4" and len(rows) == 3
    assert calls == [(3, 3, 1, 1)]  # nr, nc, row_sum, col_sum


def test_s3b_rows_structure(s3b_host):
    rows = s3b_rows(s3b_host, 0, 1)
    assert len(rows) == 9
    # each walker's two-step pairs are exactly the 9 SRW paths of length 2
    alice_pairs = {pair for pair, _ in rows}
    srw_pairs = {(x, y) for x in s3b_host.adjacency[0] for y in s3b_host.adjacency[x]}
    assert alice_pairs == srw_pairs
    bob_pairs = {pair for _, pair in rows}
    srw_pairs_b = {(x, y) for x in s3b_host.adjacency[1] for y in s3b_host.adjacency[x]}
    assert bob_pairs == srw_pairs_b
    with pytest.raises(ValueError):
        s3b_rows(s3b_host, 0, 6)


def test_k22_excursion(s6_host):
    rng = Xoshiro256(1)
    lengths = Counter()
    for _ in range(3000):
        ticks = [(0, 1)]  # the block appends after the ticks already drawn
        k22_excursion(rng, (s6_host, 0, 1, (2, 3, 4, 5)), ticks)
        lengths[len(ticks) - 1] += 1
        # block-level avoidance within the excursion
        A, B = [ap for ap, _ in ticks], [bp for _, bp in ticks]
        for s in range(len(ticks) - 1):
            assert B[s] != A[s] and B[s] != A[s + 1]
        assert distance_capped(s6_host, A[-1], B[-1], 2) == 2
    assert lengths[1] > 0 and lengths[2] > 0 and lengths[3] > 0


@pytest.mark.parametrize("seed", [0, 1, 6, 2**40 + 3])
def test_k22_excursion_matches_per_walker_reference(s6_host, seed):
    """The same draws give the same ticks, appended after earlier blocks of
    either parity, and leave the generator in the same state."""
    rng, ref = Xoshiro256(seed), Xoshiro256(seed)
    ticks = []
    lengths = Counter()
    for _ in range(2000):
        start = len(ticks)
        k22_excursion(rng, (s6_host, 0, 1, (2, 3, 4, 5)), ticks)
        alice, bob = [], []
        per_walker_k22_excursion(s6_host, 0, 1, (2, 3, 4, 5), ref, alice, bob)
        assert ticks[start:] == list(zip(alice, bob)) and len(alice) == len(bob)
        lengths[len(alice)] += 1
    assert [rng.next_u64() for _ in range(4)] == [ref.next_u64() for _ in range(4)]
    assert {1, 2, 3, 4} <= set(lengths)


def test_cubic_block_dispatch(pet, s3b_host, s6_host, k33):
    assert cubic_plan(pet, 0, 2)[0].tag == "S4"
    assert cubic_plan(k33, 0, 1)[0].tag == "S2"
    rng = Xoshiro256(2)
    scenario, law, arg = cubic_plan(s3b_host, 0, 1)
    rows = s3b_rows(s3b_host, 0, 1)
    for _ in range(50):
        ticks = []
        law(rng, arg, ticks)
        assert scenario.tag == "S3b" and len(ticks) == 2
        assert tuple(zip(*ticks)) in rows
    scenario, law, arg = cubic_plan(s6_host, 0, 1)
    ticks = []
    law(rng, arg, ticks)
    assert scenario.tag == "S6" and law is k22_excursion and len(ticks) >= 1


def test_default_b0(pet):
    assert default_b0(pet, 0) == 2
    with pytest.raises(ValueError):
        default_b0(complete(4), 0)


def test_cubic_engine_runs_and_marks(pet):
    eng = CubicEngine(pet, 9)
    traj = eng.run(200)
    assert len(traj.positions) >= 201
    assert traj.block_marks[0] == 0
    assert traj.block_marks[-1] == len(traj.positions) - 1
    assert sum(eng.scenario_counts.values()) == len(traj.block_marks) - 1


def test_cubic_engine_cache_is_bounded():
    g, _ = random_regular_simple(250, 3, 0, connected_required=True)
    small, wide = CubicEngine(g, 5), CubicEngine(g, 5)
    small.cache.capacity = 8
    assert small.run(3000).to_text() == wide.run(3000).to_text()
    assert len(small.cache._data) <= 8 and small.cache.misses > wide.cache.misses
    # S1 pairs are never stored: a pair's entry is its (scenario, law, arg)
    # plan, and a vertex's is its radius-2 set
    plans = [v for k, v in wide.cache._data.items() if isinstance(k, tuple)]
    assert all(sc.tag != "S1" for sc, _, _ in plans)
    assert 0 < len(plans) < sum(wide.scenario_counts.values())
    tables = {k: v for k, v in wide.cache._data.items() if isinstance(k, int)}
    assert 0 < len(tables) <= g.n and all(v == radius2_set(g, k) for k, v in tables.items())


@pytest.mark.parametrize("engine", ["regular", "squarefree"])
def test_small_cache_draws_the_same_trajectory(engine, hea):
    """The cache decides only what is rebuilt, never what is drawn: an
    8-entry cache that evicts gives the default cache's trajectory, on
    rr5-n64 for regular and on Heawood, whose states outnumber 8, for
    squarefree."""
    if engine == "regular":
        g, make = random_regular_simple(64, 5, 0, connected_required=True)[0], RegularEngine
    else:
        g, make = hea, SquarefreeEngine
    small, wide = make(g, 5), make(g, 5)
    small.cache.capacity = 8
    assert small.run(3000).to_text() == wide.run(3000).to_text()
    # every miss stores its entry, so the extra misses are evicted entries drawn again
    assert len(small.cache._data) == 8 and small.cache.misses > wide.cache.misses
    assert small.cache.hits + small.cache.misses == wide.cache.hits + wide.cache.misses


def test_cubic_cache_stays_bounded_on_a_host_larger_than_it():
    """A cubic host with 5,000 vertices, more than the cache's 4,096
    entries, keeps no radius-2 set; a cache with room for every vertex
    keeps one per vertex visited as b, and both draw the same blocks."""
    g, _ = random_regular_simple(5_000, 3, 0, connected_required=True)
    eng, roomy = CubicEngine(g, 2), CubicEngine(g, 2)
    roomy.cache.capacity = 10**6
    assert eng.run(20_000).to_text() == roomy.run(20_000).to_text()
    assert 0 < len(eng.cache._data) <= 4_096 and not any(isinstance(k, int) for k in eng.cache._data)
    assert sum(isinstance(k, int) for k in roomy.cache._data) > 4_096


def test_regular_tables_share_a_full_cache():
    """On a 5-regular host with 1,000 vertices the 3,997 transports built
    and the per-vertex tables overflow the 4,096 entries together, and the
    tables are b's `regular_table`."""
    g, _ = random_regular_simple(1_000, 5, 0, connected_required=True)
    traj, eng = simulate(g, "regular", 6_000, 2)
    tables = {k: v for k, v in eng.cache._data.items() if isinstance(k, int)}
    assert len(eng.cache._data) == eng.cache.capacity == 4_096 > eng.cache.misses
    assert tables and all(v == regular_table(g, k) for k, v in tables.items())
    assert check_avoidance(g, traj) == []


@pytest.mark.parametrize("engine", ["cubic", "regular"])
def test_cache_counts_one_lookup_per_block_or_round(engine):
    """Table lookups are not counted: hits and misses add up to the cubic
    blocks and to the regular rounds."""
    d, n = (3, 250) if engine == "cubic" else (5, 64)
    g = random_regular_simple(n, d, 0, connected_required=True)[0]
    traj, eng = simulate(g, engine, 3_000, 4)
    lookups = len(traj.block_marks) - 1 if engine == "cubic" else eng.round_checks
    assert eng.cache.hits + eng.cache.misses == lookups
    assert any(isinstance(k, int) for k in eng.cache._data)


@functools.lru_cache(maxsize=None)
def stretch_host(name: str):
    """A cubic host with its S1 share: none (Petersen, and the S6 host,
    whose K_{2,2} excursions are blocks of several ticks), mixed (rr3-n250)
    or nearly all (rr3-n2000)."""
    if name.startswith("rr3-n"):
        return random_regular_simple(int(name[5:]), 3, 0, connected_required=True)[0]
    return {"petersen": petersen, "s6": make_s6_host}[name]()


def engine_record(eng: CubicEngine, traj: Trajectory) -> tuple:
    """What a run leaves: its ticks and marks, the engine's counters, the
    order of the cache's keys, and the generator's buffered draws and state."""
    rng = eng.rng
    return (traj.positions, traj.block_marks, eng.cache.hits, eng.cache.misses,
            list(eng.scenario_counts.items()), eng.blocks, list(eng.cache._data), eng.state,
            list(rng._buf), rng._next, rng._lanes, rng._warm)


class SpikyXoshiro(Xoshiro256):
    """The stream with every fifth draw replaced by one at or above
    FAST_ACCEPT: alternately 2^64 - 1, which a range of 3 rejects, and
    FAST_ACCEPT + 5, which every range accepts by the exact limit."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.made = 0

    def next_u64(self) -> int:
        self.made += 1
        if self.made % 5:
            return Xoshiro256.next_u64(self)
        return MASK64 if self.made % 10 else FAST_ACCEPT + 5


@pytest.mark.parametrize("host,s1_share", [("petersen", (0, 0)), ("rr3-n250", (0.5, 0.95)),
                                           ("s6", (0, 0)), ("rr3-n2000", (0.95, 1))])
@pytest.mark.parametrize("runs", [(3000,), (0, 1, 2, 57, 400)], ids=["one-run", "runs-ending-in-stretches"])
@pytest.mark.parametrize("draws", ["stream", "spiky"])
def test_cubic_stretch_matches_the_per_block_loop(host, s1_share, runs, draws):
    """A stretch draws what one block per call draws, pass for pass: the
    ticks, marks, hits, misses, scenario counts in first-seen order,
    blocks, cache key order and generator state agree after every run,
    also when runs end inside stretches and when draws at or above
    FAST_ACCEPT, rejected ones included, fall inside them."""
    g = stretch_host(host)
    eng, ref = CubicEngine(g, 9), CubicEngine(g, 9)
    if draws == "spiky":
        eng.rng, ref.rng = SpikyXoshiro(9), SpikyXoshiro(9)
    for ticks in runs:
        traj = eng.run(ticks)
        assert engine_record(eng, traj) == engine_record(ref, reference_run(ref, ticks))
        assert len(traj.positions) - 1 >= ticks
    low, high = s1_share
    assert low <= eng.scenario_counts.get("S1", 0) / eng.blocks <= high
    if draws == "spiky":
        assert eng.rng.made == ref.rng.made > 10


def test_cubic_stretch_matches_the_per_block_loop_without_tables():
    """An 8-entry cache keeps no radius-2 set on rr3-n250 and evicts plans
    as it goes; the stretch then tests `radius2(g, b)` as `classify_scenario`
    does, and still draws the per-block loop's run."""
    g = stretch_host("rr3-n250")
    eng, ref = CubicEngine(g, 4), CubicEngine(g, 4)
    eng.cache.capacity = ref.cache.capacity = 8
    for ticks in (2000, 333):
        traj = eng.run(ticks)
        assert engine_record(eng, traj) == engine_record(ref, reference_run(ref, ticks))
    assert not any(isinstance(k, int) for k in eng.cache._data)


def test_cubic_plan_is_the_same_with_a_supplied_table(pet, k33, s3b_host, s6_host):
    """`cubic_plan` resolves the same (scenario, law, arg) from b's cached
    radius-2 set as from the one it makes, on every pair at distance >= 2
    of five cubic hosts."""
    rr3 = random_regular_simple(250, 3, 0, connected_required=True)[0]
    for g in (pet, k33, s3b_host, s6_host, rr3):
        tables = [radius2_set(g, b) for b in range(g.n)]
        for a in range(g.n):
            for b in range(g.n):
                if a != b and not g.has_edge(a, b):
                    assert cubic_plan(g, a, b, tables[b]) == cubic_plan(g, a, b), (a, b)


def test_cubic_engine_rejects_adjacent_start(pet):
    with pytest.raises(ValueError):
        CubicEngine(pet, 0, a0=0, b0=1)


def test_squarefree_engine(pet, ag23):
    traj, eng = simulate(pet, "squarefree", 300, 4)
    assert len(traj.positions) == 301
    assert eng.cache.hit_rate > 0.5
    b = next(v for v in range(9, 21) if not ag23.has_edge(0, v))
    traj2, _ = simulate(ag23, "squarefree", 300, 4, a0=0, b0=b)
    assert len(traj2.positions) == 301
    assert check_avoidance(ag23, traj2) == []


def test_regular_engine_phase_invariants(circ9):
    eng = RegularEngine(circ9, 5)
    traj = eng.run(300)
    assert len(traj.positions) == 301
    assert eng.round_checks == 200  # two rounds per three ticks


def test_regular_engine_start_validation(circ9):
    with pytest.raises(ValueError):
        RegularEngine(circ9, 0, a0=0, b0=0)
    # an adjacent b0 is accepted only when it coincides with the first exclusion
    e1 = Xoshiro256(7).choice(circ9.adjacency[0])
    eng = RegularEngine(circ9, 7, a0=0, b0=e1)
    eng.run(30)


def ref_sampler(tm):
    """The nonzero-cell expansion: cells with positive entries in row-major
    order, their cumulative weights, and the total."""
    cells, weights = [], []
    for mp, row in zip(tm.row_labels, tm.entries):
        for op, x in zip(tm.col_labels, row):
            if x:
                cells.append((mp, op))
                weights.append(x)
    return cells, list(accumulate(weights)), tm.total


def test_regular_cache_entries_stay_small():
    """The benchmark's rr5-n64 run misses the cache on most rounds; each
    entry holds the transport's cells and index space, not its labels, so
    the engine and its cache take at most 1 KiB per entry; with a label
    tuple per row and column an entry takes about 3.6 KiB."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    tracemalloc.start()
    try:
        _, eng = simulate(rr5, "regular", 2_900, 0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        entries = eng.cache.misses  # each miss stores one entry; none is evicted below capacity
        assert 1_500 < entries < eng.cache.capacity
        del eng
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed <= 1024 * entries, freed / entries


class FixedDraw:
    """Stands in for the engine's generator: randrange returns a set value."""

    def __init__(self, total: int):
        self.total = total
        self.r = 0

    def randrange(self, n: int) -> int:
        assert n == self.total
        return self.r


def valid_regular_triples(g):
    return [(a, b, e) for a in range(g.n) for e in g.adjacency[a] for b in range(g.n)
            if b != a and (not g.has_edge(a, b) or b == e)]


def test_regular_round_draw_matches_cell_expansion(circ9):
    """For every r, the flat-cumulative draw picks the cell the nonzero-cell
    expansion picks: on every valid triple of C9(1,2) and 50 of rr5-n64."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    c9_triples = valid_regular_triples(circ9)
    rr5_triples = random.Random(0).sample(valid_regular_triples(rr5), 50)
    assert len(c9_triples) == 180
    for g, triples in ((circ9, c9_triples), (rr5, rr5_triples)):
        eng = RegularEngine(g, 0)
        for a, b, e in triples:
            cells, cum, total = ref_sampler(build_regular_transport(g, a, b, e))
            eng.rng = FixedDraw(total)
            for r in range(total):
                eng.rng.r = r
                (ap, app), (bp, ep) = cells[bisect_right(cum, r)]
                assert eng.sample_round(a, b, e) == (ap, app, bp, ep)


class Scripted:
    """Stands in for the engine's generator: randrange returns set values in turn."""

    def __init__(self, *draws: int):
        self.draws = list(draws)

    def randrange(self, n: int) -> int:
        r = self.draws.pop(0)
        assert 0 <= r < n
        return r


def test_squarefree_step_matches_per_row_draw(pet, hea, ag23):
    """For every row i and r, the flat-cumulative step takes the cell that
    bisecting row i's own cumulative counts at r takes, with the roles
    swapped back when the transport swapped them: on every pair of
    Petersen, Heawood and AG(2,3)."""
    cases = swapped = 0
    for g in (pet, hea, ag23):
        for a in range(g.n):
            for b in range(g.n):
                if b == a or g.has_edge(a, b):
                    continue
                tm = build_squarefree_transport(g, a, b)
                swapped += tm.swapped
                for i, row in enumerate(tm.entries):
                    cum = list(accumulate(row))
                    for r in range(tm.row_sum):
                        u, v = tm.row_labels[i], tm.col_labels[bisect_right(cum, r)]
                        want = (v, u) if tm.swapped else (u, v)
                        assert squarefree_step(squarefree_sampler(tm), Scripted(i, r)) == want
                        cases += 1
    assert (cases, swapped) == (5868, 72)


def test_cycle_engine_preserves_gaps():
    eng = CycleEngine(cycle(10), 3, 5)
    start = eng.state
    for pos in eng.run(500).positions[1:]:
        gaps = {(pos[(i + 1) % 5] - pos[i]) % 10 for i in range(5)}
        assert gaps == {2}
    assert len(set(start)) == 5


def test_cycle_engine_validates():
    with pytest.raises(ValueError):
        CycleEngine(cycle(10), 0, 6)


def test_cycle_engine_walks_the_graph_it_is_given():
    """A relabelled cycle is walked as given: its own graph, its own order."""
    order = (0, 3, 6, 1, 4, 7, 2, 5)
    g = graph_from_edges(8, zip(order, order[1:] + order[:1]))
    eng = CycleEngine(g, 4, 3)
    assert eng.g is g and eng.order == order and eng.state == (0, 6, 4)
    traj = eng.run(300)
    assert traj.graph_digest == g.digest() and check_avoidance(g, traj) == []


@pytest.mark.parametrize("edges,n", [([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6),
                                     ([(0, 1), (1, 2), (2, 3)], 4)])
def test_cycle_engine_rejects_other_graphs(edges, n):
    """Two triangles or a path are not one cycle: a ValueError, not a hang."""
    with pytest.raises(ValueError, match="cycle engine requires"):
        CycleEngine(graph_from_edges(n, edges), 0, 1)


@pytest.mark.parametrize("engine,marks", [("cubic", True), ("squarefree", True),
                                          ("regular", False), ("cycle", False)])
def test_engine_contract(pet, circ9, engine, marks):
    """One run loop: at least `ticks` ticks, clean, and `# block` marks
    exactly for the engines whose every block end is admissible."""
    g = {"regular": circ9, "cycle": cycle(10)}.get(engine, pet)
    traj, eng = simulate(g, engine, 100, 3, walkers=5 if engine == "cycle" else 2)
    assert len(traj.positions) >= 101 and traj.engine == engine == eng.name
    assert check_avoidance(g, traj) == []
    assert eng.marks_blocks == marks
    assert bool(traj.block_marks) == marks
    if marks:
        assert traj.block_marks[0] == 0 and traj.block_marks[-1] == len(traj.positions) - 1


def test_simulate_determinism(pet, circ9):
    for g, engine in ((pet, "cubic"), (pet, "squarefree"), (circ9, "regular")):
        t1, _ = simulate(g, engine, 150, 77)
        t2, _ = simulate(g, engine, 150, 77)
        assert t1.to_text() == t2.to_text()


def test_simulate_rejects_wrong_engine(pet):
    with pytest.raises(ValueError):
        simulate(pet, "regular", 10, 0)
    with pytest.raises(ValueError):
        simulate(cycle(8), "cubic", 10, 0)


@pytest.mark.parametrize("host,walkers", [("pet", 2), ("hea", 2), ("circ9", 2), ("ag23", 2), ("c10", 5)])
def test_simulate_auto_runs_the_verdicts_engine(request, host, walkers):
    g = cycle(10) if host == "c10" else request.getfixturevalue(host)
    auto, eng = simulate(g, "auto", 60, 5, walkers=walkers)
    named, _ = simulate(g, admissibility_verdict(g).engine, 60, 5, walkers=walkers)
    assert auto.to_text() == named.to_text() and eng.name == named.engine


def test_failed_hypothesis_is_a_value_error(pet):
    # library callers that catch ValueError keep catching every failed hypothesis
    assert issubclass(HypothesisError, ValueError)
    with pytest.raises(HypothesisError, match="no engine applies"):
        simulate(complete(5), "auto", 10, 0)
    with pytest.raises(HypothesisError, match="regular engine hypothesis fails"):
        simulate(pet, "regular", 10, 0)


@pytest.mark.parametrize("engine", ["cubic", "squarefree", "regular", "cycle"])
@pytest.mark.parametrize("start", [{"a0": -1}, {"a0": 10}, {"b0": -1}, {"b0": 10}])
def test_simulate_rejects_out_of_range_start(pet, circ9, engine, start):
    g = {"regular": circ9, "cycle": cycle(10)}.get(engine, pet)
    with pytest.raises(ValueError, match="is not a vertex"):
        simulate(g, engine, 5, 0, **start)


@pytest.mark.parametrize("engine,walkers", [("cubic", 5), ("squarefree", 3), ("regular", 1)])
def test_simulate_rejects_walkers_on_two_walker_engines(pet, circ9, engine, walkers):
    g = circ9 if engine == "regular" else pet
    with pytest.raises(ValueError, match="exactly 2 walkers"):
        simulate(g, engine, 10, 0, walkers=walkers)


@pytest.mark.parametrize("engine", ["auto", "regular"])
@pytest.mark.parametrize("args,message", [
    ({"seed": -1}, "seed must fit"),
    ({"seed": 2**64}, "seed must fit"),
    ({"ticks": -1}, "ticks must be >= 0"),
    ({"walkers": 0}, "walkers >= 1"),
    ({"engine": "bogus"}, "unknown engine 'bogus'"),
], ids=["seed-negative", "seed-2^64", "ticks", "walkers", "engine"])
def test_simulate_checks_its_arguments_before_the_hypothesis(monkeypatch, engine, args, message):
    """On K5, which no engine admits, a bad seed, tick count, walker count or
    engine name is a ValueError, not a HypothesisError: it is rejected
    before any hypothesis is decided."""
    import avoidkit.couplers as couplers

    def never(*args):
        raise AssertionError("simulate decided a hypothesis before checking its arguments")

    monkeypatch.setattr(couplers, "require_engine_applicable", never)
    call = {"engine": engine, "ticks": 10, "seed": 0, "walkers": 2, **args}
    with pytest.raises(ValueError, match=message) as err:
        simulate(complete(5), **call)
    assert not isinstance(err.value, HypothesisError)



# 3,000 ticks at seed 11, through the benchmark's own tracer: (draws,
# scenario_counts, round_checks, cache hits, cache misses, and the spans of
# the transport builds, of `solve_transport` and of `classify_scenario`).
# These are the counters the benchmark reports; a faster path that skips
# `next_u64`, the cache or a patched module-level lookup changes one.  The
# cubic engine tests an uncached S1 pair itself, so `classify_scenario`
# runs only for the misses that are not S1 (rr3-n250: 2,915 - 2,687).
PINNED_COUNTERS = {
    "petersen/cubic": (3000, {"S4": 3000}, 0, 2944, 56, (0, 56, 56)),
    "heawood/squarefree": (6000, {}, 0, 2919, 81, (81, 81, 0)),
    "c9/regular": (2001, {}, 2000, 1820, 180, (180, 180, 0)),
    "c10/cycle": (3000, {}, 0, None, None, (0, 0, 0)),
    "rr5-n64/regular": (2001, {}, 2000, 150, 1850, (1850, 1850, 0)),
    "rr3-n250/cubic": (5687, {"S1": 2687, "S4": 142, "S5": 171}, 0, 85, 2915, (0, 228, 228)),
}


@pytest.mark.parametrize("label", list(PINNED_COUNTERS))
def test_engine_counters_are_pinned(label):
    import importlib.util
    from pathlib import Path

    from avoidkit.generate import circulant, heawood, petersen

    tracing_py = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_py)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hosts = {
        "petersen": petersen, "heawood": heawood, "c9": lambda: circulant(9, [1, 2]), "c10": lambda: cycle(10),
        "rr5-n64": lambda: random_regular_simple(64, 5, 0, connected_required=True)[0],
        "rr3-n250": lambda: random_regular_simple(250, 3, 0, connected_required=True)[0],
    }
    host, engine = label.split("/")
    g = hosts[host]()
    tracer = tracing.Tracer()
    with tracer.installed():
        traj, eng = simulate(g, engine, 3000, 11, walkers=5 if engine == "cycle" else 2)
    spans = Counter(span[3] for span in tracer.spans)
    cache = getattr(eng, "cache", None)
    got = (tracer.take_draws(), getattr(eng, "scenario_counts", {}), getattr(eng, "round_checks", 0),
           cache and cache.hits, cache and cache.misses,
           tuple(spans[name] for name in ("matching.build_transport", "matching.solve_transport",
                                          "structure.classify_scenario")))
    assert len(traj.positions) == 3001
    assert got == PINNED_COUNTERS[label]
