"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from avoidkit.cli import main as cli_main
from avoidkit.couplers import k22_excursion, simulate
from avoidkit.experiment import prevalence_experiment, row_to_csv
from avoidkit.generate import circulant, complete_bipartite, cycle, heawood, petersen, random_regular_simple
from avoidkit.matching import build_regular_transport, build_squarefree_transport
from avoidkit.rng import Xoshiro256
from avoidkit.structure import contains_Hd
from avoidkit.verify import (
    chi_square_faithfulness,
    check_avoidance,
    enumerate_k22_blocks,
    exact_cubic_marginals,
    exact_regular_index_laws,
    lemma31_equivalence,
    lemma34_oracle,
    lemma42_oracle,
)
from conftest import check_sums, distance_capped, make_s3b_host, make_s6_host

CUBIC_TICKS = 1_000_000
REGULAR_TICKS = 300_000
SQUAREFREE_TICKS = 1_000_000
ALPHA = 0.001


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {verdict} - {detail}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cubic_runs():
    g = petersen()
    return g, [simulate(g, "cubic", CUBIC_TICKS, seed)[0] for seed in (1, 2, 3)]


@pytest.fixture(scope="module")
def regular_runs():
    hosts = [circulant(9, [1, 2])]
    for n in (12, 16, 20):
        g, _ = random_regular_simple(n, 4, 1, connected_required=True)
        assert contains_Hd(g, 4) is None  # pinned seeds give H_4-free hosts
        hosts.append(g)
    return [(g, *simulate(g, "regular", REGULAR_TICKS, 2)) for g in hosts]


@pytest.fixture(scope="module")
def squarefree_runs():
    out = []
    for g in (petersen(), heawood()):
        out.append((g, simulate(g, "squarefree", SQUAREFREE_TICKS, 1)[0]))
    return out


def test_criterion_01_cubic_avoidance(cubic_runs):
    g, trajs = cubic_runs
    total = 0
    for traj in trajs:
        violations = check_avoidance(g, traj)
        total += len(violations)
        assert len(traj.positions) - 1 >= CUBIC_TICKS
    report(1, total == 0,
           f"Petersen cubic engine, 3 seeds x {CUBIC_TICKS} ticks, {total} violations")


def test_criterion_02_regular_avoidance(regular_runs):
    total = 0
    for g, traj, eng in regular_runs:
        violations = check_avoidance(g, traj)
        total += len(violations)
        # the engine asserts the phase invariants at the top of every round
        expected_rounds = 2 * -(-REGULAR_TICKS // 3)
        assert eng.round_checks == expected_rounds
    report(2, total == 0,
           f"d=4 engine on 4 hosts x {REGULAR_TICKS} ticks, {total} violations, "
           "phase invariants asserted every round")


def test_criterion_03_squarefree_avoidance(squarefree_runs):
    total = 0
    for g, traj in squarefree_runs:
        total += len(check_avoidance(g, traj))
    report(3, total == 0,
           f"squarefree engine on Petersen+Heawood x {SQUAREFREE_TICKS} ticks, {total} violations")


def test_criterion_04_exact_faithfulness():
    checked = 0
    for g in (petersen(), complete_bipartite(3, 3)):
        for a in range(g.n):
            for b in range(g.n):
                if a == b or g.has_edge(a, b):
                    continue
                rep = exact_cubic_marginals(g, a, b)  # raises on any deviation
                assert rep.residual == 0
                checked += 1
    c9 = circulant(9, [1, 2])
    triples = 0
    for a in range(9):
        for e in c9.adjacency[a]:
            for b in range(9):
                if b == a or (c9.has_edge(a, b) and b != e):
                    continue
                check_sums(build_regular_transport(c9, a, b, e))  # row sums d, column sums d-1, exactly
                exact_regular_index_laws(c9, a, b, e)
                triples += 1
    for g in (petersen(), heawood()):
        for a in range(g.n):
            for b in range(g.n):
                if a != b and not g.has_edge(a, b):
                    check_sums(build_squarefree_transport(g, a, b))
    report(4, True,
           f"exact marginals on {checked} cubic pairs, index laws + sum identities "
           f"on {triples} regular triples, tolerance 0")


def test_criterion_05_chi_square_and_power(cubic_runs, regular_runs, squarefree_runs):
    g, trajs = cubic_runs
    runs = [(g, t) for t in trajs]
    runs += [(h, t) for h, t, _ in regular_runs]
    runs += list(squarefree_runs)
    all_pass = all(chi_square_faithfulness(h, t, alpha=ALPHA).passed for h, t in runs)

    # planted bias: one walker favors its lowest neighbor 60/20/20
    pet = petersen()
    rng = Xoshiro256(4)
    a, b = 0, 2
    positions = [(a, b)]
    for _ in range(30_000):
        na = pet.adjacency[a]
        a = na[0] if rng.randrange(10) < 6 else rng.choice(na[1:])
        b = rng.choice(pet.adjacency[b])
        positions.append((a, b))
    from avoidkit.couplers import Trajectory

    biased = Trajectory("cubic", 4, pet.digest(), positions, [])
    power_ok = not chi_square_faithfulness(pet, biased, alpha=ALPHA).passed
    report(5, all_pass and power_ok,
           f"chi-square on {len(runs)} runs at alpha={ALPHA} "
           f"(all pass: {all_pass}), planted bias rejected: {power_ok}")


def test_criterion_06_lemma34_oracle_sweep():
    """Every triple of three H_d-free hosts: C9(1,2) (d=4), the benchmark's
    rr5-n64 (d=5) and C13(1,2,3) (d=6)."""
    rr5, _ = random_regular_simple(64, 5, 0, connected_required=True)
    hosts = {"C9(1,2)": circulant(9, [1, 2]), "rr5-n64": rr5, "C13(1,2,3)": circulant(13, [1, 2, 3])}
    start = time.monotonic()
    triples = {}
    for name, g in hosts.items():
        d = g.degree(0)
        assert contains_Hd(g, d) is None
        triples[name] = 0
        for a in range(g.n):
            for e in g.adjacency[a]:
                for b in range(g.n):
                    if b == a or (g.has_edge(a, b) and b != e):
                        continue
                    res = lemma34_oracle(g, a, b, e)
                    assert res.holds, (name, a, b, e, res.worst_subset)
                    triples[name] += 1
    elapsed = time.monotonic() - start
    assert triples == {"C9(1,2)": 180, "rr5-n64": 18_880, "C13(1,2,3)": 546}
    counts = ", ".join(f"{name} {count}" for name, count in triples.items())
    report(6, elapsed < 300,
           f"lemma 3.4 holds on every triple by max flow ({counts}), {elapsed:.1f}s (< 300s)")


def test_criterion_07_lemma42_oracle_sweep():
    start = time.monotonic()
    pairs = 0
    for g in (petersen(), heawood()):
        for a in range(g.n):
            for b in range(g.n):
                if a == b or g.has_edge(a, b):
                    continue
                assert lemma42_oracle(g, a, b).holds
                pairs += 1
    elapsed = time.monotonic() - start
    report(7, elapsed < 10, f"{pairs} pairs x 2^3 subsets hold, {elapsed:.2f}s (< 10s)")


def test_criterion_08_lemma31_equivalence():
    sizes = {3: [8, 10, 12, 14, 16, 18, 20], 4: [9, 10, 12, 15, 17, 20], 5: [8, 10, 12, 14, 16, 20]}
    graphs = 0
    seed = 0
    while graphs < 100:
        d = (3, 4, 5)[graphs % 3]
        n = sizes[d][graphs % len(sizes[d])]
        g, _ = random_regular_simple(n, d, seed)
        seed += 1
        agree, _ = lemma31_equivalence(g)
        assert agree, (n, d, seed)
        graphs += 1
    report(8, True, f"three H_d-freeness predicates agree on {graphs} random regular graphs")


def test_criterion_09_s3b_table_exact():
    from avoidkit.couplers import s3b_rows

    g = make_s3b_host()
    rows = s3b_rows(g, 0, 1)
    assert len(rows) == 9
    # two-step SRW marginals: each walker's 9 paths appear once, so every
    # (first, second) pair has probability exactly 1/9 = (1/3)(1/3)
    alice_paths = sorted(pair for pair, _ in rows)
    bob_paths = sorted(pair for _, pair in rows)
    assert alice_paths == sorted((x, y) for x in g.adjacency[0] for y in g.adjacency[x])
    assert bob_paths == sorted((x, y) for x in g.adjacency[1] for y in g.adjacency[x])
    # conditions (ii)-(iii) in every row
    for (a1, a2), (b1, b2) in rows:
        A, B = (0, a1, a2), (1, b1, b2)
        for s in range(2):
            assert B[s] != A[s] and B[s] != A[s + 1]
        assert B[2] != A[2]
        assert distance_capped(g, A[2], B[2], 2) == 2
    report(9, True, "9-row table: exact two-step SRW marginals, conditions (ii)-(iii) hold")


def test_criterion_10_s6_excursions():
    g = make_s6_host()
    quad = (2, 3, 4, 5)
    outcomes, _, residual = enumerate_k22_blocks(g, 0, 1, max_len=8)
    for _, alice, bob in outcomes:
        A, B = [0] + alice, [1] + bob
        for s in range(len(alice)):
            assert B[s] != A[s] and B[s] != A[s + 1]
        assert distance_capped(g, A[-1], B[-1], 2) == 2
    rep = exact_cubic_marginals(g, 0, 1)  # raises unless exactly uniform
    assert rep.scenario == "S6"
    rng = Xoshiro256(6)
    lengths = Counter()
    for _ in range(100_000):
        ticks = []
        k22_excursion(rng, (g, 0, 1, quad), ticks)
        lengths[len(ticks)] += 1
    support_ok = all(lengths[t] > 0 for t in (1, 2, 3))
    report(10, support_ok,
           f"{len(outcomes)} excursions <= 8 safe (residual {residual}), first step uniform, "
           f"T-support {sorted(k for k in lengths if lengths[k] > 0)[:5]}...")


def test_criterion_11_prevalence_trend():
    start = time.monotonic()
    rows = prevalence_experiment(3, [16, 32, 64, 128], samples=500, seed=0)
    elapsed = time.monotonic() - start
    final_ok = rows[-1].freq <= 0.05
    trend_ok = all(
        rows[i + 1].freq <= rows[i].freq or rows[i + 1].ci_lo <= rows[i].ci_hi
        for i in range(len(rows) - 1)
    )
    freqs = [f"{r.n}:{r.freq:.3f}" for r in rows]
    report(11, final_ok and trend_ok and elapsed < 120,
           f"H~_3 frequency {freqs}, weakly decreasing up to CI overlap, {elapsed:.1f}s (< 120s)")


def test_criterion_12_cycle_engine():
    from avoidkit.couplers import CycleEngine

    eng = CycleEngine(cycle(10), 1, 5)
    plus = 0
    steps = 1_000_000
    collisions = 0
    gap_breaks = 0
    positions = eng.run(steps).positions
    prev = positions[0]
    for pos in positions[1:]:
        if (pos[0] - prev[0]) % 10 == 1:
            plus += 1
        if len(set(pos)) != 5:
            collisions += 1
        if {(pos[(i + 1) % 5] - pos[i]) % 10 for i in range(5)} != {2}:
            gap_breaks += 1
        prev = pos
    # 3 sigma around 1/2 for a fair coin over 10^6 draws
    sigma = (steps * 0.25) ** 0.5
    fair = abs(plus - steps / 2) <= 3 * sigma
    report(12, collisions == 0 and gap_breaks == 0 and fair,
           f"10^6 steps: {collisions} collisions, {gap_breaks} gap changes, "
           f"+1 freq {plus / steps:.4f} within 3 sigma of 1/2")


def test_criterion_13_determinism(tmp_path):
    def run_all(into):
        into.mkdir()
        pet, cir, c10 = into / "pet.txt", into / "cir.txt", into / "c10.txt"
        assert cli_main(["gen", "--family", "petersen", "-o", str(pet)]) == 0
        assert cli_main(["gen", "--family", "random_regular", "--n", "14", "--d", "3",
                         "--seed", "9", "-o", str(into / "rr.txt")]) == 0
        assert cli_main(["gen", "--family", "circulant", "--n", "9", "--offsets", "1,2",
                         "-o", str(cir)]) == 0
        assert cli_main(["gen", "--family", "cycle", "--n", "10", "-o", str(c10)]) == 0
        for name, graph, engine in (("t1", pet, "cubic"), ("t2", pet, "squarefree"),
                                    ("t3", cir, "regular")):
            assert cli_main(["simulate", str(graph), "--ticks", "2000", "--seed", "5",
                             "--engine", engine, "-o", str(into / name)]) == 0
        assert cli_main(["simulate", str(c10), "--ticks", "2000", "--seed", "5",
                         "--engine", "cycle", "--walkers", "4", "-o", str(into / "t4")]) == 0
        assert cli_main(["experiment", "prevalence", "--d", "3", "--n-list", "10,12",
                         "--samples", "25", "--seed", "3", "-o", str(into / "prev.csv")]) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    mismatches = [n for n in names
                  if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()]
    report(13, not mismatches,
           f"{len(names)} output files byte-identical across reruns ({mismatches or 'none differ'})")
