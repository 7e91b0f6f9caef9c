from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from array import array
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, chain
from pathlib import Path

import pytest

from avoidkit import structure, verify
from avoidkit.couplers import Trajectory, simulate
from avoidkit.generate import complete, complete_bipartite, cycle, random_regular_simple
from avoidkit.graphs import graph_from_edges
from avoidkit.matching import build_regular_transport, build_squarefree_transport
from avoidkit.rng import Xoshiro256
from avoidkit.structure import contains_Hd, is_square_free
from avoidkit.verify import (
    CellResult,
    CertificationError,
    FaithfulnessReport,
    Violation,
    check_avoidance,
    chi2_sf,
    chi_square_faithfulness,
    enumerate_k22_blocks,
    exact_cubic_marginals,
    exact_regular_index_laws,
    exact_squarefree_law,
    lemma31_equivalence,
    lemma34_oracle,
    lemma42_oracle,
)
from conftest import (
    lemma31_all_pairs_p3,
    lemma34_masks,
    lemma42_masks,
    per_walker_k22_excursion,
    subset_sweep,
)


def _planted(g, positions, seed=0):
    return Trajectory("cubic", seed, g.digest(), positions, [])


def test_check_avoidance_clean(pet):
    traj, _ = simulate(pet, "cubic", 400, 8)
    assert check_avoidance(pet, traj) == []


def test_check_avoidance_digest_mismatch(pet):
    traj = Trajectory("cubic", 0, "feedbeef00000000", [(0, 2)], [])
    with pytest.raises(ValueError, match="digest"):
        check_avoidance(pet, traj)


def test_check_avoidance_planted_violations(pet):
    # collision at tick 1, swap at tick 0, non-edge steps
    bad = _planted(pet, [(0, 2), (1, 1)])
    kinds = {v.kind for v in check_avoidance(pet, bad)}
    assert "collision_same_tick" in kinds
    swap = _planted(pet, [(0, 1), (1, 2)])
    kinds = {v.kind for v in check_avoidance(pet, swap)}
    assert "collision_swap" in kinds
    stay = _planted(pet, [(0, 2), (0, 3)])
    kinds = {v.kind for v in check_avoidance(pet, stay)}
    assert "non_edge_step" in kinds  # staying put is not a walk step
    teleport = _planted(pet, [(0, 2), (7, 1)])
    assert any(v.kind == "non_edge_step" for v in check_avoidance(pet, teleport))


def test_check_avoidance_block_end_adjacency(pet):
    bad = Trajectory("cubic", 0, pet.digest(), [(0, 2), (1, 2)], [1])
    kinds = {v.kind for v in check_avoidance(pet, bad)}
    assert "adjacency_at_block_end" in kinds


def test_check_avoidance_checks_marks_of_every_engine(circ9):
    # regular trajectories carry no marks, so a planted one is checked too
    traj, _ = simulate(circ9, "regular", 30, 1)
    t = next(t for t, (a, b) in enumerate(traj.positions) if circ9.has_edge(a, b))
    planted = Trajectory("regular", 1, traj.graph_digest, traj.positions, [t])
    assert [(v.tick, v.kind) for v in check_avoidance(circ9, planted)] == [(t, "adjacency_at_block_end")]


def test_verify_counts_transitions_once(pet, tmp_path, monkeypatch, capsys):
    """check_avoidance and chi-square share one count of the transitions,
    also through `avoidkit verify`, and the trajectory keeps none after
    both; a new positions list is counted anew."""
    from avoidkit import cli, couplers

    counted = []
    count = couplers.transition_counts
    monkeypatch.setattr(couplers, "transition_counts", lambda pos: counted.append(len(pos)) or count(pos))
    traj, _ = simulate(pet, "cubic", 200, 5)
    assert check_avoidance(pet, traj) == [] and chi_square_faithfulness(pet, traj).passed
    assert counted == [len(traj.positions)] and traj._transitions is None
    planted = replace(traj, positions=[*traj.positions[:-1], traj.positions[0]])
    assert check_avoidance(pet, planted) and counted == [len(traj.positions)] * 2
    (tmp_path / "g.txt").write_text(pet.to_text())
    (tmp_path / "t.txt").write_text(traj.to_text())
    assert cli.main(["verify", str(tmp_path / "g.txt"), str(tmp_path / "t.txt")]) == 0
    assert counted == [len(traj.positions)] * 3
    capsys.readouterr()


def per_tick_check_avoidance(g, traj):
    """The reference for check_avoidance: every check run at every tick and
    every mark, in tick order and then mark order, after refusing a mark
    outside the ticks."""
    out = []
    pos, marks = traj.positions, traj.block_marks
    if marks and not 0 <= min(marks) <= max(marks) < len(pos):
        raise ValueError(f"block marks {min(marks)}..{max(marks)} outside ticks 0..{len(pos) - 1}")
    for t in range(len(pos)):
        cur = pos[t]
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                if cur[i] == cur[j]:
                    out.append(Violation(t, "collision_same_tick", (i, j, cur[i])))
        if t + 1 < len(pos):
            nxt = pos[t + 1]
            for w in range(len(cur)):
                if not g.has_edge(cur[w], nxt[w]):
                    out.append(Violation(t, "non_edge_step", (w, cur[w], nxt[w])))
            if len(cur) == 2 and cur[1] == nxt[0]:
                out.append(Violation(t, "collision_swap", (cur[1],)))
    for t in marks:
        if len(pos[t]) == 2:
            a, b = pos[t]
            if a == b or g.has_edge(a, b):
                out.append(Violation(t, "adjacency_at_block_end", (a, b)))
    return out


def per_tick_chi_square(g, traj, alpha, min_departures):
    """The reference for chi_square_faithfulness: cells counted tick by tick
    and walker by walker."""
    pos = traj.positions
    counts = defaultdict(lambda: defaultdict(int))
    for t in range(len(pos) - 1):
        for w in range(len(pos[0])):
            counts[(w, pos[t][w])][pos[t + 1][w]] += 1
    report = FaithfulnessReport(alpha=alpha)
    pvalues = []
    for (w, v), trans in sorted(counts.items()):
        nbrs = g.adjacency[v]
        n_dep = sum(trans.values())
        if n_dep < min_departures or len(nbrs) < 2:
            report.cells.append(CellResult(w, v, n_dep, None, None, False))
            continue
        expected = n_dep / len(nbrs)
        stat = sum((trans.get(u, 0) - expected) ** 2 / expected for u in nbrs)
        p = chi2_sf(stat, len(nbrs) - 1)
        report.cells.append(CellResult(w, v, n_dep, stat, p, True))
        pvalues.append(p)
    report.tested_count = len(pvalues)
    report.passed = all(p >= alpha / len(pvalues) for p in pvalues)
    return report


def outcome(check, *args):
    """What a check returns, or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as err:
        return str(err)


def mutated(rng, g, traj):
    """traj with one to four planted faults: two walkers' vertices swapped,
    a walker staying put, a teleport, two walkers collided, one state
    planted at three ticks, or a block mark anywhere from -T to T + 4."""
    pos, marks = list(traj.positions), list(traj.block_marks)
    T, k = len(pos), len(pos[0])
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["swap", "stay", "teleport", "collide", "plant", "mark"])
        t, w = rng.randrange(T), rng.randrange(k)
        p = list(pos[t])
        if kind == "swap" or kind == "collide":
            i, j = rng.sample(range(k), 2)
            p[i], p[j] = (p[j], p[i]) if kind == "swap" else (p[j], p[j])
        elif kind == "stay":
            p[w] = pos[t - 1][w]
        elif kind == "teleport":
            p[w] = rng.randrange(g.n)
        elif kind == "plant":
            p = [rng.randrange(g.n) for _ in range(k)]
            for u in rng.sample(range(T), 2):
                pos[u] = tuple(p)
        else:
            marks.append(rng.randrange(-T, T + 5))
        pos[t] = tuple(p)
    return replace(traj, positions=pos, block_marks=marks)


@pytest.mark.parametrize("host,engine,walkers", [("pet", "cubic", 2), ("hea", "squarefree", 2),
                                                 ("circ9", "regular", 2), ("c10", "cycle", 5)])
def test_verify_matches_per_tick_reference_on_mutated_runs(request, host, engine, walkers):
    g = cycle(10) if host == "c10" else request.getfixturevalue(host)
    traj, _ = simulate(g, engine, 400, 3, walkers=walkers)
    rng = random.Random(f"{engine}-mutations")
    kinds, refused = set(), 0
    for trial in range(120):
        bad = traj if trial == 0 else mutated(rng, g, traj)
        got = outcome(check_avoidance, g, bad)
        assert got == outcome(per_tick_check_avoidance, g, bad), trial
        if isinstance(got, str):
            assert "outside ticks" in got, got
            refused += 1
        else:
            kinds.update(v.kind for v in got)
        for min_departures in (5, 30):
            assert chi_square_faithfulness(g, bad, 0.01, min_departures) == \
                per_tick_chi_square(g, bad, 0.01, min_departures), trial
    # marks outside the ticks were refused, and every kind of violation
    # this engine can show was produced
    assert refused
    assert kinds == {"collision_same_tick", "non_edge_step"} | (
        {"collision_swap", "adjacency_at_block_end"} if walkers == 2 else set())


def test_check_avoidance_reports_each_tick_of_a_repeated_fault(pet):
    # the collided state (1, 1) at ticks 1, 3 and the last, 5, is marked at 1
    bad = _planted(pet, [(0, 2), (1, 1), (0, 2), (1, 1), (0, 2), (1, 1)])
    bad.block_marks = [4, 1]
    got = check_avoidance(pet, bad)
    assert got == per_tick_check_avoidance(pet, bad)
    assert [(v.tick, v.kind) for v in got] == [(1, "collision_same_tick"), (3, "collision_same_tick"),
                                               (5, "collision_same_tick"), (1, "adjacency_at_block_end")]


def test_exact_cubic_marginals_all_scenarios(pet, k33, s3b_host, s6_host):
    seen = set()
    for g in (pet, k33, s3b_host, s6_host):
        for a in range(g.n):
            for b in range(g.n):
                if a == b or g.has_edge(a, b):
                    continue
                rep = exact_cubic_marginals(g, a, b)
                seen.add(rep.scenario)
                assert rep.residual == 0
                assert sum(rep.alice.values()) == 1
                assert sum(rep.bob.values()) == 1
    assert {"S2", "S3b", "S4", "S5", "S6"} <= seen


def test_enumerate_k22_blocks(s6_host):
    outcomes, truncated, residual = enumerate_k22_blocks(s6_host, 0, 1, max_len=8)
    assert residual == Fraction(128, 2187)
    assert sum(p for p, _, _ in outcomes) + residual == 1
    assert all(len(path) >= 8 for _, path in truncated)
    for p, alice, bob in outcomes:
        assert len(alice) == len(bob)
        A, B = [0] + alice, [1] + bob
        for s in range(len(alice)):
            assert B[s] != A[s] and B[s] != A[s + 1]


def per_walker_k22_blocks(g, a, b, quad, max_len):
    """`enumerate_k22_blocks` over the per-walker reference excursion, each
    branch cut once Alice has max_len steps and the last is not a or b."""
    def law(rng, out):
        out += ([], [])
        per_walker_k22_excursion(g, a, b, quad, rng, *out)

    outcomes, truncated = [], []
    for p, (alice, bob), complete in verify.enumerate_law(
            law, lambda out: len(out[0]) >= max_len and out[0][-1] not in (a, b), given=(2,)):
        if complete:
            outcomes.append((p, alice, bob))
        else:
            truncated.append((p, alice))
    return outcomes, truncated, sum((p for p, _ in truncated), Fraction(0))


@pytest.mark.parametrize("quad", [(2, 3, 4, 5)])  # the witness `cubic_plan` resolves
def test_enumerate_k22_blocks_matches_per_walker_reference(s6_host, quad):
    for max_len in range(2, 11):
        assert enumerate_k22_blocks(s6_host, 0, 1, max_len) == \
            per_walker_k22_blocks(s6_host, 0, 1, quad, max_len), max_len


def test_enumerate_k22_blocks_rejects_non_s6_pair(pet):
    with pytest.raises(ValueError, match=r"\(0, 2\) is scenario S\d+, not the K_\{2,2\} excursion of S6"):
        enumerate_k22_blocks(pet, 0, 2)


@pytest.mark.parametrize("max_len", [1, 0, -1])
def test_enumerate_k22_blocks_rejects_short_max_len(s6_host, max_len):
    with pytest.raises(ValueError, match="max_len"):
        enumerate_k22_blocks(s6_host, 0, 1, max_len)


def test_exact_regular_index_laws(circ9):
    laws = exact_regular_index_laws(circ9, 0, 4, 1)
    assert set(laws.p_i.values()) == {Fraction(1, 3)}
    assert set(laws.p_j.values()) == {Fraction(1, 4)}
    assert set(laws.p_k_given_i.values()) == {Fraction(1, 4)}
    assert set(laws.p_l_given_j.values()) == {Fraction(1, 4)}


def valid_triples(g):
    return [(a, b, e) for a in range(g.n) for e in g.adjacency[a] for b in range(g.n)
            if b != a and (not g.has_edge(a, b) or b == e)]


def test_regular_round_law_on_random_hosts():
    """The enumerated round law is certified on 30 triples of each H_d-free
    random d-regular host, d = 4, 5 and n = 12, 16, 20, and on 50 triples
    of rr5-n64."""
    hosts = []
    for d in (4, 5):
        for n in (12, 16, 20):
            g = next(g for seed in range(50)
                     if contains_Hd(g := random_regular_simple(n, d, seed, connected_required=True)[0], d) is None)
            hosts.append((g, 30))
    hosts.append((random_regular_simple(64, 5, 0, connected_required=True)[0], 50))
    for g, count in hosts:
        for a, b, e in random.Random(0).sample(valid_triples(g), count):
            laws = exact_regular_index_laws(g, a, b, e)
            assert sum(laws.p_i.values()) == 1 and sum(laws.p_j.values()) == 1


def test_squarefree_law_on_every_pair(ag23, hea):
    """Every pair of AG(2,3), Heawood and the square-free ones among 50
    random cubic hosts on 20 vertices."""
    random_hosts = [g for seed in range(50)
                    if is_square_free(g := random_regular_simple(20, 3, seed, connected_required=True)[0]) is None]
    assert len(random_hosts) >= 3
    pairs = 0
    for g in [ag23, hea] + random_hosts:
        for a in range(g.n):
            for b in range(g.n):
                if b != a and not g.has_edge(a, b):
                    rep = exact_squarefree_law(g, a, b)
                    assert sum(rep.alice.values()) == 1 and sum(rep.bob.values()) == 1
                    pairs += 1
    assert pairs == 348 + 140 + 320 * len(random_hosts)


def test_squarefree_law_catches_unswapped_roles(ag23, monkeypatch):
    # a point and a line off it: the line has the lower degree, so rows are Bob's
    a, b = 9, 3
    assert ag23.degree(a) < ag23.degree(b)
    assert build_squarefree_transport(ag23, a, b).swapped
    sampler = verify.squarefree_sampler
    # a step law that ignores the transport's swap hands Bob's rows to Alice
    monkeypatch.setattr(verify, "squarefree_sampler", lambda tm: sampler(replace(tm, swapped=False)))
    with pytest.raises(CertificationError):
        exact_squarefree_law(ag23, a, b)


def test_chi_square_passes_on_fair_run(pet):
    traj, _ = simulate(pet, "cubic", 30_000, 12)
    rep = chi_square_faithfulness(pet, traj)
    assert rep.passed and rep.tested_count > 0


def test_chi_square_power_on_planted_bias(pet):
    # walker A picks its lowest-numbered neighbor 60% of the time
    rng = Xoshiro256(3)
    a, b = 0, 2
    positions = [(a, b)]
    for _ in range(20_000):
        na = pet.adjacency[a]
        a = na[0] if rng.randrange(10) < 6 else rng.choice(na[1:])
        b = rng.choice(pet.adjacency[b])
        positions.append((a, b))
    biased = Trajectory("cubic", 3, pet.digest(), positions, [])
    rep = chi_square_faithfulness(pet, biased, alpha=0.001)
    assert not rep.passed


def test_chi_square_skips_thin_cells(pet):
    traj, _ = simulate(pet, "cubic", 40, 1)
    rep = chi_square_faithfulness(pet, traj, min_departures=10**6)
    assert rep.tested_count == 0 and rep.passed
    assert rep.untested_count == len(rep.cells)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 2.0, math.nan])
def test_chi_square_rejects_alpha_outside_unit_interval(pet, alpha):
    traj, _ = simulate(pet, "cubic", 40, 1)
    with pytest.raises(ValueError, match="alpha"):
        chi_square_faithfulness(pet, traj, alpha=alpha)


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    checked = tail = 0
    for k in [*range(1, 61), 100, 500, 2000]:
        around = [k * f for f in (0.1, 0.5, 0.9, 0.99, 1, 1.01, 1.1, 2, 3)]
        deep = [k + m * math.sqrt(2 * k) for m in (10, 30, 100)] + [5 * k, 50 * k, 1e3, 1e4, 1e5]
        for x in [0.0, 5e-324, 1e-12, *around, *deep]:
            want, got = float(chi2.sf(x, k)), chi2_sf(x, k)
            if want >= 1e-300:
                assert abs(got - want) <= 1e-10 * want, (k, x, got, want)
                checked += 1
            else:
                assert 0.0 <= got <= 1e-280, (k, x, got, want)
                tail += 1
    assert checked > 1000 and tail > 50


def test_chi2_sf_closed_forms():
    for x in (1e-12, 0.3, 1.0, 2.5, 7.0, 40.0, 700.0, 1500.0):
        assert chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert chi2_sf(x, 2) == math.exp(-x / 2)
    assert chi2_sf(0.0, 3) == chi2_sf(-1.0, 3) == 1.0
    assert chi2_sf(math.inf, 4) == 0.0
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_run_engines_script():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_engines.py"), "--ticks", "3000", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    summaries = [line for line in lines if "violations=" in line]
    assert len(summaries) == 4 and len(lines) == 4 * 6 + 3 + 1, done.stdout
    assert all("violations=0 chi2=pass round trip=ok" in line for line in summaries), done.stdout
    for step in ("simulate", "to_text", "parse", "verify"):
        assert sum(line.split()[0] == step and "tracemalloc peak" in line for line in lines) == 4
    # the engines' draws at 3,000 ticks: cubic and cycle draw once a tick,
    # squarefree twice, regular about twice per three-tick round
    draws = [line.split()[1] for line in lines if line.split()[0] == "draws"]
    assert draws == ["3,000", "6,000", "2,001", "3,000"], done.stdout
    # the three cached engines' counters: one lookup per cubic or square-free
    # block and per regular round; the cycle engine has no cache
    caches = [line.split()[1:5] for line in lines if line.split()[0] == "cache"]
    assert caches == [["2,944", "hits,", "56", "misses"], ["2,920", "hits,", "80", "misses"],
                      ["1,822", "hits,", "178", "misses"]], done.stdout
    # the cubic engine's blocks line: every Petersen block is S4, none is S1
    blocks = [line.split()[1:] for line in lines if line.split()[0] == "blocks"]
    assert blocks == [["3,000", "(S4", "3,000),", "S1", "share", "0.0000"]], done.stdout


def test_lemma34_oracle(circ9):
    res = lemma34_oracle(circ9, 0, 4, 1)
    assert res.holds and res.worst_margin >= 0


def test_lemma34_oracle_detects_violation():
    # K_5 contains H_4, so some subset must break the inequality
    res = lemma34_oracle(complete(5), 0, 1, 1)
    assert not res.holds
    assert res.worst_margin < 0 and res.worst_subset


def test_lemma42_oracle(pet, hea, ag23):
    assert lemma42_oracle(pet, 0, 2).holds
    assert lemma42_oracle(hea, 0, 2).holds
    b = next(v for v in range(9, 21) if not ag23.has_edge(0, v))
    assert lemma42_oracle(ag23, 0, b).holds
    with pytest.raises(ValueError):
        lemma42_oracle(pet, 0, 1)


def labels_of(bits: int, labels) -> tuple:
    return tuple(x for i, x in enumerate(labels) if bits >> i & 1)


def h4_triples(count: int) -> list:
    """`count` triples drawn evenly from the first six random 4-regular hosts
    on 10 vertices that contain H_4, so that some of them fail lemma 3.4."""
    rng = random.Random(34)
    hosts = [g for seed in range(40) if contains_Hd(g := random_regular_simple(10, 4, seed)[0], 4) is not None]
    return [(g, *t) for g in hosts[:6] for t in rng.sample(valid_triples(g), count // 6)]


@pytest.mark.parametrize("host", ["circ9", "k5", "h4"])
def test_lemma34_oracle_matches_subset_sweep(circ9, host):
    """`holds` and `worst_margin` equal the sweep's, and `worst_subset` is
    the intersection of every subset of least margin: on every triple of
    C9(1,2) and K5, and on half the triples of six random hosts that
    contain H_4."""
    if host == "h4":
        cases = h4_triples(720)
    else:
        g = circ9 if host == "circ9" else complete(5)
        cases = [(g, *t) for t in valid_triples(g)]
    failed = 0
    for g, a, b, e in cases:
        d = g.degree(a)
        rows, masks = lemma34_masks(g, a, b, e)
        margin, least = subset_sweep(masks, d, d - 1)
        res = lemma34_oracle(g, a, b, e)
        assert (res.holds, res.worst_margin, res.worst_subset) == \
            (margin >= 0, margin, labels_of(least, rows)), (a, b, e)
        failed += not res.holds
    assert (len(cases), failed) == {"circ9": (180, 0), "k5": (20, 20), "h4": (720, 14)}[host]


def test_lemma42_oracle_matches_subset_sweep(pet, hea, ag23, k33):
    """As for lemma 3.4, on every pair of Petersen, Heawood, AG(2,3), K3,3
    and 30 random cubic hosts on 12 vertices that have squares; 8 of the
    3,440 pairs fail."""
    hosts = [pet, hea, ag23, k33]
    hosts += [g for seed in range(40)
              if is_square_free(g := random_regular_simple(12, 3, seed)[0]) is not None][:30]
    pairs = failed = 0
    for g in hosts:
        for a in range(g.n):
            for b in range(g.n):
                if b == a or g.has_edge(a, b):
                    continue
                k, l = g.degree(a), g.degree(b)
                margin, least = subset_sweep(lemma42_masks(g, a, b), l, k)
                res = lemma42_oracle(g, a, b)
                assert (res.holds, res.worst_margin, res.worst_subset) == \
                    (margin >= 0, margin, labels_of(least, g.adjacency[a])), (a, b)
                pairs += 1
                failed += not res.holds
    assert (len(hosts), pairs, failed) == (34, 3440, 8)


def _no_hall_violator(supply, demand, masks, nc):
    raise verify.TransportInfeasible("stand-in", list(range(len(masks))), [])


def _every_cell(supply, demand, masks, nc):
    return list(range(len(masks) * nc)), [1] * (len(masks) * nc)


@pytest.mark.parametrize("solve,message", [(_no_hall_violator, "margin 0 >= 0"), (_every_cell, "off its row's mask")],
                         ids=["infeasible", "solved"])
def test_hall_oracle_checks_the_solver(pet, monkeypatch, solve, message):
    """Petersen's pair (0, 2) satisfies lemma 4.2 with margin 0 on all of
    N(0), and its common neighbour's cell is off the mask: neither a Hall
    set of margin >= 0 nor a matrix off the masks is reported."""
    monkeypatch.setattr(verify, "solve_transport", solve)
    with pytest.raises(CertificationError, match=message):
        lemma42_oracle(pet, 0, 2)


def test_lemma31_equivalence(pet, circ9):
    assert lemma31_equivalence(pet) == (True, (True, True, True))
    agree, preds = lemma31_equivalence(complete(5))
    assert agree and preds == (False, False, False)
    assert lemma31_equivalence(circ9)[1][0]


def test_lemma31_predicate1_does_not_read_the_grouping(monkeypatch):
    """Predicate 1 comes from the co-degree pass, not from the closed-
    neighbourhood grouping of predicate 2: with the grouping reporting no
    pair, K5 still contains H_4 by predicates 1 and 3."""
    for module in (structure, verify):
        monkeypatch.setattr(module, "closed_neighborhood_duplicates", lambda g: [])
    assert lemma31_equivalence(complete(5)) == (False, (False, True, False))


@pytest.mark.parametrize("oracle,host,ids,message", [
    (lemma34_oracle, "circ9", (-1, 4, 0), "a=-1 is not a vertex"),
    (lemma34_oracle, "circ9", (0, 4, -1), "e=-1 is not a vertex"),
    (lemma42_oracle, "pet", (-1, 3), "a=-1 is not a vertex"),
    (lemma42_oracle, "pet", (0, -1), "b=-1 is not a vertex"),
], ids=["lemma34-a", "lemma34-e", "lemma42-a", "lemma42-b"])
def test_oracles_reject_non_vertex_ids(request, oracle, host, ids, message):
    with pytest.raises(ValueError, match=message):
        oracle(request.getfixturevalue(host), *ids)


@pytest.mark.parametrize("oracle,edges,ids,message", [
    (lemma34_oracle, [(0, 1)], (0, 1, 1), "degree >= 2 at a"),  # ratio d/(d-1) = 1/0
    (lemma42_oracle, [], (0, 1), "min degree >= 3"),  # ratio l/k = 0/0
], ids=["lemma34-degree-1", "lemma42-degree-0"])
def test_oracles_reject_degenerate_degrees(oracle, edges, ids, message):
    with pytest.raises(ValueError, match=message):
        oracle(graph_from_edges(2, edges), *ids)


def test_check_avoidance_rejects_non_vertex_ids(pet):
    # -1 would read as vertex 9, making Alice's first step 9 -> 4 an edge
    with pytest.raises(ValueError, match=r"vertex -1 outside 0\.\.9"):
        check_avoidance(pet, _planted(pet, [(-1, 0), (4, 2)]))
    with pytest.raises(ValueError, match=r"vertex 10 outside 0\.\.9"):
        check_avoidance(pet, _planted(pet, [(0, 2), (4, 10)]))


@pytest.mark.parametrize("at_end", [False, True], ids=["minus-one", "past-the-end"])
def test_check_avoidance_rejects_marks_outside_the_ticks(pet, at_end):
    # -1 read as the last tick, and a mark past the end was skipped
    traj, _ = simulate(pet, "cubic", 200, 5)
    n = len(traj.positions)
    planted = replace(traj, block_marks=[*traj.block_marks, n if at_end else -1])
    lo, hi = (0, n) if at_end else (-1, n - 1)
    with pytest.raises(ValueError, match=rf"block marks {lo}\.\.{hi} outside ticks 0\.\.{n - 1}"):
        check_avoidance(pet, planted)


def test_chi_square_rejects_a_foreign_digest(pet):
    traj, _ = simulate(pet, "cubic", 200, 5)
    with pytest.raises(ValueError, match="trajectory/graph digest mismatch"):
        chi_square_faithfulness(cycle(10), traj)


@pytest.mark.parametrize("t,v", [(0, -1), (-1, -1), (0, 10)],
                         ids=["negative-departure", "negative-arrival", "departure-past-n"])
def test_chi_square_rejects_non_vertex_ids(pet, t, v):
    # a negative departure read g.adjacency from the end, a negative arrival
    # was never looked up, and a departure past n raised a bare IndexError
    traj, _ = simulate(pet, "cubic", 200, 5)
    positions = list(traj.positions)
    positions[t] = (v, positions[t][1])
    with pytest.raises(ValueError, match=rf"vertex {v} outside 0\.\.9"):
        chi_square_faithfulness(pet, replace(traj, positions=positions))


def test_lemma31_equivalence_requires_d_regular():
    with pytest.raises(ValueError, match="requires a regular graph"):
        lemma31_equivalence(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))


@pytest.mark.parametrize("edges", [[(0, 1), (2, 3)], []], ids=["perfect-matching", "edgeless"])
def test_lemma31_equivalence_requires_degree_two(edges):
    # checked before H_d detection, which has no meaning below d = 2
    with pytest.raises(ValueError, match=r"lemma31 requires a d-regular graph with d >= 2"):
        lemma31_equivalence(graph_from_edges(4, edges))


def test_lemma31_predicate3_matches_all_pairs_reference():
    """Predicate 3 over pairs within distance 2 equals the all-pairs loop
    on 120 random regular graphs (n <= 12, d = 2..5), K5-K7 and K3,3."""
    hosts = [complete(5), complete(6), complete(7), complete_bipartite(3, 3)]
    rng = random.Random(31)
    while len(hosts) < 124:
        d = rng.randrange(2, 6)
        n = rng.choice([n for n in range(d + 1, 13) if n * d % 2 == 0])
        hosts.append(random_regular_simple(n, d, rng.randrange(10**6))[0])
    p3 = [lemma31_equivalence(g)[1][2] for g in hosts]
    assert p3 == [lemma31_all_pairs_p3(g) for g in hosts]
    assert p3[:3] == [False] * 3 and True in p3 and False in p3[4:]


def test_certification_error_raised_on_bad_matrix(circ9, monkeypatch):
    tm = build_regular_transport(circ9, 0, 4, 1)
    rows = list(tm.entries)
    rows[0] = rows[1]  # break the column marginals, keep the total
    flat = list(chain.from_iterable(rows))
    broken = replace(tm, cells=array("I", (f for f, x in enumerate(flat) if x)),
                     cum=array("I", accumulate(x for x in flat if x)))
    monkeypatch.setattr(verify, "build_regular_transport", lambda *args: broken)
    with pytest.raises(CertificationError):
        exact_regular_index_laws(circ9, 0, 4, 1)
