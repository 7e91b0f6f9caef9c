"""The cubic block law pinned by sha256 on the hosts that reach S3b and S6.

The trajectory pins in test_golden_trajectories.py never leave S1, S4 and
S5: Petersen is all S4, and the random 3-regular host gives only S1, S4
and S5.  These pins cover every scenario on the hand-built S3b and S6
hosts, Petersen and K3,3: direct draws of the law `cubic_plan` resolves
at every ordered pair at distance >= 2, fixed-seed `CubicEngine` runs on the S3b and S6
hosts, every exact first-step certificate, and the exact K_{2,2}
excursion law.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from avoidkit.couplers import CubicEngine, cubic_plan
from avoidkit.generate import complete_bipartite, petersen, random_regular_simple
from avoidkit.rng import Xoshiro256
from avoidkit.structure import contains_H3tilde
from avoidkit.verify import enumerate_k22_blocks, exact_cubic_marginals
from conftest import make_s3b_host, make_s6_host

HOSTS = {
    "s3b": make_s3b_host,
    "s6": make_s6_host,
    "petersen": petersen,
    "K3,3": lambda: complete_bipartite(3, 3),
}


def _pairs(g):
    return [(a, b) for a in range(g.n) for b in range(g.n) if a != b and not g.has_edge(a, b)]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def block_lines(g, draws: int = 200):
    lines = []
    for a, b in _pairs(g):
        rng = Xoshiro256(1000 * a + b)
        scenario, law, arg = cubic_plan(g, a, b)
        for _ in range(draws):
            ticks = []
            law(rng, arg, ticks)
            alice, bob = [ap for ap, _ in ticks], [bp for _, bp in ticks]
            lines.append(f"{a} {b} {scenario.tag} {len(ticks)} {alice} {bob}")
    return lines


def engine_lines(g, runs: int = 5, ticks: int = 3000):
    lines = []
    for seed in range(runs):
        eng = CubicEngine(g, seed)
        lines.append(eng.run(ticks).to_text())
        lines.append(repr(sorted(eng.scenario_counts.items())))
    return lines


def marginal_lines(g):
    lines = []
    for a, b in _pairs(g):
        rep = exact_cubic_marginals(g, a, b)
        lines.append(f"{a} {b} {rep.scenario} {sorted(rep.alice.items())} "
                     f"{sorted(rep.bob.items())} {rep.residual}")
    return lines


GOLDEN = {
    ("s3b", "blocks"): "e9a528ca304a64d4cac68ef766c7cbd1962679f79268d013ca2fa82c6e2ab8aa",
    ("s6", "blocks"): "cef621b4ebce6c21977e5434a14ada572bca4bb78a664504dcc68a8eb7d504f1",
    ("petersen", "blocks"): "22bc002e284a473c3bce29e3344a329af03f83b98f627174faba2c6b3b9a4f10",
    ("K3,3", "blocks"): "73e9fabb91769734f3d3d7a03c904b6806617a3a4bc05f8887ca051b54374a20",
    ("s3b", "engine"): "3a55ceb2eaad17c8fb65a818504ca1f9a3a3280f21544d1489a889281046b74d",
    ("s6", "engine"): "dda0885a8f6399482a4896f7581a643ddd88346decd39ffbf6dc0cb8228d9dd6",
    ("s3b", "marginals"): "6623d0ccf2756559a798dea10a33ed82e7ee448b3b7e78a74543d890ba4452a6",
    ("s6", "marginals"): "59447e1c893053387fa36ccfe11631014b96cc70f6d75a3295a00cfab1cca8c4",
    ("petersen", "marginals"): "32275df2c1639af8484dd01ba235a392f5c18b59c46ab9506b11f33d934a2f35",
    ("K3,3", "marginals"): "34e2905bc081f8555bf70250d7116b6725dee98d7a77a82a449adf6c2f8b713e",
}

K22_DIGEST = "ca40d0c747ac756e3afe8f0aa0a8479d1159bd358aa9e00c5d89f152422d3d22"

LINES = {"blocks": block_lines, "engine": engine_lines, "marginals": marginal_lines}


@pytest.mark.parametrize("host,kind", sorted(GOLDEN), ids=[f"{h}/{k}" for h, k in sorted(GOLDEN)])
def test_cubic_law_pinned(host, kind):
    assert _digest(LINES[kind](HOSTS[host]())) == GOLDEN[(host, kind)]


def test_s3b_and_s6_reached():
    """The pinned draws exercise the two rare scenarios they exist for."""
    tags = {line.split()[2] for line in block_lines(make_s3b_host(), 1) + block_lines(make_s6_host(), 1)}
    assert {"S3b", "S6"} <= tags
    counts = {}
    for g in (make_s3b_host(), make_s6_host()):
        for seed in range(5):
            eng = CubicEngine(g, seed)
            eng.run(3000)
            for tag, c in eng.scenario_counts.items():
                counts[tag] = counts.get(tag, 0) + c
    assert counts.get("S3b", 0) > 0 and counts.get("S6", 0) > 0


def test_k22_excursion_law_pinned():
    outcomes, truncated, residual = enumerate_k22_blocks(make_s6_host(), 0, 1, max_len=8)
    lines = [f"{p} {alice} {bob}" for p, alice, bob in outcomes]
    lines += [f"cut {p} {prefix}" for p, prefix in truncated]
    lines.append(str(residual))
    assert _digest(lines) == K22_DIGEST


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_exact_cubic_marginals_on_random_hosts(half_n, seed):
    """Every pair at distance >= 2 of a random connected H~3-free cubic
    host certifies: exact_cubic_marginals raises on any deviation."""
    g, _ = random_regular_simple(2 * half_n, 3, seed, connected_required=True)
    assume(contains_H3tilde(g) is None)
    for a, b in _pairs(g):
        rep = exact_cubic_marginals(g, a, b)
        assert sum(rep.alice.values()) == sum(rep.bob.values()) == 1
