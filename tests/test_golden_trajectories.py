"""Fixed-seed trajectories pinned by the sha256 of their text form.

Any change to sampling, transport solving or scenario classification that
alters a single position shows up here.  The random hosts are the
benchmark's large-random hosts; on rr5-n64 about a quarter of the
transport solves need more than one max-flow phase, so both the fast path
and the fallback of ``solve_transport`` are covered.
"""

from __future__ import annotations

import hashlib

import pytest

from avoidkit import generate
from avoidkit.couplers import simulate
from conftest import make_ag23_incidence

TICKS = 600
SEED = 1

HOSTS = {
    "petersen": lambda: generate.petersen(),
    "heawood": lambda: generate.heawood(),
    "C9(1,2)": lambda: generate.circulant(9, [1, 2]),
    "C10": lambda: generate.cycle(10),
    "rr5-n64": lambda: generate.random_regular_simple(64, 5, 0, connected_required=True)[0],
    "rr3-n250": lambda: generate.random_regular_simple(250, 3, 0, connected_required=True)[0],
}

GOLDEN = [
    ("petersen", "cubic", 2, "5a0692209c73673ea0bf4bbed69ce21cc2aff310cb96cd399179f1c53439bc10"),
    ("heawood", "squarefree", 2, "8bd8ab1b7d8f94dbf2146c4e2585da91d6fb7ec43053479d685b10e422733e18"),
    ("C9(1,2)", "regular", 2, "4452638a7309a18f85c04d3e9e3218ec62b08a0b9dd9ade00d73885e9504ba93"),
    ("C10", "cycle", 5, "75834ebcf7d2e68b227521b490c1bcbee8f7f3f454b56dba7def621dca7baae7"),
    ("rr5-n64", "regular", 2, "92318489060aebe84473479d72154b506595fdf497a0e25482deaa0008da4bdc"),
    ("rr3-n250", "cubic", 2, "7ee1e92c0e3fd646d3b4b4c6757374370d25a65de7e5076d945a3553af891f3f"),
]


@pytest.mark.parametrize("host,engine,walkers,digest", GOLDEN, ids=[f"{h}/{e}" for h, e, _, _ in GOLDEN])
def test_golden_trajectory(host, engine, walkers, digest):
    traj, _ = simulate(HOSTS[host](), engine, TICKS, SEED, walkers=walkers)
    assert len(traj.positions) == TICKS + 1
    assert hashlib.sha256(traj.to_text().encode("utf-8")).hexdigest() == digest


# AG(2,3)'s incidence graph is bipartite with points of degree 4 and lines of
# degree 3, so walkers that start on opposite sides change sides every tick
# and the squarefree transport swaps roles on every other tick.  One run
# starts with Alice on a point, the other with Alice on a line.
AG23_GOLDEN = [
    (0, 10, "58b7cb107e43db8b0b954d2e56b06412492e1d32f1a234df758a3e9b846f4865"),
    (9, 3, "8484ebec9eb4cb838401376704104aabffa488a76236c3967a851ceec33035e1"),
]


@pytest.mark.parametrize("a0,b0,digest", AG23_GOLDEN, ids=["alice-on-point", "alice-on-line"])
def test_golden_squarefree_ag23(a0, b0, digest):
    traj, _ = simulate(make_ag23_incidence(), "squarefree", TICKS, SEED, a0=a0, b0=b0)
    assert len(traj.positions) == TICKS + 1
    assert hashlib.sha256(traj.to_text().encode("utf-8")).hexdigest() == digest
