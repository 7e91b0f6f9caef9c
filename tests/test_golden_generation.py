"""Fixed-seed random graph generation pinned by sha256.

Every random host in the package comes from ``Xoshiro256.shuffle`` or
``fisher_yates`` and the configuration model, so a change to one that alters a single edge, a
rejection count or the generator state left after a shuffle shows up here.
Each digest covers one line per case; the grid includes cases that exhaust
the rejection budget and cases that are simple but disconnected.
"""

from __future__ import annotations

import hashlib

import pytest

from avoidkit.generate import RejectionBudgetExceeded, configuration_model, random_regular_simple
from avoidkit.rng import Xoshiro256
from rng_reference import ReferenceXoshiro256, next_draws

SEEDS = (0, 1, 2)
BUDGET = 1000
GRID = {
    2: (7, 8, 12, 16, 24, 40),
    3: (8, 12, 16, 24, 40),
    4: (7, 8, 12, 16, 24, 40),
    5: (8, 12, 24, 40),
    6: (12, 40),
}

RANDOM_REGULAR = {
    2: "7f974e9bba89527dc4b7a6e209faaac6b5815936f0d7c8ece3335ddac126d28d",
    3: "4157b13ff29eb32239c5f2f3b8d2a33142ae122f77b27ebf4152100fa5b23285",
    4: "3ee61e9bb6128b79e08c15e871335fc112902cdc3018c1f3ad4db43818d283c1",
    5: "d3ad61c008f2f7a26d4670896c73f094fb825913368b3b0332abb67e8e23ace4",
    6: "a05b1865a2531f9c93674b4064a4ae1aa9954fc652a6b311e68c53a74d1367a2",
}
CONFIGURATION_MODEL = "9e9957faa30fe0d6cd39ef025a87905335aeaea3b617e77b5d58cc132ccdfc74"
SHUFFLE = "965d52dad7d25744624d26353e7df8c090ba8489877db90fd50746f5d70e58a6"


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _random_regular_line(n: int, d: int, seed: int, connected: bool) -> str:
    try:
        g, rejections = random_regular_simple(n, d, seed, connected_required=connected, budget=BUDGET)
    except RejectionBudgetExceeded:
        return f"{n} {d} {seed} {connected:d} budget"
    return f"{n} {d} {seed} {connected:d} {g.digest()} {rejections}"


@pytest.mark.parametrize("d", sorted(GRID))
def test_random_regular_simple_pinned(d):
    lines = [_random_regular_line(n, d, seed, connected)
             for n in GRID[d] for seed in SEEDS for connected in (False, True)]
    assert _sha(lines) == RANDOM_REGULAR[d]


def test_random_regular_budget_exhausted():
    # K_10 is the only 9-regular graph on 10 vertices, but a pairing of its
    # 90 stubs is simple with probability about 1e-13
    with pytest.raises(RejectionBudgetExceeded) as err:
        random_regular_simple(10, 9, 1, budget=50)
    assert err.value.budget == 50


def test_configuration_model_pinned():
    lines = [f"{n} {d} {seed} {configuration_model(n, d, seed).edges}"
             for n, d in ((2, 1), (9, 2), (10, 3), (64, 5), (250, 3)) for seed in SEEDS]
    assert _sha(lines) == CONFIGURATION_MODEL


def test_shuffle_pinned():
    """The state after each shuffle is the one-step reference's, run
    alongside with the same draws; the generator's next draws agree."""
    lines = []
    for length in (0, 1, 2, 3, 10, 100, 1000):
        for seed in SEEDS:
            rng, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
            items = list(range(length))
            rng.shuffle(items)
            for i in range(length - 1, 0, -1):
                ref.randrange(i + 1)
            state = ref.state
            draws = next_draws(rng)
            assert draws == next_draws(ref)
            lines.append(f"{length} {seed} {items} {state} {draws[0]}")
    assert _sha(lines) == SHUFFLE
