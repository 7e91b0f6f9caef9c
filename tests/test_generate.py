from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit.generate import (
    DEFAULT_REJECTION_BUDGET,
    RejectionBudgetExceeded,
    circulant,
    complete,
    complete_bipartite,
    configuration_model,
    cycle,
    heawood,
    petersen,
    random_regular_simple,
)
from avoidkit.graphs import basic_profile, is_connected
from avoidkit.rng import Xoshiro256


def ref_random_regular_simple(n, d, seed, connected_required=False, budget=DEFAULT_REJECTION_BUDGET):
    """Reference: whole configuration_model pairings until one is simple (and connected)."""
    rng = Xoshiro256(seed)
    rejections = 0
    for _ in range(budget):
        mg = configuration_model(n, d, rng.next_u64())
        if not mg.is_simple():
            rejections += 1
            continue
        g = mg.simple_support()
        if connected_required and not is_connected(g):
            rejections += 1
            continue
        return g, rejections
    raise RejectionBudgetExceeded(budget)


def _outcome(sampler, *args):
    try:
        g, rejections = sampler(*args)
    except RejectionBudgetExceeded as err:
        return "budget", err.budget
    return g, g.digest(), rejections


def test_cycle_and_complete():
    assert basic_profile(cycle(6)).regular_degree == 2
    assert basic_profile(complete(5)).regular_degree == 4
    assert complete(5).edge_count == 10
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.edge_count == 6
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]


def test_circulant():
    g = circulant(9, [1, 2])
    assert basic_profile(g).regular_degree == 4
    assert g.has_edge(0, 1) and g.has_edge(0, 2) and not g.has_edge(0, 3)
    with pytest.raises(ValueError):
        circulant(9, [5])  # offset beyond n/2


def test_heawood_is_cubic_girth6(hea):
    prof = basic_profile(hea)
    assert (prof.n, prof.regular_degree, prof.connected) == (14, 3, True)
    # girth 6: no pair of vertices shares two neighbors
    from avoidkit.structure import is_square_free

    assert is_square_free(hea) is None


@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60)
def test_configuration_model_invariants(n, d, seed):
    if (n * d) % 2:
        n += 1
    mg = configuration_model(n, d, seed)
    assert mg.edge_count == n * d // 2
    stub_degree = Counter()
    for u, v in mg.edges:
        stub_degree[u] += 1
        stub_degree[v] += 1
    assert all(stub_degree[v] == d for v in range(n))


@pytest.mark.parametrize("n", [0, -4])
def test_configuration_model_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=f"requires n >= 1, got n={n}"):
        configuration_model(n, 2, 0)


def test_configuration_model_deterministic():
    assert configuration_model(10, 3, 99).edges == configuration_model(10, 3, 99).edges


@pytest.mark.parametrize("n,d", [(2, 1), (9, 2), (10, 3), (16, 4), (21, 6)])
def test_configuration_model_pairs_consecutive_stubs(n, d):
    # reference: shuffle the stubs, then pair stubs 2k, 2k+1 as (min, max)
    for seed in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        Xoshiro256(seed).shuffle(stubs)
        want = [(min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1])) for i in range(0, len(stubs), 2)]
        assert configuration_model(n, d, seed).edges == want


def test_random_regular_simple():
    g, rejections = random_regular_simple(12, 3, 4, connected_required=True)
    assert rejections >= 0
    prof = basic_profile(g)
    assert prof.regular_degree == 3 and prof.connected


def test_random_regular_validates():
    with pytest.raises(ValueError):
        random_regular_simple(9, 3, 0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular_simple(4, 4, 0)  # d >= n
    with pytest.raises(ValueError, match="never connected"):
        random_regular_simple(6, 1, 0, connected_required=True)
    assert random_regular_simple(2, 1, 0, connected_required=True)[0].edge_count == 1


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_attempt_is_bad_input(budget):
    with pytest.raises(ValueError, match=f"rejection budget must be at least 1 attempt, got {budget}"):
        random_regular_simple(10, 3, 0, budget=budget)


def test_petersen_structure(pet):
    assert pet.has_edge(0, 5)            # spoke
    assert pet.has_edge(5, 7)            # pentagram chord
    assert not pet.has_edge(5, 6)
    assert is_connected(pet)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=120, deadline=None)
def test_random_regular_simple_matches_reference(d, n, seed, connected, budget):
    n = max(n, d + 1)
    if (n * d) % 2:
        n += 1
    args = (n, d, seed, connected, budget)
    if d == 1 and n > 2 and connected:  # never met: refused before the attempts the reference spends
        with pytest.raises(ValueError, match="never connected"):
            random_regular_simple(*args)
        return
    assert _outcome(random_regular_simple, *args) == _outcome(ref_random_regular_simple, *args)
