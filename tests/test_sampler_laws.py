"""The graph samplers' laws against exact counts, not against reference code.

A shared bias of a sampler and its reference would pass the digest and
reference tests, so here each sampler is checked against an exact law:

- The configuration model is uniform over the (nd - 1)!! pairings of the
  n*d stubs, and the number of pairings that give a multigraph M is
  (d!)^n / (prod_e m_e! * 2^loops(M)), loops counted with multiplicity
  (Wormald 1999).  The formula is checked against brute force first.
- `random_regular_simple` is uniform over the labelled simple d-regular
  graphs (70 for (6, 2) and for (6, 3)), and with `connected_required`
  over the connected ones (the 60 labelled 6-cycles for (6, 2)).
- `Xoshiro256.shuffle` is uniform over the n! permutations.

Every test draws from fixed seeds.  Cells expected below 5 are pooled, the
p-value is Pearson's, from `verify.chi2_sf`, and the tests form one
Bonferroni family at alpha = 0.001.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from avoidkit.generate import configuration_models, random_regular_simple
from avoidkit.graphs import Graph, graph_from_edges, is_connected
from avoidkit.rng import Xoshiro256
from avoidkit.verify import chi2_sf

LAW_TESTS = 6  # the members of the Bonferroni family below
ALPHA = 0.001 / LAW_TESTS


def pairings(stubs: list[int]):
    """Every perfect matching of the stub positions, as lists of stub pairs."""
    if not stubs:
        yield []
        return
    first, rest = stubs[0], stubs[1:]
    for k, other in enumerate(rest):
        for tail in pairings(rest[:k] + rest[k + 1:]):
            yield [(first, other), *tail]


def multigraph_key(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def graph_key(g: Graph) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u, nbrs in enumerate(g.adjacency) for v in sorted(nbrs) if u < v)


def pairing_count(n: int, d: int, key) -> int:
    """(d!)^n / (prod_e m_e! * 2^loops): the pairings that give multigraph `key`."""
    mult = Counter(key)
    loops = sum(c for (u, v), c in mult.items() if u == v)
    return factorial(d) ** n // (prod(factorial(c) for c in mult.values()) * 2 ** loops)


def simple_regular_graphs(n: int, d: int, connected: bool = False) -> list[tuple[tuple[int, int], ...]]:
    """Every labelled simple d-regular graph on n vertices, by brute force over edge sets."""
    found = []
    for edges in combinations(combinations(range(n), 2), n * d // 2):
        degrees = Counter(v for e in edges for v in e)
        if len(degrees) == n and set(degrees.values()) == {d}:
            if not connected or is_connected(graph_from_edges(n, edges)):
                found.append(edges)
    return found


def pearson_p(observed: Counter, expected: dict) -> float:
    """Pearson's p-value of `observed` against `expected` counts, after
    pooling the cells expected below 5 (and the smallest cell above, if
    the pool alone is still below 5).  A cell outside `expected` fails."""
    assert set(observed) <= set(expected), f"outside the support: {sorted(set(observed) - set(expected))[:3]}"
    cells = sorted(expected, key=expected.get)
    pool = []
    while cells and (expected[cells[0]] < 5 or (pool and sum(expected[c] for c in pool) < 5)):
        pool.append(cells.pop(0))
    groups = [[c] for c in cells] + ([pool] if pool else [])
    stat = 0.0
    for group in groups:
        e = sum(expected[c] for c in group)
        o = sum(observed[c] for c in group)
        stat += (o - e) ** 2 / e
    return chi2_sf(stat, len(groups) - 1)


@pytest.mark.parametrize("n,d,multigraphs", [(6, 2, 388), (4, 3, 47)])
def test_the_pairing_count_formula_against_brute_force(n, d, multigraphs):
    stubs = [v for v in range(n) for _ in range(d)]
    counts = Counter(multigraph_key(p) for p in pairings(stubs))
    assert sum(counts.values()) == prod(range(1, n * d, 2)) == 10_395
    assert len(counts) == multigraphs
    assert all(pairing_count(n, d, key) == c for key, c in counts.items())


@pytest.mark.parametrize("n,d,first_seed", [(6, 2, 11), (4, 3, 5_003)])
def test_configuration_models_is_uniform_over_pairings(n, d, first_seed):
    """10,000 graphs, asked for in lists of 13 seeds, so that every list
    crosses the 8-seed batches at a different offset."""
    stubs = [v for v in range(n) for _ in range(d)]
    support = {multigraph_key(p) for p in pairings(stubs)}
    total = prod(range(1, n * d, 2))
    seeds = list(range(first_seed, first_seed + 10_000))
    observed = Counter()
    for k in range(0, len(seeds), 13):
        observed.update(multigraph_key(g.edges) for g in configuration_models(n, d, seeds[k:k + 13]))
    expected = {key: len(seeds) * pairing_count(n, d, key) / total for key in support}
    assert pearson_p(observed, expected) > ALPHA


@pytest.mark.parametrize("n,d,connected,graphs", [(6, 2, False, 70), (6, 3, False, 70), (6, 2, True, 60)])
def test_random_regular_simple_is_uniform(n, d, connected, graphs):
    support = simple_regular_graphs(n, d, connected)
    assert len(support) == graphs
    samples = 3_500
    observed = Counter(graph_key(random_regular_simple(n, d, seed, connected_required=connected)[0])
                       for seed in range(samples))
    assert pearson_p(observed, dict.fromkeys(support, samples / graphs)) > ALPHA


def test_shuffle_is_uniform_over_permutations():
    samples = 6_000
    observed = Counter()
    for seed in range(samples):
        items = list(range(5))
        Xoshiro256(seed).shuffle(items)
        observed[tuple(items)] += 1
    assert pearson_p(observed, dict.fromkeys(permutations(range(5)), samples / 120)) > ALPHA
