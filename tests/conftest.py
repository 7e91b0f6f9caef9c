from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest

from avoidkit.generate import circulant, complete_bipartite, heawood, petersen
from avoidkit.graphs import Graph, graph_from_edges
from avoidkit.matching import TransportMatrix, check_cells, compatible, mover_pairs, other_pairs


def distance_capped(g: Graph, u: int, v: int, cap: int) -> int:
    """BFS distance between u and v, or cap if the distance is >= cap: the
    reference the tests measure distances with."""
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        if d >= cap:
            return cap
        for y in g.adjacency[x]:
            if y not in dist:
                if y == v:
                    return d
                dist[y] = d
                queue.append(y)
    return cap


def check_sums(tm: TransportMatrix) -> None:
    """`check_cells` on a stored transport: its cells are ascending, its
    counts positive, and every row sums to row_sum and column to col_sum."""
    check_cells(list(tm.cells), tm.counts, len(tm.row_labels), len(tm.col_labels), tm.row_sum, tm.col_sum)


def subset_sweep(masks: list[int], supply: int, demand: int) -> tuple[Fraction, int]:
    """The least margin |cmp(S)| - (supply/demand)*|S| over every subset S
    of the rows, cmp(S) the union of their column bitmasks, floored at 0,
    and the intersection of every subset of that margin as a row bitmask
    (0 when the least margin is 0): the exhaustive reference the Hall
    oracles are checked against."""
    n = len(masks)
    cmp_bits = [0] * (1 << n)
    worst, least = 0, 0  # demand * margin, intersection of its minimisers
    for s in range(1, 1 << n):
        low = s & -s
        cmp_bits[s] = cmp_bits[s ^ low] | masks[low.bit_length() - 1]
        margin = demand * cmp_bits[s].bit_count() - supply * s.bit_count()
        if margin < worst:
            worst, least = margin, s
        elif margin == worst and worst < 0:
            least &= s
    return Fraction(worst, demand), least


def lemma34_masks(g: Graph, a: int, b: int, e: int) -> tuple[tuple, list[int]]:
    """The mover pairs at (a, b, e) and each one's `compatible` other pairs
    of b as a bitmask."""
    rows, cols = mover_pairs(g, a, e), other_pairs(g, b)
    return rows, [sum(1 << j for j, op in enumerate(cols) if compatible(g, mp, op)) for mp in rows]


def lemma42_masks(g: Graph, a: int, b: int) -> list[int]:
    """Each a' in N(a)'s neighbours b' of b with b' != a' and b' not adjacent to a', as a bitmask over N(b)."""
    nb = g.adjacency[b]
    return [sum(1 << j for j, bp in enumerate(nb) if bp != ap and not g.has_edge(ap, bp)) for ap in g.adjacency[a]]


def lemma31_all_pairs_p3(g: Graph) -> bool:
    """Predicate 3 of lemma 3.1 over every pair (a, b): N(a) \\ N(b) \\ {b}
    is nonempty whenever b != a and N(b) != N(a).  The reference for
    `lemma31_equivalence`, which visits only b within distance 2 of a."""
    for a in range(g.n):
        na = set(g.adjacency[a])
        for b in range(g.n):
            if b == a or set(g.adjacency[b]) == na:
                continue
            if not (na - set(g.adjacency[b]) - {b}):
                return False
    return True


def per_walker_k22_excursion(g, a, b, witness, rng, alice, bob):
    """The S6 excursion written per walker, appending each walker's steps
    to `alice` and `bob` as they are drawn: the reference for the tick
    form `k22_excursion`."""
    a1, a2, b1, b2 = witness
    strategy = rng.randrange(3)
    if strategy == 0:
        alice.append(next(v for v in g.adjacency[a] if v not in (a1, a2)))
        bob.append(rng.choice((b1, b2)))
    elif strategy == 1:
        alice.append(rng.choice((a1, a2)))
        bob.append(next(v for v in g.adjacency[b] if v not in (b1, b2)))
    else:
        partner = {a1: a2, a2: a1, b1: b2, b2: b1}
        v = rng.choice((a1, a2))
        alice.append(v)
        while True:
            v = rng.choice(g.adjacency[v])
            alice.append(v)
            if v == a or v == b:
                break
            bob.append(partner[v])
        x, y = (b1, b2) if len(alice) % 2 == 0 else (a1, a2)
        bob.append(x if rng.coin() else y)
        bob.append(b if len(alice) % 2 == 0 else a)


def make_s3b_host() -> Graph:
    """3-regular host where the pair (0, 1) has two adjacent common neighbors.

    0=a, 1=b, 2=c1, 3=c2, 4=a', 5=b'; 6,7 complete a' and 8,9 complete b',
    glued by a K_{2,2} between {6,7} and {8,9}.
    """
    return graph_from_edges(10, [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5),
        (4, 6), (4, 7), (5, 8), (5, 9),
        (6, 8), (6, 9), (7, 8), (7, 9),
    ])


def make_s6_host() -> Graph:
    """3-regular host where the pair (0, 1) admits K_{2,2}.

    0=a, 1=b, 2=a1, 3=a2, 4=b1, 5=b2, 6=c_a, 7=c_b; 8,9 close the
    degree deficit of the two exit vertices.
    """
    return graph_from_edges(10, [
        (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 4), (2, 5), (3, 4), (3, 5),
        (0, 6), (1, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
    ])


def make_ag23_incidence() -> Graph:
    """Point-line incidence graph of the affine plane of order 3.

    9 points of degree 4, 12 lines of degree 3; any two points lie on one
    line, so the graph has girth 6 (square-free with mixed degrees).
    """
    points = [(x, y) for x in range(3) for y in range(3)]
    pidx = {p: i for i, p in enumerate(points)}
    lines = [[(k, y) for y in range(3)] for k in range(3)]
    for slope in range(3):
        for k in range(3):
            lines.append([(x, (k + slope * x) % 3) for x in range(3)])
    edges = []
    for j, line in enumerate(lines):
        for p in line:
            edges.append((pidx[p], 9 + j))
    return graph_from_edges(21, edges)


@pytest.fixture(scope="session")
def pet() -> Graph:
    return petersen()


@pytest.fixture(scope="session")
def hea() -> Graph:
    return heawood()


@pytest.fixture(scope="session")
def circ9() -> Graph:
    return circulant(9, [1, 2])


@pytest.fixture(scope="session")
def k33() -> Graph:
    return complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def s3b_host() -> Graph:
    return make_s3b_host()


@pytest.fixture(scope="session")
def s6_host() -> Graph:
    return make_s6_host()


@pytest.fixture(scope="session")
def ag23() -> Graph:
    return make_ag23_incidence()
