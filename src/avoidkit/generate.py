"""Graph constructors: deterministic families and the configuration model.

The configuration model pairs half-edges via a Fisher-Yates shuffle, which
is uniform over perfect matchings of the n*d half-edge slots: after the
shuffle, stubs 2k and 2k+1 form edge k, stored as (min, max).
`configuration_models` draws one graph per seed, stepping the generators
of up to LANES seeds at once; `configuration_model` is its one-seed case,
and every graph is the one its seed alone gives.  Simple
regular graphs are produced by rejection sampling on top of it: each
attempt stops at its first loop or repeated pair, and only a simple
pairing is built into a graph.  A request no attempt can meet (connected,
d=1, n > 2) is a ValueError before the first attempt.
"""

from __future__ import annotations

from .graphs import Graph, Multigraph, check_size, graph_from_edges, is_connected
from .rng import LANES, Xoshiro256

DEFAULT_REJECTION_BUDGET = 10**5


class RejectionBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"rejection budget of {budget} attempts exceeded")
        self.budget = budget


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return graph_from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete requires n >= 2")
    check_size(n, n * (n - 1) // 2)
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete_bipartite requires p, q >= 1")
    check_size(p + q, p * q)
    return graph_from_edges(p + q, ((i, p + j) for i in range(p) for j in range(q)))


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer pentagon
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return graph_from_edges(10, edges)


def circulant(n: int, offsets) -> Graph:
    offs = sorted(set(offsets))
    if n < 3 or not offs:
        raise ValueError("circulant requires n >= 3 and a nonempty offset set")
    for s in offs:
        if not 1 <= s <= n // 2:
            raise ValueError(f"circulant offset {s} outside [1, n/2]")
    check_size(n, n * len(offs))
    edges = set()
    for i in range(n):
        for s in offs:
            u, v = i, (i + s) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, edges)


def heawood() -> Graph:
    """The Heawood graph: 3-regular, girth 6 (bipartite point-line incidence of the Fano plane)."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    for i in range(0, 14, 2):
        edges.append((i, (i + 5) % 14))
    return graph_from_edges(14, edges)


def configuration_models(n: int, d: int, seeds: list[int]) -> list[Multigraph]:
    """configuration_model(n, d, seed) for each seed, in order.

    The generators of up to LANES seeds are stepped at once, one seed per
    lane of `Xoshiro256.batch`, which buffers the n*d - 1 draws a shuffle
    without rejections consumes; a shuffle that rejects a draw goes on
    along its own stream, so every graph is the one its seed alone gives.
    """
    if n < 1:
        raise ValueError(f"configuration_model requires n >= 1, got n={n}")
    if d < 1:
        raise ValueError("configuration_model requires d >= 1")
    if (n * d) % 2 != 0:
        raise ValueError("configuration_model requires n*d even")
    check_size(n, n * d // 2)
    all_stubs = [v for v in range(n) for _ in range(d)]
    graphs = []
    for k in range(0, len(seeds), LANES):
        for rng in Xoshiro256.batch(seeds[k:k + LANES], len(all_stubs) - 1):
            stubs = all_stubs.copy()
            rng.shuffle(stubs)
            pairs = iter(stubs)  # zipped with itself: (stubs[0], stubs[1]), (stubs[2], stubs[3]), ...
            graphs.append(Multigraph(n, [(u, v) if u <= v else (v, u) for u, v in zip(pairs, pairs)]))
    return graphs


def configuration_model(n: int, d: int, seed: int) -> Multigraph:
    """Uniform perfect matching of the n*d half-edges {0..n-1} x {0..d-1}.

    Each matched pair of half-edges contributes one edge slot, so the
    output always has exactly n*d/2 edges counted with multiplicity.
    """
    return configuration_models(n, d, [seed])[0]


def random_regular_simple(
    n: int,
    d: int,
    seed: int,
    connected_required: bool = False,
    budget: int = DEFAULT_REJECTION_BUDGET,
) -> tuple[Graph, int]:
    """Rejection-sample configuration_model until simple (and connected, if asked).

    Attempt k shuffles the stubs exactly as configuration_model(n, d, s_k)
    does, where s_k is the k-th draw of Xoshiro256(seed), and pairs them as
    the shuffle makes them final, so the attempt is rejected at its first
    loop or repeated pair.  Returns (graph, rejections).  Raises
    RejectionBudgetExceeded past `budget`, and ValueError before the first
    attempt for a request no attempt can meet.
    """
    if (n * d) % 2 != 0:
        raise ValueError("random_regular_simple requires n*d even")
    if not 0 < d < n:
        raise ValueError("random_regular_simple requires 0 < d < n")
    check_size(n, n * d // 2)
    if d == 1 and n > 2 and connected_required:
        raise ValueError("a 1-regular graph on more than 2 vertices is never connected")
    rng = Xoshiro256(seed)
    all_stubs = [v for v in range(n) for _ in range(d)]
    rejections = 0
    for _ in range(budget):
        stubs = all_stubs.copy()
        edges = set()
        # pair k is (stubs[2k], stubs[2k+1]), final once index 2k is yielded
        for i in Xoshiro256(rng.next_u64()).fisher_yates(stubs):
            if i & 1:
                continue
            u, v = stubs[i], stubs[i + 1]
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            g = graph_from_edges(n, edges)
            if not connected_required or is_connected(g):
                return g, rejections
        rejections += 1
    raise RejectionBudgetExceeded(budget)
