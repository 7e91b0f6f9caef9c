"""Forbidden-subgraph detectors, scenario classification, and engine verdicts.

Every detector derives from one co-degree pass, `codegrees`, which counts
the common neighbors of each pair over the 2-paths u-c-v in O(n·d²).  H_d
(an edge whose endpoints share d-1 further neighbors) is an adjacent pair
of codegree >= d-1; in a d-regular graph this is exactly two vertices with
equal closed neighborhoods.  The cubic obstruction H~_3 (K_{2,3} plus one
edge inside the size-3 part) is a pair of codegree >= 3 with two adjacent
common neighbors; a 4-cycle is a pair of codegree >= 2.  All detectors
return the lexicographically first witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations

from .graphs import Graph, basic_profile, common_neighbors


def codegrees(g: Graph) -> Counter:
    """Common-neighbor count of each pair (u, v), u < v, that has one (adjacency is sorted)."""
    return Counter(chain.from_iterable(combinations(nbrs, 2) for nbrs in g.adjacency))


def contains_Hd(g: Graph, d: int) -> tuple[int, int] | None:
    """First adjacent pair sharing >= d-1 neighbors, or None."""
    if d < 2:
        raise ValueError("contains_Hd requires d >= 2")
    return min((p for p, c in codegrees(g).items() if c >= d - 1 and g.has_edge(*p)), default=None)


def closed_neighborhood_duplicates(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with N(a) u {a} == N(b) u {b}."""
    closed = [frozenset(g.adjacency[v]) | {v} for v in range(g.n)]
    groups: dict[frozenset, list[int]] = {}
    for v, c in enumerate(closed):
        groups.setdefault(c, []).append(v)
    return sorted(chain.from_iterable(combinations(m, 2) for m in groups.values()))


def contains_H3tilde(g: Graph) -> tuple[int, int, int, int] | None:
    """First (a, b, ci, cj) with >= 3 common neighbors of which ci ~ cj, or None."""
    for a, b in sorted(p for p, c in codegrees(g).items() if c >= 3):
        for x, y in combinations(common_neighbors(g, a, b), 2):
            if g.has_edge(x, y):
                return (a, b, x, y)
    return None


def is_square_free(g: Graph) -> tuple[int, int, int, int] | None:
    """None if every pair has <= 1 common neighbor, else a C4 witness (u, c1, v, c2)."""
    pair = min((p for p, c in codegrees(g).items() if c >= 2), default=None)
    if pair is None:
        return None
    cn = common_neighbors(g, *pair)
    return (pair[0], cn[0], pair[1], cn[1])


def admits_K22(g: Graph, a: int, b: int) -> tuple[int, int, int, int] | None:
    """First (a1, a2, b1, b2) with a1,a2 in N(a), b1,b2 in N(b), four distinct
    vertices, and all four cross edges present."""
    if a == b or g.has_edge(a, b):
        raise ValueError("admits_K22 requires a != b and b not in N(a)")
    na, nb = g.adjacency[a], g.adjacency[b]
    for i1 in range(len(na)):
        a1 = na[i1]
        for i2 in range(i1 + 1, len(na)):
            a2 = na[i2]
            for j1 in range(len(nb)):
                b1 = nb[j1]
                if b1 in (a1, a2):
                    continue
                for j2 in range(j1 + 1, len(nb)):
                    b2 = nb[j2]
                    if b2 in (a1, a2):
                        continue
                    if (
                        g.has_edge(a1, b1)
                        and g.has_edge(a1, b2)
                        and g.has_edge(a2, b1)
                        and g.has_edge(a2, b2)
                    ):
                        return (a1, a2, b1, b2)
    return None


@dataclass(frozen=True)
class ScenarioClass:
    tag: str  # S1, S2, S3a, S3b, S4, S5, S6
    witness: tuple[int, ...]


def classify_scenario(g: Graph, a: int, b: int) -> ScenarioClass:
    """Case label for a cubic position pair at distance >= 2.

    Decision order: 3 common neighbors -> S2; 2 -> S3a/S3b by adjacency of
    the common pair; else K_{2,2} admission -> S6; 1 common -> S4;
    distance 3 -> S5; distance >= 4 -> S1.  A common neighbor or a K_{2,2}
    witness (a-a1-b1-b) forces distance <= 3, so distance >= 4 is tested
    first, and returns S1 without the other tests: it holds exactly when
    N(a) misses every vertex within distance 2 of b.
    """
    if a == b or g.has_edge(a, b):
        raise ValueError("classify_scenario requires distance(a, b) >= 2")
    adj = g.adjacency
    if set(adj[a]).isdisjoint(chain(adj[b], *(adj[y] for y in adj[b]))):
        return ScenarioClass("S1", ())
    cn = common_neighbors(g, a, b)
    if len(cn) == 3:
        return ScenarioClass("S2", cn)
    if len(cn) == 2:
        tag = "S3b" if g.has_edge(cn[0], cn[1]) else "S3a"
        return ScenarioClass(tag, cn)
    quad = admits_K22(g, a, b)
    if quad is not None:
        return ScenarioClass("S6", quad)
    if len(cn) == 1:
        return ScenarioClass("S4", cn)
    return ScenarioClass("S5", ())  # no common neighbor, so the distance is 3


@dataclass(frozen=True)
class Verdict:
    engine: str  # cycle | cubic | regular | squarefree | none
    d: int | None = None
    obstruction: str | None = None
    also_squarefree: bool = False


def admissibility_verdict(g: Graph) -> Verdict:
    """Which coupling engine the graph admits.

    Preference order when several apply: regular/cubic first, then
    squarefree (recorded via also_squarefree).
    """
    prof = basic_profile(g)
    if not prof.connected:
        raise ValueError("admissibility requires a connected graph")
    if g.n < 2:
        raise ValueError("admissibility requires n >= 2")
    c4 = is_square_free(g)
    sq_free = c4 is None and prof.min_degree >= 3

    d = prof.regular_degree
    if d == 2:
        return Verdict("cycle", d=2)
    if d == 3 and g.n >= 5:
        wit = contains_H3tilde(g)
        if wit is None:
            return Verdict("cubic", d=3, also_squarefree=sq_free)
        if sq_free:
            return Verdict("squarefree")
        return Verdict("none", obstruction=f"contains H~_3 at {wit}")
    if d is not None and d >= 4 and g.n >= 5:
        wit = contains_Hd(g, d)
        if wit is None:
            return Verdict("regular", d=d, also_squarefree=sq_free)
        if sq_free:
            return Verdict("squarefree")
        return Verdict("none", obstruction=f"contains H_{d} at pair {wit}")
    if sq_free:
        return Verdict("squarefree")

    if prof.min_degree < 3 and d is None:
        return Verdict("none", obstruction="min degree < 3 and not regular")
    if c4 is not None:
        return Verdict("none", obstruction=f"contains a 4-cycle {c4}")
    return Verdict("none", obstruction="no construction applies")


def require_engine_applicable(g: Graph, engine: str) -> None:
    """Raise unless the graph satisfies the named engine's hypotheses."""
    prof = basic_profile(g)
    if not prof.connected:
        raise ValueError("engine requires a connected graph")
    if engine == "cycle":
        if prof.regular_degree != 2:
            raise ValueError("cycle engine requires a 2-regular graph")
    elif engine == "cubic":
        if prof.regular_degree != 3 or g.n < 5:
            raise ValueError("cubic engine requires a 3-regular graph on >= 5 vertices")
        wit = contains_H3tilde(g)
        if wit is not None:
            raise ValueError(f"cubic engine hypothesis fails: contains H~_3 at {wit}")
    elif engine == "regular":
        d = prof.regular_degree
        if d is None or d < 4 or g.n < 5:
            raise ValueError("regular engine requires a d-regular graph, d >= 4, n >= 5")
        wit = contains_Hd(g, d)
        if wit is not None:
            raise ValueError(f"regular engine hypothesis fails: contains H_{d} at {wit}")
    elif engine == "squarefree":
        if prof.min_degree < 3:
            raise ValueError("squarefree engine requires minimum degree >= 3")
        wit = is_square_free(g)
        if wit is not None:
            raise ValueError(f"squarefree engine hypothesis fails: 4-cycle {wit}")
    else:
        raise ValueError(f"unknown engine {engine!r}")
