"""Forbidden-subgraph detectors, scenario classification, and engine verdicts.

`codegrees` counts the common neighbors of each pair over the 2-paths
u-c-v in O(n·d²).  H_d (an edge whose endpoints share d-1 further
neighbors) is an adjacent pair of codegree >= d-1, and the cubic
obstruction H~_3 (K_{2,3} plus one edge inside the size-3 part) is a pair
of codegree >= 3 with two adjacent common neighbors.  When no degree
exceeds d, such an H_d pair has both degrees d and equal closed
neighborhoods (Lemma 3.1), and when no degree exceeds 3 an H~_3 pair has
equal neighborhoods of size 3; so on those graphs both detectors key the
neighborhoods in one O(n·d) pass instead of counting 2-paths.  A 4-cycle
is a pair of codegree >= 2, always read from `codegrees`.  All detectors
return the lexicographically first witness.

Each engine's hypothesis is stated once, in `engine_obstruction`; the
verdict and `require_engine_applicable`, which decides the engine a run
uses, ask it.  A failed hypothesis raises `HypothesisError`, a ValueError
that marks a domain failure rather than bad input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Sequence

from .graphs import Graph, Profile, basic_profile, common_neighbors


def codegrees(g: Graph) -> Counter:
    """Common-neighbor count of each pair (u, v), u < v, that has one (adjacency is sorted)."""
    return Counter(chain.from_iterable(combinations(nbrs, 2) for nbrs in g.adjacency))


def contains_Hd(g: Graph, d: int) -> tuple[int, int] | None:
    """First adjacent pair sharing >= d-1 neighbors, or None.  When no degree
    exceeds d these are the pairs of degree-d vertices with equal closed
    neighborhoods, read from `closed_neighborhood_duplicates`."""
    if d < 2:
        raise ValueError("contains_Hd requires d >= 2")
    adj = g.adjacency
    if max(map(len, adj), default=0) <= d:
        return next((p for p in closed_neighborhood_duplicates(g) if len(adj[p[0]]) == d), None)
    return min((p for p, c in codegrees(g).items() if c >= d - 1 and g.has_edge(*p)), default=None)


def _equal_key_pairs(keys: Sequence[Hashable]) -> list[tuple[int, int]]:
    """All pairs (a, b), a < b, with keys[a] == keys[b], in sorted order; the
    vertices are grouped only when some key repeats."""
    count = Counter(keys)
    if len(count) == len(keys):
        return []
    groups: dict[Hashable, list[int]] = {}
    for v, key in enumerate(keys):
        if count[key] > 1:
            groups.setdefault(key, []).append(v)
    return sorted(chain.from_iterable(combinations(m, 2) for m in groups.values()))


def closed_neighborhood_duplicates(g: Graph) -> list[tuple[int, int]]:
    """All pairs (a, b), a < b, with N(a) u {a} == N(b) u {b}, in sorted order."""
    return _equal_key_pairs([frozenset(nbrs + (v,)) for v, nbrs in enumerate(g.adjacency)])


def contains_H3tilde(g: Graph) -> tuple[int, int, int, int] | None:
    """First (a, b, ci, cj) with >= 3 common neighbors of which ci ~ cj, or
    None.  When no degree exceeds 3 the candidate pairs are the pairs of
    degree-3 vertices with the same (sorted) neighbors."""
    adj = g.adjacency
    if max(map(len, adj), default=0) <= 3:
        pairs = [p for p in _equal_key_pairs(adj) if len(adj[p[0]]) == 3]
    else:
        pairs = sorted(p for p, c in codegrees(g).items() if c >= 3)
    for a, b in pairs:
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
    for a1, a2 in combinations(g.adjacency[a], 2):
        for b1, b2 in combinations(g.adjacency[b], 2):
            if (b1 not in (a1, a2) and b2 not in (a1, a2) and g.has_edge(a1, b1)
                    and g.has_edge(a1, b2) and g.has_edge(a2, b1) and g.has_edge(a2, b2)):
                return (a1, a2, b1, b2)
    return None


@dataclass(frozen=True)
class ScenarioClass:
    tag: str  # S1, S2, S3a, S3b, S4, S5, S6
    witness: tuple[int, ...]


S1 = ScenarioClass("S1", ())  # every far pair's class, made once


def radius2_set(g: Graph, v: int) -> frozenset[int]:
    """The vertices within distance 2 of v, v among them when it has a
    neighbour: the per-vertex table of the cubic S1 test."""
    adj = g.adjacency
    return frozenset(chain(adj[v], *(adj[y] for y in adj[v])))


def classify_scenario(g: Graph, a: int, b: int, near_b: frozenset[int] | None = None) -> ScenarioClass:
    """Case label for a cubic position pair at distance >= 2.

    Decision order: 3 common neighbors -> S2; 2 -> S3a/S3b by adjacency of
    the common pair; else K_{2,2} admission -> S6; 1 common -> S4;
    distance 3 -> S5; distance >= 4 -> S1.  A common neighbor or a K_{2,2}
    witness (a-a1-b1-b) forces distance <= 3, so distance >= 4 is tested
    first, and returns S1 without the other tests: it holds exactly when
    N(a) misses `near_b`, b's `radius2_set`, which is made here when the
    caller keeps none.
    """
    if a == b or g.has_edge(a, b):
        raise ValueError("classify_scenario requires distance(a, b) >= 2")
    if (radius2_set(g, b) if near_b is None else near_b).isdisjoint(g.adjacency[a]):
        return S1
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


class HypothesisError(ValueError):
    """The graph satisfies no engine's hypothesis, or not the named one's."""


@dataclass(frozen=True)
class Verdict:
    engine: str  # cycle | cubic | regular | squarefree | none
    checks: tuple[tuple[str, str | None], ...]  # (engine, its obstruction or None), in checking order

    @property
    def obstruction(self) -> str | None:
        """Every checked engine's obstruction when none holds, else None."""
        return "; ".join(f"{e}: {why}" for e, why in self.checks) if self.engine == "none" else None

    @property
    def also_squarefree(self) -> bool:
        """Whether squarefree holds too, beside the other engine picked."""
        return self.engine != "squarefree" and ("squarefree", None) in self.checks


def engine_obstruction(g: Graph, engine: str, prof: Profile) -> str | None:
    """Why g fails the named engine's hypothesis, naming the witness; None
    when it holds.  `prof` is g's basic_profile; connectivity is checked by
    the callers."""
    d = prof.regular_degree
    if engine == "cycle":
        return None if d == 2 else "not 2-regular"
    if engine == "cubic":
        if d != 3 or g.n < 5:
            return "not 3-regular on >= 5 vertices"
        wit = contains_H3tilde(g)
        return None if wit is None else f"contains H~_3 at {wit}"
    if engine == "regular":
        if d is None or d < 4 or g.n < 5:
            return "not d-regular with d >= 4 on >= 5 vertices"
        wit = contains_Hd(g, d)
        return None if wit is None else f"contains H_{d} at pair {wit}"
    if engine == "squarefree":
        if prof.min_degree < 3:
            return "minimum degree < 3"
        wit = is_square_free(g)
        return None if wit is None else f"contains a 4-cycle {wit}"
    raise ValueError(f"unknown engine {engine!r}")


def admissibility_verdict(g: Graph) -> Verdict:
    """Which coupling engine the graph admits: the engine its degree selects
    (cycle, cubic or regular) when that one's hypothesis holds, else
    squarefree; `also_squarefree` records that squarefree holds too."""
    prof = basic_profile(g)
    if not prof.connected:
        raise HypothesisError("admissibility requires a connected graph")
    if g.n < 2:
        raise HypothesisError("admissibility requires n >= 2")
    d = prof.regular_degree
    engine = {2: "cycle", 3: "cubic"}.get(d, "regular")
    why = engine_obstruction(g, engine, prof)
    sq = engine_obstruction(g, "squarefree", prof)
    checks = ((engine, why), ("squarefree", sq))
    if why is None:
        return Verdict(engine, checks)
    return Verdict("squarefree" if sq is None else "none", checks)


def require_engine_applicable(g: Graph, engine: str) -> str:
    """The engine a run on g uses: for "auto" the verdict's engine, else the
    named one.  Raises HypothesisError when no engine, or not the named one,
    applies."""
    if engine == "auto":
        verdict = admissibility_verdict(g)
        if verdict.engine == "none":
            raise HypothesisError(f"no engine applies: {verdict.obstruction}")
        return verdict.engine
    prof = basic_profile(g)
    if not prof.connected:
        raise HypothesisError("engine requires a connected graph")
    why = engine_obstruction(g, engine, prof)
    if why is not None:
        raise HypothesisError(f"{engine} engine hypothesis fails: {why}")
    return engine
