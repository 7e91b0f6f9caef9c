"""Immutable simple graphs, multigraphs, and the edge-list text format.

Vertices are dense integers 0..n-1.  Adjacency is stored as sorted tuples
so every iteration order in the package is deterministic.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator


# Size limits, checked before anything is allocated per vertex or per edge.
MAX_VERTICES = 100_000
MAX_EDGES = 1_000_000

TEXT_CHUNK_VERTICES = 4096  # vertices per piece of `Graph.text_chunks`


class GraphParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]
    duplicate_edges_dropped: int = 0

    def __post_init__(self):
        """Reject the first fault in vertex order, then neighbour order: a
        loop, an id outside 0..n-1, a neighbour listed twice, a row that is
        not increasing, or an edge that the neighbour does not list back.  A
        neighbour costs one test: it must exceed the one before it, which
        also rules out repeats and negative ids."""
        adj, n = self.adjacency, self.n
        if len(adj) != n:
            raise ValueError("adjacency length must equal n")
        for v, nbrs in enumerate(adj):
            prev = -1
            for u in nbrs:
                if u <= prev or u == v or u >= n or v not in adj[u]:
                    if u == v:
                        raise ValueError(f"loop at vertex {v}")
                    if not 0 <= u < n:
                        raise ValueError(f"vertex {u} out of range")
                    if u <= prev:
                        # the row before u is increasing and ends at prev's first place
                        if u in nbrs[:nbrs.index(prev) + 1]:
                            raise ValueError(f"parallel edges at vertex {v}")
                        raise ValueError(f"adjacency of vertex {v} is not increasing")
                    raise ValueError(f"asymmetric edge ({v},{u})")
                prev = u

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def text_chunks(self) -> Iterator[str]:
        """The edge-list text in bounded pieces: the `n m` line, then the
        `u v` lines (u < v) of `TEXT_CHUNK_VERTICES` vertices at a time."""
        yield f"{self.n} {self.edge_count}\n"
        adj = self.adjacency
        for start in range(0, self.n, TEXT_CHUNK_VERTICES):
            yield "".join([f"{u} {v}\n" for u in range(start, min(start + TEXT_CHUNK_VERTICES, self.n))
                           for v in adj[u] if u < v])

    def to_text(self) -> str:
        """`text_chunks()` joined."""
        return "".join(self.text_chunks())

    def digest(self) -> str:
        """The first 16 hex digits of the sha256 of `to_text()`, hashed a
        piece of `text_chunks()` at a time.  A frozen graph's text cannot
        change, so the value is computed on the first call and kept on the
        instance (not a field: equality, hashing and `replace` ignore it)."""
        value = self.__dict__.get("_digest")
        if value is None:
            h = hashlib.sha256()
            for piece in self.text_chunks():
                h.update(piece.encode("utf-8"))
            value = h.hexdigest()[:16]
            object.__setattr__(self, "_digest", value)
        return value


def check_vertices(g: Graph, **ids: int | None) -> None:
    """Raise ValueError on the first given id that is not a vertex of g; None is skipped."""
    for name, v in ids.items():
        if v is not None and not 0 <= v < g.n:
            raise ValueError(f"{name}={v} is not a vertex (0..{g.n - 1})")


def check_size(n: int, m: int = 0) -> None:
    """Raise ValueError when n vertices or m edges exceed the size limits."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise ValueError(f"{m} edges exceed the limit of {MAX_EDGES}")


def graph_from_edges(n: int, edges, *, dedupe: bool = False) -> Graph:
    """Build a Graph from (u, v) pairs.

    With dedupe=True repeated edges are dropped and counted instead of
    rejected; loops are always an error, and so is passing the size limits.
    """
    check_size(n)
    adj: list[set[int]] = [set() for _ in range(n)]
    dropped = m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if v in adj[u]:
            if not dedupe:
                raise ValueError(f"duplicate edge ({u},{v})")
            dropped += 1
            continue
        m += 1
        if m > MAX_EDGES:
            raise ValueError(f"more than {MAX_EDGES} edges")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj), dropped)


def parse_graph(text: str) -> Graph:
    """Parse the interchange edge-list format: 'n m' then m lines 'u v'.

    Duplicate edges are deduplicated (counted on the returned Graph);
    loops, out-of-range vertices and a non-blank line after the m-th edge
    line are errors naming the line number.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(f"bad header at line 1: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(f"bad header at line 1: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError("negative n or m at line 1")
    try:
        check_size(n, m)
    except ValueError as err:
        raise GraphParseError(f"{err} at line 1") from None
    if len(lines) < m + 1:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")

    def edges():
        for lineno in range(2, m + 2):
            raw = lines[lineno - 1]
            parts = raw.split()
            if len(parts) != 2:
                raise GraphParseError(f"malformed edge at line {lineno}: {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"malformed edge at line {lineno}: {raw!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"vertex out of range at line {lineno}")
            if u == v:
                raise GraphParseError(f"loop at line {lineno}")
            yield u, v
        for lineno in range(m + 2, len(lines) + 1):
            if lines[lineno - 1].strip():
                raise GraphParseError(f"extra line {lineno} after the header's {m} edge line(s): "
                                      f"{lines[lineno - 1]!r}")

    return graph_from_edges(n, edges(), dedupe=True)


@dataclass
class Profile:
    n: int
    edge_count: int
    min_degree: int
    max_degree: int
    regular_degree: int | None
    connected: bool


def basic_profile(g: Graph) -> Profile:
    degs = [g.degree(v) for v in range(g.n)] or [0]
    lo, hi = min(degs), max(degs)
    return Profile(
        n=g.n,
        edge_count=g.edge_count,
        min_degree=lo,
        max_degree=hi,
        regular_degree=lo if lo == hi else None,
        connected=is_connected(g),
    )


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                queue.append(u)
    return count == g.n


def common_neighbors(g: Graph, u: int, v: int) -> tuple[int, ...]:
    if u == v:
        raise ValueError("common_neighbors requires u != v")
    nv = set(g.adjacency[v])
    return tuple(x for x in g.adjacency[u] if x in nv)


@dataclass
class Multigraph:
    """Edge list with multiplicities; loops allowed (configuration model output)."""

    n: int
    edges: list[tuple[int, int]] = field(default_factory=list)  # (u, v) with u <= v

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"edge ({u},{v}) invalid for n={self.n}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def loop_count(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    def multi_edge_count(self) -> int:
        """Number of edge slots beyond the first between each vertex pair (loops excluded)."""
        return sum(c - 1 for (u, v), c in Counter(self.edges).items() if u != v)

    def is_simple(self) -> bool:
        if self.loop_count():
            return False
        return self.multi_edge_count() == 0

    def simple_support(self) -> Graph:
        """Underlying simple graph: drop loops, collapse multiplicities.

        One Counter pass over the edge slots; the adjacency is built from
        the distinct non-loop pairs, and duplicate_edges_dropped is
        multi_edge_count().
        """
        check_size(self.n)
        adj: list[list[int]] = [[] for _ in range(self.n)]
        dropped = m = 0
        for (u, v), c in Counter(self.edges).items():
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
                dropped += c - 1
                m += 1
        if m > MAX_EDGES:
            raise ValueError(f"more than {MAX_EDGES} edges")
        return Graph(self.n, tuple(map(tuple, map(sorted, adj))), dropped)

    def census(self) -> tuple[int, int, Graph]:
        """(loop_count(), multi_edge_count(), simple_support()) from simple_support's one pass.

        Each edge slot is a loop, the first slot of a support edge or a
        dropped repeat, so the loops are the slots the other two leave.
        """
        g = self.simple_support()
        return self.edge_count - g.edge_count - g.duplicate_edges_dropped, g.duplicate_edges_dropped, g
