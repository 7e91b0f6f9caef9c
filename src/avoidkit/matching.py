"""Compatibility relation and the integer transportation solver.

The multiset bipartite matchings behind both coupling laws are collapsed
into integer transportation problems (row sums = supplies, column sums =
demands, support restricted to compatible cells).  The solver fills the
matrix greedily in row-major order, which is exactly the first stage of
Dinic max flow on the fresh network, and runs the later Dinic stages, in
deterministic augmentation order, only on the shortfall the fill leaves.
They run on the matrix itself, which holds every residual capacity, so no
flow network is built.  Feasibility is equivalent to the original
perfect-matching problem by flow integrality.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, chain

from .graphs import check_vertices


@dataclass(frozen=True)
class MoverPair:
    """Mover's two-step plan: (first_step, second_step) with second in N(first)."""

    first_step: int
    second_step: int


@dataclass(frozen=True)
class OtherPair:
    """Other walker's plan: one step plus the next excluded vertex."""

    step: int
    next_excluded: int


def compatible(g, mover: MoverPair, other: OtherPair) -> bool:
    """True iff b' avoids {a', a''} and, when a'' neighbors b', e' = a''."""
    ap, app = mover.first_step, mover.second_step
    bp, ep = other.step, other.next_excluded
    if bp == ap or bp == app:
        return False
    if g.has_edge(app, bp) and ep != app:
        return False
    return True


def mover_pairs(g, a: int, e: int) -> list[MoverPair]:
    """The set A: first step in N(a)\\{e}, second step any neighbor of the first."""
    return [
        MoverPair(ap, app)
        for ap in g.adjacency[a]
        if ap != e
        for app in g.adjacency[ap]
    ]


def other_pairs(g, b: int) -> list[OtherPair]:
    """The set B: step in N(b), next exclusion any neighbor of the step."""
    return [OtherPair(bp, ep) for bp in g.adjacency[b] for ep in g.adjacency[bp]]


def regular_allowed(g, a: int, b: int, e: int) -> list[list[bool]]:
    """The matrix [[compatible(g, mp, op) for op in other_pairs(g, b)]
    for mp in mover_pairs(g, a, e)], built per step b' instead of per cell.

    For a row (a', a''), the d(b') cells (b', e') of one step are all
    False when b' is a' or a'', all True when b' is not adjacent to a'',
    and True only at e' = a'' otherwise."""
    adj = g.adjacency
    steps = [(bp, adj[bp], [True] * len(adj[bp]), [False] * len(adj[bp])) for bp in adj[b]]
    out = []
    for ap in adj[a]:
        if ap == e:
            continue
        for app in adj[ap]:
            near = adj[app]
            row: list[bool] = []
            for bp, nbp, free, blocked in steps:
                if bp == ap or bp == app:
                    row += blocked
                elif bp in near:
                    row += [ep == app for ep in nbp]
                else:
                    row += free
            out.append(row)
    return out


def check_regular_triple(g, a: int, b: int, e: int) -> None:
    check_vertices(g, a=a, b=b, e=e)
    if b == a:
        raise ValueError("requires b != a")
    if e not in g.adjacency[a]:
        raise ValueError("requires e in N(a)")
    if g.has_edge(a, b) and e != b:
        raise ValueError("requires e = b when b in N(a)")
    if g.degree(a) < 2:  # column sums are d - 1
        raise ValueError("requires degree >= 2 at a")


def check_squarefree_pair(g, a: int, b: int) -> None:
    check_vertices(g, a=a, b=b)
    if b == a or g.has_edge(a, b):
        raise ValueError("requires b not in {a} u N(a)")
    if min(g.degree(a), g.degree(b)) < 3:
        raise ValueError("requires min degree >= 3 at both positions")


class TransportInfeasible(RuntimeError):
    """Raised when no integer matrix meets the supplies/demands on the
    allowed support; carries a violated-Hall-set certificate (min cut)."""

    def __init__(self, message: str, hall_rows: list[int], hall_cols: list[int]):
        super().__init__(f"{message}; Hall violator rows={hall_rows} reach only cols={hall_cols}")
        self.hall_rows = hall_rows
        self.hall_cols = hall_cols


def solve_transport(
    supplies: list[int], demands: list[int], allowed: list[list[bool]]
) -> list[list[int]]:
    """Integer matrix m >= 0 with row sums = supplies, column sums = demands,
    supported on allowed cells.  Raises TransportInfeasible with the min-cut
    Hall certificate when no such matrix exists.

    The result is that of deterministic Dinic max flow on the network
    src -> rows -> cols -> sink, arcs inserted src arcs first, then cells in
    row-major order, then sink arcs.  Dinic's first stage cannot use a
    reverse arc yet, and its DFS keeps its arc pointers: it walks the rows in
    order and each row's allowed columns in order, pushing min(residual
    supply, residual demand).  That fill is done here directly on the
    matrix.  When it leaves demand unmet, the later stages run on the matrix
    too, reading every residual capacity from it: row i -> col j has
    total - m[i][j], col j -> row i has m[i][j], src -> row i the row's spare
    supply and col j -> sink its unmet demand.  A row scans its allowed
    columns ascending; a column scans its allowed rows ascending, then the
    sink.  The BFS stops once the sink has its level, since every node at or
    past that level is a dead end for the DFS, and the stages stop once the
    shortfall is covered."""
    nr, nc = len(supplies), len(demands)
    total = sum(supplies)
    if total != sum(demands):
        raise ValueError("total supply must equal total demand")
    if min(supplies, default=0) < 0 or min(demands, default=0) < 0:
        raise ValueError("supplies and demands must be non-negative")
    m = [[0] * nc for _ in range(nr)]
    unmet = list(demands)
    spare = list(supplies)
    for i in range(nr):
        left = supplies[i]
        if not left:
            continue
        row, ok = m[i], allowed[i]
        for j in range(nc):
            need = unmet[j]
            if need and ok[j]:
                x = left if left < need else need
                row[j] = x
                unmet[j] = need - x
                left -= x
                if not left:
                    break
        spare[i] = left
    short = sum(unmet)
    if not short:
        return m

    row_cols = [[j for j in range(nc) if ok[j]] for ok in allowed]
    col_rows = [[i for i in range(nr) if allowed[i][j]] for j in range(nc)]

    def from_row(i: int, f: int) -> int:
        cols, row, up = row_cols[i], m[i], lr[i] + 1
        while itr[i] < len(cols):
            j = cols[itr[i]]
            cap = total - row[j]
            if cap and lc[j] == up:
                pushed = from_col(j, f if f < cap else cap)
                if pushed:
                    row[j] += pushed
                    return pushed
            itr[i] += 1
        return 0

    def from_col(j: int, f: int) -> int:
        rows, up = col_rows[j], lc[j] + 1
        while itc[j] < len(rows):
            i = rows[itc[j]]
            cap = m[i][j]
            if cap and lr[i] == up:
                pushed = from_row(i, f if f < cap else cap)
                if pushed:
                    m[i][j] -= pushed
                    return pushed
            itc[j] += 1
        if unmet[j] and sink == up:
            pushed = f if f < unmet[j] else unmet[j]
            unmet[j] -= pushed
            return pushed
        return 0

    while True:
        # BFS levels: src 0, rows odd, columns even, the sink one past a column
        lr, lc = [-1] * nr, [-1] * nc
        frontier = [i for i in range(nr) if spare[i]]
        for i in frontier:
            lr[i] = 1
        sink = -1
        level = 1
        while frontier and sink < 0:
            cols = []
            for i in frontier:
                row = m[i]
                for j in row_cols[i]:
                    if lc[j] < 0 and row[j] < total:
                        lc[j] = level + 1
                        cols.append(j)
            frontier = []
            for j in cols:
                for i in col_rows[j]:
                    if lr[i] < 0 and m[i][j]:
                        lr[i] = level + 2
                        frontier.append(i)
                if unmet[j]:
                    sink = level + 2
                    break
            level += 2
        if sink < 0:
            raise TransportInfeasible(
                f"max flow {total - short} < required {total}",
                [i for i in range(nr) if lr[i] >= 0],
                [j for j in range(nc) if lc[j] >= 0],
            )
        itr, itc = [0] * nr, [0] * nc
        for i in range(nr):
            while spare[i] and lr[i] == 1:
                pushed = from_row(i, spare[i])
                if not pushed:
                    break
                spare[i] -= pushed
                short -= pushed
                if not short:
                    return m


@dataclass(frozen=True, slots=True)
class TransportMatrix:
    """A solved coupling transport over row/column label tuples.

    The counts are stored once, as `cum`: the cumulative counts over the
    row-major cells, which the engines' draws bisect."""

    kind: str  # "regular" or "squarefree"
    row_labels: tuple
    col_labels: tuple
    cum: array
    row_sum: int
    col_sum: int
    swapped: bool = False  # squarefree only: rows index b's neighbors, not a's

    @property
    def total(self) -> int:
        return self.row_sum * len(self.row_labels)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The counts as rows: entries[r][c] at row_labels[r], col_labels[c]."""
        flat = [y - x for x, y in zip(chain((0,), self.cum), self.cum)]
        c = len(self.col_labels)
        return tuple(tuple(flat[i:i + c]) for i in range(0, len(flat), c))

    def check_sums(self) -> None:
        check_matrix_sums(self.entries, self.row_sum, self.col_sum, len(self.col_labels))


def check_matrix_sums(m, row_sum: int, col_sum: int, ncols: int) -> None:
    """Raise AssertionError unless every row of m sums to row_sum and m has
    ncols columns, each summing to col_sum."""
    for r, row in enumerate(m):
        if sum(row) != row_sum:
            raise AssertionError(f"row {r} sums to {sum(row)}, expected {row_sum}")
    cols = list(zip(*m))
    if len(cols) != ncols:
        raise AssertionError(f"{len(cols)} columns of entries, expected {ncols}")
    for c, col in enumerate(cols):
        if sum(col) != col_sum:
            raise AssertionError(f"column {c} sums to {sum(col)}, expected {col_sum}")


class LruCache:
    """Bounded memo for transport matrices, keyed per state triple/pair."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if key in self._data:
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def solved_transport(kind: str, rows: tuple, cols: tuple, row_sum: int, col_sum: int,
                     allowed: list[list[bool]], violated: str, swapped: bool = False) -> TransportMatrix:
    """Solve the transport with these sums over `allowed`, check the solver's
    matrix and store it.  An infeasible one is re-raised as
    "hypothesis violated {violated}", with its Hall certificate."""
    try:
        m = solve_transport([row_sum] * len(rows), [col_sum] * len(cols), allowed)
    except TransportInfeasible as err:
        raise TransportInfeasible(f"hypothesis violated {violated}", err.hall_rows, err.hall_cols) from err
    check_matrix_sums(m, row_sum, col_sum, len(cols))
    return TransportMatrix(kind, rows, cols, array("I", accumulate(chain.from_iterable(m))),
                           row_sum, col_sum, swapped)


def build_regular_transport(g, a: int, b: int, e: int) -> TransportMatrix:
    """Transport matrix m(i,j,k,l) for the d-regular protocol at (a, b, e):
    row sums d over mover-pairs, column sums d-1 over other-pairs."""
    check_regular_triple(g, a, b, e)
    d = g.degree(a)
    return solved_transport("regular", tuple(mover_pairs(g, a, e)), tuple(other_pairs(g, b)), d, d - 1,
                            regular_allowed(g, a, b, e), f"(H_{d} present?) at (a={a}, b={b}, e={e})")


def build_squarefree_transport(g, a: int, b: int) -> TransportMatrix:
    """Transport matrix m(i,j) for the square-free one-step coupling.

    Roles are swapped, and `swapped` set, when deg(a) < deg(b), so rows
    index the higher-degree side (k rows with row sum l, l columns with
    column sum k)."""
    check_squarefree_pair(g, a, b)
    swapped = g.degree(a) < g.degree(b)
    u, v = (b, a) if swapped else (a, b)
    rows = g.adjacency[u]  # k vertices
    cols = g.adjacency[v]  # l vertices, l <= k
    allowed = [[cj != ri and not g.has_edge(ri, cj) for cj in cols] for ri in rows]
    return solved_transport("squarefree", rows, cols, len(cols), len(rows), allowed,
                            f"(square present?) at (a={a}, b={b})", swapped)
