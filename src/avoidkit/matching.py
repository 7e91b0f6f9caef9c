"""Compatibility relation, the two support rules and the integer transportation solver.

The multiset bipartite matchings behind both coupling laws are collapsed
into integer transportation problems: every row supplies the same amount,
every column demands the same amount, and each row may use only the
columns of its support, a bitmask (bit j for column j).  Two support rules
make those bitmasks:

  regular_supports   - mover pairs (a', a'') against other pairs (b', e'),
                       the `compatible` rule of the excluded-vertex rounds
  avoiding_supports  - a vertex against every vertex that is neither it
                       nor one of its neighbours, the rule of the
                       square-free transport and of the cubic engine's
                       one-step matching

and `solve_transport` is the one solver for both.  It fills the matrix
greedily in row-major order over each row's support and the columns whose
demand is still unmet, which is exactly the first stage of Dinic max flow
on the fresh network, and runs the later Dinic stages, in deterministic
augmentation order, only on the shortfall the fill leaves (`augment`).
Both run on the nonzero cells and the bitmasks, so neither a flow network
nor a dense matrix is built.  Feasibility is equivalent to the original
perfect-matching problem by flow integrality.  A solved transport is
stored as its nonzero cells and its index space (`TransportMatrix`): a
regular transport keeps the first steps N(a)\\{e}, N(b) and the host's
shared adjacency instead of its pair labels, so a cache entry costs in
proportion to its nonzero cells, not to rows x columns, and its labels are
derived only when they are read.  `BoundedCache` is the engines' one cache
of such entries and of per-vertex tables: it keeps insertion order only and
drops the oldest entry when full, so a hit is one dict lookup.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from operator import lt, sub
from struct import pack

from .graphs import check_vertices


def compatible(g, mover: tuple[int, int], other: tuple[int, int]) -> bool:
    """True iff b' avoids {a', a''} and, when a'' neighbors b', e' = a'',
    for the mover pair (a', a'') and the other pair (b', e')."""
    ap, app = mover
    bp, ep = other
    if bp == ap or bp == app:
        return False
    if g.has_edge(app, bp) and ep != app:
        return False
    return True


def mover_pairs(g, a: int, e: int) -> tuple[tuple[int, int], ...]:
    """The set A as (a', a'') pairs: a' in N(a)\\{e}, a'' any neighbor of a'."""
    adj = g.adjacency
    return tuple([(ap, app) for ap in adj[a] if ap != e for app in adj[ap]])


def other_pairs(g, b: int) -> tuple[tuple[int, int], ...]:
    """The set B as (b', e') pairs: b' in N(b), e' any neighbor of b'."""
    adj = g.adjacency
    return tuple([(bp, ep) for bp in adj[b] for ep in adj[bp]])


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
    adj = g.adjacency
    d = len(adj[a])
    for v in chain((b,), adj[a], adj[b]):
        if len(adj[v]) != d:
            raise ValueError(f"requires a regular host: vertex {v} has degree {len(adj[v])}, "
                             f"a={a} has degree {d}")


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


def solve_transport(supply: int, demand: int, supports: list[int], nc: int) -> tuple[list[int], list[int]]:
    """The integer matrix m >= 0 whose len(supports) rows each sum to
    `supply` and whose nc columns each sum to `demand`, with row i
    supported on the bitmask supports[i], as the ascending row-major flat
    indices i*nc + j and the counts of its nonzero cells.  Raises
    TransportInfeasible with the min-cut Hall certificate when no such
    matrix exists.

    The result is that of deterministic Dinic max flow on the network
    src -> rows -> cols -> sink, arcs inserted src arcs first, then cells in
    row-major order, then sink arcs.  Dinic's first stage cannot use a
    reverse arc yet, and its DFS keeps its arc pointers: it walks the rows in
    order and each row's supported columns in ascending order, pushing
    min(residual supply, residual demand).  That fill is done here
    directly, over each row's support and the columns with demand still
    unmet; `augment` runs the later stages on whatever demand it leaves
    unmet."""
    nr = len(supports)
    total = supply * nr
    if total != demand * nc:
        raise ValueError("total supply must equal total demand")
    if supply < 0 or demand < 0:
        raise ValueError("supplies and demands must be non-negative")
    cells: dict[int, int] = {}
    unmet = [demand] * nc
    spare = [0] * nr
    open_cols = (1 << nc) - 1 if demand else 0
    for i, support in enumerate(supports):
        left, base, todo = supply, i * nc, support & open_cols
        while left and todo:
            low = todo & -todo
            j = low.bit_length() - 1
            need = unmet[j]
            if left < need:
                cells[base + j] = left
                unmet[j] = need - left
                left = 0
                break
            cells[base + j] = need
            unmet[j] = 0
            open_cols ^= low
            left -= need
            todo ^= low
        spare[i] = left
    if not open_cols:  # the fill went row-major, so the cells are in order
        return list(cells), list(cells.values())
    augment(cells, spare, unmet, total, supports)
    order = sorted(cells)
    return order, [cells[f] for f in order]


def augment(cells: dict[int, int], spare: list[int], unmet: list[int], total: int,
            supports: list[int]) -> None:
    """Dinic's stages after the first, run on a partly filled matrix until
    no demand is unmet; raises TransportInfeasible with the min-cut Hall
    certificate when the flow cannot grow.

    `cells` maps the row-major flat index i*C + j of each nonzero cell to
    its count, and is updated in place.  `spare` is each row's unused
    supply, `unmet` each column's unmet demand, and `supports[i]` row i's
    allowed columns as a bitmask (bit j for column j).  Every residual
    capacity is read from these.  A row -> column arc on the support always
    has room for the flow pushed along it, since its cell holds at most the
    flow so far, which falls short of the total by the rows' spare supply;
    column j -> row i has the cell's count; src -> row i the row's spare
    supply and column j -> sink its unmet demand.  So the residual graph is
    the supports plus, per column, the bitmask of rows whose cell is
    nonzero.  Each BFS level is a bitmask too: src is level 0, rows are odd
    levels, columns even levels.  The BFS stops at the first column level
    with unmet demand, which puts the sink one level past it.  The DFS keeps
    Dinic's arc pointers as the lowest row or column it may still try: a
    row tries its columns at the next level ascending, a column its rows at
    the next level ascending and then the sink.  The stages stop once the
    shortfall is covered."""
    nr, nc = len(spare), len(unmet)
    short = sum(unmet)
    flows = [0] * nc  # bit i of flows[j] is set iff cell (i, j) is nonzero
    for f in cells:
        flows[f % nc] |= 1 << (f // nc)

    def from_row(i: int, f: int, level: int) -> int:
        todo = supports[i] & at[level + 1] & (-1 << itr[i])
        while todo:
            low = todo & -todo
            j = itr[i] = low.bit_length() - 1
            pushed = from_col(j, f, level + 1)
            if pushed:
                k = i * nc + j
                if k in cells:
                    cells[k] += pushed
                else:
                    cells[k] = pushed
                    flows[j] |= 1 << i
                return pushed
            todo ^= low
        itr[i] = nc
        return 0

    def from_col(j: int, f: int, level: int) -> int:
        todo = flows[j] & at[level + 1] & (-1 << itc[j])
        while todo:
            low = todo & -todo
            i = itc[j] = low.bit_length() - 1
            k = i * nc + j
            cap = cells[k]
            pushed = from_row(i, f if f < cap else cap, level + 1)
            if pushed:
                if pushed < cap:
                    cells[k] = cap - pushed
                else:
                    del cells[k]
                    flows[j] ^= low
                return pushed
            todo ^= low
        itc[j] = nr
        if unmet[j] and level + 1 == sink:
            pushed = f if f < unmet[j] else unmet[j]
            unmet[j] -= pushed
            return pushed
        return 0

    while True:
        starts = [i for i in range(nr) if spare[i]]
        at = [0, sum(1 << i for i in starts)]  # the rows or columns at each level
        seen_rows, seen_cols, frontier, sink = at[1], 0, starts, -1
        while frontier:
            reach = 0
            for i in frontier:
                reach |= supports[i]
            reach &= ~seen_cols
            seen_cols |= reach
            at.append(reach)
            cols = set_bits(reach)
            if any(unmet[j] for j in cols):
                sink = len(at)
                at.append(0)
                break
            reach = 0
            for j in cols:
                reach |= flows[j]
            reach &= ~seen_rows
            seen_rows |= reach
            at.append(reach)
            frontier = set_bits(reach)
        if sink < 0:
            raise TransportInfeasible(f"max flow {total - short} < required {total}",
                                      set_bits(seen_rows), set_bits(seen_cols))
        itr, itc = [0] * nr, [0] * nc
        for i in starts:
            while spare[i]:
                pushed = from_row(i, spare[i], 1)
                if not pushed:
                    break
                spare[i] -= pushed
                short -= pushed
                if not short:
                    return


def set_bits(x: int) -> list[int]:
    """The positions of x's set bits, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def regular_table(g, b: int) -> tuple[int, dict[int, int], dict[int, int]]:
    """b's per-vertex table for `regular_supports`: (full, group, drop),
    bitmasks over other_pairs(g, b).  group[b'] holds the bits of the d(b')
    cells of step b', and drop[x] those of group[x] and, for each step b'
    in N(x), every cell of b' but (b', x); full holds every cell."""
    adj = g.adjacency
    group: dict[int, int] = {}
    drop: dict[int, int] = {}
    lo = 0
    for bp in adj[b]:
        nbp = adj[bp]
        mask = group[bp] = ((1 << len(nbp)) - 1) << lo
        drop[bp] = drop.get(bp, 0) | mask
        for ep in nbp:
            drop[ep] = drop.get(ep, 0) | (mask ^ (1 << lo))
            lo += 1
    return (1 << lo) - 1, group, drop


def regular_supports(g, heads: tuple, b: int, table: tuple | None = None) -> list[int]:
    """Each mover pair's support over the other pairs of b, as a bitmask
    over other_pairs(g, b), for the mover pairs (a', a'') of the first steps
    a' in `heads`, in mover_pairs order: row (a', a'') may use cell (b', e')
    iff b' is neither a' nor a'', and e' = a'' when b' neighbors a''.

    This is `compatible`, decided per step b' instead of per cell: row
    (a', a'') is every cell minus group[a'] and drop[a''] of
    `regular_table(g, b)`, which is made here when `table` is None."""
    full, group, drop = regular_table(g, b) if table is None else table
    adj = g.adjacency
    out: list[int] = []
    for ap in heads:
        keep = full ^ group.get(ap, 0)
        out += [keep & ~drop.get(app, 0) for app in adj[ap]]
    return out


def avoiding_supports(g, rows, cols) -> list[int]:
    """Each row vertex r's support over `cols`, as a bitmask: every column
    vertex c with c != r and c not adjacent to r.  The rule is exact on any
    host; on a host with a square it may leave the transport infeasible.
    r and its neighbours are distinct, so the sum of their bits is their
    union."""
    index = {c: 1 << j for j, c in enumerate(cols)}
    get, full = index.get, (1 << len(cols)) - 1
    adj = g.adjacency
    return [full ^ get(r, 0) ^ sum(map(get, adj[r], repeat(0))) for r in rows]


@dataclass(frozen=True, slots=True, eq=False)
class TransportMatrix:
    """A solved coupling transport: its index space and its nonzero cells.

    Only the nonzero cells are stored: `cells` holds their row-major flat
    indices, ascending, and `cum` their cumulative counts, which the
    engines' draws bisect.  A zero cell would repeat its predecessor's
    cumulative count, so bisecting the dense cumulative counts lands on
    the same cell for every r.

    Square-free rows and columns are the vertices `rows` and `cols`.  A
    regular transport's are pairs: with `rows` = N(a)\\{e}, `cols` = N(b),
    `adj` the host's adjacency (shared, not copied) and d = row_sum, row i
    is the mover pair (rows[i // d], adj[rows[i // d]][i % d]) and column j
    the other pair (cols[j // d], adj[cols[j // d]][j % d]).  So a flat
    index is the four base-d digits of (a', a'', b', e').  The labels are
    derived on access; equality compares them, and neither equality nor
    repr reads the rest of the adjacency."""

    kind: str  # "regular" or "squarefree"
    rows: tuple
    cols: tuple
    cells: array
    cum: array
    row_sum: int
    col_sum: int
    swapped: bool = False  # squarefree only: rows index b's neighbors, not a's
    adj: tuple | None = field(default=None, repr=False)  # regular only

    def _labels(self, steps: tuple) -> tuple:
        adj = self.adj
        return steps if adj is None else tuple([(s, x) for s in steps for x in adj[s]])

    @property
    def row_labels(self) -> tuple:
        """The row vertices, or the regular mover pairs (a', a'')."""
        return self._labels(self.rows)

    @property
    def col_labels(self) -> tuple:
        """The column vertices, or the regular other pairs (b', e')."""
        return self._labels(self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransportMatrix):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ("kind", "cells", "cum", "row_sum", "col_sum", "swapped", "row_labels", "col_labels"))

    @property
    def total(self) -> int:
        return self.row_sum * len(self.row_labels)

    @property
    def counts(self) -> list[int]:
        """The nonzero cells' counts, in the order of `cells`."""
        return list(map(sub, self.cum, chain((0,), self.cum)))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The counts as rows: entries[r][c] at row_labels[r], col_labels[c]."""
        c = len(self.col_labels)
        flat = [0] * (len(self.row_labels) * c)
        for f, x in zip(self.cells, self.counts):
            flat[f] = x
        return tuple(tuple(flat[i:i + c]) for i in range(0, len(flat), c))


def check_cells(cells: list[int], counts: list[int], nr: int, nc: int, row_sum: int, col_sum: int) -> None:
    """Raise AssertionError unless the cells are ascending row-major flat
    indices inside an nr x nc matrix, each with a positive count, and every
    row sums to row_sum and every column to col_sum.  Runs over the nonzero
    cells only."""
    if len(cells) != len(counts):
        raise AssertionError(f"{len(cells)} cells, {len(counts)} counts")
    if not all(map(lt, cells, islice(cells, 1, None))) or (cells and cells[-1] >= nr * nc):
        raise AssertionError(f"cells {cells} are not ascending inside the {nr}x{nc} matrix")
    if min(counts, default=1) <= 0:
        raise AssertionError(f"counts {counts} are not all positive")
    rows, cols = [0] * nr, [0] * nc
    for f, x in zip(cells, counts):
        rows[f // nc] += x
        cols[f % nc] += x
    for what, sums, want in (("row", rows, row_sum), ("column", cols, col_sum)):
        if sums.count(want) != len(sums):
            r = next(r for r, s in enumerate(sums) if s != want)
            raise AssertionError(f"{what} {r} sums to {sums[r]}, expected {want}")


class BoundedCache:
    """Bounded memo for transport matrices and block plans, keyed per state
    triple/pair, and for per-vertex tables, keyed by the vertex id; values
    are never None.  A hit is one dict lookup.  Entries of both kinds share
    the capacity and leave oldest first: the entry inserted longest ago is
    evicted, however often it was read.  `find` is the uncounted lookup;
    `hits` and `misses` are the engines' stretch loop's counts, one lookup
    per block or round."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.find = self._data.get  # find(key): the value stored under key, or None
        self.hits = 0
        self.misses = 0

    def table(self, g, v: int, make):
        """The table `make(g, v)` of vertex v of host g, made on v's first
        use and stored under the vertex id, where it leaves by age like any
        entry, on a host of any size.  Counts neither a hit nor a miss."""
        value = self._data.get(v)
        if value is None:
            value = make(g, v)
            self.put(v, value)
        return value

    def put(self, key, value) -> None:
        """Store value under key, then evict the oldest entries past the capacity."""
        data = self._data
        data[key] = value
        while len(data) > self.capacity:
            data.popitem(last=False)

    @property
    def held(self) -> int:
        """The entries held, state entries and tables together."""
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def solved_cells(row_sum: int, col_sum: int, supports: list[int], nc: int,
                 violated: str) -> tuple[array, array]:
    """Solve the transport over `supports` and return its nonzero cells and
    their cumulative counts, after checking their sums over one row per
    support and nc columns.  Both are `array("H")` when the matrix total
    and its flat size fit below 2**16, else `array("I")`.  An infeasible
    solve is re-raised as "hypothesis violated {violated}", with its Hall
    certificate."""
    try:
        cells, counts = solve_transport(row_sum, col_sum, supports, nc)
    except TransportInfeasible as err:
        raise TransportInfeasible(f"hypothesis violated {violated}", err.hall_rows, err.hall_cols) from err
    nr = len(supports)
    check_cells(cells, counts, nr, nc, row_sum, col_sum)
    typecode = "H" if max(nr * row_sum, nr * nc) < 1 << 16 else "I"
    # from packed bytes: array() converts a list to "H" items one parse at a time
    fmt = f"{len(cells)}{typecode}"
    return array(typecode, pack(fmt, *cells)), array(typecode, pack(fmt, *accumulate(counts)))


def build_regular_transport(g, a: int, b: int, e: int, table: tuple | None = None) -> TransportMatrix:
    """Transport matrix m(i,j,k,l) for the d-regular protocol at (a, b, e):
    row sums d over mover pairs (a', a''), column sums d-1 over other pairs
    (b', e').  `check_regular_triple` makes every first step and N(b)
    degree d, so the index space is d-1 first steps and d steps of b, each
    times d neighbours.  `table` is `regular_table(g, b)`, made here when
    the caller keeps none."""
    check_regular_triple(g, a, b, e)
    adj = g.adjacency
    d = len(adj[a])
    heads = tuple([v for v in adj[a] if v != e])
    cells, cum = solved_cells(d, d - 1, regular_supports(g, heads, b, table), d * d,
                              f"(H_{d} present?) at (a={a}, b={b}, e={e})")
    return TransportMatrix("regular", heads, adj[b], cells, cum, d, d - 1, adj=adj)


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
    cells, cum = solved_cells(len(cols), len(rows), avoiding_supports(g, rows, cols), len(cols),
                              f"(square present?) at (a={a}, b={b})")
    return TransportMatrix("squarefree", rows, cols, cells, cum, len(cols), len(rows), swapped)
