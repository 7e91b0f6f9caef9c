from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

from avoidkit.couplers import one_step_matching
from avoidkit.generate import circulant, complete, complete_bipartite, random_regular_simple
from avoidkit.graphs import graph_from_edges
from avoidkit.matching import (
    BoundedCache,
    TransportInfeasible,
    avoiding_supports,
    build_regular_transport,
    build_squarefree_transport,
    check_cells,
    compatible,
    mover_pairs,
    other_pairs,
    regular_supports,
    regular_table,
    solve_transport,
    solved_cells,
)
from avoidkit.structure import contains_Hd
from conftest import check_sums


def test_compatibility_rule(circ9):
    g = circ9
    # b' colliding with either of the mover's steps is incompatible
    assert not compatible(g, (1, 2), (1, 3))
    assert not compatible(g, (1, 2), (2, 3))
    # when a'' neighbors b', the exclusion must equal a''
    bp = next(v for v in g.adjacency[5] if g.has_edge(2, v) and v not in (1, 2))
    assert compatible(g, (1, 2), (bp, 2))
    assert not compatible(g, (1, 2), (bp, next(x for x in g.adjacency[bp] if x != 2)))


def test_pair_set_sizes(circ9):
    d = 4
    assert len(mover_pairs(circ9, 0, 1)) == d * (d - 1)
    assert len(other_pairs(circ9, 5)) == d * d


def test_mover_pairs_excludes_e(circ9):
    for ap, app in mover_pairs(circ9, 0, 2):
        assert ap != 2
        assert app in circ9.adjacency[ap]


def masks(allowed: list[list[bool]]) -> list[int]:
    """Each row of a dense support as a bitmask, bit j for column j."""
    return [sum(1 << j for j, ok in enumerate(row) if ok) for row in allowed]


def dense(cells: list[int], counts: list[int], nr: int, nc: int) -> list[list[int]]:
    """The nr x nc matrix whose nonzero cells are `cells` with `counts`."""
    m = [[0] * nc for _ in range(nr)]
    for f, x in zip(cells, counts):
        m[f // nc][f % nc] = x
    return m


def test_solve_transport_simple():
    cells, counts = solve_transport(2, 2, [0b11, 0b11], 2)
    assert dense(cells, counts, 2, 2) == [[2, 0], [0, 2]]


def test_solve_transport_infeasible_certificate():
    with pytest.raises(TransportInfeasible) as exc:
        solve_transport(1, 1, [0b01, 0b01], 2)
    assert exc.value.hall_rows == [0, 1]
    assert exc.value.hall_cols == [0]


def test_solve_transport_total_mismatch():
    with pytest.raises(ValueError, match="total supply must equal total demand"):
        solve_transport(1, 2, [0b1], 1)
    with pytest.raises(ValueError, match="non-negative"):
        solve_transport(-1, -1, [0b11, 0b11], 2)


class _Dinic:
    """Deterministic Dinic max flow (arcs scanned in insertion order), the
    from-scratch reference for solve_transport."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, f: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return f
        while it[u] < len(self.head[u]):
            idx = self.head[u][it[u]]
            v = self.to[idx]
            if self.cap[idx] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(f, self.cap[idx]), level, it)
                if pushed:
                    self.cap[idx] -= pushed
                    self.cap[idx ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 60, level, it)
                if not pushed:
                    break
                flow += pushed

    def reachable_from(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def dinic_from_scratch(supplies, demands, allowed):
    """Reference: Dinic run on the fresh network, returning the flow, the
    cell flows and the source side of the final residual graph."""
    nr, nc, total = len(supplies), len(demands), sum(supplies)
    src, snk = nr + nc, nr + nc + 1
    net = _Dinic(nr + nc + 2)
    for i in range(nr):
        net.add_edge(src, i, supplies[i])
    cells = {(i, j): net.add_edge(i, nr + j, total)
             for i in range(nr) for j in range(nc) if allowed[i][j]}
    for j in range(nc):
        net.add_edge(nr + j, snk, demands[j])
    flow = net.max_flow(src, snk)
    m = [[0] * nc for _ in range(nr)]
    for (i, j), idx in cells.items():
        m[i][j] = net.cap[idx ^ 1]
    return flow, m, net.reachable_from(src)


@st.composite
def transport_instances(draw):
    """Uniform row supply s and column demand t with s*nr = t*nc, and one
    support bitmask per row: all columns, or any subset of them."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    total = draw(st.integers(0, 3)) * math.lcm(nr, nc)
    full = (1 << nc) - 1
    supports = draw(st.lists(st.one_of(st.just(full), st.integers(0, full)), min_size=nr, max_size=nr))
    return total // nr, total // nc, supports, nc


def solve_as_from_scratch(supply: int, demand: int, supports: list[int], nc: int):
    """solve_transport's cells as a dense matrix, or its TransportInfeasible,
    after checking that it equals the matrix, or the min-cut certificate, of
    Dinic run from scratch on the dense support."""
    nr = len(supports)
    allowed = [[bool(s >> j & 1) for j in range(nc)] for s in supports]
    flow, ref, cut = dinic_from_scratch([supply] * nr, [demand] * nc, allowed)
    try:
        cells, counts = solve_transport(supply, demand, supports, nc)
    except TransportInfeasible as err:
        assert flow < supply * nr
        assert err.hall_rows == [i for i in range(nr) if i in cut]
        assert err.hall_cols == [j for j in range(nc) if nr + j in cut]
        return err
    assert flow == supply * nr
    check_cells(cells, counts, nr, nc, supply, demand)
    m = dense(cells, counts, nr, nc)
    assert m == ref
    return m


def greedy_leaves_shortfall(supply: int, demand: int, supports: list[int], nc: int) -> bool:
    unmet = [demand] * nc
    for s in supports:
        left = supply
        for j, need in enumerate(unmet):
            if left and need and s >> j & 1:
                x = min(left, need)
                unmet[j] -= x
                left -= x
    return any(unmet)


@settings(max_examples=300)
@given(transport_instances())
def test_solve_transport_exact_or_hall_certificate(instance):
    supply, demand, supports, nc = instance
    m = solve_as_from_scratch(*instance)
    if isinstance(m, TransportInfeasible):
        rows, cols = m.hall_rows, m.hall_cols
        reach = {j for i in rows for j in range(nc) if supports[i] >> j & 1}
        assert reach <= set(cols)
        assert supply * len(rows) > demand * len(cols)
        return
    event("greedy fill short" if greedy_leaves_shortfall(*instance) else "greedy fill complete")
    assert [sum(row) for row in m] == [supply] * len(supports)
    assert [sum(col) for col in zip(*m)] == [demand] * nc
    assert all(supports[i] >> j & 1 for i, row in enumerate(m) for j, x in enumerate(row) if x)


@st.composite
def regular_shaped_instances(draw):
    """(d-1)d rows of supply d and d^2 columns of demand d-1, as in a
    regular round, with up to a quarter of the cells blocked.  Blocks are
    spread uniformly or piled onto a few columns, which leaves demand the
    greedy fill cannot meet (several Dinic phases) or no solution at all."""
    d = draw(st.integers(3, 5))
    nr, nc = (d - 1) * d, d * d
    rnd = draw(st.randoms(use_true_random=False))
    blocked = draw(st.integers(0, nr * nc // 4))
    if draw(st.booleans()):
        cells = rnd.sample(range(nr * nc), blocked)
    else:
        cols = rnd.sample(range(nc), draw(st.integers(1, 3)))
        pile = [i * nc + j for i in range(nr) for j in cols]
        cells = rnd.sample(pile, min(blocked, len(pile)))
    supports = [(1 << nc) - 1] * nr
    for c in cells:
        supports[c // nc] &= ~(1 << c % nc)
    return d, d - 1, supports, nc


@settings(max_examples=200, deadline=None)
@given(regular_shaped_instances())
def test_solve_transport_regular_shaped(instance):
    m = solve_as_from_scratch(*instance)
    event("infeasible" if isinstance(m, TransportInfeasible) else "feasible")
    event("greedy fill short" if greedy_leaves_shortfall(*instance) else "greedy fill complete")


def regular_allowed(g, a: int, b: int, e: int) -> list[list[bool]]:
    """The dense reference support of the regular transport: the matrix
    [[compatible(g, mp, op) for op in other_pairs(g, b)]
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


def regular_reference(g, a: int, b: int, e: int):
    """The regular transport at (a, b, e) as solve_transport over the dense
    `regular_allowed` gives it (checked against Dinic from scratch), or the
    TransportInfeasible the builder must raise instead."""
    d = g.degree(a)
    allowed = regular_allowed(g, a, b, e)
    m = solve_as_from_scratch(d, d - 1, masks(allowed), len(allowed[0]))
    if isinstance(m, TransportInfeasible):
        return TransportInfeasible(f"hypothesis violated (H_{d} present?) at (a={a}, b={b}, e={e})",
                                   m.hall_rows, m.hall_cols)
    return tuple(map(tuple, m))


def build_as_reference(g, a: int, b: int, e: int):
    """build_regular_transport at (a, b, e), or its TransportInfeasible,
    after checking that it equals `regular_reference`: the same entries, or
    the same message, Hall rows and Hall columns."""
    want = regular_reference(g, a, b, e)
    try:
        tm = build_regular_transport(g, a, b, e)
    except TransportInfeasible as err:
        assert isinstance(want, TransportInfeasible), (a, b, e)
        assert (str(err), err.hall_rows, err.hall_cols) == (str(want), want.hall_rows, want.hall_cols)
        return err
    assert tm.entries == want, (a, b, e)
    return tm


def test_solve_transport_recorded_rr5_instances(monkeypatch):
    """Every regular transport built in a 2,900-tick run on rr5-n64 (the
    large-random benchmark host) equals Dinic from scratch over the dense
    `regular_allowed` support, and more than a tenth of those builds need
    Dinic after the greedy fill."""
    from avoidkit import couplers

    build = couplers.build_regular_transport
    seen = []

    def record(g, a, b, e, table):
        seen.append((a, b, e))
        return build(g, a, b, e, table)

    monkeypatch.setattr(couplers, "build_regular_transport", record)
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    couplers.simulate(rr5, "regular", 2_900, 0)
    assert len(seen) > 1_500
    short = 0
    for a, b, e in seen:
        assert not isinstance(build_as_reference(rr5, a, b, e), TransportInfeasible)
        allowed = regular_allowed(rr5, a, b, e)
        short += greedy_leaves_shortfall(5, 4, masks(allowed), len(allowed[0]))
    assert short > len(seen) // 10  # the Dinic continuation is exercised


def regular_triples(g):
    return [(a, b, e) for a in range(g.n) for e in g.adjacency[a] for b in range(g.n)
            if b != a and (not g.has_edge(a, b) or b == e)]


def test_regular_allowed_matches_compatible(circ9):
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    for g in (circ9, rr5):
        cols = [other_pairs(g, b) for b in range(g.n)]
        segments = {}  # a row of compatible() depends only on its label and b
        for a, b, e in regular_triples(g):
            ref = []
            for mp in mover_pairs(g, a, e):
                if (mp, b) not in segments:
                    segments[(mp, b)] = [compatible(g, mp, op) for op in cols[b]]
                ref.append(segments[(mp, b)])
            assert regular_allowed(g, a, b, e) == ref, (a, b, e)


def test_regular_build_equals_dense_solve(circ9):
    """The open-column fill and its Dinic continuation build the matrix
    solve_transport builds over the dense support: on every valid triple of
    C9(1,2) and 200 of rr5-n64.  Where H_d is present (every triple of
    complete(5), the infeasible triples of a random 4-regular host) each
    build raises the reference's message, Hall rows and Hall columns."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    c9_triples = regular_triples(circ9)
    assert len(c9_triples) == 180
    for g, triples in ((circ9, c9_triples), (rr5, random.Random(0).sample(regular_triples(rr5), 200))):
        for t in triples:
            assert not isinstance(build_as_reference(g, *t), TransportInfeasible)
    rr4 = random_regular_simple(12, 4, 13, connected_required=True)[0]
    assert contains_Hd(rr4, 4) is not None
    for g, infeasible in ((complete(5), 20), (rr4, 2)):
        built = [build_as_reference(g, *t) for t in regular_triples(g)]
        assert sum(isinstance(x, TransportInfeasible) for x in built) == infeasible


def test_regular_labels_are_derived_from_the_index_space(circ9):
    """A regular transport stores N(a)\\{e}, N(b) and the shared adjacency,
    not its labels: the labels it derives are mover_pairs and other_pairs,
    and its entries the dense reference rows, on every triple of C9(1,2)
    and 200 of rr5-n64.  Equality compares the labels, repr leaves out the
    adjacency."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    for g, triples in ((circ9, regular_triples(circ9)), (rr5, random.Random(2).sample(regular_triples(rr5), 200))):
        for a, b, e in triples:
            tm = build_as_reference(g, a, b, e)
            assert tm.rows == tuple(v for v in g.adjacency[a] if v != e) and tm.cols is g.adjacency[b]
            assert tm.adj is g.adjacency
            assert tm.row_labels == mover_pairs(g, a, e), (a, b, e)
            assert tm.col_labels == other_pairs(g, b), (a, b, e)
    tm = build_regular_transport(circ9, 0, 4, 1)
    assert tm == build_regular_transport(circ9, 0, 4, 1)
    assert tm != build_regular_transport(circ9, 0, 4, 8)
    assert replace(tm, adj=circulant(9, [1, 3]).adjacency) != tm  # same index space, other labels
    assert "adj" not in repr(tm) and len(repr(tm)) < 400


def test_regular_supports_match_regular_allowed(circ9):
    """The bitmask rule, with b's table made per call or supplied as the
    regular engine supplies it, equals the dense `regular_allowed` rule on
    every triple of C9(1,2), complete(5), C13(1,2,3) and rr5-n64."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    for g in (circ9, complete(5), circulant(13, [1, 2, 3]), rr5):
        tables = [regular_table(g, b) for b in range(g.n)]
        triples = regular_triples(g)
        assert len(triples) == {9: 180, 5: 20, 13: 546, 64: 18_880}[g.n]
        for a, b, e in triples:
            heads = tuple(v for v in g.adjacency[a] if v != e)
            want = masks(regular_allowed(g, a, b, e))
            assert regular_supports(g, heads, b, tables[b]) == want, (a, b, e)
            assert regular_supports(g, heads, b) == want, (a, b, e)


def test_regular_build_is_the_same_with_a_supplied_table(circ9):
    """A build from the engine's cached table of b equals the build that
    makes the table itself, cells, counts, array type and labels, on every
    triple of C9(1,2) and C13(1,2,3) and 300 of rr5-n64."""
    rr5 = random_regular_simple(64, 5, 0, connected_required=True)[0]
    c13 = circulant(13, [1, 2, 3])
    for g, triples in ((circ9, regular_triples(circ9)), (c13, regular_triples(c13)),
                       (rr5, random.Random(3).sample(regular_triples(rr5), 300))):
        tables = {}
        for a, b, e in triples:
            table = tables.setdefault(b, regular_table(g, b))
            tm, ref = build_regular_transport(g, a, b, e, table), build_regular_transport(g, a, b, e)
            assert tm == ref and tm.cells.typecode == ref.cells.typecode == "H", (a, b, e)


def test_solved_cells_store_16_bit_arrays_when_they_fit():
    """`cells` and `cum` are `array("H")` while the flat size and the total
    both fit below 2**16, else `array("I")`."""
    for k, want in ((255, "H"), (256, "I")):  # the k x k identity: flat size k*k
        cells, cum = solved_cells(1, 1, [1 << i for i in range(k)], k, "")
        assert cells.typecode == cum.typecode == want and list(cells) == [i * (k + 1) for i in range(k)]
    for total, want in ((65_535, "H"), (65_536, "I")):  # one cell holding the total
        cells, cum = solved_cells(total, total, [1], 1, "")
        assert cells.typecode == cum.typecode == want and list(cum) == [total]


def planted_square_host():
    """N(0) and N(1) joined by a K_{3,3}: every neighbour of 1 lies in N(a')
    for every a' in N(0), so the square-free transport at (0, 1) fails."""
    return graph_from_edges(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
                            + [(x, y) for x in (2, 3, 4) for y in (5, 6, 7)])


@pytest.fixture(scope="module")
def avoiding_hosts(pet, hea, ag23, k33):
    return {"petersen": pet, "heawood": hea, "ag23": ag23, "k33": k33, "k44": complete_bipartite(4, 4),
            "planted-square": planted_square_host()}


def avoiding_allowed(g, rows, cols) -> list[list[bool]]:
    """The dense reference rule: column c is allowed to row r iff c != r
    and c is not adjacent to r."""
    return [[c != r and not g.has_edge(r, c) for c in cols] for r in rows]


def test_avoiding_supports_match_the_dense_rule(avoiding_hosts):
    for name, g in avoiding_hosts.items():
        adj = g.adjacency
        for a in range(g.n):
            for b in range(g.n):
                assert avoiding_supports(g, adj[a], adj[b]) == masks(avoiding_allowed(g, adj[a], adj[b])), \
                    (name, a, b)


def squarefree_reference(g, a: int, b: int):
    """The square-free transport at (a, b) as the dense reference solve
    gives it, or the TransportInfeasible the builder must raise instead."""
    u, v = (b, a) if g.degree(a) < g.degree(b) else (a, b)
    rows, cols = g.adjacency[u], g.adjacency[v]
    m = solve_as_from_scratch(len(cols), len(rows), masks(avoiding_allowed(g, rows, cols)), len(cols))
    if isinstance(m, TransportInfeasible):
        return TransportInfeasible(f"hypothesis violated (square present?) at (a={a}, b={b})",
                                   m.hall_rows, m.hall_cols)
    return tuple(map(tuple, m))


def one_step_reference(g, a: int, b: int):
    """The one-step matching at (a, b) as the dense reference solve gives
    it, or the TransportInfeasible one_step_matching must raise instead."""
    na, nb = g.adjacency[a], g.adjacency[b]
    m = solve_as_from_scratch(1, 1, masks(avoiding_allowed(g, na, nb)), len(nb))
    if isinstance(m, TransportInfeasible):
        return TransportInfeasible(f"hypothesis violated (H~_3 present?) at (a={a}, b={b})",
                                   m.hall_rows, m.hall_cols)
    return tuple(((na[i], nb[row.index(1)]),) for i, row in enumerate(m))


def same_result(got, want) -> bool:
    """Equal results, or errors with the same message, Hall rows and columns."""
    if isinstance(want, TransportInfeasible):
        return (isinstance(got, TransportInfeasible)
                and (str(got), got.hall_rows, got.hall_cols) == (str(want), want.hall_rows, want.hall_cols))
    return got == want


def test_avoiding_builds_equal_the_dense_solve(avoiding_hosts):
    """build_squarefree_transport on every valid pair and one_step_matching
    on every pair of equal degrees equal the dense reference solve: the same
    entries or matching, or the same message, Hall rows and Hall columns.
    Only the planted square blocks a square-free transport; one-step
    matchings are also blocked at adjacent pairs and by the squares of
    K3,3 and K4,4."""
    fails = {"squarefree": Counter(), "one-step": Counter()}
    for name, g in avoiding_hosts.items():
        for a in range(g.n):
            for b in range(g.n):
                if b == a:
                    continue
                builds = [("squarefree", build_squarefree_transport, squarefree_reference)]
                if g.has_edge(a, b) or min(g.degree(a), g.degree(b)) < 3:
                    builds = []
                if g.degree(a) == g.degree(b):
                    builds.append(("one-step", one_step_matching, one_step_reference))
                for kind, build, reference in builds:
                    try:
                        got = build(g, a, b)
                    except TransportInfeasible as err:
                        got = err
                        fails[kind][name] += 1
                    if kind == "squarefree" and not isinstance(got, TransportInfeasible):
                        got = got.entries
                    assert same_result(got, reference(g, a, b)), (kind, name, a, b)
    assert fails["squarefree"] == {"planted-square": 2}
    assert fails["one-step"] == {"heawood": 42, "k44": 32, "petersen": 30, "planted-square": 20, "k33": 18}


def test_regular_transport(circ9):
    tm = build_regular_transport(circ9, 0, 4, 1)
    assert tm.kind == "regular"
    assert len(tm.row_labels) == 12 and len(tm.col_labels) == 16
    assert (tm.row_sum, tm.col_sum, tm.total) == (4, 3, 48)
    check_sums(tm)
    # support respects compatibility; labels are (a', a'') and (b', e') pairs
    for mp, row in zip(tm.row_labels, tm.entries):
        for op, x in zip(tm.col_labels, row):
            if x:
                assert compatible(circ9, mp, op)


def test_regular_transport_hypothesis_failure():
    k5 = complete(5)
    with pytest.raises(TransportInfeasible, match="H_4"):
        build_regular_transport(k5, 0, 1, 1)


def test_regular_transport_precondition(circ9):
    with pytest.raises(ValueError):
        build_regular_transport(circ9, 0, 2, 1)  # adjacent b, e != b
    with pytest.raises(ValueError):
        build_regular_transport(circ9, 0, 4, 5)  # e not in N(a)


@pytest.mark.parametrize("host,build,ids,message", [
    ("pet", build_squarefree_transport, (-1, 3), "a=-1 is not a vertex"),
    ("pet", build_squarefree_transport, (0, 10), "b=10 is not a vertex"),
    ("circ9", build_regular_transport, (-1, 4, 0), "a=-1 is not a vertex"),
    ("circ9", build_regular_transport, (0, 4, -1), "e=-1 is not a vertex"),
], ids=["squarefree-a", "squarefree-b", "regular-a", "regular-e"])
def test_transport_rejects_non_vertex_ids(request, host, build, ids, message):
    # a negative id would otherwise index adjacency from the end
    with pytest.raises(ValueError, match=message):
        build(request.getfixturevalue(host), *ids)


def test_regular_transport_rejects_degree_one_mover():
    # on a single edge N(0) \ {e} is empty: no mover pair, column sums d - 1 = 0
    with pytest.raises(ValueError, match="degree >= 2 at a"):
        build_regular_transport(graph_from_edges(2, [(0, 1)]), 0, 1, 1)


# 7 vertices of degrees 3, 4, 4, 3, 5, 4, 3
IRREGULAR7 = [(0, 1), (0, 4), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
              (4, 5)]


def test_regular_transport_rejects_irregular_host():
    """Each of the 82 valid triples names the first of b, N(a), N(b) whose
    degree is not deg(a).  Without the check 80 failed on unequal totals,
    (6, 0, 0) as infeasible, and (3, 0, 4) built a transport."""
    g = graph_from_edges(7, IRREGULAR7)
    adj = g.adjacency
    triples = [(a, b, e) for a in range(7) for e in adj[a] for b in range(7)
               if b != a and (not g.has_edge(a, b) or b == e)]
    assert len(triples) == 82
    for a, b, e in triples:
        d = len(adj[a])
        v = next(v for v in (b, *adj[a], *adj[b]) if len(adj[v]) != d)
        with pytest.raises(ValueError) as err:
            build_regular_transport(g, a, b, e)
        want = f"vertex {v} has degree {len(adj[v])}, a={a} has degree {d}"
        assert str(err.value) == f"requires a regular host: {want}"
    with pytest.raises(ValueError, match="^requires a regular host: vertex 2 has degree 4, a=3 has degree 3$"):
        build_regular_transport(g, 3, 0, 4)


def test_squarefree_transport(pet, ag23):
    tm = build_squarefree_transport(pet, 0, 2)
    assert (tm.row_sum, tm.col_sum, tm.swapped) == (3, 3, False)
    check_sums(tm)
    # mixed degrees: rows are the degree-4 point side
    b = next(v for v in range(9, 21) if not ag23.has_edge(0, v))
    tm2 = build_squarefree_transport(ag23, 0, b)
    assert len(tm2.row_labels) == 4 and len(tm2.col_labels) == 3
    assert (tm2.row_sum, tm2.col_sum) == (3, 4)
    check_sums(tm2)
    # same pair from the other side comes back role-swapped
    tm3 = build_squarefree_transport(ag23, b, 0)
    assert tm3.swapped
    assert tm3.row_labels == tm2.row_labels


def test_squarefree_transport_square_failure():
    with pytest.raises(TransportInfeasible, match="square"):
        build_squarefree_transport(planted_square_host(), 0, 1)


def test_bounded_cache_tables_share_the_capacity_not_the_counters():
    """A table is made on its vertex's first use only and leaves by age
    like any entry: reading it does not keep it.  Neither `hits` nor
    `misses` counts it; a host with more vertices than the cache has
    entries gets its tables by the same rule."""
    made = []

    def make(g, v):
        made.append(v)
        return f"t{v}"

    g = graph_from_edges(2, [(0, 1)])
    cache = BoundedCache(capacity=2)
    assert cache.table(g, 1, make) == "t1"
    cache.put((0, 1), "plan")
    assert cache.table(g, 1, make) == "t1" and made == [1]  # not made again, and still the oldest
    cache.put((0, 2), "plan")  # evicts the table, though it was read last
    assert list(cache._data) == [(0, 1), (0, 2)]
    assert cache.table(g, 1, make) == "t1" and made == [1, 1]  # made again, evicting (0, 1)
    assert list(cache._data) == [(0, 2), 1] and cache.find((0, 1)) is None
    path = graph_from_edges(3, [(0, 1), (1, 2)])  # three vertices, two entries
    assert cache.table(path, 0, make) == "t0" and made == [1, 1, 0]
    assert list(cache._data) == [1, 0] and cache.table(path, 1, make) == "t1" and made == [1, 1, 0]
    assert (cache.hits, cache.misses) == (0, 0)


def test_bounded_cache_evicts_oldest_first_and_counts():
    cache = BoundedCache(capacity=2)
    assert cache.find("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.find("a") == 1
    cache.put("c", 3)  # evicts "a", the oldest inserted, though it was found last
    assert cache.find("a") is None and cache.find("b") == 2 and cache.find("c") == 3
    assert list(cache._data) == ["b", "c"]
    # `find` counts nothing: hits and misses are the engines' loop's counts
    assert cache.hits == cache.misses == 0 and cache.hit_rate == 0.0
    cache.hits, cache.misses = 3, 2
    assert cache.hit_rate == 0.6
