"""The four coupling engines behind one trajectory-producing interface.

Engines:
  cubic      - scenario-classified blocks on 3-regular hosts (one-step
               matchings, a 9-row two-step table, and a variable-length
               excursion through a local K_{2,2})
  regular    - the excluded-vertex protocol on d-regular hosts (d >= 4),
               driven by 4-index transport matrices
  squarefree - one-step transport coupling on square-free hosts
  cycle      - k synchronized walkers on a cycle

Every engine is deterministic given its seed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .graphs import Graph, distance_capped, graph_from_edges
from .matching import (
    LruCache,
    TransportInfeasible,
    build_regular_transport,
    build_squarefree_transport,
    solve_transport,
)
from .rng import Xoshiro256
from .structure import ScenarioClass, classify_scenario, require_engine_applicable


@dataclass
class EngineState:
    engine: str
    alice: int
    bob: int
    excluded: int | None = None
    phase: int = 0
    tick: int = 0


@dataclass
class BlockOutcome:
    T: int
    alice_steps: list[int]
    bob_steps: list[int]
    scenario: ScenarioClass | None = None


@dataclass
class Trajectory:
    engine: str
    seed: int
    graph_digest: str
    positions: list[tuple[int, ...]]  # positions[t] = (A_t, B_t) or k walkers
    block_marks: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"# graph-digest {self.graph_digest}",
            f"# seed {self.seed}",
            f"# engine {self.engine}",
        ]
        marks = set(self.block_marks)
        for t, pos in enumerate(self.positions):
            lines.append(f"{t} " + " ".join(str(p) for p in pos))
            if t in marks:
                lines.append(f"# block {t}")
        return "\n".join(lines) + "\n"


def parse_trajectory(text: str) -> Trajectory:
    digest = seed = engine = None
    positions: list[tuple[int, ...]] = []
    marks: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if not parts:
                raise ValueError("bare '#' line")
            key = parts[0]
            if key in ("graph-digest", "seed", "engine", "block") and len(parts) < 2:
                raise ValueError(f"'# {key}' line without a value")
            if key == "graph-digest":
                digest = parts[1]
            elif key == "seed":
                seed = int(parts[1])
            elif key == "engine":
                engine = parts[1]
            elif key == "block":
                marks.append(int(parts[1]))
            continue
        nums = [int(x) for x in line.split()]
        t, pos = nums[0], tuple(nums[1:])
        if t != len(positions):
            raise ValueError(f"non-contiguous tick {t}")
        if positions and len(pos) != len(positions[0]):
            raise ValueError(f"tick {t} has {len(pos)} walkers, tick 0 has {len(positions[0])}")
        positions.append(pos)
    if digest is None or seed is None or engine is None:
        raise ValueError("trajectory header incomplete")
    return Trajectory(engine, seed, digest, positions, marks)


# ---------------------------------------------------------------------------
# cubic engine (3-regular, H~3-free)


def one_step_matching(g: Graph, a: int, b: int) -> list[tuple[int, int]]:
    """A perfect matching sigma between N(a) and N(b) in the compatibility
    graph {(a', b') : b' not in {a'} u N(a')}, as (a', sigma(a')) pairs."""
    na, nb = g.adjacency[a], g.adjacency[b]
    allowed = [[bp != ap and not g.has_edge(ap, bp) for bp in nb] for ap in na]
    try:
        m = solve_transport([1] * len(na), [1] * len(nb), allowed)
    except TransportInfeasible as err:
        raise TransportInfeasible(
            f"scenario hypothesis violated at (a={a}, b={b})",
            err.hall_rows,
            err.hall_cols,
        ) from err
    return [(na[i], nb[row.index(1)]) for i, row in enumerate(m)]


def one_step_matched_coupling(g: Graph, a: int, b: int, rng: Xoshiro256) -> tuple[int, int]:
    """Draw a' uniform on N(a) and return (a', sigma(a')); both marginals
    are uniform because sigma is a bijection."""
    return rng.choice(one_step_matching(g, a, b))


def s3b_rows(g: Graph, a: int, b: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The nine equally likely two-step rows ((A1, A2), (B1, B2)) for the
    adjacent-common-neighbors case.  Labels bound by vertex index:
    c1 < c2, a''1 < a''2, b''1 < b''2."""
    cn = [v for v in g.adjacency[a] if g.has_edge(v, b)]
    if len(cn) != 2 or not g.has_edge(cn[0], cn[1]):
        raise ValueError("not an S3b configuration")
    c1, c2 = cn
    ap = next(v for v in g.adjacency[a] if v not in (c1, c2))
    bp = next(v for v in g.adjacency[b] if v not in (c1, c2))
    app1, app2 = sorted(v for v in g.adjacency[ap] if v != a)
    bpp1, bpp2 = sorted(v for v in g.adjacency[bp] if v != b)
    return [
        ((c1, a), (c2, b)),
        ((c1, b), (c2, a)),
        ((c1, c2), (bp, bpp1)),
        ((c2, a), (c1, b)),
        ((c2, b), (c1, a)),
        ((c2, c1), (bp, bpp2)),
        ((ap, a), (bp, b)),
        ((ap, app1), (c1, c2)),
        ((ap, app2), (c2, c1)),
    ]


def two_step_table_coupling(g: Graph, a: int, b: int, rng: Xoshiro256) -> BlockOutcome:
    (a1, a2), (b1, b2) = rng.choice(s3b_rows(g, a, b))
    return BlockOutcome(T=2, alice_steps=[a1, a2], bob_steps=[b1, b2])


def k22_context(g: Graph, a: int, b: int, quad: tuple[int, int, int, int]):
    """Unpack an S6 witness into (a1, a2, b1, b2, c_a, c_b)."""
    a1, a2, b1, b2 = quad
    c_a = next(v for v in g.adjacency[a] if v not in (a1, a2))
    c_b = next(v for v in g.adjacency[b] if v not in (b1, b2))
    return a1, a2, b1, b2, c_a, c_b


def _mirror_bob_path(alice_steps, a, b, a1, a2, b1, b2, coin) -> list[int]:
    """Bob's mirrored excursion: at each interior time he occupies the
    partner of Alice's next interior position; his last interior position
    is a fair coin between the two available partners.  `coin(x, y)`
    returns one of its arguments."""
    T = len(alice_steps)
    partner = {a1: a2, a2: a1, b1: b2, b2: b1}
    bob: list[int] = []
    for s in range(1, T):  # interior times t+1 .. t+T-1
        nxt = alice_steps[s]  # Alice's position at time t+s+1
        if s + 1 < T:
            bob.append(partner[nxt])
        else:  # Alice's next move exits; Bob flips for his side
            pair = (b1, b2) if s % 2 == 1 else (a1, a2)
            bob.append(coin(*pair))
    bob.append(b if T % 2 == 0 else a)
    return bob


def k22_excursion_coupling(
    g: Graph, a: int, b: int, rng: Xoshiro256, quad: tuple[int, int, int, int]
) -> BlockOutcome:
    a1, a2, b1, b2, c_a, c_b = k22_context(g, a, b, quad)
    strategy = rng.randrange(3)
    if strategy == 0:
        return BlockOutcome(1, [c_a], [rng.choice((b1, b2))])
    if strategy == 1:
        return BlockOutcome(1, [rng.choice((a1, a2))], [c_b])
    # both walkers enter the K_{2,2}; Alice walks until hitting {a, b}
    alice = [rng.choice((a1, a2))]
    while alice[-1] not in (a, b):
        alice.append(rng.choice(g.adjacency[alice[-1]]))
    bob = _mirror_bob_path(alice, a, b, a1, a2, b1, b2, lambda x, y: x if rng.coin() else y)
    return BlockOutcome(len(alice), alice, bob)


def cubic_block(g: Graph, a: int, b: int, rng: Xoshiro256, scenario: ScenarioClass | None = None) -> BlockOutcome:
    """One jointly planned block from positions (a, b) at distance >= 2."""
    if scenario is None:
        scenario = classify_scenario(g, a, b)
    tag = scenario.tag
    if tag == "S1":
        out = BlockOutcome(1, [rng.choice(g.adjacency[a])], [rng.choice(g.adjacency[b])])
    elif tag in ("S2", "S3a", "S4", "S5"):
        ap, bp = one_step_matched_coupling(g, a, b, rng)
        out = BlockOutcome(1, [ap], [bp])
    elif tag == "S3b":
        out = two_step_table_coupling(g, a, b, rng)
    else:  # S6
        out = k22_excursion_coupling(g, a, b, rng, scenario.witness)
    out.scenario = scenario
    return out


# ---------------------------------------------------------------------------
# engines


def default_b0(g: Graph, a0: int) -> int:
    """Smallest vertex at distance >= 2 from a0."""
    closed = set(g.adjacency[a0]) | {a0}
    for v in range(g.n):
        if v not in closed:
            return v
    raise ValueError("no vertex at distance >= 2 from a0 (graph is complete)")


class CubicEngine:
    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        if b0 is None:
            b0 = default_b0(g, a0)
        if b0 == a0 or g.has_edge(a0, b0):
            raise ValueError("cubic engine requires distance(a0, b0) >= 2")
        self.state = EngineState("cubic", a0, b0)
        self._scenarios: dict[tuple[int, int], ScenarioClass] = {}
        self._matchings: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.scenario_counts: dict[str, int] = {}

    def _scenario(self, a: int, b: int) -> ScenarioClass:
        key = (a, b)
        sc = self._scenarios.get(key)
        if sc is None:
            sc = classify_scenario(self.g, a, b)
            self._scenarios[key] = sc
        return sc

    def block(self) -> BlockOutcome:
        a, b = self.state.alice, self.state.bob
        sc = self._scenario(a, b)
        if sc.tag in ("S2", "S3a", "S4", "S5"):
            sigma = self._matchings.get((a, b))
            if sigma is None:
                sigma = one_step_matching(self.g, a, b)
                self._matchings[(a, b)] = sigma
            ap, bp = self.rng.choice(sigma)
            out = BlockOutcome(1, [ap], [bp], scenario=sc)
        else:
            out = cubic_block(self.g, a, b, self.rng, scenario=sc)
        self.scenario_counts[sc.tag] = self.scenario_counts.get(sc.tag, 0) + 1
        self.state.alice = out.alice_steps[-1]
        self.state.bob = out.bob_steps[-1]
        self.state.tick += out.T
        return out

    def run(self, ticks: int) -> Trajectory:
        positions = [(self.state.alice, self.state.bob)]
        marks = [0]
        while self.state.tick < ticks:
            out = self.block()
            positions.extend(zip(out.alice_steps, out.bob_steps))
            marks.append(self.state.tick)
        return Trajectory("cubic", self.seed, self.g.digest(), positions, marks)


class SquarefreeEngine:
    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None, cache_capacity: int = 4096):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        if b0 is None:
            b0 = default_b0(g, a0)
        if b0 == a0 or g.has_edge(a0, b0):
            raise ValueError("squarefree engine requires distance(a0, b0) >= 2")
        self.state = EngineState("squarefree", a0, b0)
        self.cache = LruCache(cache_capacity)

    def step(self) -> tuple[int, int]:
        g, a, b = self.g, self.state.alice, self.state.bob
        key = ("sqf-cum", a, b)
        cached = self.cache.get(key)
        if cached is None:
            tm = build_squarefree_transport(g, a, b)
            cums = tuple(tuple(accumulate(row)) for row in tm.entries)
            cached = (tm, cums)
            self.cache.put(key, cached)
        tm, cums = cached
        i = self.rng.randrange(len(tm.row_labels))
        r = self.rng.randrange(tm.row_sum)
        j = bisect_right(cums[i], r)
        row_v, col_v = tm.row_labels[i], tm.col_labels[j]
        ap, bp = (col_v, row_v) if tm.swapped else (row_v, col_v)
        self.state.alice, self.state.bob = ap, bp
        self.state.tick += 1
        return ap, bp

    def run(self, ticks: int) -> Trajectory:
        positions = [(self.state.alice, self.state.bob)]
        marks = list(range(ticks + 1))  # every step is a one-tick block
        for _ in range(ticks):
            positions.append(self.step())
        return Trajectory("squarefree", self.seed, self.g.digest(), positions, marks)


class RegularEngine:
    """Excluded-vertex protocol: two overlapping transport rounds per
    three ticks, with the walkers' roles alternating.

    A round draws r uniform below the matrix total and takes the cell of
    the row-major flattened entries whose cumulative count first exceeds r;
    zero cells never do, so each cell is drawn with probability entry/total.
    The cumulative counts are cached per triple as one array("I")."""

    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None, cache_capacity: int = 4096):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self.cache = LruCache(cache_capacity)
        e1 = self.rng.choice(g.adjacency[a0])
        if b0 is None:
            b0 = default_b0(g, a0)
        else:
            if b0 == a0:
                raise ValueError("b0 must differ from a0")
            if g.has_edge(a0, b0) and b0 != e1:
                raise ValueError("b0 in N(a0) is only allowed when b0 equals the excluded vertex")
        self.state = EngineState("regular", a0, b0, excluded=e1, phase=0)
        self.round_checks = 0

    def _sampler(self, a: int, b: int, e: int):
        key = ("reg-samp", a, b, e)
        s = self.cache.get(key)
        if s is None:
            tm = build_regular_transport(self.g, a, b, e)
            s = (tm.row_labels, tm.col_labels, array("I", accumulate(chain.from_iterable(tm.entries))))
            self.cache.put(key, s)
        return s

    def sample_round(self, a: int, b: int, e: int) -> tuple[int, int, int, int]:
        """One transport draw for the triple (mover=a, other=b, excluded=e):
        returns (mover_step1, mover_step2, other_step, next_excluded)."""
        g = self.g
        if b == a:
            raise AssertionError("round invariant violated: other == mover")
        if g.has_edge(a, b) and b != e:
            raise AssertionError("round invariant violated: adjacent other != excluded")
        self.round_checks += 1
        rows, cols, cum = self._sampler(a, b, e)
        i, j = divmod(bisect_right(cum, self.rng.randrange(cum[-1])), len(cols))
        mp, op = rows[i], cols[j]
        return mp.first_step, mp.second_step, op.step, op.next_excluded

    def run(self, ticks: int) -> Trajectory:
        A = [self.state.alice]
        B = [self.state.bob]
        e_next = self.state.excluded  # E_{3q+1} at the top of each loop
        q = 0
        while 3 * q < ticks:
            a1, a2, b1, e2 = self.sample_round(A[3 * q], B[3 * q], e_next)
            A.extend((a1, a2))
            B.append(b1)
            x1, x2, y, e4 = self.sample_round(B[3 * q + 1], A[3 * q + 2], e2)
            B.extend((x1, x2))
            A.append(y)
            e_next = e4
            q += 1
        self.state.alice, self.state.bob = A[3 * q], B[3 * q]
        self.state.excluded = e_next
        self.state.tick = 3 * q
        return Trajectory("regular", self.seed, self.g.digest(), list(zip(A, B)))


def cyclic_order(g: Graph) -> tuple[int, ...]:
    """Vertices of a connected 2-regular graph in cycle order, from 0 towards its smaller neighbor."""
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        x, y = g.adjacency[order[-1]]
        order.append(y if x == order[-2] else x)
    return tuple(order)


class CycleEngine:
    """k synchronized walkers on a cycle: one fair coin per tick, all walkers
    shift the same direction.

    `order` lists the cycle's vertices in cyclic order (default 0..n-1, the
    canonical C_n); walkers start at every second vertex of it.
    """

    def __init__(self, n: int, k: int, seed: int, order: tuple[int, ...] | None = None):
        if k < 1 or 2 * k > n:
            raise ValueError("cycle engine requires 1 <= k <= n/2")
        self.order = tuple(range(n)) if order is None else tuple(order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must list each vertex 0..n-1 once")
        self.n = n
        self.k = k
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self._succ = [0] * n
        self._pred = [0] * n
        for i, v in enumerate(self.order):
            self._succ[v] = self.order[(i + 1) % n]
            self._pred[v] = self.order[i - 1]
        self.positions = self.order[: 2 * k : 2]

    def step(self) -> tuple[int, ...]:
        move = self._succ if self.rng.coin() else self._pred
        self.positions = tuple(move[p] for p in self.positions)
        return self.positions

    def run(self, ticks: int) -> Trajectory:
        positions = [self.positions]
        for _ in range(ticks):
            positions.append(self.step())
        host = graph_from_edges(self.n, enumerate(self._succ))
        return Trajectory("cycle", self.seed, host.digest(), positions)


def cycle_sync_step(n: int, positions: tuple[int, ...], rng: Xoshiro256) -> tuple[int, ...]:
    if 2 * len(positions) > n:
        raise ValueError("requires k <= n/2")
    shift = 1 if rng.coin() else -1
    return tuple((p + shift) % n for p in positions)


def check_walkers(engine: str, walkers: int) -> None:
    """Raise unless the engine runs that many walkers: only cycle runs k != 2."""
    if engine != "cycle" and walkers != 2:
        raise ValueError(f"engine {engine!r} runs exactly 2 walkers, got {walkers}")


def simulate(
    g: Graph,
    engine: str,
    ticks: int,
    seed: int,
    a0: int | None = None,
    b0: int | None = None,
    walkers: int = 2,
    cache_capacity: int = 4096,
):
    """Run the named engine for >= ticks ticks; returns (trajectory, engine instance)."""
    require_engine_applicable(g, engine)
    check_walkers(engine, walkers)
    a0 = 0 if a0 is None else a0
    if engine == "cycle":
        eng = CycleEngine(g.n, walkers, seed, cyclic_order(g))
    elif engine == "cubic":
        eng = CubicEngine(g, seed, a0, b0)
    elif engine == "squarefree":
        eng = SquarefreeEngine(g, seed, a0, b0, cache_capacity)
    elif engine == "regular":
        eng = RegularEngine(g, seed, a0, b0, cache_capacity)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    traj = eng.run(ticks)
    return traj, eng
