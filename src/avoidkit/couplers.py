"""The four coupling engines: four block laws behind one engine contract.

`Engine` holds what every engine shares: the generator, the transport
cache, the start rule and the one run loop.  An engine adds its block law;
its hypothesis is stated in `structure.engine_obstruction`.

  cubic      - scenario-classified blocks: one-step matchings, a 9-row
               two-step table, and an excursion through a local K_{2,2}
  regular    - the excluded-vertex protocol, two transport rounds per block
  squarefree - one-step transport blocks
  cycle      - k synchronized walkers, one shift per tick

Every engine is deterministic given its seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .graphs import Graph, check_vertices, graph_from_edges
from .matching import (
    LruCache,
    TransportInfeasible,
    TransportMatrix,
    avoiding_supports,
    build_regular_transport,
    build_squarefree_transport,
    solve_transport,
)
from .rng import Xoshiro256
from .structure import ScenarioClass, classify_scenario, require_engine_applicable


@dataclass
class BlockOutcome:
    alice_steps: list[int]
    bob_steps: list[int]
    scenario: ScenarioClass | None = None

    @property
    def T(self) -> int:
        """The block's length in ticks."""
        return len(self.alice_steps)


@dataclass
class Trajectory:
    engine: str
    seed: int
    graph_digest: str
    positions: list[tuple[int, ...]]  # positions[t] = (A_t, B_t) or k walkers
    block_marks: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        """A three-line header, then one `t v_1 .. v_k` line per tick, each
        marked tick followed by a `# block t` line."""
        pos = self.positions
        k = len(pos[0]) if pos else 0
        if len(set(map(len, pos))) > 1:
            raise ValueError("ticks with different walker counts have no text form")
        lines = [f"# graph-digest {self.graph_digest}", f"# seed {self.seed}", f"# engine {self.engine}",
                 *map(("{}" + " {}" * k).format, range(len(pos)), *zip(*pos))]
        for t in set(self.block_marks):
            if 0 <= t < len(pos):
                lines[3 + t] += f"\n# block {t}"
        return "\n".join(lines) + "\n"


def parse_trajectory(text: str) -> Trajectory:
    """Read `Trajectory.to_text` output.  Whitespace around and between
    tokens, blank lines and unknown `# key` lines are ignored; the first
    malformed line in file order raises ValueError.

    Each distinct walker text is converted once, so ticks at the same
    positions share one tuple."""
    header: dict[str, str] = {}
    positions: list[tuple[int, ...]] = []
    marks: list[int] = []
    states: dict[str, tuple[int, ...]] = {}
    width = None
    for line in text.splitlines():
        tokens = line.split(None, 1)
        if not tokens:
            continue
        head = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if head[0] == "#":
            parts = rest.split() if head == "#" else [head[1:], *rest.split()]
            if not parts:
                raise ValueError("bare '#' line")
            key = parts[0]
            if key in ("graph-digest", "seed", "engine", "block"):
                if len(parts) < 2:
                    raise ValueError(f"'# {key}' line without a value")
                if key == "block":
                    marks.append(int(parts[1]))
                else:
                    header[key] = parts[1]
            continue
        t = int(head)
        pos = states.get(rest)
        if pos is None:
            pos = states[rest] = tuple(map(int, rest.split()))
        if t != len(positions):
            raise ValueError(f"non-contiguous tick {t}")
        if len(pos) != width:  # the first tick, or a walker count that changes
            if not pos:
                raise ValueError(f"tick {t} has no walker")
            if positions:
                raise ValueError(f"tick {t} has {len(pos)} walkers, tick 0 has {width}")
            width = len(pos)
        positions.append(pos)
    if len(header) < 3:
        raise ValueError("trajectory header incomplete")
    engine = header["engine"]
    if engine != "cycle" and engine not in TWO_WALKER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if not positions:
        raise ValueError("trajectory has no ticks")
    check_walkers(engine, width)
    if marks and not 0 <= min(marks) <= max(marks) < len(positions):
        raise ValueError(f"block marks {min(marks)}..{max(marks)} outside ticks 0..{len(positions) - 1}")
    return Trajectory(engine, int(header["seed"]), header["graph-digest"], positions, marks)


# ---------------------------------------------------------------------------
# cubic engine (3-regular, H~3-free)


def one_step_matching(g: Graph, a: int, b: int) -> list[tuple[int, int]]:
    """A perfect matching sigma between N(a) and N(b) in the compatibility
    graph {(a', b') : b' not in {a'} u N(a')}, as (a', sigma(a')) pairs."""
    na, nb = g.adjacency[a], g.adjacency[b]
    try:
        cells, _ = solve_transport(1, 1, avoiding_supports(g, na, nb), len(nb))
    except TransportInfeasible as err:
        raise TransportInfeasible(
            f"scenario hypothesis violated at (a={a}, b={b})",
            err.hall_rows,
            err.hall_cols,
        ) from err
    return [(na[f // len(nb)], nb[f % len(nb)]) for f in cells]


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


def cubic_block(g: Graph, a: int, b: int, rng, scenario: ScenarioClass | None = None,
                sigma: list[tuple[int, int]] | None = None, out: BlockOutcome | None = None) -> BlockOutcome:
    """One jointly planned block from positions (a, b) at distance >= 2.

    This is the one definition of the cubic law.  `rng` is any chooser with
    `choice`, `randrange` and `coin`: the engine passes its Xoshiro256, and
    the exact certifier in verify.py passes a chooser that enumerates every
    option.  S2-S5 draw from the matching `sigma` when it is given.  Steps
    are appended to `out` as they are drawn, so a caller that passes `out`
    sees the partial block if the chooser stops early.
    """
    if scenario is None:
        scenario = classify_scenario(g, a, b)
    if out is None:
        out = BlockOutcome([], [])
    out.scenario = scenario
    alice, bob = out.alice_steps, out.bob_steps
    tag = scenario.tag
    if tag == "S1":  # independent steps
        alice.append(rng.choice(g.adjacency[a]))
        bob.append(rng.choice(g.adjacency[b]))
    elif tag == "S3b":  # one of nine two-step rows
        (a1, a2), (b1, b2) = rng.choice(s3b_rows(g, a, b))
        alice += (a1, a2)
        bob += (b1, b2)
    elif tag == "S6":
        a1, a2, b1, b2 = scenario.witness
        strategy = rng.randrange(3)
        if strategy == 0:  # Alice exits, Bob enters
            alice.append(next(v for v in g.adjacency[a] if v not in (a1, a2)))
            bob.append(rng.choice((b1, b2)))
        elif strategy == 1:  # Alice enters, Bob exits
            alice.append(rng.choice((a1, a2)))
            bob.append(next(v for v in g.adjacency[b] if v not in (b1, b2)))
        else:
            # both enter the K_{2,2}: Alice walks until she hits {a, b}, and
            # Bob, one step behind, takes the partner of each of her interior
            # positions; once she exits he flips for the side parity leaves
            # him and steps out to b or a
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
    else:  # S2, S3a, S4, S5: one step through a perfect matching
        ap, bp = rng.choice(one_step_matching(g, a, b) if sigma is None else sigma)
        alice.append(ap)
        bob.append(bp)
    return out


# ---------------------------------------------------------------------------
# engines


def regular_round(tm: TransportMatrix, rng) -> tuple[int, int, int, int]:
    """The round law, for any chooser `rng` with `randrange`: the cell whose
    cumulative count first exceeds r, r uniform below the total, so a cell's
    probability is entry/total.  Returns (a', a'', b', e')."""
    cum = tm.cum
    i, j = divmod(tm.cells[bisect_right(cum, rng.randrange(cum[-1]))], len(tm.col_labels))
    return tm.row_labels[i] + tm.col_labels[j]


def squarefree_step(tm: TransportMatrix, rng) -> tuple[int, int]:
    """The step law, for any chooser `rng` with `randrange`: row i uniform,
    then the cell whose cumulative count first exceeds i*l + r, r uniform
    below the row sum l.  Rows are Bob's when the transport swapped the
    roles.  Returns (a', b')."""
    rows, cols = tm.row_labels, tm.col_labels
    l = len(cols)
    i, j = divmod(tm.cells[bisect_right(tm.cum, rng.randrange(len(rows)) * l + rng.randrange(l))], l)
    u, v = rows[i], cols[j]
    return (v, u) if tm.swapped else (u, v)


def default_b0(g: Graph, a0: int) -> int:
    """Smallest vertex at distance >= 2 from a0."""
    closed = set(g.adjacency[a0]) | {a0}
    for v in range(g.n):
        if v not in closed:
            return v
    raise ValueError("no vertex at distance >= 2 from a0 (graph is complete)")


class Engine:
    """A block law behind the one run loop.

    A subclass names its engine, says whether its block ends are written as
    `# block` marks (they are exactly when every block ends at distance >= 2),
    and defines `block()`, which advances the engine and returns the position
    tuples of the ticks that block adds.  Two-walker engines hold the
    walkers' positions in `alice` and `bob`, starting at (a0, b0) through
    `start_b0`."""

    name: str
    marks_blocks = False

    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None, cache_capacity: int = 4096):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self.cache = LruCache(cache_capacity)
        self.alice, self.bob = a0, self.start_b0(a0, b0)

    def start_b0(self, a0: int, b0: int | None) -> int:
        """The start rule: b0 (default `default_b0`) at distance >= 2 from a0."""
        if b0 is None:
            return default_b0(self.g, a0)
        if b0 == a0 or self.g.has_edge(a0, b0):
            raise ValueError(f"{self.name} engine requires distance(a0, b0) >= 2")
        return b0

    def current(self) -> tuple[int, ...]:
        return (self.alice, self.bob)

    def sampler(self, build, *state) -> TransportMatrix:
        """The transport build(g, *state), cached by state."""
        cached = self.cache.get(state)
        if cached is None:
            cached = build(self.g, *state)
            self.cache.put(state, cached)
        return cached

    def run(self, ticks: int) -> Trajectory:
        """Whole blocks until at least `ticks` ticks are drawn."""
        positions = [self.current()]
        marks = [0]
        while len(positions) <= ticks:
            positions += self.block()
            marks.append(len(positions) - 1)
        return Trajectory(self.name, self.seed, self.g.digest(), positions,
                          marks if self.marks_blocks else [])


class CubicEngine(Engine):
    """Cubic blocks from one bounded cache of (scenario, sigma) per
    non-S1 pair (a, b); an S1 pair costs only a capped BFS and is not cached."""

    name = "cubic"
    marks_blocks = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scenario_counts: dict[str, int] = {}

    def block(self) -> list[tuple[int, int]]:
        g, a, b = self.g, self.alice, self.bob
        cached = self.cache.get((a, b))
        if cached is None:
            sc = classify_scenario(g, a, b)
            sigma = one_step_matching(g, a, b) if sc.tag in ("S2", "S3a", "S4", "S5") else None
            if sc.tag != "S1":
                self.cache.put((a, b), (sc, sigma))
        else:
            sc, sigma = cached
        out = cubic_block(g, a, b, self.rng, sc, sigma)
        self.scenario_counts[sc.tag] = self.scenario_counts.get(sc.tag, 0) + 1
        self.alice = out.alice_steps[-1]
        self.bob = out.bob_steps[-1]
        return list(zip(out.alice_steps, out.bob_steps))


class SquarefreeEngine(Engine):
    """One-step transport blocks; every tick is a block."""

    name = "squarefree"
    marks_blocks = True

    def block(self) -> list[tuple[int, int]]:
        a, b = self.alice, self.bob
        ap, bp = squarefree_step(self.sampler(build_squarefree_transport, a, b), self.rng)
        self.alice, self.bob = ap, bp
        return [(ap, bp)]


class RegularEngine(Engine):
    """Excluded-vertex protocol: two overlapping transport rounds per
    three-tick block, with the walkers' roles alternating."""

    name = "regular"
    round_checks = 0  # rounds drawn, each after checking its invariant

    def start_b0(self, a0: int, b0: int | None) -> int:
        """Draw the first excluded vertex e1 before anything else; b0 may
        be adjacent to a0 only when it is e1."""
        self.excluded = self.rng.choice(self.g.adjacency[a0])
        return b0 if b0 == self.excluded else super().start_b0(a0, b0)

    def sample_round(self, a: int, b: int, e: int) -> tuple[int, int, int, int]:
        """One transport draw for the triple (mover=a, other=b, excluded=e):
        returns (mover_step1, mover_step2, other_step, next_excluded)."""
        if b == a:
            raise AssertionError("round invariant violated: other == mover")
        if self.g.has_edge(a, b) and b != e:
            raise AssertionError("round invariant violated: adjacent other != excluded")
        self.round_checks += 1
        return regular_round(self.sampler(build_regular_transport, a, b, e), self.rng)

    def block(self) -> list[tuple[int, int]]:
        """Alice moves twice while Bob steps once, then Bob moves twice
        while Alice steps once; `excluded` carries over between rounds."""
        a1, a2, b1, e2 = self.sample_round(self.alice, self.bob, self.excluded)
        x1, x2, y, self.excluded = self.sample_round(b1, a2, e2)
        self.alice, self.bob = y, x2
        return [(a1, b1), (a2, x1), (y, x2)]


def cyclic_order(g: Graph) -> tuple[int, ...]:
    """Vertices of a connected 2-regular graph in cycle order, from 0 towards its smaller neighbor."""
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        x, y = g.adjacency[order[-1]]
        order.append(y if x == order[-2] else x)
    return tuple(order)


class CycleEngine(Engine):
    """k synchronized walkers on a cycle: one fair coin per tick, all walkers
    shift the same direction.

    `order` lists the cycle's vertices in cyclic order (default 0..n-1, the
    canonical C_n); walkers start at every second vertex of it.
    """

    name = "cycle"

    def __init__(self, n: int, k: int, seed: int, order: tuple[int, ...] | None = None):
        if k < 1 or 2 * k > n:
            raise ValueError("cycle engine requires 1 <= k <= n/2")
        self.order = tuple(range(n)) if order is None else tuple(order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must list each vertex 0..n-1 once")
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self._succ, self._pred = [0] * n, [0] * n
        for u, v in zip(self.order, self.order[1:] + self.order[:1]):
            self._succ[u], self._pred[v] = v, u
        self.g = graph_from_edges(n, enumerate(self._succ))
        self.positions = self.order[: 2 * k : 2]

    def current(self) -> tuple[int, ...]:
        return self.positions

    def step(self) -> tuple[int, ...]:
        move = self._succ if self.rng.coin() else self._pred
        self.positions = tuple(move[p] for p in self.positions)
        return self.positions

    def block(self) -> list[tuple[int, ...]]:
        return [self.step()]


TWO_WALKER_ENGINES = {"cubic": CubicEngine, "regular": RegularEngine, "squarefree": SquarefreeEngine}


def check_walkers(engine: str, walkers: int) -> None:
    """Raise unless the engine runs that many walkers: only cycle runs k != 2."""
    if engine in TWO_WALKER_ENGINES and walkers != 2:
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
    """Run an engine for >= ticks ticks; returns (trajectory, engine instance).

    `engine` may be "auto": `require_engine_applicable` then picks the
    verdict's engine, deciding the hypothesis once.  A failed hypothesis
    raises HypothesisError, any other bad argument a ValueError.  The cycle
    engine puts its walkers on every second vertex of the cycle order and
    ignores a0 and b0 (they are still range-checked)."""
    check_vertices(g, a0=a0, b0=b0)
    check_walkers(engine, walkers)  # a named engine's: bad input on any graph
    engine = require_engine_applicable(g, engine)
    check_walkers(engine, walkers)  # the engine "auto" picked
    if engine == "cycle":  # the only k-walker engine: a0 and b0 do not apply
        eng = CycleEngine(g.n, walkers, seed, cyclic_order(g))
    else:
        eng = TWO_WALKER_ENGINES[engine](g, seed, 0 if a0 is None else a0, b0, cache_capacity)
    return eng.run(ticks), eng
