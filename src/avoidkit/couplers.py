"""The four coupling engines: four block laws behind one engine contract.

`Engine` holds what every engine shares: the generator, the transport
cache (one `BoundedCache`, oldest entry out), the start rule and the one
run loop.  An engine adds its block law; its hypothesis is stated in
`structure.engine_obstruction`.  A block that hits the cache costs one
cache lookup, one call to the law and the law's random draws: each cache
entry is stored ready to draw from.  One block call draws at least one
block, and an engine that writes block marks appends each block's mark
itself, so one call may draw a stretch of blocks: the cubic engine draws
S1 ticks and cache hits in one call until the first state that needs a
new plan.

  cubic      - scenario-classified blocks: one-step matchings, a 9-row
               two-step table, and an excursion through a local K_{2,2},
               each a law that appends ticks, which the exact certifiers
               in verify.py enumerate as they are; far pairs (S1) step
               independently, drawn in stretches
  regular    - the excluded-vertex protocol, two transport rounds per block
  squarefree - one-step transport blocks
  cycle      - k synchronized walkers, one shift per tick

Every engine is deterministic given its seed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import eq
from typing import Callable, Iterator

from .graphs import Graph, check_vertices
from .matching import (
    BoundedCache,
    TransportMatrix,
    avoiding_supports,
    build_regular_transport,
    build_squarefree_transport,
    regular_table,
    solve_transport,  # not called here: perfbench's tracer patches couplers.solve_transport
    solved_cells,
)
from .rng import Xoshiro256, check_seed
from .structure import ScenarioClass, classify_scenario, radius2, radius2_set, require_engine_applicable


TEXT_CHUNK_TICKS = 4096  # ticks per piece of `Trajectory.text_chunks`
PARSE_CHUNK_CHARS = 1 << 16  # characters per slice that `parse_trajectory` splits into lines


def transition_counts(positions) -> Counter:
    """How often each joint transition (positions[t], positions[t + 1]) occurs."""
    return Counter(zip(positions, islice(positions, 1, None)))


@dataclass
class Trajectory:
    """A run's ticks.  `positions` is the list its producer (`Engine.run`
    or `parse_trajectory`) appended to, kept without a copy."""

    engine: str
    seed: int
    graph_digest: str
    positions: list[tuple[int, ...]]  # positions[t] = (A_t, B_t) or k walkers
    block_marks: list[int] = field(default_factory=list)
    _transitions: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def transitions(self) -> Counter:
        """`transition_counts(positions)`, shared by two readers: a call
        with no count kept counts and keeps it, and the next call, while
        `positions` is the same list, returns it and lets it go.  So the
        two checks of one verification count once, and a verified
        trajectory holds no count.  The count is keyed on the list's
        identity, so the list must not be edited in place; callers must
        not change the count either."""
        memo = self._transitions
        if memo is not None and memo[0] is self.positions:
            self._transitions = None
            return memo[1]
        counts = transition_counts(self.positions)
        self._transitions = (self.positions, counts)
        return counts

    def text_chunks(self) -> Iterator[str]:
        """The text form in bounded pieces: a three-line header, then one
        `t v_1 .. v_k` line per tick, each marked tick followed by a
        `# block t` line, `TEXT_CHUNK_TICKS` ticks to a piece.  Each
        distinct state of a piece is formatted once.  A block mark outside
        the ticks raises ValueError before the header, as in
        `parse_trajectory`, so no text drops a mark."""
        pos = self.positions
        n = len(pos)
        marks = self.block_marks
        marked = None  # stays None when the marks are exactly 0..n-1: every tick line carries its mark
        if len(marks) != n or not all(map(eq, marks, range(n))):
            check_block_marks(marks, n)
            marked = bytearray(n)
            for t in marks:
                marked[t] = 1
        widths = set(map(len, pos))
        if len(widths) > 1:
            raise ValueError("ticks with different walker counts have no text form")
        fmt = " %s" * (widths.pop() if widths else 0)  # `%s` of an int is its `f"{v}"`
        yield f"# graph-digest {self.graph_digest}\n# seed {self.seed}\n# engine {self.engine}\n"
        for start in range(0, n, TEXT_CHUNK_TICKS):
            chunk = pos[start:start + TEXT_CHUNK_TICKS]
            bodies = dict.fromkeys(chunk)
            for s in bodies:
                bodies[s] = fmt % s
            ticks = zip(range(start, start + len(chunk)), map(bodies.__getitem__, chunk))
            if marked is None:
                yield "".join([f"{t}{body}\n# block {t}\n" for t, body in ticks])
            else:
                yield "".join([f"{t}{body}\n# block {t}\n" if marked[t] else f"{t}{body}\n" for t, body in ticks])

    def to_text(self) -> str:
        """`text_chunks()` joined."""
        return "".join(self.text_chunks())


def check_block_marks(marks: list[int], ticks: int) -> None:
    """Raise ValueError unless every block mark is one of the ticks 0..ticks-1."""
    if marks and not 0 <= min(marks) <= max(marks) < ticks:
        raise ValueError(f"block marks {min(marks)}..{max(marks)} outside ticks 0..{ticks - 1}")


def parse_trajectory(text: str) -> Trajectory:
    """Read `Trajectory.to_text` output.  Whitespace around and between
    tokens, blank lines and unknown `# key` lines are ignored; the first
    malformed line in file order raises ValueError, and so do block marks
    outside the ticks and a seed `simulate` would refuse.

    The text is split into lines a slice of about `PARSE_CHUNK_CHARS`
    characters at a time, each cut just after a newline.  A line that is
    the last tick's `# block t` mark, or that starts with the next tick's
    number and a space, is read directly; any other line is tokenised.
    Each distinct walker text is converted once per slice, so ticks at the
    same positions within a slice share one tuple, and the memo is bounded
    by the slice, not the run."""
    header: dict[str, str] = {}
    positions: list[tuple[int, ...]] = []
    marks: list[int] = []
    width = None
    t = -1  # the last tick read
    expect, mark = "0", "\n"  # the next tick's number and the last tick's mark line
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + PARSE_CHUNK_CHARS - 1) + 1 or end
        states: dict[str, tuple[int, ...]] = {}
        for line in text[start:stop].splitlines():
            if line == mark:
                marks.append(t)
                continue
            head, _, rest = line.partition(" ")
            if head == expect:
                tick = t + 1
            else:
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
                tick = int(head)
            pos = states.get(rest)
            if pos is None:
                pos = states[rest] = tuple(map(int, rest.split()))
            if tick != len(positions):
                raise ValueError(f"non-contiguous tick {tick}")
            if len(pos) != width:  # the first tick, or a walker count that changes
                if not pos:
                    raise ValueError(f"tick {tick} has no walker")
                if positions:
                    raise ValueError(f"tick {tick} has {len(pos)} walkers, tick 0 has {width}")
                width = len(pos)
            positions.append(pos)
            t = tick
            mark = "# block " + head  # the line that marks tick t: int(head) == t
            expect = str(t + 1)
        start = stop
    if len(header) < 3:
        raise ValueError("trajectory header incomplete")
    engine = header["engine"]
    if engine != "cycle" and engine not in TWO_WALKER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if not positions:
        raise ValueError("trajectory has no ticks")
    check_walkers(engine, width)
    check_block_marks(marks, len(positions))
    seed = int(header["seed"])
    check_seed(seed)
    return Trajectory(engine, seed, header["graph-digest"], positions, marks)


# ---------------------------------------------------------------------------
# cubic engine (3-regular, H~3-free)


def one_step_matching(g: Graph, a: int, b: int) -> tuple[tuple[tuple[int, int]], ...]:
    """A perfect matching sigma between N(a) and N(b) in the compatibility
    graph {(a', b') : b' not in {a'} u N(a')}, as the one-tick rows
    ((a', sigma(a')),) that `uniform_row` draws from."""
    na, nb = g.adjacency[a], g.adjacency[b]
    cells, _ = solved_cells(1, 1, avoiding_supports(g, na, nb), len(nb), f"(H~_3 present?) at (a={a}, b={b})")
    return tuple([((na[f // len(nb)], nb[f % len(nb)]),) for f in cells])


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


def independent_steps(rng, neighbours: tuple, ticks: list) -> None:
    """S1: Alice, then Bob, steps to a uniform neighbour.  `CubicEngine`
    draws the same two indices in its stretches, with one
    `Xoshiro256.randrange_pair`."""
    na, nb = neighbours
    ticks.append((rng.choice(na), rng.choice(nb)))


def uniform_row(rng, rows: tuple, ticks: list) -> None:
    """S2-S5 and S3b: one of the equally likely rows, each a tuple of ticks:
    the one-tick steps (a', sigma(a')) of the perfect matching sigma, or the
    nine two-tick rows of the S3b table."""
    ticks.extend(rng.choice(rows))


def k22_excursion(rng, arg: tuple, ticks: list) -> None:
    """S6: one of three strategies around the K_{2,2} witness (a1, a2, b1,
    b2) of arg = (g, a, b, witness), appending each tick (A, B) as soon as
    Bob's step is known."""
    g, a, b, (a1, a2, b1, b2) = arg
    strategy = rng.randrange(3)
    if strategy == 0:  # Alice exits, Bob enters
        ticks.append((next(v for v in g.adjacency[a] if v not in (a1, a2)), rng.choice((b1, b2))))
    elif strategy == 1:  # Alice enters, Bob exits
        ticks.append((rng.choice((a1, a2)), next(v for v in g.adjacency[b] if v not in (b1, b2))))
    else:
        # both enter the K_{2,2}: Alice walks until she hits {a, b}, and
        # Bob, one step behind, takes the partner of each of her interior
        # positions; once she exits he flips for the side parity leaves
        # him and steps out to b or a
        partner = {a1: a2, a2: a1, b1: b2, b2: b1}
        start = len(ticks)  # `ticks` may hold earlier blocks
        u = rng.choice((a1, a2))
        while True:
            v = rng.choice(g.adjacency[u])
            if v == a or v == b:
                break
            ticks.append((u, partner[v]))
            u = v
        even = (len(ticks) - start) % 2 == 0  # the excursion is two ticks longer: same parity
        x, y = (b1, b2) if even else (a1, a2)
        ticks.append((u, x if rng.coin() else y))
        ticks.append((v, b if even else a))


def cubic_plan(g: Graph, a: int, b: int,
               near_b: frozenset[int] | None = None) -> tuple[ScenarioClass, Callable, tuple]:
    """The block law from positions (a, b) at distance >= 2, resolved once
    and ready to draw: (scenario, law, arg), where `law(rng, arg, ticks)`
    appends the block's (A, B) ticks to `ticks`.  `rng` is any chooser with
    `choice`, `randrange` and `coin`: the engine passes its Xoshiro256, and
    the exact certifiers in verify.py pass a chooser that enumerates every
    option.  `near_b` is b's `radius2_set` when the caller keeps it, and is
    passed on to `classify_scenario`."""
    scenario = classify_scenario(g, a, b, near_b)
    tag = scenario.tag
    if tag == "S1":
        return scenario, independent_steps, (g.adjacency[a], g.adjacency[b])
    if tag == "S6":
        return scenario, k22_excursion, (g, a, b, scenario.witness)
    if tag == "S3b":
        return scenario, uniform_row, tuple(((a1, b1), (a2, b2)) for (a1, a2), (b1, b2) in s3b_rows(g, a, b))
    return scenario, uniform_row, one_step_matching(g, a, b)


# ---------------------------------------------------------------------------
# engines


def regular_round(tm: TransportMatrix, rng) -> tuple[int, int, int, int]:
    """The round law, for any chooser `rng` with `randrange`: the cell whose
    cumulative count first exceeds r, r uniform below the total, so a cell's
    probability is entry/total.  Returns (a', a'', b', e'), the cell's flat
    index read as four base-d digits, d = row_sum."""
    cum, d, adj = tm.cum, tm.row_sum, tm.adj
    f, l = divmod(tm.cells[bisect_right(cum, rng.randrange(cum[-1]))], d)
    f, j = divmod(f, d)
    i, k = divmod(f, d)
    ap, bp = tm.rows[i], tm.cols[j]
    return ap, adj[ap][k], bp, adj[bp][l]


def squarefree_sampler(tm: TransportMatrix) -> tuple[int, int, array, tuple]:
    """A square-free transport ready to draw: (k, l, cum, steps), its k
    rows, l columns, the cumulative counts of its nonzero cells and each
    cell's step (a', b'), with the roles swapped back when the transport
    swapped them.  It stores one step per nonzero cell."""
    rows, cols = tm.rows, tm.cols
    l = len(cols)
    steps = [(rows[f // l], cols[f % l]) for f in tm.cells]
    if tm.swapped:
        steps = [(v, u) for u, v in steps]
    return len(rows), l, tm.cum, tuple(steps)


def squarefree_step(sampler: tuple[int, int, array, tuple], rng) -> tuple[int, int]:
    """The step law, for any chooser `rng` with `randrange`: row i uniform,
    then the cell whose cumulative count first exceeds i*l + r, r uniform
    below the row sum l.  Returns that cell's step (a', b')."""
    k, l, cum, steps = sampler
    return steps[bisect_right(cum, rng.randrange(k) * l + rng.randrange(l))]


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
    and defines `block`, which draws from the state `ticks[-1]` and appends
    the position tuples of the ticks it adds.  An engine without marks
    defines `block(ticks)`, which draws one block.  An engine with marks
    defines `block(ticks, marks, end)`, which draws one or more blocks and
    appends each block's end, its last tick's index, to `marks`; it stops
    once the run has `end` ticks, so a run's trajectory has exactly the
    ticks of the blocks the per-block loop would draw.
    `state` is the current tick's positions; two-walker engines start at
    (a0, b0) through `start_b0`.

    The one `BoundedCache` holds ready-to-draw entries under their state
    tuples and, for cubic and regular on a host with no more vertices than
    the cache has entries, each vertex's table under its vertex id, made
    when a cache miss first needs it as b (`BoundedCache.table`).  Entries
    leave oldest-inserted first; the cache decides only what is rebuilt,
    never what is drawn."""

    name: str
    marks_blocks = False
    blocks = 0  # blocks drawn by `run`

    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self.cache = BoundedCache()
        self.state = (a0, self.start_b0(a0, b0))

    def start_b0(self, a0: int, b0: int | None) -> int:
        """The start rule: b0 (default `default_b0`) at distance >= 2 from a0."""
        if b0 is None:
            return default_b0(self.g, a0)
        if b0 == a0 or self.g.has_edge(a0, b0):
            raise ValueError(f"{self.name} engine requires distance(a0, b0) >= 2")
        return b0

    def run(self, ticks: int) -> Trajectory:
        """Whole blocks from `state` until at least `ticks` ticks are drawn;
        `state` is then the last tick, and `blocks` counts the blocks."""
        positions = [self.state]
        block = self.block
        if self.marks_blocks:
            marks = [0]
            while marks[-1] < ticks:
                block(positions, marks, ticks)
            self.blocks += len(marks) - 1
        else:
            marks = []
            drawn = 0
            while len(positions) <= ticks:
                block(positions)
                drawn += 1
            self.blocks += drawn
        self.state = positions[-1]
        return Trajectory(self.name, self.seed, self.g.digest(), positions, marks)


class CubicEngine(Engine):
    """Cubic blocks from one bounded cache of `cubic_plan`s per non-S1 pair
    (a, b); an S1 pair is not cached, and costs one test of N(a) against
    b's cached `radius2_set` (or against `radius2(g, b)` on a host too
    large to keep the sets).  One `block` call draws a stretch: every S1
    block and cache hit up to the next pair that needs a plan."""

    name = "cubic"
    marks_blocks = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scenario_counts: dict[str, int] = {}

    def block(self, ticks: list, marks: list, end: int) -> None:
        """A stretch: while the state is cached, its plan's law draws the
        block, and while it is an uncached S1 pair, Alice, then Bob, steps
        as `independent_steps` does, each pass one lookup, one block and
        its mark, until the run has `end` ticks.  The first uncached state
        that is not S1 gets its plan from `cubic_plan`, is cached and draws
        the stretch's last block.  Hits, misses and scenario counts are
        those of one lookup per block, and tags enter `scenario_counts` in
        the order in which they first occur."""
        g, cache, rng, counts = self.g, self.cache, self.rng, self.scenario_counts
        adj = g.adjacency
        lookup = cache._data.get  # `BoundedCache.get` without its counts, which are kept below
        table = cache.table
        pair = rng.randrange_pair
        # far: S1 blocks not yet in `counts`.  They can wait for the end of
        # the stretch, since a hit's tag was counted when its plan was made.
        hits = misses = far = 0
        while True:
            key = ticks[-1]
            plan = lookup(key)
            if plan is None:
                misses += 1
                a, b = key
                near_b = lookup(b)  # b's table, found without a call to `BoundedCache.table`
                if near_b is None:
                    near_b = table(g, b, radius2_set)
                na = adj[a]
                # classify_scenario's S1 test
                if not (set(na).isdisjoint(radius2(g, b)) if near_b is None else near_b.isdisjoint(na)):
                    break
                far += 1
                nb = adj[b]
                i, j = pair(len(na), len(nb))
                ticks.append((na[i], nb[j]))
            else:
                hits += 1
                scenario, law, arg = plan
                counts[scenario.tag] = counts.get(scenario.tag, 0) + 1
                law(rng, arg, ticks)
            t = len(ticks) - 1
            marks.append(t)
            if t >= end:
                break
        cache.hits += hits
        cache.misses += misses
        if far:
            counts["S1"] = counts.get("S1", 0) + far
        if len(ticks) > end:
            return
        plan = cubic_plan(g, a, b, near_b)
        cache.put(key, plan)
        scenario, law, arg = plan
        counts[scenario.tag] = counts.get(scenario.tag, 0) + 1
        law(rng, arg, ticks)
        marks.append(len(ticks) - 1)


class SquarefreeEngine(Engine):
    """One-step transport blocks; every tick is a block."""

    name = "squarefree"
    marks_blocks = True

    def block(self, ticks: list, marks: list, end: int) -> None:
        key = ticks[-1]
        sampler = self.cache.get(key)
        if sampler is None:
            sampler = squarefree_sampler(build_squarefree_transport(self.g, *key))
            self.cache.put(key, sampler)
        ticks.append(squarefree_step(sampler, self.rng))
        marks.append(len(ticks) - 1)


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
        if b != e and b in self.g.adjacency[a]:
            raise AssertionError("round invariant violated: adjacent other != excluded")
        self.round_checks += 1
        key = (a, b, e)
        cache = self.cache
        tm = cache.get(key)
        if tm is None:
            g = self.g
            tm = build_regular_transport(g, a, b, e, cache.table(g, b, regular_table))
            cache.put(key, tm)
        return regular_round(tm, self.rng)

    def block(self, ticks: list) -> None:
        """Alice moves twice while Bob steps once, then Bob moves twice
        while Alice steps once; `excluded` carries over between rounds."""
        a, b = ticks[-1]
        a1, a2, b1, e2 = self.sample_round(a, b, self.excluded)
        x1, x2, y, self.excluded = self.sample_round(b1, a2, e2)
        ticks.extend(((a1, b1), (a2, x1), (y, x2)))


def cyclic_order(g: Graph) -> tuple[int, ...]:
    """Vertices of a connected 2-regular graph in cycle order, from 0 towards
    its smaller neighbor; raises ValueError unless g is one cycle through
    all its vertices."""
    if g.n < 3 or any(len(nbrs) != 2 for nbrs in g.adjacency):
        raise ValueError("cycle engine requires a 2-regular graph")
    order = [0, g.adjacency[0][0]]
    while len(order) < g.n:
        x, y = g.adjacency[order[-1]]
        order.append(y if x == order[-2] else x)
        if order[-1] == 0:
            raise ValueError("cycle engine requires a connected graph")
    return tuple(order)


class CycleEngine(Engine):
    """k synchronized walkers on the cycle g: one fair coin per tick, all
    walkers shift the same direction.

    Walkers start at every second vertex of `cyclic_order(g)`.  After a net
    shift s along that order, walker i is at order[(2i + s) % n], so the
    walkers' positions are one of n tuples, each made on its first visit.
    """

    name = "cycle"

    def __init__(self, g: Graph, seed: int, k: int):
        if k < 1 or 2 * k > g.n:
            raise ValueError("cycle engine requires 1 <= k <= n/2")
        self.g = g
        self.order = cyclic_order(g)
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self.k = k
        self.shift = 0
        self.states: list[tuple[int, ...] | None] = [None] * g.n  # states[s]: the positions at shift s
        self.state = self.states[0] = self.order[: 2 * k : 2]

    def block(self, ticks: list) -> None:
        s = self.shift = (self.shift + (1 if self.rng.coin() else -1)) % len(self.states)
        state = self.states[s]
        if state is None:
            order, n = self.order, len(self.order)
            state = self.states[s] = tuple(order[(2 * i + s) % n] for i in range(self.k))
        ticks.append(state)


TWO_WALKER_ENGINES = {"cubic": CubicEngine, "regular": RegularEngine, "squarefree": SquarefreeEngine}
ENGINES = ("auto", "cycle", *TWO_WALKER_ENGINES)  # the engine names `simulate` accepts


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
):
    """Run an engine for >= ticks ticks; returns (trajectory, engine instance).

    `engine` may be "auto": `require_engine_applicable` then picks the
    verdict's engine, deciding the hypothesis once.  The seed, ticks,
    walker count, engine name and start vertices are checked before any
    hypothesis work, so a bad one raises ValueError on any graph; a failed
    hypothesis raises HypothesisError.  The cycle engine puts its walkers
    on every second vertex of the cycle order and ignores a0 and b0 (they
    are still range-checked)."""
    check_seed(seed)
    if ticks < 0 or walkers < 1:
        raise ValueError(f"ticks must be >= 0 and walkers >= 1, got ticks={ticks}, walkers={walkers}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {', '.join(ENGINES)}")
    check_vertices(g, a0=a0, b0=b0)
    check_walkers(engine, walkers)  # a named engine's: bad input on any graph
    engine = require_engine_applicable(g, engine)
    check_walkers(engine, walkers)  # the engine "auto" picked
    if engine == "cycle":  # the only k-walker engine: a0 and b0 do not apply
        eng = CycleEngine(g, seed, walkers)
    else:
        eng = TWO_WALKER_ENGINES[engine](g, seed, 0 if a0 is None else a0, b0)
    return eng.run(ticks), eng
