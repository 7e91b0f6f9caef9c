"""The four coupling engines: four block laws behind one stretch loop.

`Engine` holds what every engine shares: the generator, the cache (one
`BoundedCache`, oldest entry out), the start rule and the one loop,
`Engine.stretch`: a hit draws after one dict lookup, and a miss takes the
far path or stores the engine's `plan` of the state, ready to draw.  An
engine states its key, its plans and their laws; its hypothesis is stated
in `structure.engine_obstruction`.

  cubic      - scenario-classified blocks: one-step matchings, a 9-row
               two-step table, and an excursion through a local K_{2,2},
               each a law that appends ticks, which the exact certifiers
               in verify.py enumerate as they are; far pairs (S1) step
               independently and are not cached
  regular    - the excluded-vertex protocol, two transport rounds per block
  squarefree - one-step transport blocks
  cycle      - k synchronized walkers, one shift per tick, in a stretch of
               its own

Every engine is deterministic given its seed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import eq, lt
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
from .structure import ScenarioClass, classify_scenario, radius2_set, require_engine_applicable


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
        distinct state of a piece is formatted once.  Block marks that are
        not strictly increasing ticks raise ValueError before the header,
        as in `parse_trajectory`, so no text drops or reorders a mark."""
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
    """Raise ValueError unless the block marks are strictly increasing ticks of 0..ticks-1."""
    if not all(map(lt, marks, islice(marks, 1, None))):
        i = next(i for i in range(1, len(marks)) if marks[i] <= marks[i - 1])
        raise ValueError(f"block marks not strictly increasing: {marks[i]} after {marks[i - 1]}")
    if marks and not (0 <= marks[0] and marks[-1] < ticks):
        raise ValueError(f"block marks {marks[0]}..{marks[-1]} outside ticks 0..{ticks - 1}")


def parse_trajectory(text: str) -> Trajectory:
    """Read `Trajectory.to_text` output.  Whitespace around and between
    tokens, blank lines and unknown `# key` lines are ignored; the first
    malformed line in file order raises ValueError, and so do block marks
    that are not strictly increasing ticks and a seed `simulate` would
    refuse.

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


def independent_steps(rng, neighbours: tuple, ticks: list) -> tuple[int, int]:
    """S1: Alice, then Bob, steps to a uniform neighbour.  The engines'
    stretch draws the same two indices for a far state, with one
    `Xoshiro256.randrange_pair`."""
    na, nb = neighbours
    ticks.append((rng.choice(na), rng.choice(nb)))
    return ticks[-1]


def uniform_row(rng, rows: tuple, ticks: list) -> tuple[int, int]:
    """S2-S5 and S3b: one of the equally likely rows, each a tuple of ticks:
    the one-tick steps (a', sigma(a')) of the perfect matching sigma, or the
    nine two-tick rows of the S3b table."""
    ticks.extend(rows[rng.randrange(len(rows))])  # `rng.choice(rows)`, one call fewer
    return ticks[-1]


def k22_excursion(rng, arg: tuple, ticks: list) -> tuple[int, int]:
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
    return ticks[-1]


def cubic_plan(g: Graph, a: int, b: int,
               near_b: frozenset[int] | None = None) -> tuple[ScenarioClass, Callable, tuple]:
    """The block law from positions (a, b) at distance >= 2, resolved once
    and ready to draw: (scenario, law, arg), where `law(rng, arg, ticks)`
    appends the block's (A, B) ticks to `ticks` and returns the last.
    `rng` is any chooser with `choice`, `randrange` and `coin`: the engine
    passes its Xoshiro256, and the exact certifiers in verify.py pass a
    chooser that enumerates every option.  `near_b` is b's `radius2_set`
    when the caller keeps it, and is passed on to `classify_scenario`."""
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


def squarefree_step(rng, sampler: tuple[int, int, array, tuple], ticks: list) -> tuple[int, int]:
    """The step law, for any chooser `rng` with `randrange`: row i uniform,
    then the cell whose cumulative count first exceeds i*l + r, r uniform
    below the row sum l.  Appends that cell's step (a', b') and returns it."""
    k, l, cum, steps = sampler
    ticks.append(steps[bisect_right(cum, rng.randrange(k) * l + rng.randrange(l))])
    return ticks[-1]


def default_b0(g: Graph, a0: int) -> int:
    """Smallest vertex at distance >= 2 from a0."""
    closed = set(g.adjacency[a0]) | {a0}
    for v in range(g.n):
        if v not in closed:
            return v
    raise ValueError("no vertex at distance >= 2 from a0 (graph is complete)")


class Engine:
    """The one stretch loop.  A two-walker engine states `key`, the state
    of its next lookup ((a, b), or a regular round's (mover, other,
    excluded)), which `start` gives first; `plan(key)`, the cache entry
    (tag, law, arg), built through module-level names looked up at call
    time, whose `law(rng, arg, ticks)` appends the ticks its draw completes
    and returns the next key; and optionally `far_table`: a state (a, b)
    whose b's table misses N(a) is far (cubic S1).  Per-vertex tables and
    state entries follow one rule on every host: made on first use, kept
    in the one cache, oldest out.  A marking engine (`marks_blocks`: every
    block ends at distance >= 2) appends a tick on every draw.  The cache
    decides only what is rebuilt, never what is drawn."""

    name: str
    marks_blocks = False
    far_table = None
    rounds = 1  # lookups per block
    blocks = 0  # blocks drawn by `run`

    def __init__(self, g: Graph, seed: int, a0: int = 0, b0: int | None = None):
        self.g = g
        self.seed = seed
        self.rng = Xoshiro256(seed)
        self.cache = BoundedCache()
        self.scenario_counts: dict[str, int] = {}
        self.key = self.start(a0, b0)
        self.state = self.key[:2]

    def start(self, a0: int, b0: int | None) -> tuple:
        """The start rule: the first key (a0, b0), b0 (default `default_b0`) at distance >= 2 from a0."""
        if b0 is None:
            return a0, default_b0(self.g, a0)
        if b0 == a0 or self.g.has_edge(a0, b0):
            raise ValueError(f"{self.name} engine requires distance(a0, b0) >= 2")
        return a0, b0

    def run(self, ticks: int) -> Trajectory:
        """Whole blocks from `state`, in one `stretch`, until at least `ticks` ticks are drawn."""
        positions = [self.state]
        marks = [0] if self.marks_blocks else []
        self.stretch(positions, marks, ticks)
        self.state = positions[-1]
        return Trajectory(self.name, self.seed, self.g.digest(), positions, marks)

    def stretch(self, ticks: list, marks: list, end: int) -> None:
        """Whole blocks from `key` until `ticks` holds more than `end`, one
        lookup a pass: a hit draws with its entry's law; a far miss is not
        cached, and Alice, then Bob, steps as `independent_steps` does, in
        one `Xoshiro256.randrange_pair` call; any other miss stores and
        draws `plan(key)`.  Hits, misses and far (S1) passes are counted in
        locals and added to the engine before each build and at the end, so
        tags enter `scenario_counts` in the order they first occur."""
        g, rng, cache, counts = self.g, self.rng, self.cache, self.scenario_counts
        find, table, put, plan = cache.find, cache.table, cache.put, self.plan
        near, adj, pair = self.far_table, g.adjacency, rng.randrange_pair
        marking = self.marks_blocks
        key = self.key
        t = len(ticks) - 1
        lookups = cache.hits + cache.misses
        hits = misses = far = 0
        while t < end:
            entry = find(key)
            if entry is None:
                misses += 1
                if near is not None:
                    a, b = key
                    na = adj[a]
                    if (find(b) or table(g, b, near)).isdisjoint(na):  # b's table, held or made now
                        far += 1
                        nb = adj[b]
                        i, j = pair(len(na), len(nb))
                        key = na[i], nb[j]
                        ticks.append(key)
                        t += 1
                        if marking:
                            marks.append(t)
                        continue
                # the counts reach the engine before the build, which may raise
                cache.hits += hits
                cache.misses += misses
                hits = misses = 0
                if far:
                    counts["S1"] = counts.get("S1", 0) + far
                    far = 0
                entry = plan(key)
                put(key, entry)
            else:
                hits += 1
            tag, law, arg = entry
            if tag is not None:
                counts[tag] = counts.get(tag, 0) + 1
            key = law(rng, arg, ticks)
            t = len(ticks) - 1
            if marking:
                marks.append(t)
        cache.hits += hits
        cache.misses += misses
        if far:
            counts["S1"] = counts.get("S1", 0) + far
        self.key = key
        self.blocks += (cache.hits + cache.misses - lookups) // self.rounds


class CubicEngine(Engine):
    """Cubic blocks from `cubic_plan`, one entry per non-S1 pair (a, b);
    an S1 pair is far, tested against b's `radius2_set`."""

    name = "cubic"
    marks_blocks = True
    far_table = staticmethod(radius2_set)

    def plan(self, key: tuple[int, int]) -> tuple:
        scenario, law, arg = cubic_plan(self.g, *key, self.cache.table(self.g, key[1], radius2_set))
        return scenario.tag, law, arg


class SquarefreeEngine(Engine):
    """One-step transport blocks; every tick is a block."""

    name = "squarefree"
    marks_blocks = True

    def plan(self, key: tuple[int, int]) -> tuple:
        return None, squarefree_step, squarefree_sampler(build_squarefree_transport(self.g, *key))


def regular_law(held: list) -> Callable:
    """A regular engine's round law: one `regular_round` draw (m', m'', o',
    e'), returning the next round's key (o', m'', e') once it passes the
    round invariant; `start` checks the first.  A block is two rounds,
    Alice moving first; the first round's draw waits in `held` until the
    second appends the block's three ticks."""

    def law(rng, tm: TransportMatrix, ticks: list) -> tuple[int, int, int]:
        m1, m2, o1, e = regular_round(tm, rng)
        if m2 == o1:
            raise AssertionError("round invariant violated: other == mover")
        if m2 != e and m2 in tm.adj[o1]:
            raise AssertionError("round invariant violated: adjacent other != excluded")
        if held:
            a1, b1, a2 = held.pop()
            ticks.extend(((a1, b1), (a2, m1), (o1, m2)))
        else:
            held.append((m1, o1, m2))
        return o1, m2, e

    return law


class RegularEngine(Engine):
    """Excluded-vertex protocol: two overlapping transport rounds per
    three-tick block, the walkers' roles alternating."""

    name = "regular"
    rounds = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.held = []
        self.law = regular_law(self.held)

    def stretch(self, ticks: list, marks: list, end: int) -> None:
        self.held.clear()  # a draw left by a stretch that raised belongs to no block
        super().stretch(ticks, marks, end)

    def start(self, a0: int, b0: int | None) -> tuple[int, int, int]:
        """(a0, b0, e1): e1 is drawn before anything else; b0 may be adjacent to a0 only when it is e1."""
        e1 = self.rng.choice(self.g.adjacency[a0])
        return (a0, b0, e1) if b0 == e1 else (*super().start(a0, b0), e1)

    @property
    def round_checks(self) -> int:
        """Rounds drawn, one lookup each, each key checked against the round invariant before it."""
        return self.cache.hits + self.cache.misses

    def plan(self, key: tuple[int, int, int]) -> tuple:
        g, b = self.g, key[1]
        return None, self.law, build_regular_transport(g, *key, self.cache.table(g, b, regular_table))


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

    def stretch(self, ticks: list, marks: list, end: int) -> None:
        """One tick per coin until `ticks` holds more than `end` ticks."""
        coin, states, order, k = self.rng.coin, self.states, self.order, self.k
        n, s, drawn = len(order), self.shift, len(ticks)
        for _ in range(drawn, end + 1):
            s = (s + (1 if coin() else -1)) % n
            state = states[s]
            if state is None:
                state = states[s] = tuple(order[(2 * i + s) % n] for i in range(k))
            ticks.append(state)
        self.shift = s
        self.blocks += len(ticks) - drawn


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
