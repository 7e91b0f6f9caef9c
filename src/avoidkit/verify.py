"""Exact and statistical verification of coupling runs.

Exact checks (fractions, zero tolerance) take a graph and a state and
enumerate every draw of the engines' own laws through a replaying
chooser: the first-step marginals of the law `cubic_plan` resolves, the
K_{2,2} excursion law of `k22_excursion`, the index laws and matrix
total of `regular_round`, and the marginals and avoidance of
`squarefree_step`.  Statistical checks: Pearson chi-square of empirical
transition counts against the uniform neighbor law, with a Bonferroni
family-wise verdict; p-values come from the closed-form chi-square tail
for integer degrees of freedom (`chi2_sf`).  Hall oracles decide the two
Hall-type inequalities the constructions rest on, at any degree, by the
transport solver's max flow and min cut.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, starmap
from operator import itemgetter, or_

from .couplers import (
    Trajectory,
    check_block_marks,
    cubic_plan,
    k22_excursion,
    regular_round,
    squarefree_sampler,
    squarefree_step,
)
from .graphs import Graph
from .matching import (
    TransportInfeasible,
    avoiding_supports,
    build_regular_transport,
    build_squarefree_transport,
    check_cells,
    check_regular_triple,
    check_squarefree_pair,
    compatible,
    mover_pairs,
    other_pairs,
    solve_transport,
)
from .structure import closed_neighborhood_duplicates, codegrees


class CertificationError(ValueError):
    """An exact (zero-tolerance) identity failed."""


# ---------------------------------------------------------------------------
# avoidance checking


@dataclass
class Violation:
    tick: int
    kind: str  # collision_same_tick | collision_swap | adjacency_at_block_end | non_edge_step
    detail: tuple


def tick_violations(g: Graph, pos, t: int) -> list[Violation]:
    """The violations of tick t: walkers sharing pos[t], then, for the step
    to t + 1, each walker's non-edge step and the swap B_t = A_{t+1} of a
    two-walker run."""
    out: list[Violation] = []
    cur = pos[t]
    for i in range(len(cur)):
        for j in range(i + 1, len(cur)):
            if cur[i] == cur[j]:
                out.append(Violation(t, "collision_same_tick", (i, j, cur[i])))
    if t + 1 < len(pos):
        nxt = pos[t + 1]
        for w in range(len(cur)):
            # staying put is never a simple-random-walk step either
            if not g.has_edge(cur[w], nxt[w]):
                out.append(Violation(t, "non_edge_step", (w, cur[w], nxt[w])))
        if len(cur) == 2 and cur[1] == nxt[0]:
            out.append(Violation(t, "collision_swap", (cur[1],)))
    return out


def check_digest(g: Graph, traj: Trajectory) -> None:
    """Raise ValueError unless the trajectory names g's digest."""
    if traj.graph_digest != g.digest():
        raise ValueError("trajectory/graph digest mismatch")


def check_ids(g: Graph, ids: set[int]) -> None:
    """Raise ValueError on a vertex id outside 0..n-1, naming the least if it is negative."""
    if ids and not 0 <= min(ids) <= max(ids) < g.n:
        raise ValueError(f"vertex {min(ids) if min(ids) < 0 else max(ids)} outside 0..{g.n - 1}")


def check_avoidance(g: Graph, traj: Trajectory) -> list[Violation]:
    """All avoidance/consistency violations in a trajectory: those of each
    tick, in tick order, then those of the block marks, in mark order.

    Checks per tick: every step is an edge; no two walkers share a vertex;
    for two-walker runs, B_t != A_{t+1} and distance >= 2 at each block
    mark (only engines whose block ends are admissible write marks).  Each
    check is a function of the pair (pos[t], pos[t+1]) or of one tick's
    state, so it runs once per distinct transition, state or walker step
    of `traj.transitions()`, the counts `chi_square_faithfulness` reuses;
    `tick_violations` then reports only the ticks that carry a failing
    transition, and the last tick if its state collides, and only marks on a
    failing state are reported.
    Raises ValueError on a digest mismatch, a vertex id outside 0..n-1 or
    a block mark outside the ticks 0..len(positions)-1.
    """
    check_digest(g, traj)
    pos = traj.positions
    steps = traj.transitions()
    states = (*map(itemgetter(0), steps), *pos[-1:])  # every tick's state, some more than once
    check_ids(g, set(chain.from_iterable(states)))
    check_block_marks(traj.block_marks, len(pos))
    adj = g.adjacency
    collided = {s for s in states if len(set(s)) < len(s)}
    close = {s for s in states if len(s) == 2 and (s[0] == s[1] or s[1] in adj[s[0]])}
    non_edges = {(u, v) for u, v in set(chain.from_iterable(starmap(zip, steps))) if v not in adj[u]}
    bad = {(cur, nxt) for cur, nxt in steps
           if cur in collided or (len(cur) == 2 and cur[1] == nxt[0])
           or non_edges and not non_edges.isdisjoint(zip(cur, nxt))}
    ticks = [t for t, step in enumerate(zip(pos, islice(pos, 1, None))) if step in bad] if bad else []
    if pos and pos[-1] in collided:
        ticks.append(len(pos) - 1)
    out = [v for t in ticks for v in tick_violations(g, pos, t)]
    if close:
        out += [Violation(t, "adjacency_at_block_end", pos[t])
                for t in traj.block_marks if pos[t] in close]
    return out


# ---------------------------------------------------------------------------
# exact cubic marginals


@dataclass
class MarginalReport:
    scenario: str
    alice: dict[int, Fraction]
    bob: dict[int, Fraction]
    residual: Fraction = Fraction(0)


class _Cut(Exception):
    """A branch asked for a draw after its stop predicate held."""


class _Replay:
    """A chooser (`choice`, `randrange`, `coin`) that replays forced option
    indices and takes option 0 after them, recording each call's arity.

    `weight` is the exact probability of the options taken past the first
    `given` calls.  Before each call past the forced prefix it asks
    `stop(out)` and cuts the branch when that holds."""

    def __init__(self, prefix: tuple[int, ...], given: int, stop, out: list):
        self.prefix, self.given, self.stop, self.out = prefix, given, stop, out
        self.arity: list[int] = []
        self.weight = Fraction(1)

    def randrange(self, n: int) -> int:
        k = len(self.arity)
        if k < len(self.prefix):
            i = self.prefix[k]
        elif self.stop(self.out):
            raise _Cut
        else:
            i = 0
        self.arity.append(n)
        if k >= self.given:
            self.weight /= n
        return i

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def coin(self) -> bool:
        return self.randrange(2) == 0


def enumerate_law(law, stop=lambda out: False, given: tuple[int, ...] = ()):
    """Yield (probability, out, complete) for every branch of law(chooser,
    out), where `out` is a fresh list the law appends its draws to.

    Branches come depth-first, in lexicographic order of their option
    indices.  The first len(given) draws are forced to `given` and carry no
    weight, so probabilities are conditional on them.  A branch that asks
    for a draw while stop(out) holds is cut: complete is False and `out`
    holds what the law appended before the cut."""
    stack = [tuple(given)]
    while stack:
        prefix = stack.pop()
        out: list = []
        replay = _Replay(prefix, len(given), stop, out)
        try:
            law(replay, out)
            complete = True
        except _Cut:
            complete = False
        taken = prefix + (0,) * (len(replay.arity) - len(prefix))
        for k in range(len(prefix), len(taken)):
            stack.extend(taken[:k] + (j,) for j in range(replay.arity[k] - 1, 0, -1))
        yield replay.weight, out, complete


def exact_cubic_marginals(g: Graph, a: int, b: int) -> MarginalReport:
    """First-step law of each walker under the block law `cubic_plan`
    resolves at (a, b), by exact enumeration of its draws, each branch cut
    once its first tick is drawn.  Raises CertificationError unless both
    laws are exactly uniform."""
    scenario, law, arg = cubic_plan(g, a, b)
    branches = enumerate_law(lambda rng, ticks: law(rng, arg, ticks), bool)
    steps = [(p, *ticks[0]) for p, ticks, _ in branches]
    return MarginalReport(scenario.tag, *uniform_step_laws(g, a, b, steps))


def exact_squarefree_law(g: Graph, a: int, b: int) -> MarginalReport:
    """Exact law of `squarefree_step` from (a, b) over the sampler the
    engine draws from.  Raises CertificationError unless every branch has b'
    outside {a'} u N(a') and each walker's step is uniform on its neighbors."""
    sampler = squarefree_sampler(build_squarefree_transport(g, a, b))
    branches = enumerate_law(lambda rng, out: out.append(squarefree_step(sampler, rng)))
    steps = [(p, *out[0]) for p, out, _ in branches]
    bad = next(((ap, bp) for _, ap, bp in steps if bp == ap or g.has_edge(ap, bp)), None)
    if bad is not None:
        raise CertificationError(f"step ({a}, {b}) -> {bad} does not avoid")
    return MarginalReport("squarefree", *uniform_step_laws(g, a, b, steps))


def uniform_step_laws(g: Graph, a: int, b: int, steps) -> tuple[dict, dict]:
    """Each walker's step law over (p, a', b') branches; raises unless uniform on N(a) and N(b)."""
    laws = (defaultdict(Fraction), defaultdict(Fraction))
    for p, ap, bp in steps:
        laws[0][ap] += p
        laws[1][bp] += p
    for v, law in zip((a, b), laws):
        if law != {u: Fraction(1, g.degree(v)) for u in g.adjacency[v]}:
            raise CertificationError(f"step law at vertex {v} is {dict(law)}, expected uniform on N({v})")
    return dict(laws[0]), dict(laws[1])


def enumerate_k22_blocks(g: Graph, a: int, b: int, max_len: int = 16):
    """Exhaustive law of the K_{2,2} excursion strategy (strategy 3 only)
    of `k22_excursion` around the witness (a1, a2, b1, b2) that
    `cubic_plan` resolves at (a, b): returns (outcomes, truncated,
    residual) where outcomes are (prob, alice_steps, bob_steps) for
    excursions with T <= max_len and truncated holds (prob, alice_prefix),
    Alice's first max_len steps, for the mass beyond max_len.  Every such
    excursion has at least two ticks, so max_len must be at least 2.
    Raises ValueError unless (a, b) is an S6 pair."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    scenario, law, arg = cubic_plan(g, a, b)
    if law is not k22_excursion:
        raise ValueError(f"({a}, {b}) is scenario {scenario.tag}, not the K_{{2,2}} excursion of S6")
    a1, a2, b1, b2 = arg[3]
    partner = {a1: a2, a2: a1, b1: b2, b2: b1}
    outcomes: list[tuple[Fraction, list[int], list[int]]] = []
    truncated: list[tuple[Fraction, list[int]]] = []
    # Alice has s steps and ticks 1..s - 1 are appended before the draw of
    # her step s + 1, so that is where a branch with s = max_len is cut
    branches = enumerate_law(lambda rng, ticks: k22_excursion(rng, arg, ticks),
                             lambda ticks: len(ticks) + 1 >= max_len, given=(2,))
    for p, ticks, complete in branches:
        alice = [ap for ap, _ in ticks]
        if complete:
            outcomes.append((p, alice, [bp for _, bp in ticks]))
        else:  # Bob's last step is the partner of Alice's step s
            truncated.append((p, [*alice, partner[ticks[-1][1]]]))
    residual = sum((p for p, _ in truncated), Fraction(0))
    return outcomes, truncated, residual


# ---------------------------------------------------------------------------
# exact regular index laws


@dataclass
class IndexLaws:
    p_i: dict[int, Fraction]  # first-step vertex -> P(I)
    p_k_given_i: dict[tuple[int, int], Fraction]
    p_j: dict[int, Fraction]
    p_l_given_j: dict[tuple[int, int], Fraction]


def exact_regular_index_laws(g: Graph, a: int, b: int, e: int) -> IndexLaws:
    """The four sampled-index laws of the regular transport at (a, b, e),
    found by exact enumeration of `regular_round` over it; certifies
    P(I)=1/(d-1), P(K|I)=P(J)=P(L|J)=1/d with d = deg(a)."""
    tm = build_regular_transport(g, a, b, e)
    d = g.degree(a)
    total = d * d * (d - 1)
    if tm.cum[-1] != total:
        raise CertificationError(f"matrix total {tm.cum[-1]}, expected {total}")
    p_i, p_ik, p_j, p_jl = (defaultdict(Fraction) for _ in range(4))
    for p, ((i, k, j, l),), _ in enumerate_law(lambda rng, out: out.append(regular_round(tm, rng))):
        p_i[i] += p
        p_ik[(i, k)] += p
        p_j[j] += p
        p_jl[(j, l)] += p
    laws = IndexLaws(dict(p_i), {ik: p / p_i[ik[0]] for ik, p in p_ik.items()},
                     dict(p_j), {jl: p / p_j[jl[0]] for jl, p in p_jl.items()})
    for name, law, want in (("I", laws.p_i, d - 1), ("K|I", laws.p_k_given_i, d),
                            ("J", laws.p_j, d), ("L|J", laws.p_l_given_j, d)):
        for key, p in law.items():
            if p != Fraction(1, want):
                raise CertificationError(f"P({name}) at {key} = {p}, expected 1/{want}")
    return laws


# ---------------------------------------------------------------------------
# chi-square faithfulness


@dataclass
class CellResult:
    walker: int
    vertex: int
    departures: int
    statistic: float | None
    p_value: float | None
    tested: bool


@dataclass
class FaithfulnessReport:
    alpha: float
    cells: list[CellResult] = field(default_factory=list)
    tested_count: int = 0
    passed: bool = True

    @property
    def untested_count(self) -> int:
        return len(self.cells) - self.tested_count


def chi2_sf(x: float, k: int) -> float:
    """Upper tail P(X >= x) of a chi-square law with k >= 1 degrees of freedom.

    For integer k the tail is a finite sum, with h = x/2:
    even k: sum_{i < k/2} h^i e^-h / i!;
    odd k: erfc(sqrt h) + sum_{1 <= i <= (k-1)/2} h^(i-1/2) e^-h / Gamma(i+1/2).
    Each term is formed in log space (no overflow for large h or k) and the
    terms are added with fsum.
    """
    if k < 1:
        raise ValueError("chi-square needs k >= 1 degrees of freedom")
    h = x / 2
    if h <= 0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    if k % 2 == 0:
        terms = [math.exp(i * log_h - h - math.lgamma(i + 1)) for i in range(k // 2)]
    else:
        terms = [math.erfc(math.sqrt(h))]
        terms += [math.exp((i - 0.5) * log_h - h - math.lgamma(i + 0.5))
                  for i in range(1, (k + 1) // 2)]
    return math.fsum(terms)


def chi_square_faithfulness(
    g: Graph, traj: Trajectory, alpha: float = 0.001, min_departures: int = 30
) -> FaithfulnessReport:
    """Pearson chi-square of each walker's transition counts against the
    uniform neighbor law, Bonferroni-corrected across all tested cells.
    A cell at vertex v has deg(v) - 1 degrees of freedom; its p-value is
    `chi2_sf(statistic, deg(v) - 1)`.  The run fails when any p-value is
    below alpha / (number of tested cells); alpha must lie in (0, 1).
    Cells with fewer than min_departures departures are marked untested.
    Raises ValueError, as `check_avoidance` does, on a digest mismatch or
    a departure or arrival vertex outside 0..n-1."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    check_digest(g, traj)
    pos = traj.positions
    walkers = len(pos[0]) if pos else 0
    steps = traj.transitions()
    counts: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
    for w in range(walkers):
        walker_steps: dict[tuple[int, int], int] = defaultdict(int)
        for (cur, nxt), c in steps.items():
            walker_steps[cur[w], nxt[w]] += c
        for (v, u), c in walker_steps.items():
            counts[w, v][u] = c
    check_ids(g, {v for _, v in counts}.union(*counts.values()))

    report = FaithfulnessReport(alpha=alpha)
    least_p = math.inf
    for (w, v), trans in sorted(counts.items()):
        nbrs = g.adjacency[v]
        n_dep = sum(trans.values())
        if n_dep < min_departures or len(nbrs) < 2:
            report.cells.append(CellResult(w, v, n_dep, None, None, False))
            continue
        expected = n_dep / len(nbrs)
        stat = sum((trans.get(u, 0) - expected) ** 2 / expected for u in nbrs)
        p = chi2_sf(stat, len(nbrs) - 1)
        report.cells.append(CellResult(w, v, n_dep, stat, p, True))
        report.tested_count += 1
        least_p = min(least_p, p)
    # some p-value is below alpha / tested exactly when the least one is
    report.passed = least_p >= alpha / max(report.tested_count, 1)
    return report


# ---------------------------------------------------------------------------
# Hall lemma oracles


@dataclass
class OracleResult:
    holds: bool
    worst_subset: tuple
    worst_margin: Fraction  # min over subsets of |cmp(S)| - ratio * |S|, or 0 when it holds


def _hall_oracle(supply: int, demand: int, masks: list[int], nc: int, labels) -> OracleResult:
    """Decide |cmp(S)| >= (supply/demand)*|S| for every subset S of the
    rows, cmp(S) the union of their column bitmasks, by `solve_transport`.
    A solution, checked here, proves it: S's cells lie in cmp(S).  A cut
    with row side S costs supply*(rows - |S|) + demand*|cmp(S)|, so on
    TransportInfeasible the rows the max flow's residual graph reaches,
    the least min cut, are the inclusion-smallest subset of least margin;
    that margin is recomputed from the masks and must be negative."""
    try:
        cells, counts = solve_transport(supply, demand, masks, nc)
    except TransportInfeasible as err:
        rows = err.hall_rows
        margin = reduce(or_, (masks[i] for i in rows), 0).bit_count() - Fraction(supply, demand) * len(rows)
        if margin >= 0:
            raise CertificationError(f"min-cut rows {rows} have margin {margin} >= 0") from err
        return OracleResult(False, tuple(labels[i] for i in rows), margin)
    if any(not masks[f // nc] >> f % nc & 1 for f in cells):
        raise CertificationError("a transport cell lies off its row's mask")
    check_cells(cells, counts, len(masks), nc, supply, demand)
    return OracleResult(True, (), Fraction(0))


def lemma34_oracle(g: Graph, a: int, b: int, e: int) -> OracleResult:
    """Verify d/(d-1)*|A0| <= |cmp(A0)| for every subset A0 of the
    mover-pair set at (a, b, e), with masks from `compatible`."""
    check_regular_triple(g, a, b, e)
    d = g.degree(a)
    rows = mover_pairs(g, a, e)
    cols = other_pairs(g, b)
    masks = [sum(1 << j for j, op in enumerate(cols) if compatible(g, mp, op)) for mp in rows]
    return _hall_oracle(d, d - 1, masks, len(cols), rows)


def lemma42_oracle(g: Graph, a: int, b: int) -> OracleResult:
    """Verify |cmp(N0)| >= (l/k)*|N0| for every subset N0 of N(a), where
    k = deg(a) and l = deg(b), for the pairs the square-free transport
    serves."""
    check_squarefree_pair(g, a, b)
    na, nb = g.adjacency[a], g.adjacency[b]
    return _hall_oracle(len(nb), len(na), avoiding_supports(g, na, nb), len(nb), na)


def lemma31_equivalence(g: Graph) -> tuple[bool, tuple[bool, bool, bool]]:
    """Evaluate the three H_d-freeness predicates independently and report
    whether they agree (they must, on d-regular graphs); raises ValueError
    unless g is d-regular with d >= 2.  Predicate 1 reads `codegrees`, not
    `contains_Hd`, whose regular case is predicate 2's grouping.  Predicate 3
    only visits b within distance 2 of a: beyond it N(a) \\ N(b) \\ {b} =
    N(a), never empty."""
    d = g.degree(0) if g.n else 0
    if any(len(nbrs) != d for nbrs in g.adjacency):
        raise ValueError("lemma31 requires a regular graph of degree d")
    if d < 2:
        raise ValueError("lemma31 requires a d-regular graph with d >= 2")
    p1 = not any(c >= d - 1 and g.has_edge(*p) for p, c in codegrees(g).items())
    p2 = not closed_neighborhood_duplicates(g)
    # the filter skips every b with N(b) = N(a), b = a among them
    p3 = all(na - set(g.adjacency[b]) - {b} for na in map(set, g.adjacency)
             for b in na.union(*(g.adjacency[v] for v in na)) if set(g.adjacency[b]) != na)
    return (p1 == p2 == p3), (p1, p2, p3)
