"""Forbidden-subgraph prevalence experiment on configuration-model graphs.

For each n, sample d-regular configuration-model multigraphs and record how
often the relevant forbidden pattern (H~_3 for d=3, H_d for d>=4) appears
in the simple support, together with a binomial confidence interval and
the analytic containment bound for reference.

Each cell (one sampled graph) draws from its own seed, derived from the
experiment seed and the cell's index, so a cell's result does not depend on
which process computes it.  The cells go out as tasks of up to LANES
seeds of one n, whose configuration-model generators step together (one
cell per task with simple_connected, whose rejection sampler draws on).
With AVOIDKIT_THREADS > 1 the tasks fan out over a process pool of that
many workers, but no more than there are tasks or CPUs, in about 16
chunks per worker, so that the larger n values spread over every worker
instead of landing on one; the results come back in cell order, and the
rows are byte-identical for every worker count and chunking.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# configuration_model is not called here: perfbench/tracing.py patches this name
from .generate import configuration_model, configuration_models, random_regular_simple  # noqa: F401
from .rng import LANES, derive_seed
from .structure import contains_H3tilde, contains_Hd

_Z95 = 1.959963984540054
# The most graphs one experiment samples, over all its n values; checked
# before any cell is made.  The README's sweep samples 2,000.
MAX_SAMPLES = 100_000


def wilson_interval(hits: int, samples: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; always contains the point frequency."""
    if samples == 0:
        return (0.0, 1.0)
    p = hits / samples
    denom = 1 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = z * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples**2)) / denom
    # clamp against rounding: the interval always contains the point estimate
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


@dataclass
class PrevalenceRow:
    n: int
    d: int
    samples: int
    hits: int
    freq: float
    ci_lo: float
    ci_hi: float
    bound: float | None  # None when the analytic bound's preconditions fail
    loops: int = 0
    multi_edges: int = 0

    def __post_init__(self):
        if not 0 <= self.hits <= self.samples:
            raise ValueError("hits must lie in [0, samples]")


CSV_HEADER = "n,d,samples,hits,freq,ci_lo,ci_hi,bound"


def row_to_csv(row: PrevalenceRow) -> str:
    bound = f"{row.bound:.6e}" if row.bound is not None else ""
    return f"{row.n},{row.d},{row.samples},{row.hits},{row.freq:.6f},{row.ci_lo:.6f},{row.ci_hi:.6f},{bound}"


def rows_from_csv(text: str) -> list[PrevalenceRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad prevalence CSV header")
    rows = []
    for ln in lines[1:]:
        n, d, samples, hits, freq, lo, hi, bound = ln.split(",")
        rows.append(
            PrevalenceRow(
                int(n), int(d), int(samples), int(hits),
                float(freq), float(lo), float(hi),
                float(bound) if bound else None,
            )
        )
    return rows


def pattern_parameters(d: int) -> tuple[int, int]:
    """(n0, m) of the forbidden pattern: H~_3 has 5 vertices / 7 edges;
    H_d has d+1 vertices / 2d-1 edges."""
    if d == 3:
        return 5, 7
    return d + 1, 2 * d - 1


def hd_probability_upper_bound(n: int, d: int, n0: int, m_edges: int) -> float:
    """Upper bound n^n0 * (d/(n-2m))^m on the probability that a fixed
    pattern with n0 vertices and m edges appears in the d-regular
    configuration model; computed in logs to avoid overflow."""
    if m_edges <= n0:
        raise ValueError("bound requires m_edges > n0")
    if n <= 2 * m_edges:
        raise ValueError("bound requires n > 2*m_edges")
    log_val = n0 * math.log(n) + m_edges * (math.log(d) - math.log(n - 2 * m_edges))
    return math.exp(log_val)


def _sample_cells(args) -> list[tuple[bool, int, int]]:
    """One task, cells of one n: (hit, loops, multi_edges) per seed, in order."""
    n, d, seeds, simple_connected = args
    if simple_connected:
        censuses = [(0, 0, random_regular_simple(n, d, seed, connected_required=True)[0]) for seed in seeds]
    else:
        censuses = [mg.census() for mg in configuration_models(n, d, seeds)]
    if d == 3:
        return [(contains_H3tilde(g) is not None, loops, multi) for loops, multi, g in censuses]
    return [(contains_Hd(g, d) is not None, loops, multi) for loops, multi, g in censuses]


def worker_count() -> int:
    raw = os.environ.get("AVOIDKIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def prevalence_experiment(
    d: int,
    n_list: list[int],
    samples: int,
    seed: int,
    simple_connected: bool = False,
) -> list[PrevalenceRow]:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples * len(n_list) > MAX_SAMPLES:
        raise ValueError(f"{samples} samples at each of {len(n_list)} n values exceed the limit of "
                         f"{MAX_SAMPLES} graphs")
    if d < 2:
        raise ValueError(f"d must be >= 2, got d={d}")
    for n in n_list:
        if n < 1:
            raise ValueError(f"n must be >= 1, got n={n}")
        if (n * d) % 2 != 0:
            raise ValueError(f"n*d must be even (n={n}, d={d})")
    # a task is one cell of the rejection sampler, or up to LANES cells of
    # one n whose configuration-model generators step together
    per_task = 1 if simple_connected else LANES
    tasks = []
    for i, n in enumerate(n_list):
        seeds = [derive_seed(seed, i * samples + k) for k in range(samples)]
        tasks.extend((n, d, seeds[k:k + per_task], simple_connected) for k in range(0, samples, per_task))
    # under the fork start method a pool starts all its workers at once
    workers = min(worker_count(), len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for the import

        chunksize = max(1, math.ceil(len(tasks) / (16 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sample_cells, tasks, chunksize=chunksize))
    else:
        done = [_sample_cells(t) for t in tasks]
    results = [r for task in done for r in task]  # in cell order

    n0, m = pattern_parameters(d)
    rows = []
    for i, n in enumerate(n_list):
        chunk = results[i * samples : (i + 1) * samples]
        hits = sum(1 for h, _, _ in chunk if h)
        lo, hi = wilson_interval(hits, samples)
        bound = None
        if m > n0 and n > 2 * m:
            bound = hd_probability_upper_bound(n, d, n0, m)
        rows.append(
            PrevalenceRow(
                n, d, samples, hits, hits / samples, lo, hi, bound,
                loops=sum(l for _, l, _ in chunk),
                multi_edges=sum(me for _, _, me in chunk),
            )
        )
    return rows
