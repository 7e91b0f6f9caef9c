"""The one-seed-at-a-time configuration model and prevalence sweep that
`configuration_models` and the batched `prevalence_experiment` replaced,
kept as they were: stubs shuffled by `fisher_yates`, which steps its own
draws, one generator and one cell at a time.  They are the references the
lane-batched forms are checked against, graph for graph, state for state
and row for row."""

from __future__ import annotations

from avoidkit.experiment import PrevalenceRow, hd_probability_upper_bound, pattern_parameters, wilson_interval
from avoidkit.graphs import Multigraph
from avoidkit.rng import Xoshiro256, derive_seed
from avoidkit.structure import contains_H3tilde, contains_Hd


def reference_configuration_model(n: int, d: int, seed: int) -> tuple[Multigraph, Xoshiro256]:
    """The graph, and the generator after its shuffle."""
    rng = Xoshiro256(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in rng.fisher_yates(stubs):
        pass
    pairs = iter(stubs)  # zipped with itself: (stubs[0], stubs[1]), (stubs[2], stubs[3]), ...
    return Multigraph(n, [(u, v) if u <= v else (v, u) for u, v in zip(pairs, pairs)]), rng


def reference_prevalence_rows(d: int, n_list: list[int], samples: int, seed: int) -> list[PrevalenceRow]:
    """prevalence_experiment without simple_connected, one cell at a time."""
    n0, m = pattern_parameters(d)
    rows = []
    idx = 0
    for n in n_list:
        hits = loops = multi_edges = 0
        for _ in range(samples):
            cell_loops, cell_multi, g = reference_configuration_model(n, d, derive_seed(seed, idx))[0].census()
            idx += 1
            hit = contains_H3tilde(g) if d == 3 else contains_Hd(g, d)
            hits += hit is not None
            loops += cell_loops
            multi_edges += cell_multi
        lo, hi = wilson_interval(hits, samples)
        bound = hd_probability_upper_bound(n, d, n0, m) if m > n0 and n > 2 * m else None
        rows.append(PrevalenceRow(n, d, samples, hits, hits / samples, lo, hi, bound,
                                  loops=loops, multi_edges=multi_edges))
    return rows
