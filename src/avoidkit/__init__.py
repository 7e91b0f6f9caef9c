"""avoidkit: build, simulate, and certify avoidance couplings of two
simple random walkers on finite graphs."""

from __future__ import annotations

from .couplers import (
    CubicEngine,
    CycleEngine,
    RegularEngine,
    SquarefreeEngine,
    Trajectory,
    parse_trajectory,
    simulate,
)
from .experiment import PrevalenceRow, hd_probability_upper_bound, prevalence_experiment, wilson_interval
from .generate import (
    configuration_model,
    cycle,
    heawood,
    petersen,
    random_regular_simple,
)
from .graphs import Graph, GraphParseError, basic_profile, graph_from_edges, parse_graph
from .matching import (
    TransportInfeasible,
    TransportMatrix,
    build_regular_transport,
    build_squarefree_transport,
    solve_transport,
)
from .rng import Xoshiro256, derive_seed, mix64
from .structure import (
    HypothesisError,
    ScenarioClass,
    Verdict,
    admissibility_verdict,
    classify_scenario,
    contains_H3tilde,
    contains_Hd,
    is_square_free,
)
from .verify import (
    chi_square_faithfulness,
    check_avoidance,
    exact_cubic_marginals,
    exact_regular_index_laws,
    lemma31_equivalence,
    lemma34_oracle,
    lemma42_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CubicEngine",
    "CycleEngine",
    "Graph",
    "GraphParseError",
    "HypothesisError",
    "PrevalenceRow",
    "RegularEngine",
    "ScenarioClass",
    "SquarefreeEngine",
    "Trajectory",
    "TransportInfeasible",
    "TransportMatrix",
    "Verdict",
    "Xoshiro256",
    "admissibility_verdict",
    "basic_profile",
    "build_regular_transport",
    "build_squarefree_transport",
    "chi_square_faithfulness",
    "check_avoidance",
    "classify_scenario",
    "configuration_model",
    "contains_H3tilde",
    "contains_Hd",
    "cycle",
    "derive_seed",
    "exact_cubic_marginals",
    "exact_regular_index_laws",
    "graph_from_edges",
    "hd_probability_upper_bound",
    "heawood",
    "is_square_free",
    "lemma31_equivalence",
    "lemma34_oracle",
    "lemma42_oracle",
    "mix64",
    "parse_graph",
    "parse_trajectory",
    "petersen",
    "prevalence_experiment",
    "random_regular_simple",
    "simulate",
    "solve_transport",
    "wilson_interval",
]
