"""In-memory span tracing of avoidkit's layers, installed from outside the package.

A span is recorded at each layer boundary: the wrappers replace the module
attributes through which avoidkit calls itself (for example
``avoidkit.couplers.solve_transport``, the name ``one_step_matching`` looks
up), so spans nest exactly as the calls do and nothing under ``src/``
changes. The layers are the package's modules. ``rng`` gets no spans, since a
span per draw would cost more than the draw; its draws are counted instead
by a subclass of the generator. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from avoidkit import couplers, experiment, generate, graphs, matching, structure, verify
from avoidkit.rng import Xoshiro256

LAYERS = ("couplers", "matching", "structure", "generate", "graphs", "verify", "experiment")

# (owner, attribute, span name). The owner is the module or class whose
# attribute the caller looks up at call time; the span's layer is the
# module that defines the function, the prefix of its name.
TARGETS = (
    (couplers, "simulate", "couplers.simulate"),
    (couplers.Trajectory, "to_text", "couplers.to_text"),
    (couplers, "parse_trajectory", "couplers.parse_trajectory"),
    (couplers, "build_regular_transport", "matching.build_transport"),
    (couplers, "build_squarefree_transport", "matching.build_transport"),
    (couplers, "solve_transport", "matching.solve_transport"),
    (matching, "solve_transport", "matching.solve_transport"),
    (couplers, "classify_scenario", "structure.classify_scenario"),
    (couplers, "require_engine_applicable", "structure.require_engine_applicable"),
    (structure, "admissibility_verdict", "structure.admissibility_verdict"),
    (structure, "contains_H3tilde", "structure.detector"),
    (structure, "contains_Hd", "structure.detector"),
    (structure, "is_square_free", "structure.detector"),
    (experiment, "contains_H3tilde", "structure.detector"),
    (experiment, "contains_Hd", "structure.detector"),
    (structure, "basic_profile", "graphs.basic_profile"),
    (generate, "petersen", "generate.host"),
    (generate, "heawood", "generate.host"),
    (generate, "circulant", "generate.host"),
    (generate, "cycle", "generate.host"),
    (generate, "random_regular_simple", "generate.host"),
    (generate, "configuration_model", "generate.configuration_model"),
    (experiment, "configuration_model", "generate.configuration_model"),
    (experiment, "random_regular_simple", "generate.host"),
    (generate, "is_connected", "graphs.is_connected"),
    (graphs.Multigraph, "simple_support", "graphs.simple_support"),
    (graphs.Multigraph, "is_simple", "graphs.is_simple"),
    (graphs.Multigraph, "loop_count", "graphs.loop_count"),
    (graphs.Multigraph, "multi_edge_count", "graphs.multi_edge_count"),
    (verify, "check_avoidance", "verify.check_avoidance"),
    (verify, "chi_square_faithfulness", "verify.chi_square_faithfulness"),
    (experiment, "prevalence_experiment", "experiment.prevalence_experiment"),
)


class Tracer:
    """Records spans as [id, parent, run, name, start, end] lists.

    ``run`` is the identifier shared by every span of one benchmark
    iteration; the caller sets it before each traced iteration.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.engines: list[Xoshiro256] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, self.run, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            span = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def installed(self):
        """Patch every target and the engines' generator; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        engines = self.engines

        class CountingXoshiro(Xoshiro256):
            """The package's generator, counting every 64-bit draw it makes."""

            __slots__ = ("draws",)

            def __init__(self, seed: int):
                super().__init__(seed)
                self.draws = 0
                engines.append(self)

            def next_u64(self) -> int:
                self.draws += 1
                return Xoshiro256.next_u64(self)

        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            couplers.Xoshiro256 = CountingXoshiro
            yield
        finally:
            couplers.Xoshiro256 = Xoshiro256
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def take_draws(self) -> int:
        """Draws made by engine generators created since the last call."""
        total = sum(r.draws for r in self.engines)
        self.engines.clear()
        return total


def summarize(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[str, int]]:
    """Self time per layer, and inclusive time, self time and calls per span name.

    A span's self time is its duration minus the durations of its direct
    children; the benchmark is single-threaded while traced, so children
    never overlap. A name's layer is the part before the first dot.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    layer_self: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _, _, name, start, end in spans:
        own = end - start - child_time[span_id]
        layer_self[name.split(".", 1)[0]] += own
        self_by_name[name] += own
        inclusive[name] += end - start
        calls[name] += 1
    return layer_self, inclusive, self_by_name, calls
