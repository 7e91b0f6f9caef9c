"""Benchmark child process: run one avoidkit workload for a fixed time.

``run.py`` starts this script once per run, with ``src/`` on the path, and
reads the JSON object it prints on its last line; the metrics in it are
plain numbers, to which ``run.py`` adds the units. Every iteration goes
through avoidkit's public calls only, as a user's pipeline does:

- setup: build the hosts (``generate``), then ``structure.admissibility_verdict``;
- simulate: ``couplers.simulate``;
- io: ``Trajectory.to_text``, a file write and read, then ``parse_trajectory``;
- verify: ``verify.check_avoidance``, then ``verify.chi_square_faithfulness``.

The prevalence workload calls ``experiment.prevalence_experiment`` instead
and checks the CSV it would write. Every output is checked; a failed check
or an exception counts as a failed operation. Before timing starts, one
untimed iteration at GOLDEN_SEED compares output digests with
``golden.json``, so fixed-seed outputs must stay byte-identical.

Every timed iteration of a run repeats the same work. Untraced, each step
is timed raw and scaled to the speed of a reference loop timed around it
(reference.py); the end-to-end times are sums of each step's median scaled
time over the run, and ``raw_wall_s`` is the same sum of raw times.

Record new digests, after a change meant to alter outputs, with:
    PYTHONPATH=src python3 perfbench/pipeline.py --record-golden
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

import avoidkit  # noqa: E402  (must resolve to ROOT/src, checked in main)
from avoidkit import couplers, experiment, generate, structure, verify  # noqa: E402
from avoidkit.rng import derive_seed  # noqa: E402

import tracing  # noqa: E402
from reference import Meter  # noqa: E402

GOLDEN_SEED = 0
# The random hosts are fixed instances, so set-up does the same work in
# every run; the run's seed drives the walkers and the prevalence samples.
HOST_SEED = 0
# Family-wise alpha of each chi-square verdict. A full set of benchmark
# runs makes thousands of verdicts on correct samplers; at 1e-6 the chance
# of any false FAIL among them stays below one percent.
ALPHA = 1e-6
MIN_ITERATIONS = 3


@dataclass(frozen=True)
class Host:
    label: str
    engine: str
    ticks: int
    build: Callable[[], tuple]  # -> (graph, rejections)
    walkers: int = 2


def _fixed(make: Callable) -> Callable[[], tuple]:
    return lambda: (make(), 0)


def canonical_hosts(ticks: int) -> list[Host]:
    """The ROADMAP's baseline hosts, each on its engine."""
    return [
        Host("petersen/cubic", "cubic", ticks, _fixed(lambda: generate.petersen())),
        Host("heawood/squarefree", "squarefree", ticks, _fixed(lambda: generate.heawood())),
        Host("C9(1,2)/regular", "regular", ticks, _fixed(lambda: generate.circulant(9, [1, 2]))),
        Host("C10,k=5/cycle", "cycle", ticks, _fixed(lambda: generate.cycle(10)), walkers=5),
    ]


def random_host(n: int, d: int, engine: str, ticks: int) -> Host:
    return Host(f"rr{d}-n{n}/{engine}", engine, ticks,
                lambda: generate.random_regular_simple(n, d, HOST_SEED, connected_required=True))


# Workload sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test. Each walker makes about 45 departures per vertex on the random
# hosts, so the chi-square test covers most of their vertices (it skips a
# vertex left fewer than 30 times). The prevalence sweeps take the README's
# n values at d=3 and larger n at d=4, with fewer samples than the README's
# 500 so that a sweep lasts about a second and repeats many times in a run;
# each still spans several pool chunks (8 and 4 of 64 cells).
SCALES = {
    "full": {
        "canonical": canonical_hosts(20_000),
        "large-random": [random_host(64, 5, "regular", 2_900), random_host(250, 3, "cubic", 11_000)],
        "prevalence": [(3, [16, 32, 64, 128], 128), (4, [64, 128, 256, 512], 64)],
    },
    "tiny": {
        "canonical": canonical_hosts(600),
        "large-random": [random_host(24, 5, "regular", 1_100), random_host(40, 3, "cubic", 1_800)],
        "prevalence": [(3, [16, 32], 4), (4, [32], 4)],
    },
}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verify_trajectory(g, traj) -> tuple[list[str], int]:
    """Avoidance at every tick plus chi-square faithfulness.

    A trajectory too short for the chi-square test to cover at least half
    of its (walker, vertex) cells is a failure too, so the test cannot pass
    by testing nothing. Returns the problems found and the number of cells
    tested.
    """
    problems = []
    violations = verify.check_avoidance(g, traj)
    if violations:
        v = violations[0]
        problems.append(f"{len(violations)} violation(s), first {v.kind} at tick {v.tick}")
    report = verify.chi_square_faithfulness(g, traj, alpha=ALPHA)
    if not report.passed:
        problems.append(f"chi-square FAIL over {report.tested_count} cells")
    elif 2 * report.tested_count < len(report.cells):
        problems.append(f"chi-square tested only {report.tested_count} of {len(report.cells)} cells")
    return problems, report.tested_count


def check_digest(digests: dict[str, str], label: str, text: str) -> list[str]:
    """Compare an output with its recorded digest, or record it if there is none."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digests.setdefault(label, digest) != digest:
        return ["output digest differs from golden.json"]
    return []


def admits(verdict, engine: str) -> bool:
    return verdict.engine == engine or (engine == "squarefree" and verdict.also_squarefree)


class Context:
    """What one iteration needs besides its seed.

    ``calibrated`` iterations time the reference loop around every step
    (see reference.py); traced runs leave it out, so that their spans and
    wall times hold only the pipeline's own work.
    """

    def __init__(self, tally: Tally, tracer, traj_path: Path, calibrated: bool = False):
        self.tally = tally
        self.tracer = tracer
        self.traj_path = traj_path
        self.calibrated = calibrated

    def harness(self, name: str):
        """A span around the benchmark's own work when traced."""
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def engine_iteration(hosts: list[Host], seed: int, ctx: Context, digests: dict) -> dict:
    """Set up, simulate, round-trip and verify every host.

    Returns the iteration's sample: the raw and the scaled time of each
    step, keyed "<host>:<stage>", and the counters the engines expose.
    """
    clock = time.perf_counter
    meter = Meter(ctx.calibrated)
    c = dict.fromkeys(("ticks", "rejections", "blocks", "round_checks", "cache_hits",
                       "cache_misses", "trajectory_bytes", "tested_cells"), 0)
    scenarios: dict[str, int] = {}
    t0 = clock()
    built = []
    for j, h in enumerate(hosts):
        meter.start()
        try:
            g, rejections = h.build()
            verdict = structure.admissibility_verdict(g)
        except Exception:
            ctx.tally.record(h.label, [traceback.format_exc(limit=3)])
            continue
        meter.lap(f"{h.label}:setup")
        c["rejections"] += rejections
        if admits(verdict, h.engine):
            built.append((j, h, g))
        else:
            ctx.tally.record(h.label, [f"verdict {verdict.engine}, expected {h.engine}"])

    for j, h, g in built:
        walk_seed = derive_seed(seed, j)
        try:
            meter.start()
            traj, eng = couplers.simulate(g, h.engine, h.ticks, walk_seed,
                                          a0=walk_seed % g.n, walkers=h.walkers)
            meter.lap(f"{h.label}:simulate")
            text = traj.to_text()
            with ctx.harness("bench.file_io"):
                ctx.traj_path.write_text(text)
                back = ctx.traj_path.read_text()
            parsed = couplers.parse_trajectory(back)
            meter.lap(f"{h.label}:io")
            problems, tested = verify_trajectory(g, parsed)
            meter.lap(f"{h.label}:verify")
        except Exception:
            ctx.tally.record(h.label, [traceback.format_exc(limit=3)])
            continue
        if parsed.positions != traj.positions or parsed.block_marks != traj.block_marks:
            problems.append("trajectory changed in the text round trip")
        problems += check_digest(digests, h.label, text)
        ctx.tally.record(h.label, problems)
        c["ticks"] += len(traj.positions) - 1
        c["trajectory_bytes"] += len(text)
        c["tested_cells"] += tested
        if traj.block_marks:
            c["blocks"] += len(traj.block_marks) - 1
        c["round_checks"] += getattr(eng, "round_checks", 0)
        cache = getattr(eng, "cache", None)
        if cache is not None:
            c["cache_hits"] += cache.hits
            c["cache_misses"] += cache.misses
        for tag, count in getattr(eng, "scenario_counts", {}).items():
            scenarios[tag] = scenarios.get(tag, 0) + count
    return {"wall_s": clock() - t0, "steps": meter.raw, "scaled": meter.scaled, **c, "scenarios": scenarios}


def csv_text(rows) -> str:
    return "\n".join([experiment.CSV_HEADER] + [experiment.row_to_csv(r) for r in rows]) + "\n"


def prevalence_iteration(specs: list, seed: int, ctx: Context, digests: dict, workers: int) -> dict:
    """Run each prevalence sweep with the given worker count and check its CSV.

    Steps are keyed "d=<d>:experiment" and "d=<d>:csv" (writing the CSV text).
    """
    clock = time.perf_counter
    os.environ["AVOIDKIT_THREADS"] = str(workers)
    meter = Meter(ctx.calibrated)
    s = {"experiment_s": 0.0, "worker_cpu_s": 0.0, "graphs": 0, "loops": 0, "multi_edges": 0}
    t0 = clock()
    for k, (d, n_list, samples) in enumerate(specs):
        label = f"d={d}"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            meter.start()
            rows = experiment.prevalence_experiment(d, n_list, samples, derive_seed(seed, k))
            experiment_s = meter.lap(f"{label}:experiment")
            text = csv_text(rows)
            meter.lap(f"{label}:csv")
            with ctx.harness("bench.csv_check"):
                problems = check_rows(rows, d, n_list, samples)
                if csv_text(experiment.rows_from_csv(text)) != text:
                    problems.append("CSV changed in a parse round trip")
        except Exception:
            ctx.tally.record(f"prevalence {label}", [traceback.format_exc(limit=3)])
            continue
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        s["experiment_s"] += experiment_s
        s["worker_cpu_s"] += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        problems += check_digest(digests, label, text)
        ctx.tally.record(f"prevalence {label}", problems)
        s["graphs"] += samples * len(n_list)
        s["loops"] += sum(r.loops for r in rows)
        s["multi_edges"] += sum(r.multi_edges for r in rows)
    return {"wall_s": clock() - t0, "steps": meter.raw, "scaled": meter.scaled, "workers": workers, **s}


def check_rows(rows, d: int, n_list: list[int], samples: int) -> list[str]:
    problems = []
    if [(r.n, r.d, r.samples) for r in rows] != [(n, d, samples) for n in n_list]:
        problems.append("rows do not match the requested sweep")
    for r in rows:
        if not (0 <= r.hits <= samples and r.freq == r.hits / samples and r.ci_lo <= r.freq <= r.ci_hi):
            problems.append(f"inconsistent row n={r.n}")
    return problems


def provenance(seed: int, workers: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        "numpy": metadata.version("numpy"),
        "nproc": nproc(),
        "workers": workers,
        "seed": seed,
        "machine": platform.machine(),
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "avoidkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


SCENARIOS = ("S1", "S2", "S3a", "S3b", "S4", "S5", "S6")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stage_time(x: dict, stage: str) -> float:
    return sum(t for step, t in x["steps"].items() if step.endswith(":" + stage))


def step_medians(samples: list[dict], key: str) -> dict[str, dict]:
    """Each step's median time over the iterations, as one iteration's sample.

    Every iteration of a run does the same work, so a step's times differ
    only by what else the machine was doing; ``key`` is "steps" (raw) or
    "scaled" (at the reference speed).
    """
    by_step: dict[str, list[float]] = {}
    for x in samples:
        for step, t in x[key].items():
            by_step.setdefault(step, []).append(t)
    return {"steps": {step: median(ts) for step, ts in by_step.items()}}


def end_to_end(samples: list[dict]) -> dict[str, float]:
    """Time to a verified result, set-up time and rates, from each step's median scaled time."""
    typical = step_medians(samples, "scaled")
    m = {"wall_s": sum(typical["steps"].values()),
         "raw_wall_s": sum(step_medians(samples, "steps")["steps"].values())}
    if "ticks" in samples[0]:
        m["inputs_s"] = stage_time(typical, "setup")
        ticks = samples[0]["ticks"]
        for key, stage in (("sim", "simulate"), ("io", "io"), ("verify", "verify")):
            m[f"{key}_ticks_per_s"] = ratio(ticks, stage_time(typical, stage))
    else:
        m["inputs_s"] = 0.0
        m["graphs_per_s"] = ratio(samples[0]["graphs"], stage_time(typical, "experiment"))
    return m


def layer_sample(spans: list[list], x: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans and counters."""
    layer_self, incl, own, calls = tracing.summarize(spans)
    root = next(end - start for _, parent, _, _, start, end in spans if parent is None)
    m = {f"{layer}.self_s": layer_self[layer] for layer in tracing.LAYERS}
    ticks = x.get("ticks", 0)
    m.update({
        "rng.draws": x["draws"],
        "rng.draws_per_tick": ratio(x["draws"], ticks),
        "couplers.simulate_self_s": own["couplers.simulate"],
        "couplers.to_text_s": incl["couplers.to_text"],
        "couplers.parse_s": incl["couplers.parse_trajectory"],
        "couplers.blocks": x.get("blocks", 0),
        "couplers.round_checks": x.get("round_checks", 0),
        "couplers.trajectory_bytes": x.get("trajectory_bytes", 0),
        "matching.transport_builds": calls["matching.build_transport"],
        "matching.transport_build_s": incl["matching.build_transport"],
        "matching.solve_transport_calls": calls["matching.solve_transport"],
        "matching.solve_transport_s": incl["matching.solve_transport"],
        "matching.cache_hits": x.get("cache_hits", 0),
        "matching.cache_misses": x.get("cache_misses", 0),
        "matching.cache_hit_rate": ratio(x.get("cache_hits", 0), x.get("cache_hits", 0) + x.get("cache_misses", 0)),
        "structure.verdict_s": incl["structure.admissibility_verdict"],
        "structure.require_s": incl["structure.require_engine_applicable"],
        "structure.classify_calls": calls["structure.classify_scenario"],
        "structure.classify_s": incl["structure.classify_scenario"],
        "structure.detector_calls": calls["structure.detector"],
        "structure.detector_s": incl["structure.detector"],
        "generate.host_s": incl["generate.host"],
        "generate.rejections": x.get("rejections", 0),
        "generate.configuration_model_calls": calls["generate.configuration_model"],
        "generate.configuration_model_s": incl["generate.configuration_model"],
        "graphs.simple_support_s": incl["graphs.simple_support"],
        "verify.check_avoidance_s": incl["verify.check_avoidance"],
        "verify.chi_square_s": incl["verify.chi_square_faithfulness"],
        "verify.tested_cells": x.get("tested_cells", 0),
        "experiment.loops": x.get("loops", 0),
        "experiment.multi_edges": x.get("multi_edges", 0),
        "trace.coverage": ratio(sum(layer_self[layer] for layer in tracing.LAYERS), root),
    })
    scenarios = x.get("scenarios", {})
    m.update({f"structure.scenario.{tag}": scenarios.get(tag, 0) for tag in SCENARIOS})
    return m


def per_layer(samples: dict[str, list[dict]]) -> dict[str, float]:
    """Medians over the traced iterations; the pool's figures come from untraced ones."""
    traced = samples["traced"]
    m = {key: median(x["layers"][key] for x in traced) for key in traced[0]["layers"]}
    untraced = samples["serial"] if "serial" in samples else samples["plain"]
    m["trace.overhead"] = ratio(median(x["wall_s"] for x in traced), median(x["wall_s"] for x in untraced))
    plain = samples["plain"]
    m["experiment.worker_cpu_s"] = median(x.get("worker_cpu_s", 0.0) for x in plain)
    m["experiment.parallel_efficiency"] = median(
        ratio(x.get("worker_cpu_s", 0.0), x.get("workers", 1) * x.get("experiment_s", 0.0)) for x in plain)
    return m


def one_pass(workload: str, spec: list, seed: int, ctx: Context, digests: dict, workers: int) -> dict:
    if workload == "prevalence":
        return prevalence_iteration(spec, seed, ctx, digests, workers)
    return engine_iteration(spec, seed, ctx, digests)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload: a golden pass, then iterations until ``seconds`` have passed."""
    spec = SCALES[scale][workload]
    goldens = json.loads(GOLDEN.read_text()).get(scale, {}).get(workload, {})
    prevalence = workload == "prevalence"
    workers = nproc() if prevalence else 1
    kinds = ["plain"]
    if trace:
        kinds = ["plain", "serial", "traced"] if prevalence else ["plain", "traced"]
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    traj_path = OUT / f"trajectory-{os.getpid()}.txt"

    def iterate(kind: str, run_id: int, iter_seed: int, digests: dict) -> dict:
        ctx = Context(tally, tracer if kind == "traced" else None, traj_path, calibrated=not trace)
        n_workers = workers if kind == "plain" else 1
        if kind != "traced":
            return one_pass(workload, spec, iter_seed, ctx, digests, n_workers)
        first = len(tracer.spans)
        tracer.run = run_id
        with tracer.installed(), tracer.span("bench.iteration"):
            x = one_pass(workload, spec, iter_seed, ctx, digests, n_workers)
        x["draws"] = tracer.take_draws()
        x["layers"] = layer_sample(tracer.spans[first:], x)
        return x

    try:
        digests = dict(goldens)
        iterate("plain", -1, GOLDEN_SEED, digests)
        if not goldens:
            tally.record("golden", [f"no digests for {workload} at scale {scale} in golden.json"])
        samples: dict[str, list[dict]] = {kind: [] for kind in kinds}
        minimum = max(MIN_ITERATIONS, 2 * len(kinds)) if trace else MIN_ITERATIONS
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < minimum:
            kind = kinds[i % len(kinds)]
            gc.collect()
            samples[kind].append(iterate(kind, i, seed, {}))
            i += 1
    finally:
        traj_path.unlink(missing_ok=True)

    result = {
        "workload": workload,
        "scale": scale,
        "iterations": {kind: len(xs) for kind, xs in samples.items()},
        "samples": {kind: [{k: v for k, v in x.items() if k != "layers"} for x in xs]
                    for kind, xs in samples.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "digests": digests,
        "provenance": provenance(seed, workers),
    }
    e2e = end_to_end(samples["plain"])
    e2e["failed_frac"] = tally.failed_frac
    e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["end_to_end"] = e2e
    if trace:
        result["per_layer"] = per_layer(samples)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with spans_path.open("w") as f:
            f.write(json.dumps({"provenance": result["provenance"], "workload": workload}) + "\n")
            for span_id, parent, run_id, name, start_t, end_t in tracer.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "run": run_id, "name": name,
                                    "start": start_t, "end": end_t}) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def record_golden() -> None:
    """Write golden.json from one pass of every workload at every scale.

    Prevalence is recorded with one worker; each run's golden pass uses
    nproc workers, so it also checks that the CSV does not depend on them.
    """
    table = {}
    OUT.mkdir(exist_ok=True)
    for scale, workloads in SCALES.items():
        table[scale] = {}
        for workload, spec in workloads.items():
            tally, digests = Tally(), {}
            ctx = Context(tally, None, OUT / f"trajectory-{os.getpid()}.txt")
            try:
                one_pass(workload, spec, GOLDEN_SEED, ctx, digests, 1)
            finally:
                ctx.traj_path.unlink(missing_ok=True)
            if tally.failed:
                raise SystemExit(f"{workload} ({scale}) failed: {tally.messages}")
            table[scale][workload] = digests
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, **table}, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SCALES["full"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(avoidkit.__file__).resolve().parents:
        print(f"avoidkit was imported from {avoidkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
