#!/usr/bin/env python3
"""avoidkit benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from anywhere; it uses the avoidkit sources in ``src/`` next to this
directory and fails, printing no result, when they are missing. Each run
starts a fresh interpreter a few times to time start-up, then one child
process (``pipeline.py``) that runs the workload's pipeline for ``--seconds``
and checks every output. ``--trace 1`` alternates untraced and traced
iterations and reports per-layer metrics instead of end-to-end ones.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it list every metric measured,
with its unit. The full result, with provenance, is written to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("canonical", "large-random", "prevalence")
# Metrics printed and saved besides those BENCHMARK.json declares.
EXTRA_UNITS = {
    "inputs_s": "s", "startup_s": "s", "raw_wall_s": "s", "failed_frac": "ratio", "graphs_per_s": "1/s",
    "sim_ticks_per_s": "1/s", "io_ticks_per_s": "1/s", "verify_ticks_per_s": "1/s",
}
# Workloads whose host build and verdict take well under a millisecond:
# their set-up time is dominated by starting the program, so it counts.
STARTUP_IN_SETUP = {"canonical", "prevalence"}
STARTUP_PROBES = 7
# Prints when the interpreter is up, then times the reference loop, the
# import of avoidkit and the reference loop again.
PROBE = """import time
up = time.perf_counter()
from reference import reference_time
before = reference_time()
t = time.perf_counter()
import avoidkit
imported = time.perf_counter() - t
print(repr(up), repr(imported), repr(before), repr(reference_time()))
"""


def declared(group: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json declares in a group."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")]))
    env.pop("AVOIDKIT_THREADS", None)
    return env


def startup_time(env: dict[str, str]) -> float:
    """Seconds from launching a fresh interpreter until it has imported avoidkit.

    The probe prints the time at which it was up, how long its import took,
    and two timings of the reference loop, run inside the probe just before
    and after the import; the start-up time is scaled to the reference
    speed like every step of the pipeline (see reference.py). perf_counter
    reads CLOCK_MONOTONIC, one clock for every process on the machine, so
    the figure needs no wait on the probe's exit (which, with a timeout, is
    polled in 50 ms steps) and leaves out interpreter teardown.
    """
    t = time.perf_counter()
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, check=True, timeout=60)
    up, imported, before, after = map(float, probe.stdout.split())
    return (up - t + imported) * 2 * REFERENCE_S / (before + after)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Time start-up, run the child for one workload, and assemble its result."""
    env = python_env()
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", scale]
    # Start-up is timed before and after the child, so that its median
    # does not rest on a single moment's load on the machine.
    startup = [startup_time(env) for _ in range(STARTUP_PROBES // 2)]
    # The last iteration may overrun --seconds by its own length, and a
    # traced run makes at least two iterations of each kind.
    child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True, timeout=2 * seconds + 120)
    startup += [startup_time(env) for _ in range(STARTUP_PROBES - len(startup))]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    e2e = result["end_to_end"]
    e2e["startup_s"] = median(startup)
    # Set-up is what happens before the first tick can be simulated or the
    # first graph sampled: build and admit the hosts, plus starting the
    # program where that is all there is.
    e2e["setup_s"] = e2e["inputs_s"] + (e2e["startup_s"] if workload in STARTUP_IN_SETUP else 0.0)
    unit = declared("end_to_end") | declared("per_layer") | EXTRA_UNITS
    for group in ("end_to_end", "per_layer"):
        if group in result:
            result[group] = {name: {"value": v, "unit": unit[name]} for name, v in result[group].items()}
    result["startup_samples_s"] = startup
    result["seed"] = seed
    result["trace"] = int(trace)
    return result


def selected_metrics(result: dict) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run."""
    group = "per_layer" if result["trace"] else "end_to_end"
    return {name: result[group][name] for name in declared(group)}


def report(result: dict) -> None:
    p = result["provenance"]
    print(f"# workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"scale {result['scale']} iterations {result['iterations']}")
    print(f"# git {p['git_sha']} source {p['source_sha256'][:16]} python {p['python']} "
          f"scipy {p['scipy']} numpy {p['numpy']} nproc {p['nproc']} workers {p['workers']}")
    groups = [("end_to_end", result["end_to_end"])]
    if result["trace"]:
        groups.append(("per_layer", result["per_layer"]))
    for group, metrics in groups:
        for name, m in sorted(metrics.items()):
            print(f"{group} {name} {m['value']:.6g} {m['unit']}")
    print(f"# attempted {result['attempted']} failed {result['failed']}")
    for message in result["failures"]:
        print(f"# FAILED {message}")


def save(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "avoidkit" / "__init__.py").is_file():
        print(f"error: no avoidkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            report(result)
            print(f"# result file {save(result).relative_to(ROOT)}")
            results.append(result)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"error: benchmark run failed: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = selected_metrics(results[0])
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in selected_metrics(r).items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
