#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute on one core).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with a finite
value, on every workload, traced and untraced; that a planted corrupt
trajectory (one non-edge step) and a wrong golden digest are counted as
failures; and that the benchmark fails, printing no result, in a directory
without the sources.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile

import pipeline
import run


def check_metrics() -> list[str]:
    errors = []
    for workload in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            try:
                result = run.run_workload(workload, seed=1, seconds=0, trace=trace, scale="tiny")
                emitted = run.selected_metrics(result)
            except KeyError as err:
                errors.append(f"{workload} trace={int(trace)}: metric {err} not emitted or has no unit")
                continue
            where = f"{workload} trace={int(trace)}"
            if result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {result['failed']} of {result['attempted']} failed: {result['failures']}")
            for name, got in emitted.items():
                value = got["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{where}: {name} = {value!r}")
                elif not trace and value <= 0:
                    errors.append(f"{where}: end-to-end {name} = {value}")
    return errors


def check_failures_counted() -> list[str]:
    errors = []
    g = pipeline.generate.petersen()
    traj, _ = pipeline.couplers.simulate(g, "cubic", 1000, 1)
    lines = traj.to_text().splitlines()
    # Move Alice, at tick 100, to a vertex that is not a neighbour of her
    # tick-99 position: a single non-edge step into and out of it.
    row = next(i for i, line in enumerate(lines) if line.startswith("100 "))
    prev = traj.positions[99][0]
    far = next(v for v in range(g.n) if v != prev and not g.has_edge(prev, v))
    _, _, bob = lines[row].split()
    lines[row] = f"100 {far} {bob}"
    corrupt = pipeline.couplers.parse_trajectory("\n".join(lines) + "\n")

    tally = pipeline.Tally()
    tally.record("clean", pipeline.verify_trajectory(g, traj)[0])
    problems, _ = pipeline.verify_trajectory(g, corrupt)
    tally.record("corrupt", problems)
    if tally.failed_frac != 0.5 or "non_edge_step" not in " ".join(problems):
        errors.append(f"planted non-edge step: failed_frac {tally.failed_frac}, problems {problems}")

    tally = pipeline.Tally()
    ctx = pipeline.Context(tally, None, pipeline.OUT / "selftest-trajectory.txt")
    pipeline.OUT.mkdir(exist_ok=True)
    hosts = pipeline.SCALES["tiny"]["canonical"][:1]
    try:
        pipeline.engine_iteration(hosts, pipeline.GOLDEN_SEED, ctx, {hosts[0].label: "0" * 64})
    finally:
        ctx.traj_path.unlink(missing_ok=True)
    if tally.failed != 1:
        errors.append(f"wrong golden digest: {tally.failed} of {tally.attempted} failed")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and this directory: no result, a nonzero exit."""
    pipeline.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=pipeline.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "canonical", "--seed", "1",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    errors = []
    for check in (check_failures_counted, check_bare_directory, check_metrics):
        found = check()
        print(f"{'FAIL' if found else 'ok  '} {check.__name__}")
        errors += found
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
