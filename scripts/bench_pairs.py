#!/usr/bin/env python3
"""Paired before/after benchmark runs, summarised as a BENCH_*.json file.

Runs ``perfbench/run.py`` in two checkouts, the parent and the change, back
to back for each seed: odd seeds run the parent first and even seeds the
change first, so drift on a shared machine falls on both sides. Every
end-to-end metric BENCHMARK.json declares is summarised per workload by its
quartiles on each side, the pairs the change wins, the change of the median
in percent and the parent's interquartile range, next to the operations
each side attempted and failed. The file is rewritten after every pair, so
an interrupted run keeps what it measured. A run that reports
``correct: false`` or a failed operation stops the script with exit 1,
naming its seed and side, since its timings measure broken work.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads large-random=10,canonical=5,prevalence=5 --first-seed 1401 \\
        --seconds 20 -o BENCH_new.json --description "what the change does"
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def git_sha(checkout: Path) -> str | None:
    """The checkout's HEAD commit, or None when it is not a git repository."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, metrics: list[str], sha) -> dict:
    """One untraced perfbench run in `checkout`: its verdict and end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} (exit {done.returncode}): {done.stderr.strip()}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    run = {"git_sha": sha[:7] if sha else None, "correct": last["correct"],
           "attempted": last["attempted"], "failed": last["failed"]}
    run.update({name: round(last["metrics"][name]["value"], 4) for name in metrics})
    return run


def summarise(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Operations attempted and failed per side, then quartiles per side,
    change wins, median change and parent IQR per metric."""
    out = {"operations": {side: {key: sum(r[side][key] for r in runs) for key in ("attempted", "failed")}
                          for side in ("parent", "change")}}
    for name, better in metrics.items():
        sides = {side: [r[side][name] for r in runs] for side in ("parent", "change")}
        stats = {}
        for side, xs in sides.items():
            q1, med, q3 = quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
            stats[side] = {"q1": round(q1, 4), "median": round(median(xs), 4), "q3": round(q3, 4)}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        mp, mc = median(sides["parent"]), median(sides["change"])
        out[name] = {**stats, "change_wins": f"{wins}/{len(runs)}",
                     "median_change_pct": round(100 * (mc - mp) / mp, 2) if mp else None,
                     "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4)}
    return out


def parse_workloads(text: str) -> list[tuple[str, int]]:
    """"large-random=10,canonical=5" -> [("large-random", 10), ("canonical", 5)]."""
    out = []
    for item in text.split(","):
        name, sep, pairs = item.partition("=")
        if not sep or not pairs.isdigit() or int(pairs) < 1:
            raise ValueError(f"bad workload item {item!r}: expected NAME=PAIRS with PAIRS >= 1")
        out.append((name, int(pairs)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="NAME=PAIRS,... e.g. large-random=10,canonical=5")
    ap.add_argument("--first-seed", type=int, required=True, help="seeds run consecutively from here")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--parent-sha", help="parent commit, when its checkout is not a git repository")
    ap.add_argument("--change-sha", help="change commit, when its checkout is not a git repository")
    ap.add_argument("--description", default="")
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args(argv)
    try:
        plan = parse_workloads(args.workloads)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    shas = {"parent": args.parent_sha or git_sha(args.parent), "change": args.change_sha or git_sha(args.change)}
    checkouts = {"parent": args.parent, "change": args.change}
    doc = {
        "description": args.description,
        "command": COMMAND.format(seconds=args.seconds),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"nproc {len(os.sched_getaffinity(0))}",
        "pairing": "parent and change run back to back per seed, each in its own checkout; "
                   "odd seeds ran the parent first and even seeds the change first",
        "quartiles": "statistics.quantiles(method='inclusive'); median is statistics.median",
        "bounds": "BENCHMARK.json end_to_end bounds: "
                  + ", ".join(f"{m['name']} {m['bound']:.0%}" for m in spec["end_to_end"]),
        "workloads": {},
    }
    seed = args.first_seed
    for workload, pairs in plan:
        runs = []
        for _ in range(pairs):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            done = {side: run_once(checkouts[side], workload, seed, args.seconds, list(metrics), shas[side])
                    for side in order}
            run = {"seed": seed, "first": order[0], "parent": done["parent"], "change": done["change"]}
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {run['parent'][m]} -> {run['change'][m]}" for m in metrics), flush=True)
            doc["workloads"][workload] = {"pairs": len(runs), "seeds": [r["seed"] for r in runs],
                                          "summary": summarise(runs, metrics), "runs": runs}
            args.output.write_text(json.dumps(doc, indent=1) + "\n")
            for side in order:
                if not done[side]["correct"] or done[side]["failed"]:
                    print(f"error: {workload} seed {seed}: the {side} run reports correct: "
                          f"{str(done[side]['correct']).lower()}, {done[side]['failed']} of "
                          f"{done[side]['attempted']} operations failed", file=sys.stderr)
                    return 1
            seed += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
