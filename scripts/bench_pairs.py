#!/usr/bin/env python3
"""Paired before/after benchmark runs, summarised as a BENCH_*.json file.

Runs ``perfbench/run.py`` in two checkouts, the parent and the change, back
to back for each seed: odd seeds run the parent first and even seeds the
change first, so drift on a shared machine falls on both sides. Every
end-to-end metric BENCHMARK.json declares is summarised per workload by its
quartiles on each side, the pairs the change wins, the change of the median
in percent, the parent's interquartile range and a verdict against the
metric's bound (`verdict`: worse, unresolved, better or within bound),
next to the operations each side attempted and failed. The metrics and
bounds are the parent's: a change whose BENCHMARK.json differs from the
parent's is refused with exit 2 before any run. The header records each
side's source digest, the sha256 over the sorted ``src/avoidkit/*.py``
names and bytes that perfbench's provenance records. The file is
rewritten after every pair, so an interrupted run keeps what it measured.
A run that reports ``correct: false`` or a failed operation stops the
script with exit 1, naming its seed and side, since its timings measure
broken work.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads large-random=10,canonical=5,prevalence=5 --first-seed 1401 \\
        --seconds 20 -o BENCH_new.json --description "what the change does"
"""

from __future__ import annotations

import argparse
import hashlib
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


def source_digest(checkout: Path) -> str:
    """sha256 over the checkout's sorted src/avoidkit/*.py names and bytes, as perfbench's provenance has it."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "avoidkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


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


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of xs, inclusive method; one run is its own quartiles."""
    if len(xs) == 1:
        return (xs[0],) * 3
    q1, _, q3 = quantiles(xs, n=4, method="inclusive")
    return q1, median(xs), q3


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's reading over paired runs, `bound` relative to the parent's median:
    "worse" when the change's median is worse by more than the bound; else
    "unresolved" when the parent's IQR is wider than the bound, unless every
    change run beats every parent run; else "better" when the change wins at
    least 9/10 of the pairs and the medians differ by more than the parent's
    IQR; else "within bound"."""
    sign = 1 if better == "lower" else -1  # sign * x: smaller is better
    q1, mp, q3 = quartiles(parent)
    gain = sign * (mp - median(change))
    if -gain > bound * abs(mp):
        return "worse"
    if q3 - q1 > bound * abs(mp) and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    if 10 * change_wins(parent, change, better) >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    return "within bound"


def summarise(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Operations attempted and failed per side, then quartiles per side,
    change wins, median change, parent IQR and verdict per metric."""
    out = {"operations": {side: {key: sum(r[side][key] for r in runs) for key in ("attempted", "failed")}
                          for side in ("parent", "change")}}
    for name, spec in metrics.items():
        sides = {side: [r[side][name] for r in runs] for side in ("parent", "change")}
        stats = {side: dict(zip(("q1", "median", "q3"), (round(q, 4) for q in quartiles(xs))))
                 for side, xs in sides.items()}
        wins = change_wins(sides["parent"], sides["change"], spec["better"])
        mp, mc = median(sides["parent"]), median(sides["change"])
        out[name] = {**stats, "change_wins": f"{wins}/{len(runs)}",
                     "median_change_pct": round(100 * (mc - mp) / mp, 2) if mp else None,
                     "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
                     "verdict": verdict(sides["parent"], sides["change"], spec["better"], spec["bound"])}
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
    specs = {side: checkout / "BENCHMARK.json" for side, checkout in (("parent", args.parent), ("change", args.change))}
    try:
        texts = {side: path.read_bytes() for side, path in specs.items()}
    except OSError as err:
        print(f"error: cannot read {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    if texts["change"] != texts["parent"]:
        print(f"error: {specs['change']} differs from {specs['parent']}; the change is judged by the "
              "parent's metrics and bounds, so a changed benchmark is not compared", file=sys.stderr)
        return 2
    spec = json.loads(texts["parent"])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    shas = {"parent": args.parent_sha or git_sha(args.parent), "change": args.change_sha or git_sha(args.change)}
    checkouts = {"parent": args.parent, "change": args.change}
    doc = {
        "description": args.description,
        "command": COMMAND.format(seconds=args.seconds),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "parent_source_sha256": source_digest(args.parent),
        "change_source_sha256": source_digest(args.change),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"nproc {len(os.sched_getaffinity(0))}",
        "pairing": "parent and change run back to back per seed, each in its own checkout; "
                   "odd seeds ran the parent first and even seeds the change first",
        "quartiles": "statistics.quantiles(method='inclusive'); median is statistics.median",
        "bounds": "the parent's BENCHMARK.json end_to_end bounds: "
                  + ", ".join(f"{m['name']} {m['bound']:.0%}" for m in spec["end_to_end"]),
        "verdicts": "per metric, against its bound relative to the parent's median: worse (the change's "
                    "median is worse by more than the bound), unresolved (the parent's IQR is wider than the "
                    "bound and some change run does not beat every parent run), better (the change wins at "
                    "least 9/10 of the pairs and the medians differ by more than the parent's IQR), "
                    "else within bound",
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
