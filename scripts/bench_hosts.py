#!/usr/bin/env python3
"""Engine ticks/s of two source trees on fixed hosts, in one process.

Imports the parent's and the change's ``src/avoidkit`` side by side, each
under a package name of its own (``avoidkit_parent``, ``avoidkit_change``),
so both run in the same process on the same hosts and no tree is copied.
Each host is built once, by the change's generators, and handed to each
side as that side's `Graph` over the same adjacency.  A timed run is the
side's engine made from its default start with seed 1 and run for the
host's ticks; it is timed in CPU time, after a collection, and each side
takes the best of 3 runs per round.  Rounds alternate which side runs
first, so drift on a shared machine falls on both sides.

Per host it prints the median ticks/s of each side over the rounds, the
median of the per-round ratios (change over parent), the rounds the change
won and one tracemalloc peak per side, of one untimed run.  That run also
gives each side's record: the sha256 of the trajectory text, the cache's
hits and misses, the scenario counts and the round checks.  The script
exits 1 when any host's records differ between the sides, since the
timings would then compare different work.

Example:
    python3 scripts/bench_hosts.py --parent ../parent --change . --rounds 7
    python3 scripts/bench_hosts.py --parent ../parent --change . --hosts petersen,rr3-n5000 --ticks 20000
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

SEED = 1  # every engine's seed
BEST_OF = 3  # timed runs per side per round

# name: (engine, how the change's `generate` builds the host, ticks)
HOSTS = {
    "petersen": ("cubic", lambda gen: gen.petersen(), 150_000),
    "heawood": ("squarefree", lambda gen: gen.heawood(), 150_000),
    "c9": ("regular", lambda gen: gen.circulant(9, [1, 2]), 150_000),
    "rr5-n64": ("regular", lambda gen: gen.random_regular_simple(64, 5, 0, connected_required=True)[0], 20_000),
    "rr3-n250": ("cubic", lambda gen: gen.random_regular_simple(250, 3, 0, connected_required=True)[0], 100_000),
    "rr3-n5000": ("cubic", lambda gen: gen.random_regular_simple(5000, 3, 0, connected_required=True)[0], 40_000),
    "rr3-n10000": ("cubic", lambda gen: gen.random_regular_simple(10_000, 3, 1)[0], 30_000),
    "rr3-n30000": ("cubic", lambda gen: gen.random_regular_simple(30_000, 3, 1)[0], 30_000),
    "rr3-n100000": ("cubic", lambda gen: gen.random_regular_simple(100_000, 3, 1)[0], 20_000),
    "rr5-n5000": ("regular", lambda gen: gen.random_regular_simple(5000, 5, 1)[0], 4_000),
    "rr4-n8000": ("regular", lambda gen: gen.random_regular_simple(8000, 4, 1)[0], 6_000),
    "rr4-n20000": ("regular", lambda gen: gen.random_regular_simple(20_000, 4, 1)[0], 6_000),
}


def load(root: Path, name: str):
    """The package in root/src/avoidkit, imported as `name` (any earlier
    import under that name is dropped first)."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = root / "src" / "avoidkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One source tree's engines, graph type and generators."""

    def __init__(self, label: str, root: Path):
        package = load(root, f"avoidkit_{label}").__name__
        self.couplers = importlib.import_module(f"{package}.couplers")
        self.graphs = importlib.import_module(f"{package}.graphs")
        self.generate = importlib.import_module(f"{package}.generate")

    def engine(self, name: str, g, ticks: int):
        """The engine `name` on g, from its default start, run for `ticks` ticks."""
        eng = self.couplers.TWO_WALKER_ENGINES[name](g, SEED)
        return eng, eng.run(ticks)


def record(eng, traj) -> tuple:
    """What both sides must agree on: the trajectory text's sha256, the
    cache's hits and misses, the scenario counts and the round checks."""
    return (hashlib.sha256(traj.to_text().encode()).hexdigest(), eng.cache.hits, eng.cache.misses,
            sorted(eng.scenario_counts.items()), getattr(eng, "round_checks", 0))


def traced(side: Side, engine: str, g, ticks: int) -> tuple[tuple, int]:
    """(record, tracemalloc peak in bytes) of one untimed run."""
    gc.collect()
    tracemalloc.start()
    try:
        eng, traj = side.engine(engine, g, ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return record(eng, traj), peak


def best_seconds(side: Side, engine: str, g, ticks: int) -> float:
    """The least CPU time of BEST_OF runs."""
    best = float("inf")
    for _ in range(BEST_OF):
        gc.collect()
        start = time.process_time()
        side.engine(engine, g, ticks)
        best = min(best, time.process_time() - start)
    return best


def bench_host(sides: list[Side], name: str, ticks: int, rounds: int) -> tuple[str, bool]:
    """One host's table row and whether the sides' records agree."""
    engine, build, default_ticks = HOSTS[name]
    ticks = ticks or default_ticks
    host = build(sides[1].generate)
    graphs = [side.graphs.Graph(host.n, host.adjacency) for side in sides]
    for g in graphs:
        g.digest()  # made once, outside the timings
    (rec_p, peak_p), (rec_c, peak_c) = (traced(s, engine, g, ticks) for s, g in zip(sides, graphs))
    rates = [[], []]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i in order:
            rates[i].append(ticks / best_seconds(sides[i], engine, graphs[i], ticks))
    ratios = [c / p for p, c in zip(*rates)]
    won = sum(c > p for p, c in zip(*rates))
    same = rec_p == rec_c
    row = (f"| {name} | {engine} | {host.n:,} | {ticks:,} | {median(rates[0]):,.0f} | {median(rates[1]):,.0f} "
           f"| {median(ratios):.2f} | {won}/{rounds} | {peak_p / 2**20:.2f} | {peak_c / 2**20:.2f} "
           f"| {rec_c[0][:12] if same else 'DIFFER'} |")
    return row, same


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--hosts", default=",".join(HOSTS), help=f"comma-separated, of {', '.join(HOSTS)}")
    ap.add_argument("--ticks", type=int, default=0, help="ticks on every host (default: each host's own)")
    args = ap.parse_args(argv)
    hosts = args.hosts.split(",")
    unknown = [h for h in hosts if h not in HOSTS]
    if unknown or args.rounds < 1 or args.ticks < 0:
        ap.error(f"unknown hosts {unknown}" if unknown else "--rounds must be >= 1 and --ticks >= 0")
    sides = [Side("parent", args.parent.resolve()), Side("change", args.change.resolve())]
    print(f"# {args.rounds} rounds, CPU time, best of {BEST_OF} per side per round, seed {SEED}; "
          f"Python {sys.version.split()[0]}")
    print("| host | engine | n | ticks | parent ticks/s | change ticks/s | ratio | change won "
          "| parent peak MiB | change peak MiB | sha256 |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    differ = []
    for name in hosts:
        row, same = bench_host(sides, name, args.ticks, args.rounds)
        print(row, flush=True)
        if not same:
            differ.append(name)
    if differ:
        print(f"records differ between the sides on {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
