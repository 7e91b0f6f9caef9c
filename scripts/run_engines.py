#!/usr/bin/env python3
"""Run every coupling engine on its canonical host and verify the output.

A quick end-to-end exercise: simulate, write the trajectory's text and
read it back (checked equal to the trajectory), check avoidance, and run
the chi-square faithfulness test on each trajectory.  Each step is timed
once as it runs, then run again under tracemalloc for its peak of newly
allocated memory, with the engines' generator counting its 64-bit draws
(installed as perfbench's tracer installs its own).  The draws line gives
the count, simulate's time per draw, and the time per draw of the same
draws made alone by `next_u64`, which is the generator's share of simulate.
The cache line of each two-walker engine gives its cache's hits, misses and
hit rate over the run and the entries it holds at the end; beside it, the
cubic engine's blocks line gives its block count and its scenario counts,
so the share of S1 blocks, the ones drawn in stretches, shows.

Example:
    python scripts/run_engines.py --ticks 100000 --seed 1
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from contextlib import contextmanager

from avoidkit import couplers
from avoidkit.couplers import parse_trajectory, simulate
from avoidkit.generate import circulant, cycle, heawood, petersen
from avoidkit.rng import Xoshiro256
from avoidkit.verify import check_avoidance, chi_square_faithfulness


@contextmanager
def counting_draws():
    """Yield the list of engine generators made meanwhile, each counting
    its 64-bit draws."""
    made = []

    class CountingXoshiro(Xoshiro256):
        __slots__ = ("draws",)

        def __init__(self, seed: int):
            super().__init__(seed)
            self.draws = 0
            made.append(self)

        def next_u64(self) -> int:
            self.draws += 1
            return Xoshiro256.next_u64(self)

    couplers.Xoshiro256 = CountingXoshiro
    try:
        yield made
    finally:
        couplers.Xoshiro256 = Xoshiro256


def drawing_alone(seed: int, draws: int) -> float:
    """Seconds for Xoshiro256(seed) to make `draws` draws."""
    next_u64 = Xoshiro256(seed).next_u64
    start = time.perf_counter()
    for _ in range(draws):
        next_u64()
    return time.perf_counter() - start


def measured(step):
    """(result, seconds, peak bytes, draws): `step()` timed untraced, then
    run again under tracemalloc for the peak it allocates and the engine
    draws it makes."""
    start = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - start
    gc.collect()
    tracemalloc.start()
    try:
        with counting_draws() as made:
            step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak, sum(r.draws for r in made)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ticks", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    jobs = [
        ("cubic", petersen(), {}),
        ("squarefree", heawood(), {}),
        ("regular", circulant(9, [1, 2]), {}),
        ("cycle", cycle(10), {"walkers": 5}),
    ]
    failures = 0
    for engine, g, extra in jobs:
        (traj, eng), *simulated, draws = measured(lambda: simulate(g, engine, args.ticks, args.seed, **extra))
        text, *written, _ = measured(traj.to_text)
        back, *read, _ = measured(lambda: parse_trajectory(text))
        (violations, rep), *verified, _ = measured(lambda: (check_avoidance(g, traj), chi_square_faithfulness(g, traj)))
        ok = not violations and rep.passed and back == traj
        failures += not ok
        ticks = len(traj.positions) - 1
        print(f"{engine:>10}: n={g.n} ticks={ticks} violations={len(violations)} "
              f"chi2={'pass' if rep.passed else 'FAIL'} round trip={'ok' if back == traj else 'CHANGED'} "
              f"text={len(text) / 2**20:.2f} MiB, {ticks / simulated[0]:,.0f} ticks/s")
        for step, (seconds, peak) in (("simulate", simulated), ("to_text", written),
                                      ("parse", read), ("verify", verified)):
            print(f"{'':>12}{step:<9} {seconds:7.3f} s   tracemalloc peak {peak / 2**20:7.2f} MiB")
        alone = drawing_alone(args.seed, draws)
        print(f"{'':>12}{'draws':<9} {draws:,} ({draws / max(ticks, 1):.2f} per tick), "
              f"simulate {simulated[0] / max(draws, 1) * 1e9:,.0f} ns per draw, "
              f"next_u64 alone {alone / max(draws, 1) * 1e9:,.0f} ns per draw ({alone / simulated[0]:.0%} of simulate)")
        cache = getattr(eng, "cache", None)
        if cache is not None:
            print(f"{'':>12}{'cache':<9} {cache.hits:,} hits, {cache.misses:,} misses "
                  f"(hit rate {cache.hit_rate:.4f}), {len(cache._data):,} entries held")
        counts = getattr(eng, "scenario_counts", None)
        if counts is not None:
            tags = ", ".join(f"{tag} {count:,}" for tag, count in sorted(counts.items()))
            print(f"{'':>12}{'blocks':<9} {eng.blocks:,} ({tags}), "
                  f"S1 share {counts.get('S1', 0) / max(eng.blocks, 1):.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
