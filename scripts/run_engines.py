#!/usr/bin/env python3
"""Run every coupling engine on its canonical host and verify the output.

A quick end-to-end exercise: simulate, write the trajectory's text and
read it back (checked equal to the trajectory), check avoidance, and run
the chi-square faithfulness test on each trajectory.  Each step is timed
once as it runs, then run again under tracemalloc for its peak of newly
allocated memory.

Example:
    python scripts/run_engines.py --ticks 100000 --seed 1
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc

from avoidkit.couplers import parse_trajectory, simulate
from avoidkit.generate import circulant, cycle, heawood, petersen
from avoidkit.verify import check_avoidance, chi_square_faithfulness


def measured(step):
    """(result, seconds, peak bytes): `step()` timed untraced, then run
    again under tracemalloc for the peak it allocates."""
    start = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - start
    gc.collect()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak


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
        (traj, _), *simulated = measured(lambda: simulate(g, engine, args.ticks, args.seed, **extra))
        text, *written = measured(traj.to_text)
        back, *read = measured(lambda: parse_trajectory(text))
        (violations, rep), *verified = measured(lambda: (check_avoidance(g, traj), chi_square_faithfulness(g, traj)))
        ok = not violations and rep.passed and back == traj
        failures += not ok
        ticks = len(traj.positions) - 1
        print(f"{engine:>10}: n={g.n} ticks={ticks} violations={len(violations)} "
              f"chi2={'pass' if rep.passed else 'FAIL'} round trip={'ok' if back == traj else 'CHANGED'} "
              f"text={len(text) / 2**20:.2f} MiB, {ticks / simulated[0]:,.0f} ticks/s")
        for step, (seconds, peak) in (("simulate", simulated), ("to_text", written),
                                      ("parse", read), ("verify", verified)):
            print(f"{'':>12}{step:<9} {seconds:7.3f} s   tracemalloc peak {peak / 2**20:7.2f} MiB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
