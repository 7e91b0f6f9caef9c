#!/usr/bin/env python3
"""Run every coupling engine on its canonical host and verify the output.

A quick end-to-end exercise: simulate, check avoidance, and run the
chi-square faithfulness test on each trajectory.  Each line gives the
simulation's own time and tick rate, then the time of all three steps.

Example:
    python scripts/run_engines.py --ticks 100000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time

from avoidkit.couplers import simulate
from avoidkit.generate import circulant, cycle, heawood, petersen
from avoidkit.verify import check_avoidance, chi_square_faithfulness


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
        start = time.perf_counter()
        traj, _ = simulate(g, engine, args.ticks, args.seed, **extra)
        simulated = time.perf_counter() - start
        violations = check_avoidance(g, traj)
        rep = chi_square_faithfulness(g, traj)
        elapsed = time.perf_counter() - start
        ok = not violations and rep.passed
        failures += not ok
        ticks = len(traj.positions) - 1
        print(f"{engine:>10}: n={g.n} ticks={ticks} "
              f"violations={len(violations)} chi2={'pass' if rep.passed else 'FAIL'} "
              f"simulate {simulated:.2f}s ({ticks / simulated:,.0f} ticks/s), total {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
