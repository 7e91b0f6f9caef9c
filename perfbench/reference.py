"""Step timing scaled by a fixed reference loop timed around each step.

The machines this benchmark runs on are shared. Other tenants slow a fixed
pure-Python loop by up to two thirds, in spells lasting from under a second
to minutes, without any steal time showing in /proc/stat, and each step of a
workload slows with them. ``Meter`` times ``reference_loop`` just before and
just after every step and scales the step's time by REFERENCE_S over the mean
of the two: the step's time at the reference speed. Within one run that
varies two to three times less than the raw time. The loop touches nothing
of avoidkit, so a change to avoidkit moves a step's scaled time as much as
its raw one.
"""

from __future__ import annotations

import time

# Time of reference_loop on an idle core of the machine the benchmark was
# tuned on (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3). It fixes the
# scale: a scaled time is in seconds at that speed.
REFERENCE_S = 0.014
REFERENCE_ITERATIONS = 100_000


def reference_loop() -> int:
    """Integer arithmetic, dict stores and list appends: the interpreter work avoidkit does."""
    s = 0
    table: dict[int, int] = {}
    trail: list[int] = []
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
        table[i & 1023] = s
        if i & 15 == 0:
            trail.append(s)
    return s + len(trail)


def reference_time() -> float:
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


class Meter:
    """Times consecutive steps, raw and scaled to the reference speed.

    ``start()`` begins a step; ``lap(name)`` ends it and begins the next, so
    the reference timed between two steps serves both. Uncalibrated, the
    reference is not run and a step's scaled time is its raw time.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._ref = REFERENCE_S
        self._t = time.perf_counter()

    def _reference(self) -> float:
        return reference_time() if self.calibrated else REFERENCE_S

    def start(self) -> None:
        self._ref = self._reference()
        self._t = time.perf_counter()

    def lap(self, name: str) -> float:
        """End the current step, record it under ``name``, and return its raw time."""
        elapsed = time.perf_counter() - self._t
        ref = self._reference()
        self.raw[name] = elapsed
        self.scaled[name] = elapsed * 2 * REFERENCE_S / (self._ref + ref)
        self._ref = ref
        self._t = time.perf_counter()
        return elapsed
