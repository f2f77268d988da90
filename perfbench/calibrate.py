"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same code runs at very different speeds from one moment
to the next: stretches of a fraction of a second to a minute run up to 60%
slower while other tenants are busy, and process CPU time slows with wall
time, so a longer run does not average it out. The benchmark therefore runs
this unit of work between the program's items and reports the program's
times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / (time of one unit now)

where "now" is the median of the units timed around and between the items of
one repetition. The unit does the kinds of work the program does: pure-Python integer
arithmetic over sets and dicts (bounds' lattice closure), small numpy FFTs and
pairwise broadcasts (sampling and the kernels) and float formatting (the CSV
output). It depends on nothing in the program, so a change to the program
cannot change it, and its result is checked, so it cannot silently change.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Time of one unit on a 2-vCPU Xeon VM while its host was quiet: a reference
# second is a second of that machine at that speed.
REFERENCE_S = 0.011
EXPECTED = (299988894, 495297.4640805044)


def work() -> tuple[int, float]:
    """One fixed unit of mixed work (about 11 ms); returns a checksum."""
    seen, acc = set(), {}
    for i in range(10000):
        key = (i * 7919) % 10007, i % 13
        seen.add(key)
        acc[key[0]] = acc.get(key[0], 0) + i * key[1]
    x = np.cos(np.arange(7 * 1024, dtype=float) * 0.37).reshape(7, 1024)
    total = 0.0
    for _ in range(10):
        x = np.fft.irfft(np.fft.rfft(x, axis=1) * 0.5, n=1024, axis=1) + 1.0
        d = x[:, None, :] - x[None, :, :]
        total += float(np.sum(1.0 / np.sqrt(d * d + 1.0)))
    text = ",".join(f"{v:.17g}" for v in x.ravel()[:1000])
    return len(seen) + sum(acc.values()) + len(text), total


def unit() -> float:
    """Seconds one checked unit takes now.

    The cyclic garbage collector is paused meanwhile: a collection of the
    program's objects falling inside the unit would otherwise count as a
    slow machine. The unit makes no reference cycles.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        count, total = work()
        elapsed = time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()
    if count != EXPECTED[0] or not math.isclose(total, EXPECTED[1], rel_tol=1e-9):
        raise RuntimeError(f"calibration checksum {(count, total)} != {EXPECTED}")
    return elapsed
