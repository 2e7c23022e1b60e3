"""Machine-speed calibration: a fixed program with the engine's mix of work.

The benchmark times it in a fresh interpreter before the first pass and
after every pass of a run, and scales the run's timings by
``NOMINAL_CAL_S / median calibration time`` (run.py). On the shared machine the
benchmark was sized on, speed drifts by a quarter over tens of seconds;
the calibration drifts with it, and scaling halved the run-to-run
quartile spread of sim-fig8's wall time (0.146 to 0.088 over 12 runs).

It uses only Python, numpy and scipy, never the program, so no change to
the program can move it. The mix: interpreter start and the numpy/scipy
imports; a Python loop over numpy scalars (like the sign scan and the
per-replication code); 10k-point ufunc chains through ``erf`` (like the
threshold residuals and the quadrature); and a bisection over a
200k-element array (like the inverse CDF).

    python3 bench/calibrate.py
"""
import math

import numpy as np
from scipy import special


def main() -> float:
    xs = np.linspace(50.0, 200.0, 10_000)
    acc = 0.0
    for _ in range(3):
        signs = np.sign(np.sin(xs / 7.0))
        for i in range(len(signs) - 1):
            if signs[i] * signs[i + 1] < 0.0:
                acc += float(xs[i])
    for n in range(150):
        fr = 0.5 * (1.0 + special.erf((xs - 125.0) / (50.0 * math.sqrt(2.0))))
        acc += float(((1.0 - fr) ** 3 * (55.0 + n - 0.8 * xs)).sum())
    p = np.linspace(0.0, 1.0, 200_000)
    lo, hi = np.full_like(p, 50.0), np.full_like(p, 200.0)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        below = 0.5 * (1.0 + special.erf((mid - 125.0) / 70.71)) < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return acc + float(lo.sum())


if __name__ == "__main__":
    main()
