"""Host-speed references for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes: on the 2-vCPU VM it was written on, a fixed FFT loop swung
between 750 and 1220 transforms per second within one minute, and a
workload's round time rose by 30% between two sets of runs.  So each
end-to-end time is taken next to a fixed reference workload that does not
use anisodisp (FFT round trips for run times, an import of the main
third-party modules for import times), and is reported as

    measured time * nominal reference time / measured reference time,

i.e. as seconds on a host where the reference takes its nominal time.  That
moves with anisodisp's own cost and not with the host's speed.  The raw
times are printed next to it.
"""

import os
import subprocess
import sys
import time

import numpy as np

KERNEL_NOMINAL_S = 0.2
IMPORT_NOMINAL_S = 0.6
# Third-party modules that make up most of anisodisp's import, imported in a
# fresh interpreter of their own: the same kind of work (extension modules
# loaded, many files read), but no change to anisodisp moves it.
REFERENCE_IMPORTS = "numpy, scipy.fft, scipy.optimize"
IMPORT_SNIPPET = ("import time; t0 = time.perf_counter(); import {}; "
                  "print(repr(time.perf_counter() - t0))")


class Kernel:
    """Complex FFT round trips on one n x n array, transformed in place axis
    by axis so that it holds no temporaries: a fixed amount of work at the
    size of the workload's arrays, so that it meets the same contention,
    with a resident footprint of n * n * 16 bytes.  numpy's FFT is used so
    that tracing scipy.fft never sees it."""

    def __init__(self, n):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((n, n)) + 0j
        self.reps = max(1, round(100 * (256 / n) ** 2))

    def seconds(self):
        a = self.a
        t0 = time.perf_counter()
        for _ in range(self.reps):
            np.fft.fft(a, axis=1, out=a)
            np.fft.fft(a, axis=0, out=a)
            np.fft.ifft(a, axis=0, out=a)
            np.fft.ifft(a, axis=1, out=a)
        return time.perf_counter() - t0


def import_seconds(modules, src):
    """Import time of `modules` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET.format(modules)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])
