"""Cost of one stepper step: `sqg.step` and `boussinesq.step` on both branches.

    python scripts/step_timing.py [--steps 100]

Each stepper starts from a masked random field (SQG, sup norm 0.05) or the
default Boussinesq profiles (eps = 0.01), with dt = 0.01 and a workspace
reused across steps, as the run loop does.  After two untimed steps, which
build the propagators, it times `--steps` steps one by one.  Prints a
markdown table of the 25th-percentile ms per step (`perf_counter`) and the
minor page faults per step (`getrusage`) at N = 64, 128, 256 and 512.

Each row runs in a fresh interpreter, one at a time: the faults per step
depend on what the process allocated and imported before it steps.
"""

import argparse
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# this checkout's sources first, so that an installed copy is never measured
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from anisodisp import boussinesq, sqg
from anisodisp.harness import make_profile
from anisodisp.spectral import Grid2D, SpectralField

DT = 0.01
STEPPERS = ("sqg", "bouss stable", "bouss unstable")


def stepper(name, grid):
    """(start state, one-step function) of the named stepper."""
    if name == "sqg":
        ws = sqg._Workspace(grid, 1.0)
        theta = make_profile(grid, "random", seed=1, width=2.0, amplitude=0.05)
        theta.coeffs *= ws.mask
        return sqg.SQGState(theta=theta, dt=DT), lambda st: sqg.step(st, ws)
    branch = name.split()[1]
    fo, fr = boussinesq.default_profiles(grid)
    ws = boussinesq._Workspace(grid, branch)
    st = boussinesq.BoussState(omega=SpectralField(grid, 0.01 * fo.coeffs * ws.mask),
                               rho=SpectralField(grid, 0.01 * fr.coeffs * ws.mask),
                               dt=DT, branch=branch)
    return st, lambda st: boussinesq.step(st, ws)


def time_steps(name, N, steps):
    """(25th-percentile ms per step, minor page faults per step) of the named
    stepper at N."""
    state, advance = stepper(name, Grid2D(N, 10.0))
    for _ in range(2):
        state = advance(state)
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        t0 = time.perf_counter()
        state = advance(state)
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e3 * float(np.percentile(times, 25)), faults / steps


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=100)
    args = ap.parse_args()
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    print("| stepper | N | ms per step (p25) | minor faults per step |\n"
          "| --- | --- | --- | --- |", flush=True)
    rows = [(name, N) for N in (64, 128, 256, 512) for name in STEPPERS]
    # one worker, replaced after each row
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"),
                             max_tasks_per_child=1) as pool:
        results = pool.map(time_steps, *zip(*rows), [args.steps] * len(rows))
        for (name, N), (ms, faults) in zip(rows, results):
            print(f"| {name} | {N} | {ms:.3f} | {faults:.1f} |", flush=True)


if __name__ == "__main__":
    main()
