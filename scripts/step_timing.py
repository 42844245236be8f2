"""Cost of one stepper step: `sqg.step` and `boussinesq.step` on both branches.

    PYTHONPATH=src python scripts/step_timing.py [--steps 100]

Each stepper starts from a masked random field (SQG, sup norm 0.05) or the
default Boussinesq profiles (eps = 0.01), with dt = 0.01 and a workspace
reused across steps, as the run loop does.  After two untimed steps, which
build the propagators, it times `--steps` steps one by one.  Prints a
markdown table of the 25th-percentile ms per step (`perf_counter`) and the
minor page faults per step (`getrusage`) at N = 64, 128, 256 and 512.
"""

import argparse
import resource
import time

import numpy as np

from anisodisp import boussinesq, sqg
from anisodisp.harness import make_profile
from anisodisp.spectral import Grid2D, SpectralField

DT = 0.01


def steppers(grid):
    """(name, start state, one-step function) for each stepper."""
    ws = sqg._Workspace(grid, 1.0)
    theta = make_profile(grid, "random", seed=1, width=2.0, amplitude=0.05)
    theta.coeffs *= ws.mask
    yield "sqg", sqg.SQGState(theta=theta, dt=DT), lambda st, ws=ws: sqg.step(st, ws)
    fo, fr = boussinesq.default_profiles(grid)
    for branch in ("stable", "unstable"):
        ws = boussinesq._Workspace(grid, branch)
        st = boussinesq.BoussState(omega=SpectralField(grid, 0.01 * fo.coeffs * ws.mask),
                                   rho=SpectralField(grid, 0.01 * fr.coeffs * ws.mask),
                                   dt=DT, branch=branch)
        yield f"bouss {branch}", st, lambda st, ws=ws: boussinesq.step(st, ws)


def time_steps(state, advance, steps):
    """(25th-percentile ms per step, minor page faults per step)."""
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
          "| --- | --- | --- | --- |")
    for N in (64, 128, 256, 512):
        for name, state, advance in steppers(Grid2D(N, 10.0)):
            ms, faults = time_steps(state, advance, args.steps)
            print(f"| {name} | {N} | {ms:.3f} | {faults:.1f} |", flush=True)


if __name__ == "__main__":
    main()
