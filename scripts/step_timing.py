"""Cost of one stepper step: `sqg.step` and `boussinesq.step` on both branches.

    python scripts/step_timing.py [--steps 100]

Each stepper starts from a masked random field (SQG, sup norm 0.05) or the
default Boussinesq profiles (eps = 0.01), with dt = 0.01 and a workspace
reused across steps, and steps inside its workspace's `worker`, as the run
loop (`sqg._integrate`) does: at N >= 256 a process that may use two CPUs
splits each transport term between two threads.  After two untimed steps,
which build the propagators, it times `--steps` steps one by one.  Prints a
markdown table of the 25th-percentile ms per step (`perf_counter`) and the
minor page faults per step (`getrusage`) at N = 64, 128, 256 and 512, each
in a process that may use every CPU of this one and in one pinned to one
CPU (`os.sched_setaffinity`), which steps serially.

Each measurement runs in a fresh interpreter, one at a time: the faults per
step depend on what the process allocated and imported before it steps.
The interpreters are plain subprocesses, since a process that
`multiprocessing` starts steps serially (`spectral.thread_shares`).
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# this checkout's sources first, so that an installed copy is never measured
sys.path.insert(0, SRC)

from anisodisp import boussinesq, sqg
from anisodisp.harness import make_profile
from anisodisp.spectral import Grid2D, SpectralField

DT = 0.01
STEPPERS = ("sqg", "bouss stable", "bouss unstable")


def stepper(name, grid):
    """(start state, workspace, one-step function) of the named stepper."""
    if name == "sqg":
        ws = sqg._Workspace(grid, 1.0)
        theta = make_profile(grid, "random", seed=1, width=2.0, amplitude=0.05)
        theta.coeffs *= ws.mask
        return sqg.SQGState(theta=theta, dt=DT), ws, sqg.step
    branch = name.split()[1]
    fo, fr = boussinesq.default_profiles(grid)
    ws = boussinesq._Workspace(grid, branch)
    st = boussinesq.BoussState(omega=SpectralField(grid, 0.01 * fo.coeffs * ws.mask),
                               rho=SpectralField(grid, 0.01 * fr.coeffs * ws.mask),
                               dt=DT, branch=branch)
    return st, ws, boussinesq.step


def time_steps(name, N, steps):
    """(25th-percentile ms per step, minor page faults per step) of the named
    stepper at N, stepping inside its workspace's worker."""
    state, ws, step = stepper(name, Grid2D(N, 10.0))
    with ws.worker:
        for _ in range(2):
            state = step(state, ws)
        times = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(steps):
            t0 = time.perf_counter()
            state = step(state, ws)
            times.append(time.perf_counter() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e3 * float(np.percentile(times, 25)), faults / steps


def measure(name, N, steps, cpu=None):
    """`time_steps` in a fresh interpreter, pinned to `cpu` if given."""
    args = [name, str(N), str(steps)] + ([] if cpu is None else [str(cpu)])
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--row", *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--row", nargs="+", help=argparse.SUPPRESS)  # one measurement
    args = ap.parse_args()
    if args.row:
        name, N, steps, *cpu = args.row
        if cpu:
            os.sched_setaffinity(0, {int(cpu[0])})
        print(json.dumps(time_steps(name, int(N), int(steps))))
        return
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    print("| stepper | N | ms per step (p25) | ms per step on one CPU (p25) "
          "| minor faults per step | minor faults per step on one CPU |\n"
          "| --- | --- | --- | --- | --- | --- |", flush=True)
    one_cpu = min(os.sched_getaffinity(0))
    for N in (64, 128, 256, 512):
        for name in STEPPERS:
            ms, faults = measure(name, N, args.steps)
            ms1, faults1 = measure(name, N, args.steps, one_cpu)
            print(f"| {name} | {N} | {ms:.3f} | {ms1:.3f} | {faults:.1f} | {faults1:.1f} |",
                  flush=True)


if __name__ == "__main__":
    main()
