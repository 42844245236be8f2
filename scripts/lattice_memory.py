"""Traced memory and wall time of each lin-decay phase: config, grid,
profile, `_evolved_linf` and the Besov norm; then of the sharpness shell
profile and one sharpness check.

    python scripts/lattice_memory.py [--N 1024] [--L 400]

The phases run one after another with the lin-decay defaults (a Gaussian of
width 1, alpha = 1, 12 times in [10, 100]) under `tracemalloc`, on the box
of the lin-decay configs, L = 400, whatever --L is: that run fits from t = 10
up to L/4.  The `shell_field` row builds the sharpness profile at --N.  The
`sharpness` row is one `sharpness_check` of the shell profile with the
sharpness defaults (400 times in [20, 100]) on the grid of
`configs/sharpness.ini`, N = 512 and L = 400, whatever --N is.  The
`kernel` row is the kernel quadrature at v = 0 for each time of the kernel
defaults (alpha = 1, times 10, 30 and 100), which needs no grid.  Prints a
markdown table of each phase's peak and of what the run holds after it, in
MiB, and of its wall time (`perf_counter`, under tracing) in ms; the last
six rows each trace one whole run from a fresh start: a lin-decay
`harness.run` at --N, a sharpness `harness.run` with its defaults at
N = 512, both at L = 400, an sqg `harness.run` (random profile, 4 steps of
dt = 0.005, 2 records) and one Boussinesq `stability_experiment` (stable
branch, eps = 0.02, 4 steps of dt = 0.05, 2 records), both at --N and --L,
and these two again with this process pinned to one CPU
(`os.sched_setaffinity`, restored after them), where a run takes no second
thread.  A bad --N or --L is a usage error (exit 2).
"""

import argparse
import os
import sys
import time
import tracemalloc

import numpy as np

# this checkout's sources first, so that an installed copy is never measured
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from anisodisp import boussinesq, harness, oscillatory, semigroup
from anisodisp.lp import LPBank, shell_field
from anisodisp.spectral import Grid2D


def phase(name, fn):
    tracemalloc.reset_peak()
    start = time.perf_counter()
    out = fn()
    ms = 1e3 * (time.perf_counter() - start)
    held, peak = tracemalloc.get_traced_memory()
    print(f"| {name} | {peak / 2**20:.1f} | {held / 2**20:.1f} | {ms:.1f} |")
    return out


def traced(name, fn):
    """`phase` of one whole run, traced from a fresh start."""
    tracemalloc.start()
    phase(name, fn)
    tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--N", type=int, default=1024)
    ap.add_argument("--L", type=float, default=400.0)
    args = ap.parse_args()
    try:
        harness.ExperimentConfig("sqg", N=args.N, L=args.L)
    except harness.ConfigError as exc:
        ap.error(f"--N {args.N} --L {args.L}: {exc}")
    print("| phase | peak MiB | held MiB | ms |\n| --- | --- | --- | --- |")
    tracemalloc.start()
    # the default box, L = 400, as in configs/lin_decay_*.ini
    cfg = phase("config", lambda: harness.ExperimentConfig("lin-decay", N=args.N))
    p = harness.parse_params(cfg.experiment, cfg.params)
    grid = phase("grid", lambda: Grid2D(cfg.N, cfg.L))
    f0 = phase("profile", lambda: harness.make_profile(grid, "gaussian", width=p["width"]))
    times = np.geomspace(p["t_lo"], p["t_hi"], p["n_times"])
    phase("_evolved_linf", lambda: semigroup._evolved_linf(f0, p["alpha"], times))
    phase("Besov", lambda: LPBank(grid).besov_norm(f0, 2.0))
    del f0
    phase("shell_field", lambda: shell_field(grid))
    del grid
    sp = harness.parse_params("sharpness", {})
    shell = shell_field(Grid2D(512, cfg.L))
    phase("sharpness", lambda: semigroup.sharpness_check(
        shell, sp["t_lo"], sp["t_hi"], sp["n_times"]))
    del shell
    kp = harness.parse_params("kernel", {})
    phase("kernel", lambda: [oscillatory.kernel_direct(
        oscillatory.PhaseSpec(v=(0.0, 0.0), alpha=kp["alpha"]), t) for t in kp["times"]])
    tracemalloc.stop()
    runs = (("harness.run lin-decay", lambda: harness.run(cfg)),
            ("harness.run sharpness",
             lambda: harness.run(harness.ExperimentConfig("sharpness", N=512))),
            ("harness.run sqg", lambda: harness.run(harness.ExperimentConfig(
                "sqg", N=args.N, L=args.L, params={"profile": "random", "t_final": "0.02",
                                                   "dt": "0.005", "n_outputs": "2"}))),
            ("stability_experiment", lambda: boussinesq.stability_experiment(
                Grid2D(args.N, args.L), eps=0.02, T=0.2, dt=0.05, n_outputs=2)))
    for name, fn in runs:
        traced(name, fn)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for name, fn in runs[2:]:
            traced(f"{name} on one CPU", fn)
    finally:
        os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    main()
