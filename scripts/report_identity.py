"""Byte identity of the CLI's results between two source trees.

    python scripts/report_identity.py OLD_TREE NEW_TREE [--only SUBSTR]

Runs 32 CLI invocations against each tree's src/, each in a fresh
interpreter under OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1, the
two trees' runs of one invocation side by side: the 7 configs/*.ini of this
checkout, the INIs of the three benchmark workloads at seeds 1-3 as this
checkout's perfbench/workloads.py writes them, and 4 INIs that fail on
purpose (FAILURES: three exit 3, one exits 2).  --only keeps the
invocations whose name contains SUBSTR.  Both trees read the same INI files
and write under the same relative paths.  Every report file, stdout, stderr
and exit code is compared; prints one line per invocation and one per
difference, and exits 1 on any difference, 0 when all match.
"""

import argparse
import configparser
import glob
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
# (name, experiment, params) of the invocations that fail on purpose, at
# N = 16, L = 10: a CFL violation, an empty fit window (L/4 lies below t = 10)
# and a quadrature budget exceeded exit 3, an eps beyond its range exits 2
FAILURES = (
    ("cfl", "sqg", "eps = 1.0\nprofile = random\nt_final = 1.0\ndt = 1.0"),
    ("empty-fit-window", "lin-decay", ""),
    ("quadrature-budget", "kernel", "times = 1e7"),
    ("eps-out-of-range", "sqg", "eps = 1e101"),
)


def invocations(in_dir):
    """(name, experiment, INI path) of the 32 invocations, the workload and
    FAILURES INIs written under in_dir."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))):
        cp = configparser.ConfigParser()
        cp.read(path)
        out.append((f"configs/{os.path.basename(path)}", cp["experiment"]["name"], path))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # read-only: no __pycache__ under perfbench/
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            invs = workloads.make_invocations(workload, seed)
            paths = workloads.write_inputs(invs, seed, os.path.join(in_dir, workload, str(seed)))
            out += [(f"{workload}/seed{seed}/{inv.name}", inv.experiment, path)
                    for inv, path in zip(invs, paths)]
    os.makedirs(os.path.join(in_dir, "failing"))
    for name, experiment, params in FAILURES:
        path = os.path.join(in_dir, "failing", f"{name}.ini")
        with open(path, "w") as fh:
            fh.write(f"[experiment]\nname = {experiment}\nseed = 1\n\n"
                     f"[grid]\nN = 16\nL = 10.0\n\n[params]\n{params}\n")
        out.append((f"failing/{name}", experiment, path))
    return out


def run_one(tree, experiment, ini, cwd):
    """(exit code, stdout, stderr, {relative path: bytes} of the reports)."""
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "anisodisp.cli", experiment,
                           "--config", ini, "--out", "out"],
                          cwd=cwd, env=env, capture_output=True)
    files = {}
    for path in sorted(glob.glob(os.path.join(cwd, "out", "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(old, new):
    """What differs between two `run_one` results, one line each."""
    diffs = [what for what, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    for path in sorted(old[3].keys() | new[3].keys()):
        if old[3].get(path) != new[3].get(path):
            diffs.append(path if path in old[3] and path in new[3] else f"{path} (only one tree)")
    return diffs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--only", default="", help="keep invocations whose name contains this")
    args = ap.parse_args(argv)
    for tree in (args.old_tree, args.new_tree):
        if not os.path.isfile(os.path.join(tree, "src", "anisodisp", "cli.py")):
            ap.error(f"no anisodisp sources under {tree}/src")
    n_diff = 0
    with tempfile.TemporaryDirectory() as tmp:
        chosen = [inv for inv in invocations(os.path.join(tmp, "in")) if args.only in inv[0]]
        if not chosen:
            ap.error(f"no invocation name contains {args.only!r}")
        for i, (name, experiment, ini) in enumerate(chosen):
            # the two trees' runs of one invocation side by side
            with ThreadPoolExecutor(2) as pool:
                old, new = pool.map(
                    lambda side, tree: run_one(tree, experiment, ini, os.path.join(tmp, side, str(i))),
                    ("old", "new"), (args.old_tree, args.new_tree))
            diffs = differences(old, new)
            n_diff += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'} {name} (exit {old[0]} / {new[0]})")
            for what in diffs:
                print(f"    differs: {what}")
    print(f"{len(chosen) - n_diff} of {len(chosen)} invocations identical")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
