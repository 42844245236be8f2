"""Wall time and worker cost of one sweep config on each pool size.

    python scripts/sweep_pool.py CONFIG

Runs the sweep through `cli.main` in a fresh interpreter, one run at a
time: with `--jobs 1`, `--jobs 2`, ... up to the default pool
(`harness.sweep_workers` for this process's usable CPUs), then with no
`--jobs`.  Prints a markdown table of each run's worker processes, its wall
time (`perf_counter`), the workers' CPU seconds (user + system) and minor
page faults and the largest worker peak RSS (`RUSAGE_CHILDREN`), and the
same three for the calling interpreter over the run (`RUSAGE_SELF`), where
the members run when there is one worker.  A config that is not a sweep,
or whose keys the config check rejects, is a usage error (exit 2); a run
that exits 2 or 3 stops the script with its message (exit 1).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# this checkout's sources first, so that an installed copy is never measured
sys.path.insert(0, SRC)

from anisodisp import harness
from anisodisp.spectral import usable_cpus

# one run in the fresh interpreter: argv is SRC CONFIG OUT [--jobs K]
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from anisodisp import cli
self_0 = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--config", sys.argv[2], "--out", sys.argv[3], *sys.argv[4:]])
wall = time.perf_counter() - start
self_1 = resource.getrusage(resource.RUSAGE_SELF)
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "code": code, "wall": wall,
    "cpu": kids.ru_utime + kids.ru_stime, "faults": kids.ru_minflt, "peak": kids.ru_maxrss,
    "self_cpu": self_1.ru_utime + self_1.ru_stime - self_0.ru_utime - self_0.ru_stime,
    "self_faults": self_1.ru_minflt - self_0.ru_minflt, "self_peak": self_1.ru_maxrss}))
"""


def measure(config, jobs):
    """The CHILD measurements of one CLI run of `config`, with `--jobs jobs`
    or, for None, with no --jobs."""
    flags = [] if jobs is None else ["--jobs", str(jobs)]
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", CHILD, SRC, config, out, *flags],
                              capture_output=True, text=True)
    result = json.loads(proc.stdout) if proc.returncode == 0 else {"code": None}
    if result["code"] not in (0, 1):
        sys.exit(f"sweep_pool: the run with {' '.join(flags) or 'no --jobs'} failed "
                 f"(exit {result['code']}):\n{proc.stderr}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", help="sweep INI config file")
    args = ap.parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
        if cfg.experiment != "sweep":
            raise harness.ConfigError(f"names experiment {cfg.experiment!r}, not sweep")
        members = len(harness.parse_params("sweep", cfg.params)["eps_list"])
    except harness.ConfigError as exc:
        ap.error(f"{args.config}: {exc}")
    default = harness.sweep_workers(members, usable_cpus(), cfg.N)
    print("| --jobs | workers | wall s | worker CPU s | worker minor faults | worker peak MiB "
          "| caller CPU s | caller minor faults | caller peak MiB |\n"
          "| --- | --- | --- | --- | --- | --- | --- | --- | --- |", flush=True)
    for jobs in [*range(1, default + 1), None]:
        r = measure(args.config, jobs)
        workers = default if jobs is None else jobs
        pool = (f"{workers} | {r['wall']:.2f} | {r['cpu']:.2f} | {r['faults']} "
                f"| {r['peak'] / 1024:.1f}" if workers > 1
                else f"in-process | {r['wall']:.2f} | - | - | -")
        print(f"| {'none' if jobs is None else jobs} | {pool} | {r['self_cpu']:.2f} "
              f"| {r['self_faults']} | {r['self_peak'] / 1024:.1f} |", flush=True)


if __name__ == "__main__":
    main()
