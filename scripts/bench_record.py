"""Before-and-after benchmark record of a change against its parent.

    python scripts/bench_record.py --parent REV [--pairs P] [--seconds S]
                                   [--workload W ...] > BENCH_<n>.json

Exports two trees with `git archive` into a temporary directory: REV, and
the change, which is HEAD for a clean checkout and otherwise the commit that
`git stash create` prints (tracked files only: `git add` a new file first).
On each tree it runs the unchanged `perfbench/run.py --trace 0`, in pairs at
seeds 1..P, each workload's pairs in turn and the two trees alternating
which goes first.  Each tree has its own bytecode cache (PYTHONPYCACHEPREFIX),
warmed before the pairs by one run of each workload (seed 0, its minimum of
three rounds) that writes it; each measured run is a fresh interpreter that
reads it under PYTHONDONTWRITEBYTECODE=1, so no run compiles a module and
every run of a tree starts from the same cache.  Progress
goes to stderr; the record, one JSON object, to stdout.  It holds each run's
final JSON line, its round count and raw round median, and per workload and
end-to-end metric of BENCHMARK.json, and of the raw round medians, both
trees' values, median, quartiles and range and the change's wins out of the
pairs, with the shas, the seeds,
the CPU affinity, MemAvailable and the numpy version.  After the pairs it
runs the Tier-1 suite, `python -m pytest -q --durations=0`, once in each
tree, and records its wall time, its passed, xfailed and failed counts and
the durations of the criterion 7, 8 and 10 acceptance tests.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True,
                          timeout=120).stdout


def resolve(parent, cwd=ROOT):
    """(parent sha, change sha, whether the change is uncommitted)."""
    parent_sha = git("rev-parse", "--verify", f"{parent}^{{commit}}", cwd=cwd).decode().strip()
    stash = git("stash", "create", cwd=cwd).decode().strip()
    change_sha = stash or git("rev-parse", "HEAD", cwd=cwd).decode().strip()
    return parent_sha, change_sha, bool(stash)


def export(sha, dest, cwd=ROOT):
    """The tree of commit `sha` written under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, cwd=cwd))) as tar:
        # the "data" filter where this Python has one (3.10.12+, 3.11.4+)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_perfbench(tree, workload, seed, seconds, cache, warm=False):
    """stdout of one `perfbench/run.py --trace 0` run on `tree` with the
    bytecode cache `cache`, which only a `warm` run writes."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if warm:
        del env["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode} on {tree}: {proc.stderr[-2000:]}")
    return proc.stdout


def run_tier1(tree):
    """(stdout, wall seconds) of one `python -m pytest -q --durations=0` run
    of the Tier-1 suite on `tree`.  A failing test is recorded, not raised."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--durations=0"],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=3600)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: some test failed
        raise RuntimeError(f"pytest exited {proc.returncode} on {tree}: {proc.stdout[-2000:]}")
    return proc.stdout, wall


# the acceptance tests whose durations a record keeps: criteria 7 and 8
# (SQG) and 10 (Boussinesq), the longest of the suite
TIMED_TESTS = re.compile(r"::(test_criterion_(?:7|8|10)_\w+)$")


def parse_tier1(stdout, wall):
    """The wall time, the passed, xfailed and failed counts of the suite's
    final summary line, and the durations of TIMED_TESTS, each the sum of
    its setup, call and teardown lines."""
    lines = stdout.rstrip("\n").splitlines()
    final = next(line for line in reversed(lines) if re.search(r" in [\d.]+s\b", line))
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", final)}
    durations = {}
    for line in lines:
        m = re.match(r"([\d.]+)s (?:setup|call|teardown)\s+(\S+)$", line)
        test = m and TIMED_TESTS.search(m.group(2))
        if test:
            durations[test.group(1)] = durations.get(test.group(1), 0.0) + float(m.group(1))
    return {"wall_s": wall, **{k: counts.get(k, 0) for k in ("passed", "xfailed", "failed")},
            "durations_s": durations}


def parse_run(stdout):
    """The final JSON line of a perfbench run, its round count and its raw
    round median in seconds."""
    lines = stdout.rstrip("\n").splitlines()
    raw = [float(m.group(1)) for m in map(re.compile(r"# run: raw round median (\S+) s").match,
                                           lines) if m]
    return {
        "rounds": sum(1 for line in lines if re.match(r"# round \d+: ", line)),
        "raw_run_s": raw[-1] if raw else None,
        "result": json.loads(lines[-1]),
    }


def spread(values):
    """Median, quartiles (inclusive method) and range of the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def compare(value, pairs, better):
    """Each side's spread of `value` ({(pair, side): v}, a run without a
    value left out) and the pairs with both sides in which the change is
    better."""
    sides = {side: [value[pair, side] for pair in pairs if (pair, side) in value]
             for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (value[pair, "change"] - value[pair, "parent"]) < 0.0
               for pair in pairs if all((pair, side) in value for side in SIDES))
    return {"better": better, **{side: spread(v) for side, v in sides.items() if v},
            "change_wins": wins}


def summarize(runs, metrics):
    """Per workload and metric ({name: better}), each side's spread and the
    pairs in which the change is better; and the same of the raw round
    medians (`raw_run_s`, unscaled by the reference kernel) of the runs that
    print one."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = sorted({run["pair"] for run in mine})
        table = {"pairs": len(pairs),
                 "correct": all(run["result"]["correct"] for run in mine),
                 "failed": sum(run["result"]["failed"] for run in mine)}
        for name, better in metrics.items():
            table[name] = compare({(run["pair"], run["side"]):
                                   run["result"]["metrics"][name]["value"] for run in mine},
                                  pairs, better)
        table["raw_run_s"] = compare({(run["pair"], run["side"]): run["raw_run_s"]
                                      for run in mine if run["raw_run_s"] is not None},
                                     pairs, "lower")
        out[workload] = table
    return out


def host():
    import numpy

    mem = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                mem = int(line.split()[1])
    return {"cpu_affinity": sorted(os.sched_getaffinity(0)), "mem_available_kib": mem,
            "numpy": numpy.__version__, "python": platform.python_version()}


def record(args, runner=run_perfbench, cwd=ROOT, tier1=run_tier1):
    with open(os.path.join(cwd, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent_sha, change_sha, uncommitted = resolve(args.parent, cwd)
    seeds = list(range(1, args.pairs + 1))
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = []
    scratch = tempfile.mkdtemp(prefix="bench_record")
    try:
        trees = {side: export(sha, os.path.join(scratch, side), cwd)
                 for side, sha in zip(SIDES, (parent_sha, change_sha))}
        caches = {side: os.path.join(scratch, f"pycache-{side}") for side in SIDES}
        for side in SIDES:
            for workload in workloads:
                print(f"# {workload} warm-up: {side}", file=sys.stderr)
                runner(trees[side], workload, 0, 0.0, caches[side], warm=True)
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    print(f"# {workload} pair {pair} seed {seed}: {side}", file=sys.stderr)
                    stdout = runner(trees[side], workload, seed, args.seconds, caches[side])
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "first": order[0] == side, **parse_run(stdout)})
        tests = {}
        for side in SIDES:
            print(f"# Tier-1: {side}", file=sys.stderr)
            tests[side] = parse_tier1(*tier1(trees[side]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "recorder": "scripts/bench_record.py",
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"sha": change_sha, "uncommitted": uncommitted},
        "pairs": args.pairs, "seconds": args.seconds, "seeds": seeds,
        "workloads": workloads, "started": started, "bytecode": "warmed per tree",
        "host": host(),
        "summary": summarize(runs, metrics),
        "tier1": tests,
        "runs": runs,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    json.dump(record(args), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
