"""Run-to-run stability of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py

Runs the benchmark once per seed 1-10 on every workload of BENCHMARK.json,
two sets over, with its command and run length.  For every end-to-end
metric it prints each set's median and its spread, the distance between the
first and third quartiles over the median, next to the metric's bound, and
the worsening of the second set's median against the first.  It also prints
the share of failed operations of each set.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        for k in range(SETS):
            results = [run_once(spec, workload, seed) for seed in SEEDS]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"{workload} set {k + 1}: correct={correct} "
                  f"failed {failed}/{attempted}", flush=True)
            set_medians = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                set_medians[name] = statistics.median(values)
                line = (f"  {name:<12} median {set_medians[name]:.4f} "
                        f"spread {spread(values):.3f} (bound {metric['bound']})")
                if medians:
                    worse = set_medians[name] / medians[0][name] - 1.0
                    line += f" vs set 1 {worse:+.3f}"
                print(line + "  values " + " ".join(f"{v:.4f}" for v in values),
                      flush=True)
            medians.append(set_medians)


if __name__ == "__main__":
    main()
