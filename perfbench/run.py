"""anisodisp benchmark: time to verified experiment results through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's INI inputs are made
from the seed, `anisodisp.cli.main` is driven in this process for whole
rounds of the same invocations until S seconds have passed (at least two
rounds), the outputs are checked against references computed here, and the
last line of standard output is one JSON object with the metrics.  With
--trace 1 untraced and traced rounds alternate and the per-layer metrics of
the traced rounds are reported instead of the end-to-end ones.
"""

import os
import sys

# BLAS/OpenMP pools are sized before numpy is imported, here and in the
# set-up subprocesses; no sweep runs with --jobs > 1.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_out")
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import anisodisp from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "anisodisp", "cli.py")):
        sys.exit(f"perfbench: no anisodisp sources under {SRC}")
    sys.path.insert(0, SRC)
    import anisodisp.cli

    if not os.path.abspath(anisodisp.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported anisodisp from {anisodisp.cli.__file__}")
    return anisodisp.cli


def measure_setup():
    """Import time of anisodisp and its CLI in fresh interpreters, each
    sample scaled by the reference import timed right after it; returns
    (reference-speed median, raw median)."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        t = reference.import_seconds("anisodisp.cli", SRC)
        r = reference.import_seconds(reference.REFERENCE_IMPORTS, SRC)
        raw.append(t)
        scaled.append(t * reference.IMPORT_NOMINAL_S / r)
    return statistics.median(scaled), statistics.median(raw)


def invoke(cli, inv, ini, out_dir):
    """One CLI invocation; returns (seconds, ok)."""
    argv = [inv.experiment, "--config", ini, "--out", out_dir]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    ok = code == 0 and buf.getvalue().rstrip().endswith("overall: PASS")
    if not ok:
        print(f"# invocation {inv.name} failed: exit {code}", file=sys.stderr)
    return elapsed, ok


def run_round(cli, invocations, inis, round_dir, kernel=None):
    """One round; with a reference `kernel`, each invocation's time is also
    scaled by the mean of the kernel times just before and after it."""
    times, scaled, failed, dirs = [], [], [], []
    before = kernel.seconds() if kernel else None
    for slot, (inv, ini) in enumerate(zip(invocations, inis)):
        out_dir = os.path.join(round_dir, inv.name)
        elapsed, ok = invoke(cli, inv, ini, out_dir)
        if kernel:
            after = kernel.seconds()
            scaled.append(elapsed * reference.KERNEL_NOMINAL_S / (0.5 * (before + after)))
            before = after
        times.append(elapsed)
        dirs.append(out_dir)
        if not ok:
            failed.append(slot)
    return {"times": times, "scaled": scaled, "failed": failed, "dirs": dirs}


def verify_outputs(invocations, rounds):
    """Content checks on the first round, byte identity across rounds, and
    the self-test that each check rejects a perturbed copy of its data."""
    first_dirs = rounds[0]["dirs"]
    checks = workloads.output_checks(invocations, first_dirs)
    for slot in range(len(invocations)):
        first = workloads.read_tree(first_dirs[slot])
        later = [workloads.read_tree(r["dirs"][slot]) for r in rounds[1:]]
        checks.append(workloads.identical_check(slot, first, later))
    bad_slots, correct = set(), True
    for check in checks:
        ok, detail = check.run()
        caught = check.rejects_perturbation()
        print(f"# check {check.name}: {'PASS' if ok else 'FAIL'} {detail}; "
              f"perturbed copy {'rejected' if caught else 'NOT rejected'}")
        if not ok:
            bad_slots.add(check.slot)
        correct = correct and ok and caught
    return correct, bad_slots


def provenance(args):
    import mpmath
    import numpy
    import scipy

    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "none"
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(rounds, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(sum(r["scaled"]) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }


def per_layer(tracer, traced, untraced, invocations):
    spans = tracer.summary()
    counts = tracer.counts
    n = len(traced)
    wall = sum(sum(r["times"]) for r in traced)

    def pct(seconds):
        return 100.0 * seconds / wall

    def total(name):
        return spans[name]["s"] if name in spans else 0.0

    def per_step(stepper, name):
        steps = counts[stepper + ".calls"]
        return counts[name + ".calls"] / steps if steps else 0.0

    lookups = counts["boussinesq.propagator.calls"]
    m = {
        "spectral.fft.calls": (counts["spectral.fft.calls"] / n, "count"),
        "spectral.fft.bytes": (counts["spectral.fft.bytes"] / n, "B"),
        "spectral.apply_multiplier.calls": (
            counts["spectral.apply_multiplier.calls"] / n, "count"),
        "semigroup.evolve_linear.calls": (
            counts["semigroup.evolve_linear.calls"] / n, "count"),
        "semigroup.bessel_j0.calls": (counts["semigroup.bessel_j0.calls"] / n, "count"),
        "oscillatory.quadrature_points": (
            counts["oscillatory.quadrature_points"] / n, "count"),
        "sqg.step.calls": (counts["sqg.step.calls"] / n, "count"),
        "sqg.nonlinear.calls": (counts["sqg.nonlinear.calls"] / n, "count"),
        "sqg.nonlinear_per_step": (per_step("sqg.step", "sqg.nonlinear"), "1/step"),
        "sqg.propagator.calls": (counts["sqg.propagator.calls"] / n, "count"),
        "sqg.propagator_per_step": (per_step("sqg.step", "sqg.propagator"), "1/step"),
        "boussinesq.step.calls": (counts["boussinesq.step.calls"] / n, "count"),
        "boussinesq.nonlinear.calls": (counts["boussinesq.nonlinear.calls"] / n, "count"),
        "boussinesq.propagator.hit_ratio": (
            counts["boussinesq.propagator.hits"] / lookups if lookups else 0.0, "ratio"),
        "harness.report_bytes": (counts["harness.report_bytes"] / n, "B"),
    }
    for name in ("spectral.fft", "spectral.apply_multiplier", "spectral.symbol",
                 "spectral.norms", "lp.besov_norm", "semigroup.evolve_linear",
                 "semigroup.sharpness_check", "semigroup.bessel_j0",
                 "oscillatory.kernel_direct", "oscillatory.split_bound", "sqg.step",
                 "sqg.nonlinear", "boussinesq.step", "boussinesq.nonlinear",
                 "harness.report_write", "cli.load_config"):
        m[name + ".pct"] = (pct(total(name)), "%")
    # everything a run loop spends outside its stepper
    m["sqg.diagnostics.pct"] = (
        pct(total("sqg.run_and_diagnose") - total("sqg.step")), "%")
    m["boussinesq.diagnostics.pct"] = (
        pct(total("boussinesq.stability_experiment") - total("boussinesq.step")), "%")
    for layer in LAYERS:
        self_s = sum(rec["self_s"] for name, rec in spans.items()
                     if name.split(".")[0] == layer)
        m[layer + ".self_pct"] = (pct(self_s), "%")
    for kind in ("sqg", "bouss", "lin_decay", "sharpness", "kernel"):
        s = sum(t for r in traced for inv, t in zip(invocations, r["times"])
                if inv.kind == kind)
        m[f"experiment.{kind}.pct"] = (pct(s), "%")
    traced_s = statistics.median(sum(r["times"]) for r in traced)
    untraced_s = statistics.median(sum(r["times"]) for r in untraced)
    m["trace.overhead"] = (traced_s / untraced_s, "x")
    return m, spans


def print_span_table(spans, n_rounds):
    print(f"# traced spans, per round ({n_rounds} traced rounds):")
    print("#   name                                calls     incl_s     self_s   p50_ms"
          "   p99_ms  samples")
    for name in sorted(spans):
        rec = spans[name]
        d = sorted(rec["durations"])
        p50 = 1e3 * statistics.median(d)
        p99 = 1e3 * d[min(len(d) - 1, int(0.99 * len(d)))]
        print(f"#   {name:<34} {rec['calls'] / n_rounds:>8.0f} "
              f"{rec['s'] / n_rounds:>10.4f} {rec['self_s'] / n_rounds:>10.4f} "
              f"{p50:>8.3f} {p99:>8.3f} {len(d):>8d}")


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    setup_s = kernel = None
    if not args.trace:
        setup_s, raw_setup = measure_setup()
        print(f"# setup: raw import median {raw_setup:.4f} s")
        kernel = reference.Kernel(workloads.REFERENCE_N[args.workload])

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    invocations = workloads.make_invocations(args.workload, args.seed)
    inis = workloads.write_inputs(invocations, args.seed, os.path.join(work, "inputs"))

    tracer = Tracer() if args.trace else None
    # Whole rounds until the time is up, at least three: run_s is their median,
    # which also drops a slow first round or one hit by a burst of host load.
    # A traced run starts with an untraced warm-up round, then alternates
    # untraced and traced rounds and ends on a pair.
    rounds, start = [], time.perf_counter()
    while len(rounds) < 3 or time.perf_counter() - start < args.seconds or (
            tracer and len(rounds) % 2 == 0):
        traced = bool(tracer) and len(rounds) > 0 and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            r = run_round(cli, invocations, inis,
                          os.path.join(work, f"round{len(rounds)}"), kernel)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(dict(r, traced=traced))
    metrics = end_to_end(rounds, setup_s) if not args.trace else None
    if metrics:
        raw_run = statistics.median(sum(r["times"]) for r in rounds)
        print(f"# run: raw round median {raw_run:.4f} s")

    correct, bad_slots = verify_outputs(invocations, rounds)
    attempted = len(rounds) * len(invocations)
    failed = sum(len(set(r["failed"]) | bad_slots) for r in rounds)

    print("# provenance: " + json.dumps(provenance(args), sort_keys=True))
    for i, r in enumerate(rounds):
        tag = " (warm-up)" if tracer and i == 0 else " traced" if r["traced"] else ""
        scaled = f" (reference-speed {sum(r['scaled']):.4f}s)" if r["scaled"] else ""
        print(f"# round {i}{tag}: " + ", ".join(
            f"{inv.name}={t:.4f}s" for inv, t in zip(invocations, r["times"])) + scaled)
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds[1:] if not r["traced"]]
        metrics, spans = per_layer(tracer, traced, untraced, invocations)
        print_span_table(spans, len(traced))
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
