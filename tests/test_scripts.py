"""The helper scripts under scripts/ still run against the library."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from anisodisp.harness import sweep_workers

ROOT = os.path.join(os.path.dirname(__file__), "..")


SWEEP_INI = """\
[experiment]
name = sweep
seed = 1

[grid]
N = 16
L = 10.0

[params]
target = bouss
eps_list = 0.04,0.02,0.01
t_final = 0.2
"""


def without_pythonpath():
    """The environment with no PYTHONPATH: each script puts its own
    checkout's src/ first on sys.path."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.mark.parametrize("command", [["lattice_memory.py", "--N", "64"],
                                     # a box below the lin-decay fit's L/4 >= 10
                                     ["lattice_memory.py", "--N", "64", "--L", "10"],
                                     ["step_timing.py", "--steps", "1"],
                                     ["sweep_pool.py", "{sweep}"]],
                         ids=["lattice_memory", "lattice_memory_small_box", "step_timing",
                              "sweep_pool"])
def test_script_prints_its_table(command, tmp_path):
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(SWEEP_INI)
    # run from elsewhere, so that neither the working directory nor a
    # PYTHONPATH finds the package
    proc = subprocess.run([sys.executable, os.path.join(os.path.abspath(ROOT), "scripts", command[0]),
                           *(arg.format(sweep=sweep) for arg in command[1:])],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path,
                          env=without_pythonpath())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("| --- |") and len(lines) > 3
    assert all(line.startswith("| ") and line.endswith(" |") for line in lines)
    assert len({line.count("|") for line in lines}) == 1  # every row has every column
    if command[0] == "lattice_memory.py":
        # the header, every phase and run, and the sqg and Boussinesq runs on one CPU
        assert len(lines) == 2 + 14
        assert [line.split(" | ")[0] for line in lines[-2:]] == [
            "| harness.run sqg on one CPU", "| stability_experiment on one CPU"]
    if command[0] == "step_timing.py":
        # each stepper at each N, timed with every CPU of this process and on one
        assert lines[0] == ("| stepper | N | ms per step (p25) | ms per step on one CPU (p25) "
                            "| minor faults per step | minor faults per step on one CPU |")
        assert [line.split(" | ")[:2] for line in lines[2:]] == [
            [f"| {name}", str(N)] for N in (64, 128, 256, 512)
            for name in ("sqg", "bouss stable", "bouss unstable")]
    if command[0] == "sweep_pool.py":
        # a row per --jobs up to the default pool, then one with no --jobs
        default = sweep_workers(3, len(os.sched_getaffinity(0)), 16)
        rows = [line.split(" | ")[:2] for line in lines[2:]]
        assert rows == [["| 1", "in-process"], *[[f"| {j}", str(j)] for j in range(2, default + 1)],
                        ["| none", "in-process" if default == 1 else str(default)]]


def test_sweep_pool_rejects_a_config_that_is_not_a_sweep(tmp_path):
    path = tmp_path / "sqg.ini"
    path.write_text(SWEEP_INI.replace("name = sweep", "name = sqg").replace(
        "target = bouss\neps_list = 0.04,0.02,0.01\n", ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "sweep_pool.py"),
                           str(path)], capture_output=True, text=True, timeout=60,
                          env=without_pythonpath())
    assert proc.returncode == 2 and proc.stdout == ""
    assert "not sweep" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", [["--N", "100"], ["--N", "4096"], ["--L", "0"], ["--L", "inf"]])
def test_lattice_memory_rejects_a_bad_grid(bad):
    """A grid the config would refuse is a usage error, exit 2, not a traceback."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "lattice_memory.py"),
                           *bad], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_report_identity_of_the_checkout_with_itself():
    """The kernel invocations (configs/kernel.ini and the linear-dispersion
    workload's at seeds 1-3) give the same bytes twice."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "report_identity.py"),
                           ROOT, ROOT, "--only", "kernel"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "4 of 4 invocations identical"
    assert all(line.startswith("same ") for line in lines[:-1])


def test_report_identity_runs_the_failure_paths():
    """The 4 invocations that fail on purpose exit as their comment says,
    with the same stderr line twice."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "report_identity.py"),
                           ROOT, ROOT, "--only", "failing/"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "same failing/cfl (exit 3 / 3)", "same failing/empty-fit-window (exit 3 / 3)",
        "same failing/quadrature-budget (exit 3 / 3)",
        "same failing/eps-out-of-range (exit 2 / 2)", "4 of 4 invocations identical"]


def test_report_identity_names_each_difference():
    spec = importlib.util.spec_from_file_location(
        "report_identity", os.path.join(ROOT, "scripts", "report_identity.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old = (0, b"overall: PASS\n", b"", {"out/report.csv": b"t\n1.0\n", "out/report.txt": b"a"})
    assert script.differences(old, old) == []
    new = (1, b"overall: FAIL\n", b"", {"out/report.csv": b"t\n1.1\n"})
    assert script.differences(old, new) == ["exit code", "stdout", "out/report.csv",
                                            "out/report.txt (only one tree)"]


CANNED_CALLS = []


def canned_perfbench(tree, workload, seed, seconds, cache, warm=False):
    """The stdout of a perfbench run, made up: the change's tree (which
    holds the uncommitted edit) reads 0.1 s faster at every seed but 3.
    Each call is noted in CANNED_CALLS."""
    with open(os.path.join(tree, "src.txt")) as fh:
        change = fh.read() == "edited\n"
    CANNED_CALLS.append((("change" if change else "parent"), seed, os.path.basename(cache), warm))
    run_s = 1.0 + 0.01 * seed - (0.1 if change and seed != 3 else 0.0)
    metrics = {"run_s": run_s, "peak_rss_mb": 90.0 + change, "setup_s": 0.15}
    return "\n".join([
        "# setup: raw import median 0.3000 s",
        f"# run: raw round median {run_s / 2:.4f} s",
        "# check lin_decay_slope: PASS slope=-0.5; perturbed copy rejected",
        *(f"# round {i}: lin-decay=0.1000s (reference-speed 0.4000s)" for i in range(3 + seed)),
        "# metric run_s = 1.0 s",
        json.dumps({"correct": True, "attempted": 9, "failed": 0,
                    "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}),
    ]) + "\n"


def test_bench_record_pairs_and_summarizes_canned_runs(tmp_path):
    """The recorder on a throwaway repository whose change is uncommitted,
    with canned perfbench output: one warm-up run per tree writes that
    tree's bytecode cache before the pairs, which read it; the trees
    alternate going first, each run keeps its final line and round count,
    and the summary counts the change's wins and takes each side's median
    and quartiles."""
    CANNED_CALLS.clear()
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    repo = tmp_path / "repo"
    repo.mkdir()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        (repo / "BENCHMARK.json").write_text(fh.read())
    (repo / "src.txt").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True, timeout=60)

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    (repo / "src.txt").write_text("edited\n")
    args = script.argparse.Namespace(parent="HEAD", pairs=4, seconds=1.0,
                                     workload=["linear-dispersion"])
    rec = json.loads(json.dumps(script.record(args, canned_perfbench, str(repo))))
    assert CANNED_CALLS[:2] == [("parent", 0, "pycache-parent", True),
                                ("change", 0, "pycache-change", True)]
    assert all(not warm and cache == f"pycache-{side}"
               for side, _, cache, warm in CANNED_CALLS[2:])
    assert len(CANNED_CALLS) == 2 + 2 * 4 and rec["bytecode"] == "warmed per tree"
    assert rec["change"]["uncommitted"] and rec["change"]["sha"] != rec["parent"]["sha"]
    assert rec["seeds"] == [1, 2, 3, 4] and rec["workloads"] == ["linear-dispersion"]
    assert set(rec["host"]) == {"cpu_affinity", "mem_available_kib", "numpy", "python"}
    runs = rec["runs"]
    assert [(r["pair"], r["side"]) for r in runs if r["first"]] == [
        (0, "parent"), (1, "change"), (2, "parent"), (3, "change")]
    assert [r["rounds"] for r in runs if r["side"] == "parent"] == [4, 5, 6, 7]
    assert all(r["result"]["correct"] for r in runs)
    table = rec["summary"]["linear-dispersion"]
    assert table["pairs"] == 4 and table["correct"] and table["failed"] == 0
    run_s = table["run_s"]
    assert run_s["change_wins"] == 3 and run_s["better"] == "lower"
    assert run_s["parent"]["values"] == pytest.approx([1.01, 1.02, 1.03, 1.04])
    assert run_s["parent"]["median"] == pytest.approx(1.025)
    assert (run_s["parent"]["q1"], run_s["parent"]["q3"]) == pytest.approx((1.0175, 1.0325))
    assert run_s["change"]["min"] == pytest.approx(0.91)
    assert table["peak_rss_mb"]["change_wins"] == 0 and table["setup_s"]["change_wins"] == 0
