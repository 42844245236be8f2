"""The helper scripts under scripts/ still run against the library."""

import importlib.util
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
        assert len(lines) == 2 + 11  # the header and every phase and run
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
