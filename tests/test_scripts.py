"""The helper scripts under scripts/ still run against the library."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("command", [["lattice_memory.py", "--N", "64"],
                                     ["step_timing.py", "--steps", "1"]],
                         ids=["lattice_memory", "step_timing"])
def test_script_prints_its_table(command):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", *command[:1]),
                           *command[1:]], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("| --- |") and len(lines) > 3
    assert all(line.startswith("| ") and line.endswith(" |") for line in lines)
    assert len({line.count("|") for line in lines}) == 1  # every row has every column


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
