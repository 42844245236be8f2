import ast
import concurrent.futures
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodisp import boussinesq, cli, harness, lp, spectral, sqg
from anisodisp.cli import main
from anisodisp.harness import (
    EXPERIMENTS,
    PARAMS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    load_config,
    make_profile,
    parse_params,
    run,
    sweep_workers,
)
from anisodisp.spectral import Grid2D, SpectralError, linf_norm
from conftest import count_calls, grid_arrays, hermitian_defect


KERNEL_INI = """\
[experiment]
name = kernel
seed = 1

[grid]
N = 16
L = 10.0

[params]
alpha = 1.0
times = 10,30
"""


EVOLUTION_INI = """\
[experiment]
name = {experiment}
seed = 1

[grid]
N = 16
L = 10.0

[params]
t_final = 0.1
dt = 0.05
n_outputs = 2
{extra}
"""


PARAMS_INI = EVOLUTION_INI.replace("t_final = 0.1\ndt = 0.05\nn_outputs = 2\n", "")


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config(tmp_path):
    cfg = load_config(write_config(tmp_path, KERNEL_INI))
    assert cfg.experiment == "kernel"
    assert cfg.N == 16 and cfg.L == 10.0 and cfg.seed == 1
    assert cfg.params["times"] == "10,30"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.ini")


def test_load_config_missing_name(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "[grid]\nN = 16\n"))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="warp-drive")


def test_config_hash_depends_on_params():
    a = ExperimentConfig(experiment="kernel", N=16, params={"alpha": "1.0"})
    b = ExperimentConfig(experiment="kernel", N=16, params={"alpha": "2.0"})
    assert a.hash() != b.hash()
    assert a.hash() == ExperimentConfig(
        experiment="kernel", N=16, params={"alpha": "1.0"}
    ).hash()


def test_make_profile_kinds():
    grid = Grid2D(32, 10.0)
    assert harness._PROFILES == ("gaussian", "random")
    for kind in harness._PROFILES:
        f = make_profile(grid, kind, seed=3, width=2.0, amplitude=0.5)
        assert f.coeffs[0, 0] == 0.0
        assert hermitian_defect(f) <= 1e-12
    for kind in ("bump", "shell", "sawtooth"):
        with pytest.raises(ConfigError):
            make_profile(grid, kind)
    # random profiles are normalized so amplitude is the sup norm
    f = make_profile(grid, "random", seed=3, amplitude=0.25)
    assert abs(linf_norm(f) - 0.25) <= 1e-12


def test_reports_byte_identical(tmp_path):
    cfg = load_config(write_config(tmp_path, KERNEL_INI))
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.csv_text() == r2.csv_text()
    assert r1.summary_text() == r2.summary_text()


def test_report_write(tmp_path):
    cfg = load_config(write_config(tmp_path, KERNEL_INI))
    rep = run(cfg)
    out = tmp_path / "out"
    rep.write(out)
    assert (out / "report.csv").exists()
    assert (out / "report.txt").exists()
    text = (out / "report.txt").read_text()
    assert "config_hash" in text
    assert text.endswith("PASS\n") or text.endswith("FAIL\n")


def test_report_all_passed_logic():
    rep = ExperimentReport(config=ExperimentConfig(experiment="kernel", N=16))
    rep.add_check("a", True)
    assert rep.all_passed()
    rep.add_check("b", False)
    assert not rep.all_passed()


def test_sweep_runs_members(tmp_path):
    ini = """\
[experiment]
name = sweep
seed = 1

[grid]
N = 32
L = 10.0

[params]
target = bouss
eps_list = 0.02,0.01
branch = stable
t_final = 0.5
dt = 0.05
n_outputs = 4
"""
    cfg = load_config(write_config(tmp_path, ini))
    rep = run(cfg)
    assert len(rep.subreports) == 2
    name, exits = rep.columns[1]
    assert name == "exit_time"
    assert exits == [0.5, 0.5]  # both censored on this tiny horizon
    assert "censored: 2 of 2\n" in rep.summary_text()


def _sweep_with_exits(monkeypatch, eps_list, exits):
    """A sweep over eps_list whose members' bootstrap exits are set by hand
    (None: no exit before t_final = 20)."""
    exit_of = dict(zip((float(e) for e in eps_list.split(",")), exits))

    def member(args):
        cfg, p, eps = args
        sub = ExperimentReport(config=cfg)
        sub.metadata["bootstrap_exit_time"] = exit_of[eps]
        return sub

    monkeypatch.setattr(harness, "_sweep_member", member)
    cfg = ExperimentConfig(experiment="sweep", N=16, L=10.0,
                           params={"eps_list": eps_list, "t_final": "20.0"})
    return run(cfg, jobs=1)  # the stub lives in this process only


@pytest.mark.parametrize("eps_list, exits, passed", [
    ("3.0,1.5,0.75", [8.0, None, None], True),
    ("0.75,1.5,3.0", [None, None, 8.0], True),
    ("1.5,0.75,3.0", [None, 9.0, 8.0], False),
    ("3.0,0.75,1.5", [8.0, 9.0, None], False),
    ("-3.0,1.5", [8.0, None], True),  # the perturbation size is |eps|
])
def test_sweep_check_reads_members_by_decreasing_eps(monkeypatch, eps_list, exits, passed):
    """The monotonicity verdict does not depend on the order of eps_list, and
    the rows keep that order."""
    rep = _sweep_with_exits(monkeypatch, eps_list, exits)
    eps = [float(e) for e in eps_list.split(",")]
    want = [20.0 if e is None else e for e in exits]
    assert rep.columns == [("eps", eps), ("exit_time", want)]
    assert rep.all_passed() == passed


@pytest.mark.parametrize("eps_list, exits, passed, vacuous", [
    ("0.04,0.02,0.01", [None, None, None], True, "3 of 3"),
    ("0.02", [None], True, "1 of 1"),
    ("0.02", [8.0], True, "0 of 1"),
    # one exit among censored members is a comparison, and can fail
    ("0.04,0.02,0.01", [8.0, None, None], True, None),
    ("0.04,0.02,0.01", [None, None, 8.0], False, None),
])
def test_sweep_check_says_when_it_compares_nothing(monkeypatch, eps_list, exits, passed,
                                                   vacuous):
    """With no member exiting before t_final, or a single member, the check
    compares nothing; its detail says so and its verdict stays a PASS."""
    (name, ok, detail), = _sweep_with_exits(monkeypatch, eps_list, exits).checks
    assert name == "exit_time_nondecreasing_as_eps_decreases" and ok == passed
    want = [20.0 if e is None else e for e in exits]
    assert detail == f"exits={want}" + (f"; vacuous: {vacuous} censored" if vacuous else "")


# ---------------------------------------------------------------------------
# CLI exit codes

def test_cli_pass_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_INI)
    code = main(["kernel", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("under", [None, "sub"])
def test_cli_unusable_out_exit_two(tmp_path, capsys, monkeypatch, under):
    """An --out that is a file, or a path under one, exits 2 with one line
    on stderr, before any experiment runs."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / under if under else blocker
    runs = count_calls(monkeypatch, cli, "run")
    path = write_config(tmp_path, KERNEL_INI)
    assert main(["kernel", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1


def test_cli_config_error_exit_two(tmp_path):
    assert main(["kernel", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_experiment_mismatch_exit_two(tmp_path):
    path = write_config(tmp_path, KERNEL_INI)
    assert main(["sharpness", "--config", path]) == 2


def test_cli_usage_error_exit_two(capsys):
    assert main(["no-such-experiment", "--config", "x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_exit_two(tmp_path, capsys, monkeypatch, jobs):
    """A --jobs below 1 is a usage error named on stderr, before any run."""
    runs = count_calls(monkeypatch, cli, "run")
    path = write_config(tmp_path, EVOLUTION_INI.format(
        experiment="sweep", extra="target = bouss\neps_list = 0.02,0.01"))
    assert main(["sweep", "--config", path, "--jobs", jobs,
                 "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert f"argument --jobs: must be at least 1, got {jobs}" in captured.err


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that a sweep of two or more members takes the pool
    on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_cli_pooled_member_failure_exit_three(tmp_path, capsys, two_cpus):
    """A member's CFLError reaches the CLI from a pool worker as it does from
    this process: exit 3 and the same one line on stderr."""
    path = write_config(tmp_path, EVOLUTION_INI.format(
        experiment="sweep", extra="target = sqg\neps_list = 5.0,0.01")
        .replace("N = 16", "N = 64").replace("t_final = 0.1\ndt = 0.05",
                                             "t_final = 1.0\ndt = 0.5"))
    errs = []
    for jobs in ([], ["--jobs", "1"]):
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"), *jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numeric failure: CFL violated")
        errs.append(captured.err)
    assert errs[0] == errs[1]


def _dying_member(args):
    os._exit(9)


def test_cli_dead_pool_worker_exit_three(tmp_path, capsys, monkeypatch, two_cpus):
    """A pool worker that dies, as one the kernel killed would, ends the sweep
    with exit 3 and one line on stderr, not a traceback.  The fork start
    method carries the patched member into the workers."""
    monkeypatch.setattr(harness, "_sweep_member", _dying_member)
    path = write_config(tmp_path, EVOLUTION_INI.format(
        experiment="sweep", extra="target = bouss\neps_list = 0.04,0.02,0.01"))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == ("numeric failure: a worker of the 3-process sweep pool died; "
                            "a smaller --jobs runs fewer members at once\n")


SQG_N256 = (EVOLUTION_INI.replace("N = 16", "N = 256")
            .replace("t_final = 0.1\ndt = 0.05", "t_final = 0.02\ndt = 0.01"))


def _member_counting_threads(args):
    """The sweep member, with the count of threads it started in its
    report's metadata."""
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(1)
        start(self)

    threading.Thread.start = counted
    try:
        rep = _SWEEP_MEMBER(args)
    finally:
        threading.Thread.start = start
    rep.metadata["threads_started"] = len(started)
    return rep


_SWEEP_MEMBER = harness._sweep_member


@pytest.mark.parametrize("jobs, started", [(None, [0, 0]), (1, [1, 1])],
                         ids=["pooled", "in-process"])
def test_only_an_in_process_sweep_member_starts_a_thread(tmp_path, monkeypatch, two_cpus,
                                                         jobs, started):
    """A sweep's pool workers fill the CPUs between them, so a member run in
    a pool worker steps serially and starts no thread, where a member run in
    this process (--jobs 1) holds a worker thread for its run at N = 256."""
    monkeypatch.setattr(harness, "_sweep_member", _member_counting_threads)
    path = write_config(tmp_path, SQG_N256.format(
        experiment="sweep", extra="target = sqg\nprofile = random\neps_list = 0.04,0.02"))
    rep = harness.run(load_config(path), jobs=jobs)
    assert [sub.metadata["threads_started"] for sub in rep.subreports] == started


def test_cli_memory_error_on_the_worker_exit_three(tmp_path, capsys, monkeypatch, two_cpus):
    """A MemoryError raised on an sqg run's worker thread reaches the CLI,
    which exits 3 with one line, and the thread is joined."""
    caller, irfft = threading.get_ident(), np.fft.irfft

    def failing(*args, **kwargs):
        if threading.get_ident() != caller:
            raise MemoryError("on the worker")
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", failing)
    before = threading.active_count()
    path = write_config(tmp_path, SQG_N256.format(experiment="sqg", extra="profile = random"))
    assert main(["sqg", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "out of memory: on the worker\n"
    assert threading.active_count() == before


# caps the child's address space at argv[1] MiB, which with numpy loaded
# spans about 105 MiB; "+M" caps it M MiB above what it spans with the CLI
# imported
OUT_OF_MEMORY_CHILD = """\
import os, resource, sys
cap = sys.argv.pop(1)
if cap.startswith("+"):
    import anisodisp.cli
    spans = os.sysconf("SC_PAGE_SIZE") * int(open("/proc/self/statm").read().split()[0])
    cap = int(cap) + (spans >> 20)
resource.setrlimit(resource.RLIMIT_AS, (int(cap) << 20, int(cap) << 20))
# two usable CPUs, so a sweep takes the pool and lin-decay a second thread
os.sched_getaffinity = lambda pid: {0, 1}
from anisodisp.cli import main
sys.exit(main(sys.argv[1:]))
"""
SQG_N2048 = (EVOLUTION_INI.replace("N = 16", "N = 2048")
              .replace("t_final = 0.1\ndt = 0.05", "t_final = 0.01\ndt = 0.005"))


@pytest.mark.parametrize("experiment, text, cap, jobs", [
    ("sqg", SQG_N2048.format(experiment="sqg", extra="profile = random"), "400", []),
    ("sweep", SQG_N2048.format(experiment="sweep",
                               extra="target = sqg\nprofile = random\neps_list = 0.04,0.02"),
     "400", ["--jobs", "2"]),
    ("lin-decay", PARAMS_INI.format(
        experiment="lin-decay", extra="alpha = 1.0\nt_lo = 10.0\nt_hi = 100.0\nn_times = 12")
     .replace("N = 16\nL = 10.0", "N = 2048\nL = 400.0"), "+96", []),
], ids=["in-process", "pooled", "lin-decay-threads"])
def test_cli_out_of_memory_exit_three(tmp_path, experiment, text, cap, jobs):
    """A run that cannot get its arrays exits 3 with one stderr line, not a
    traceback, whether the MemoryError is raised in the CLI's process or in
    a sweep's pool worker.  The child runs an sqg run at N = 2048 (about
    1 GB) under `RLIMIT_AS` of 400 MiB, which limits that process and the
    workers it forks alone, so the run fails without taking the memory.  A
    lin-decay run at N = 2048 (about 100 MiB) with 96 MiB of room gets
    through its evolved sups, on two threads, and fails in its Besov shells;
    a thread that cannot get its stack leaves its share to the caller."""
    path = write_config(tmp_path, text)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY_CHILD, cap, experiment, "--config", path,
         "--out", str(tmp_path / "o"), *jobs], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("out of memory: ") and proc.stderr.count("\n") == 1


def test_cli_bare_memory_error_exit_three(tmp_path, capsys, monkeypatch):
    """A MemoryError with no message still gives one line that names it."""
    def no_memory(cfg, jobs=None):
        raise MemoryError

    monkeypatch.setattr(cli, "run", no_memory)
    assert main(["kernel", "--config", write_config(tmp_path, KERNEL_INI),
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "out of memory: an allocation failed\n"


def test_cli_numeric_failure_exit_three(tmp_path):
    ini = """\
[experiment]
name = sqg
seed = 1

[grid]
N = 32
L = 10.0

[params]
eps = 0.05
t_final = 100.0
dt = 50.0
"""
    path = write_config(tmp_path, ini)
    assert main(["sqg", "--config", path, "--out", str(tmp_path / "o")]) == 3


def _poison_after_first_step(monkeypatch):
    """From the second step on, every `nonlinear` of an sqg run returns NaN."""
    original = sqg._Workspace.nonlinear
    calls = []

    def poisoned(self, c):
        calls.append(1)
        rhs, umax = original(self, c)
        return (rhs * np.nan if len(calls) > 4 else rhs), umax

    monkeypatch.setattr(sqg._Workspace, "nonlinear", poisoned)


@pytest.mark.parametrize("blow_up", [
    # a cap below 1 stops the run at its first step
    lambda monkeypatch: monkeypatch.setattr(sqg, "NORM_CAP", 0.5),
    _poison_after_first_step,
], ids=["norm_cap", "nan"])
def test_cli_sqg_blowup_fails_its_check(tmp_path, capsys, monkeypatch, blow_up):
    """A blow-up, by the norm cap or by a NaN step, ends the run loop with
    `blew_up` set: the sqg run fails `no_blowup` and exits 1, with no
    traceback and no numeric failure."""
    blow_up(monkeypatch)
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment="sqg", extra=""))
    assert main(["sqg", "--config", path, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "blew_up: True\n" in captured.out
    assert "check no_blowup: FAIL\n" in captured.out


def test_cli_trimmed_fit_window_exit_three(tmp_path, capsys):
    """The wrap-around cap L/4 = 10 leaves one fit point: a numeric failure."""
    ini = "[experiment]\nname = lin-decay\n\n[grid]\nN = 64\nL = 40.0\n"
    path = write_config(tmp_path, ini)
    assert main(["lin-decay", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure: need at least 5 points" in capsys.readouterr().err


def test_cli_fit_window_error_has_plain_floats(tmp_path, capsys):
    """The window's end comes from a numpy array; its numpy-2 repr
    "np.float64(...)" must not reach the error line."""
    ini = ("[experiment]\nname = lin-decay\n\n[grid]\nN = 64\nL = 40.0\n\n"
           "[params]\nt_lo = 1\nt_hi = 10\nn_times = 6\n")
    path = write_config(tmp_path, ini)
    assert main(["lin-decay", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: need at least 5 points in window (10.0, 10.0)\n"


@pytest.mark.parametrize("L, params, bound", [
    ("20.0", "", "L/4 = 5.0"),
    ("400.0", "t_lo = 1\nt_hi = 5\nn_times = 6", "t_hi = 5.0"),
])
def test_cli_empty_fit_window_names_its_bound(tmp_path, capsys, L, params, bound):
    """A wrap-around cap L/4 or a t_hi below the fit's start t = 10 leaves no
    fit point; the error says which."""
    ini = f"[experiment]\nname = lin-decay\n\n[grid]\nN = 64\nL = {L}\n\n[params]\n{params}\n"
    path = write_config(tmp_path, ini)
    assert main(["lin-decay", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: empty fit window: {bound} lies below its start t = 10.0\n"


@pytest.mark.parametrize("line, bad", [
    ("N = 16", "N = abc"),
    ("N = 16", "N = 100"),
    ("L = 10.0", "L = -1"),
    ("L = 10.0", "L = nan"),
    ("L = 10.0", "L = inf"),
    # the floats just outside [1e-10, 1e10]
    ("L = 10.0", "L = 9.999999999999999e-11"),
    ("L = 10.0", "L = 10000000000.000002"),
    ("seed = 1", "seed = x"),
    ("alpha = 1.0", "alpha = 3"),
    ("times = 10,30", "times = 10,x"),
    ("times = 10,30", "times = 0,10"),
])
def test_cli_malformed_grid_exit_two(tmp_path, capsys, line, bad):
    assert line in KERNEL_INI
    path = write_config(tmp_path, KERNEL_INI.replace(line, bad))
    assert main(["kernel", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "grid.L must lie in [1e-10, 1e10]" in err or not bad.startswith("L =")


def _record_grids(monkeypatch):
    """The Grid2D objects the harness builds from here on."""
    grids = []

    class Recorded(Grid2D):
        def __init__(self, N, L):
            super().__init__(N, L)
            grids.append(self)

    monkeypatch.setattr(harness, "Grid2D", Recorded)
    return grids


# a short run of each experiment but the sweep, on N = 64, L = 100
SHORT_RUNS = {
    "lin-decay": {"t_hi": "20.0"},
    "sharpness": {"t_hi": "30.0", "n_times": "20"},
    "kernel": {"times": "10,30"},
    "sqg": {"t_final": "0.1", "dt": "0.05", "n_outputs": "2"},
    "bouss": {"t_final": "0.1", "dt": "0.05", "n_outputs": "2"},
}


@pytest.mark.parametrize("experiment", SHORT_RUNS)
def test_runs_keep_only_wavenumbers_on_the_grid(monkeypatch, experiment):
    """Each lattice array a run reads is built where it is used, so after the
    run its grid (the kernel run makes none) keeps no array but `k` and `x`."""
    grids = _record_grids(monkeypatch)
    run(ExperimentConfig(experiment=experiment, N=64, L=100.0, params=SHORT_RUNS[experiment]))
    assert len(grids) == (experiment != "kernel")
    assert all(grid_arrays(grid) == ["k", "x"] for grid in grids)


# the CSV header of each experiment's report: the benchmark's checks read
# columns of these by name
HEADERS = {
    "lin-decay": "t,linf,fitted_slope",
    "sharpness": "t,origin_value,radial_reference,envelope",
    "kernel": "t,kernel_abs,lambda_min,budget_at_tinvhalf",
    "sqg": "t,H_s,L2,gradU_inf,gradTheta_inf,integral,envelope",
    "bouss": "t,Hs_omega,Hs1_rho,E_total,gradU_inf,gradRho_inf,integral",
    "sweep": "eps,exit_time",
}


@pytest.mark.parametrize("experiment", HEADERS)
def test_report_columns_are_pinned(experiment):
    """Each report's header, a sweep's members' included; a Boussinesq
    report's initial exit-functional norms are its first record's."""
    params = SHORT_RUNS.get(experiment) or dict(SHORT_RUNS["bouss"], target="bouss",
                                               eps_list="0.02,0.01")
    rep = run(ExperimentConfig(experiment=experiment, N=64, L=100.0, params=params), jobs=1)
    assert rep.csv_text().splitlines()[0] == HEADERS[experiment]
    assert [sub.csv_text().splitlines()[0] for sub in rep.subreports] == (
        [HEADERS["bouss"]] * 2 if experiment == "sweep" else [])
    if experiment == "bouss":
        first = dict(zip(HEADERS["bouss"].split(","), rep.csv_text().splitlines()[1].split(",")))
        summary = rep.summary_text()
        assert f"initial_omega_H4d: {first['Hs_omega']}\n" in summary
        assert f"initial_rho_H5g: {first['Hs1_rho']}\n" in summary


def traced_run_peak(cfg):
    """The traced memory peak of `run(cfg)`, in bytes."""
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lin_decay_run_memory_bounded():
    """A whole lin-decay run at N = 1024 holds its profile's half spectrum
    (8 MiB) and at most about as much again: the profile's full spectrum is
    never built, every lattice array is built per use, and the row passes
    run in row blocks.  The traced peak stays below 24 MiB (29.1 MiB with
    the profile's full spectrum built, 64.2 with cached lattice arrays and
    whole-array row passes)."""
    cfg = ExperimentConfig(experiment="lin-decay", N=1024, L=400.0)
    assert traced_run_peak(cfg) < 24 << 20


def test_lin_decay_run_builds_no_full_spectrum(monkeypatch):
    """lin-decay reads its profile on the half lattice alone, so a whole run
    never calls `full_spectrum`."""
    calls = [count_calls(monkeypatch, m, "full_spectrum")
             for m in (spectral, lp, sqg, boussinesq)]
    run(ExperimentConfig(experiment="lin-decay", N=64, L=100.0,
                         params={"t_hi": "20.0", "n_times": "5"}))
    assert calls == [[]] * 4


def test_sqg_run_memory_bounded():
    """An sqg run at N = 512 (random profile, 4 steps, 2 records) holds one
    copy of its initial data, the masked one: the traced peak stays below
    49 MiB (50.8 MiB with the profile and an unmasked copy kept)."""
    cfg = ExperimentConfig(experiment="sqg", N=512, L=10.0, params={
        "profile": "random", "t_final": "0.02", "dt": "0.005", "n_outputs": "2"})
    assert traced_run_peak(cfg) < 49 << 20


def test_sharpness_run_memory_bounded():
    """A whole sharpness run at N = 1024 takes each coefficient's modulus once
    in the origin sum: the traced peak stays below 36 MiB (40.2 MiB with two
    (N, N) moduli)."""
    cfg = ExperimentConfig(experiment="sharpness", N=1024, L=400.0)
    assert traced_run_peak(cfg) < 36 << 20


def test_config_builds_no_grid(tmp_path, monkeypatch, capsys):
    """N and L are checked without a Grid2D, and a bad one still exits 2."""
    grids = _record_grids(monkeypatch)
    ExperimentConfig(experiment="lin-decay", N=1024, L=400.0)
    assert main(["kernel", "--config", write_config(tmp_path, KERNEL_INI),
                 "--out", str(tmp_path / "o")]) == 0
    for line, bad in (("N = 16", "N = 100"), ("L = 10.0", "L = 0")):
        path = write_config(tmp_path, KERNEL_INI.replace(line, bad))
        assert main(["kernel", "--config", path]) == 2
    assert grids == []
    assert capsys.readouterr().err.count("config error") == 2


@pytest.mark.parametrize("experiment, params", [
    ("lin-decay", {"t_lo": "10.0", "t_hi": "40.0", "n_times": "5"}),
    ("sharpness", {"t_lo": "5.0", "t_hi": "20.0", "n_times": "20"}),
    ("sqg", {"t_final": "0.2", "dt": "0.05", "n_outputs": "4"}),
])
def test_report_numbers_are_plain_floats(tmp_path, experiment, params):
    """numpy scalars must not leak their repr ("np.float64(...)") into reports."""
    N, L = (32, 10.0) if experiment == "sqg" else (128, 200.0)
    cfg = ExperimentConfig(experiment=experiment, N=N, L=L, params=params)
    run(cfg).write(str(tmp_path))
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)
    for name in ("report.csv", "report.txt"):
        assert "np." not in (tmp_path / name).read_text()


@pytest.mark.parametrize("experiment", ["sqg", "bouss", "sweep"])
@pytest.mark.parametrize("line, bad", [
    ("dt = 0.05", "dt = 0"),
    ("dt = 0.05", "dt = -0.1"),
    ("dt = 0.05", "dt = abc"),
    ("dt = 0.05", "dt = nan"),
    ("dt = 0.05", "dt = inf"),
    ("dt = 0.05", "dt = 0.07"),
    ("t_final = 0.1", "t_final = -1"),
    ("t_final = 0.1", "t_final = 0"),
    ("t_final = 0.1", "t_final = inf"),
    ("t_final = 0.1", "t_final = 0.12"),
    ("n_outputs = 2", "n_outputs = 0"),
    ("n_outputs = 2", "n_outputs = two"),
])
def test_cli_bad_time_params_exit_two(tmp_path, capsys, experiment, line, bad):
    ini = EVOLUTION_INI.format(experiment=experiment, extra="")
    assert line in ini
    path = write_config(tmp_path, ini.replace(line, bad))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(rf"params\.{bad.split()[0]}\b", err)


@pytest.mark.parametrize("experiment, extra", [
    ("lin-decay", "alpha = 3"),
    ("lin-decay", "width = 0"),
    ("lin-decay", "t_lo = 0"),
    ("lin-decay", "t_lo = 40\nt_hi = 40"),
    ("sqg", "profile = bump"),
    ("sqg", "profile = shell"),
    ("sqg", "alpha = 0"),
    ("sqg", "alpha = nan"),
    ("sqg", "width = 0"),
    ("bouss", "eps = 0.5"),
    ("sweep", "target = bouss\neps_list = 0.02,0.5"),
    ("sweep", "eps_list = a,b"),
    ("lin-decay", "n_times = 0"),
    ("lin-decay", "n_times = 1"),
    ("lin-decay", "n_times = 2"),
    ("sharpness", "n_times = 0"),
    ("sharpness", "t_lo = -5"),
    ("sharpness", "t_lo = 0"),
    ("sharpness", "t_hi = 0"),
    ("sharpness", "t_lo = 50\nt_hi = 30"),
    ("sweep", "target = kernel"),
    ("sweep", "target = lin-decay"),
    ("kernel", "times = 0.5"),
    # finite values whose squares or quotients overflow
    ("lin-decay", "width = 1e300"),
    ("lin-decay", "width = 1e-200"),
    ("sqg", "width = 1e300"),
    ("sqg", "eps = 1e300"),
    ("sweep", "eps_list = 0.02,-1e300"),
    # so wide a profile is constant on the grid, and zero once its mean is removed
    ("lin-decay", "width = 1e100"),
    ("sqg", "width = 1e100"),
])
def test_cli_out_of_range_param_exit_two(tmp_path, capsys, experiment, extra):
    """Each case holds only its experiment's keys, and the error names the
    key of its last line."""
    key = extra.splitlines()[-1].split(" =")[0]
    template = EVOLUTION_INI if experiment in ("sqg", "bouss", "sweep") else PARAMS_INI
    path = write_config(tmp_path, template.format(experiment=experiment, extra=extra))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(rf"params\.{key}\b", err)


@pytest.mark.parametrize("experiment, extra", [
    ("lin-decay", "t_finall = 3"),
    ("sharpness", "alpha = 1.0"),
    ("kernel", "width = 1.0"),
    ("sqg", "dealias = 0.5"),
    ("bouss", "profile = random"),
    ("sweep", "branch = unstable"),  # an sqg target has no branch
    ("sweep", "target = bouss\neps = 0.02"),  # eps_list sets each member's eps
    # fixed values, not keys: a config that sets one, even to the value the
    # run uses, exits 2
    ("kernel", "n_lambda = 30"),
    ("kernel", "lambda_lo = 0.02"),
    ("kernel", "lambda_hi = 1.0"),
    ("sharpness", "width = 1.0"),
    ("sharpness", "profile = shell"),
    ("lin-decay", "profile = gaussian"),
    ("sqg", "delta = 0.5"),
    ("bouss", "delta = 0.5"),
    ("bouss", "gamma = 0.5"),
])
def test_cli_unknown_param_exit_two(tmp_path, capsys, experiment, extra):
    key = extra.splitlines()[-1].split(" =")[0]
    template = EVOLUTION_INI if experiment in ("sqg", "bouss", "sweep") else PARAMS_INI
    path = write_config(tmp_path, template.format(experiment=experiment, extra=extra))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: unknown params {key}\n" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    KERNEL_INI + "alpha = 2.0\n",  # a duplicated key
    KERNEL_INI.replace("times = 10,30", "times = 10%"),  # an interpolation
    "alpha = 1.0\n" + KERNEL_INI,  # a key before any section
])
def test_cli_unparsable_ini_exit_two(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    assert main(["kernel", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: malformed config file" in capsys.readouterr().err


def test_cli_unknown_branch_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment="bouss",
                                                       extra="branch = stabel"))
    assert main(["bouss", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_sweep_member_config_error_exit_two(tmp_path, capsys):
    ini = EVOLUTION_INI.format(experiment="sweep",
                               extra="target = bouss\neps_list = 0.02,0.01")
    path = write_config(tmp_path, ini.replace("dt = 0.05", "dt = 0"))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, extra, key", [
    ("sqg", "dt = 1e-300", "dt"),
    ("bouss", "dt = 1e-300", "dt"),
    ("sweep", "dt = 1e-300", "dt"),
    ("sqg", "n_outputs = 100001", "n_outputs"),
    ("bouss", "n_outputs = 100001", "n_outputs"),
    ("lin-decay", "n_times = 100001", "n_times"),
    ("sharpness", "n_times = 100001", "n_times"),
    ("sharpness", "t_lo = 20\nt_hi = 62521", "t_hi"),
    # counts too large to print in full, and one that overflows to inf
    ("sqg", "t_final = 1e300", "t_final"),
    ("sharpness", "t_hi = 1e300", "t_hi"),
    ("sharpness", "t_hi = 1e308", "t_hi"),
])
def test_cli_unbounded_work_exit_two(tmp_path, capsys, experiment, extra, key):
    """A config that asks for more than the bounded work exits 2 before any
    of it runs, naming the key on one short line."""
    # the template line of the key the case sets is dropped
    template = EVOLUTION_INI if experiment in ("sqg", "bouss", "sweep") else PARAMS_INI
    ini = re.sub(rf"^{extra.split(' =')[0]} = .*\n", "", template, flags=re.M)
    path = write_config(tmp_path, ini.format(experiment=experiment, extra=extra))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(rf"params\.{key}\b", err)
    assert err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("experiment, N", [
    ("lin-decay", 4096), ("lin-decay", 8192), ("sqg", 8192), ("bouss", 1048576)])
def test_cli_grid_above_max_n_exit_two(tmp_path, capsys, monkeypatch, experiment, N):
    """A grid above MAX_N exits 2 naming grid.N, before the run starts; a run
    that does start fails the test at once, so none of these grids is built."""
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("the run started"))
    ini = (PARAMS_INI if experiment == "lin-decay" else EVOLUTION_INI).format(
        experiment=experiment, extra="")
    path = write_config(tmp_path, ini.replace("N = 16", f"N = {N}"))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: grid.N must be at most 2048, got {N}\n"


@pytest.mark.parametrize("experiment, extra", [
    ("sqg", "eps = 0.0\nprofile = gaussian"),
    ("sqg", "eps = 0.0\nprofile = random"),
    ("sweep", "target = sqg\neps_list = 0.02,0"),
])
def test_cli_sqg_zero_eps_runs(tmp_path, capsys, experiment, extra):
    """An sqg eps of 0 is a zero field, whichever the profile: the run exits 0.
    The gaussian profile's width check reads the shape, not the scaled field."""
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment=experiment, extra=extra))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_every_error_is_a_config_or_a_spectral_error():
    """The exit code comes from the error's type alone: every exception class
    the package defines is ConfigError or a SpectralError, and every raise in
    src/ names such a class (a bare raise or a re-raise of a caught error is
    fine)."""
    def allowed(cls):
        return cls is ConfigError or issubclass(cls, SpectralError)

    pkg = os.path.dirname(harness.__file__)
    modules = [importlib.import_module(f"anisodisp.{name[:-3]}")
               for name in sorted(os.listdir(pkg)) if name.endswith(".py")]
    defined = [obj for m in modules for obj in vars(m).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == m.__name__]
    assert ConfigError in defined and SpectralError in defined
    bad = [cls.__name__ for cls in defined if not allowed(cls)]
    raises = 0
    for m in modules:
        with open(m.__file__) as fh:
            tree = ast.parse(fh.read())
        caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id in caught:
                continue
            raises += 1
            # the raised name, dotted or not, looked up as the module sees it
            cls = eval(ast.unparse(target), vars(m))
            if not allowed(cls):
                bad.append(f"{m.__name__}:{node.lineno} raises {cls.__name__}")
    assert raises > 50 and bad == []


def _named(path):
    """(name, line) of each name, attribute, imported name and identifier
    string in a Python file; the strings are the attributes that the
    benchmark's tracer looks up by name."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_no_public_name_in_src_is_only_for_the_unit_tests():
    """Every public top-level function and class of the package, and every
    public method, is named outside its own definition in src/, scripts/,
    perfbench/ or the acceptance tests: what only the unit tests call
    belongs in the tests."""
    root = os.path.join(os.path.dirname(__file__), "..")

    def py_files(*parts):
        folder = os.path.join(root, *parts)
        return [os.path.join(folder, n) for n in sorted(os.listdir(folder)) if n.endswith(".py")]

    src = py_files("src", "anisodisp")
    users = src + py_files("scripts") + py_files("perfbench")
    users.append(os.path.join(root, "tests", "test_acceptance.py"))
    uses = {}  # name -> [(path, line)]
    for path in users:
        for name, line in _named(path):
            uses.setdefault(name, []).append((path, line))
    public, unused = 0, []
    for path in src:
        with open(path) as fh:
            body = ast.parse(fh.read()).body
        defs = [(node.name, node) for node in body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{cls.name}.{node.name}", node) for cls in body
                 if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualname, node in defs:
            if node.name.startswith("_"):
                continue
            public += 1
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in uses.get(node.name, [])):
                unused.append(f"{os.path.basename(path)[:-3]}.{qualname}")
    assert public > 100
    assert unused == []


def test_max_n_is_inclusive():
    """MAX_N itself passes the check; nothing is built or run here."""
    assert harness.MAX_N == 2048
    assert ExperimentConfig(experiment="lin-decay", N=2048, L=400.0).N == 2048


@pytest.mark.parametrize("experiment, N", [("sqg", 16), ("sqg", 64)])
def test_cli_random_profile_underflow_exit_two(tmp_path, capsys, experiment, N):
    """A random profile whose envelope underflows on every mode but the mean
    is zero after the mean is removed; it exits 2 naming params.width."""
    ini = EVOLUTION_INI.format(experiment=experiment, extra="profile = random\nwidth = 0.001")
    path = write_config(tmp_path, ini.replace("N = 16", f"N = {N}"))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: params.width = 0.001 ")


@pytest.mark.parametrize("experiment, params, ok", [
    ("sqg", {"t_final": "100", "dt": "0.0001"}, True),  # 1,000,000 steps
    ("bouss", {"t_final": "100", "dt": "0.00005"}, False),
    ("sharpness", {"t_lo": "20", "t_hi": "62520"}, True),  # 1,000,000 scan points
    ("sharpness", {"t_lo": "20", "t_hi": "62520.5"}, False),
])
def test_work_bounds_are_inclusive(experiment, params, ok):
    if ok:
        parse_params(experiment, params)
    else:
        with pytest.raises(ConfigError):
            parse_params(experiment, params)


@pytest.mark.parametrize("experiment", ["sqg", "bouss"])
def test_cli_valid_time_params_run(tmp_path, capsys, experiment):
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment=experiment, extra=""))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("experiment", ["sqg", "bouss"])
def test_cli_long_run_writes_every_output(tmp_path, capsys, experiment):
    """1,000 steps give the 10 outputs and t = 0, each time exactly its step
    count times dt (a running sum of dt reads 99.9999999999986 at t = 100)."""
    ini = EVOLUTION_INI.format(experiment=experiment, extra="n_outputs = 10")
    ini = ini.replace("t_final = 0.1\ndt = 0.05\nn_outputs = 2\n", "t_final = 100\ndt = 0.1\n")
    path = write_config(tmp_path, ini)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    times = [float(line.split(",")[0])
             for line in (tmp_path / "o" / "report.csv").read_text().splitlines()[1:]]
    assert times == [10.0 * k for k in range(11)]


@pytest.mark.parametrize("text, named", [
    (KERNEL_INI.replace("[params]", "[param]").replace("alpha = 1.0", "alpha = 1.5"),
     "unknown section [param]"),
    (KERNEL_INI.replace("L = 10.0", "L = 10.0\ndx = 0.1"), "unknown grid keys dx"),
    (KERNEL_INI.replace("seed = 1", "seed = 1\nseeds = 2"), "unknown experiment keys seeds"),
    (PARAMS_INI.format(experiment="lin-decay", extra="").replace(
        "seed = 1", "seed = -1"), "experiment.seed must be >= 0, got -1"),
], ids=["params-misspelt", "grid-key", "experiment-key", "negative-seed"])
def test_cli_unknown_section_or_key_exit_two(tmp_path, capsys, text, named):
    experiment = text.split("name = ")[1].split()[0]
    path = write_config(tmp_path, text)
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {named}\n" in capsys.readouterr().err


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every entry point the benchmark's tracer wraps still exists, so renaming
    one fails here and not at the next traced benchmark run."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, *_ in tracing._targets():
        assert attr in owner.__dict__, (owner, attr)


TRACED_RUNS = {
    "lin-decay": PARAMS_INI.format(experiment="lin-decay", extra="t_hi = 20.0\nn_times = 5")
    .replace("N = 16\nL = 10.0", "N = 64\nL = 100.0"),
    "sharpness": PARAMS_INI.format(experiment="sharpness", extra="t_hi = 30.0\nn_times = 20")
    .replace("N = 16\nL = 10.0", "N = 64\nL = 100.0"),
    "kernel": KERNEL_INI.replace("times = 10,30", "times = 10"),
    "sqg": EVOLUTION_INI.format(experiment="sqg", extra=""),
    "bouss": EVOLUTION_INI.format(experiment="bouss", extra=""),
    "sweep": EVOLUTION_INI.format(experiment="sweep", extra="target = bouss\neps_list = 0.02,0.01"),
}


@pytest.mark.parametrize("experiment", TRACED_RUNS)
def test_runs_load_no_scipy(tmp_path, experiment):
    """Every transform is numpy's and J0 is computed in the package, so a run
    of each experiment through the CLI's modules loads no part of scipy."""
    path = write_config(tmp_path, TRACED_RUNS[experiment])
    code = ("import sys; from anisodisp.cli import load_config, run; "
            "run(load_config(sys.argv[1])); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module, top, loaded", [
    ("anisodisp.spectral", "anisodisp", ["anisodisp", "anisodisp.spectral"]),
    ("anisodisp.cli", "multiprocessing", []),
])
def test_import_loads_only_what_it_uses(module, top, loaded):
    """In a fresh interpreter: the package re-exports nothing, so a module
    loads no other module of it that it does not import; and the process
    pool, which loads multiprocessing, is imported only by a sweep that uses it."""
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


# an sqg run at N = 128 and a 1000-time sharpness scan at N = 256 are big
# enough for OpenBLAS to split a dot or a matrix-vector product across threads
BLAS_RUNS = {
    "sqg": EVOLUTION_INI.format(experiment="sqg", extra="profile = random\nwidth = 2.0")
    .replace("N = 16", "N = 128"),
    "sharpness": PARAMS_INI.format(experiment="sharpness", extra="t_hi = 40.0\nn_times = 1000")
    .replace("N = 16\nL = 10.0", "N = 256\nL = 400.0"),
}


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    """A BLAS sum split across threads moves its last digits with the thread
    count; the package sums with numpy, so the reports are byte-identical
    under one and two OpenBLAS threads."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        for experiment, text in BLAS_RUNS.items():
            path = write_config(tmp_path, text, name=f"{experiment}.ini")
            proc = subprocess.run(
                [sys.executable, "-m", "anisodisp.cli", experiment, "--config", path,
                 "--out", str(out / experiment)], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
        reports.append({p.relative_to(out): p.read_bytes() for p in out.rglob("report.*")})
    assert len(reports[0]) == 4
    assert reports[0] == reports[1]


# lin-decay at the size of its config, and at alpha = 1.5 with six times on a
# larger box, where the Besov shells take about half the run; the kernel and
# the sharpness check at the sizes of their configs; an sqg and a Boussinesq
# run at N = 256, four steps and two outputs each, whose transport terms and
# gradient sups split between two threads
CPU_RUNS = {
    "lin-decay": ("lin-decay", PARAMS_INI.format(
        experiment="lin-decay", extra="alpha = 1.0\nt_lo = 10.0\nt_hi = 100.0\nn_times = 12")
        .replace("N = 16\nL = 10.0", "N = 1024\nL = 400.0")),
    "besov": ("lin-decay", PARAMS_INI.format(
        experiment="lin-decay", extra="alpha = 1.5\nt_lo = 10.0\nt_hi = 150.0\nn_times = 6")
        .replace("N = 16\nL = 10.0", "N = 1024\nL = 800.0")),
    "kernel": ("kernel", PARAMS_INI.format(experiment="kernel",
                                           extra="alpha = 1.0\ntimes = 10,30,100")),
    "sharpness": ("sharpness", PARAMS_INI.format(
        experiment="sharpness", extra="t_lo = 20.0\nt_hi = 100.0\nn_times = 400")
        .replace("N = 16\nL = 10.0", "N = 512\nL = 400.0")),
    "sqg": ("sqg", EVOLUTION_INI.format(experiment="sqg", extra="profile = random\nwidth = 2.0")
            .replace("N = 16", "N = 256").replace("t_final = 0.1\ndt = 0.05",
                                                  "t_final = 0.04\ndt = 0.01")),
    "bouss": ("bouss", EVOLUTION_INI.format(experiment="bouss", extra="branch = unstable")
              .replace("N = 16", "N = 256").replace("t_final = 0.1\ndt = 0.05",
                                                    "t_final = 0.04\ndt = 0.01")),
}
# pins the child, and nothing else, to the CPU given as argv[1], if any
PINNED_CHILD = """\
import os, sys
cpu = sys.argv.pop(1)
if cpu:
    os.sched_setaffinity(0, {int(cpu)})
from anisodisp.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_reports_do_not_depend_on_the_cpu_count(tmp_path):
    """lin-decay's row passes, the kernel's quadrature blocks and the
    transport terms and gradient sups of sqg and Boussinesq runs at N = 256
    take a second thread when the process may use two CPUs and run serially
    on one; either way each value is computed alone, and each sum is taken
    in one order, so the reports of a child pinned to one CPU and of an
    unpinned one are byte-identical.  The sharpness check, whose J0 values
    come in blocks of times, runs alongside."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    reports = []
    for cpu in (str(min(os.sched_getaffinity(0))), ""):
        out = tmp_path / f"cpu{cpu}"
        for name, (experiment, text) in CPU_RUNS.items():
            path = write_config(tmp_path, text, name=f"{name}.ini")
            proc = subprocess.run(
                [sys.executable, "-c", PINNED_CHILD, cpu, experiment, "--config", path,
                 "--out", str(out / name)], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
            assert proc.returncode == 0, proc.stderr
        reports.append({p.relative_to(out): p.read_bytes() for p in out.rglob("report.*")})
    assert len(reports[0]) == 2 * len(CPU_RUNS)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_cpu_count_without_sched_getaffinity(tmp_path, monkeypatch, capsys, cpus):
    """Where `os` has no `sched_getaffinity` (macOS, Windows), `usable_cpus`
    reads `os.cpu_count()`, and 1 where that is unknown.  The kernel config
    (a `Worker` per quadrature) and a 3-member Boussinesq sweep (a pool on 2
    CPUs) then exit 0 with the reports of a run on this host."""
    kernel = os.path.join(os.path.dirname(__file__), "..", "configs", "kernel.ini")
    sweep = write_config(tmp_path, EVOLUTION_INI.format(
        experiment="sweep", extra="target = bouss\neps_list = 0.04,0.02,0.01"))

    def reports(out):
        for name, path in (("kernel", kernel), ("sweep", sweep)):
            assert main([name, "--config", path, "--out", str(out / name)]) == 0
        capsys.readouterr()
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    expected = reports(tmp_path / "affinity")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert spectral.usable_cpus() == cpus
    assert spectral.thread_shares() == cpus
    assert reports(tmp_path / "cpu_count") == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral.usable_cpus() == 1


def test_benchmark_tracer_hooks_record_a_traced_run(tmp_path, monkeypatch, capsys):
    """The benchmark's tracer, installed around one small CLI run of each
    experiment.  Its hooks read call arguments and `_props`, so a change to
    either fails here rather than under `perfbench/run.py --trace 1`."""
    assert set(TRACED_RUNS) == set(EXPERIMENTS)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        codes = [cli.main([name, "--config", write_config(tmp_path, text, f"{name}.ini"),
                           "--out", str(tmp_path / name)])
                 for name, text in TRACED_RUNS.items()]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(codes) <= {0, 1}, codes
    for name in ("oscillatory.quadrature", "boussinesq.propagator", "harness.report_write"):
        assert tracer.counts[f"{name}.calls"] > 0, name
    for name in ("oscillatory.quadrature_points", "boussinesq.propagator.hits",
                 "harness.report_bytes"):
        assert tracer.counts[name] > 0, name


def _range_cell(within):
    if within is None:
        return "each in the target's `eps` range"
    if isinstance(within, tuple):
        return ", ".join(f"`{c}`" for c in within)
    return f"`{within}`"


def test_readme_param_tables_match_code():
    """README's key table for each experiment is the code's, row for row."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    for experiment in EXPERIMENTS:
        rows = [f"#### `{experiment}`", "", "| key | default | range | kind |",
                "|---|---|---|---|"]
        rows += [f"| `{key}` | `{default}` | {_range_cell(within)} | {kind.__name__} |"
                 for key, (default, within, kind) in PARAMS[experiment].items()]
        assert "\n".join(rows) + "\n\n" in readme + "\n", experiment


def test_readme_code_references_resolve():
    """Every backticked dotted name in README that starts at the package, one
    of its modules or one of their classes, such as `sqg.NORM_CAP` or
    `Grid2D.check_grid`, names something that exists."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    pkg = os.path.dirname(harness.__file__)
    modules = {name[:-3]: importlib.import_module(f"anisodisp.{name[:-3]}")
               for name in os.listdir(pkg) if name.endswith(".py") and name != "__init__.py"}
    heads = dict(modules)
    heads.update((name, obj) for m in modules.values() for name, obj in vars(m).items()
                 if isinstance(obj, type) and obj.__module__ == m.__name__)
    checked = set()
    for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme):
        head, *attrs = ref.split(".")
        if head == "anisodisp":
            head, *attrs = attrs
        if head not in heads:
            continue  # numpy, a file name
        obj = heads[head]
        for attr in attrs:
            assert hasattr(obj, attr), ref
            obj = getattr(obj, attr)
        checked.add(ref)
    assert {"harness.sweep_workers", "sqg.NORM_CAP", "harness.MAX_N"} <= checked


def test_sweep_jobs_match_serial(two_cpus):
    """Pooled members, with --jobs 2 or none given (3 workers on the 2 CPUs),
    report what serial ones do."""
    for target in ("bouss", "sqg"):
        cfg = ExperimentConfig(experiment="sweep", N=16, L=10.0, params={
            "target": target, "eps_list": "0.04,0.02,0.01", "t_final": "0.2"})
        serial = run(cfg, jobs=1)
        for parallel in (run(cfg, jobs=2), run(cfg)):
            assert len(parallel.subreports) == 3
            for a, b in zip([serial] + serial.subreports, [parallel] + parallel.subreports):
                assert a.summary_text() == b.summary_text()
                assert a.csv_text() == b.csv_text()


@pytest.mark.parametrize("target", ["sqg", "bouss"])
def test_cli_sweep_default_jobs_match_one_job(tmp_path, capsys, two_cpus, target):
    """With no --jobs and with --jobs 1, the CLI writes the same report tree
    and prints the same summary."""
    path = write_config(tmp_path, EVOLUTION_INI.format(
        experiment="sweep", extra=f"target = {target}\neps_list = 0.04,0.02,0.01"))
    trees, outs = [], []
    for name, jobs in (("default", []), ("one", ["--jobs", "1"])):
        out = tmp_path / name
        assert main(["sweep", "--config", path, "--out", str(out), *jobs]) == 0
        outs.append(capsys.readouterr().out)
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
    assert len(trees[0]) == 8  # the sweep's report and three members', .csv and .txt
    assert trees[0] == trees[1]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cpus, jobs, workers", [
    (8, 1000, 3), (2, 1000, 3), (8, 2, 2), (1, 1000, None), (8, 1, None),
    (8, None, 3), (2, None, 3), (1, None, None)])
def test_sweep_pool_is_capped(monkeypatch, cpus, jobs, workers):
    """The run starts the pool that `sweep_workers` sizes, at most one worker
    per member and at most jobs; with one, the members run in this process.
    A fake pool runs the members serially."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = ExperimentConfig(experiment="sweep", N=16, L=10.0, params={
        "target": "bouss", "eps_list": "0.04,0.02,0.01", "t_final": "0.2"})
    assert len(run(cfg, jobs=jobs).subreports) == 3
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize("members, cpus, N, jobs, workers", [
    (3, 2, 16, None, 3),    # one round of 3 on 2 CPUs: 1.5 member times against 2
    (4, 2, 16, None, 2),    # 2 rounds of 2, or 1 of 4 at half speed: the fewer workers
    (5, 2, 16, None, 3),    # 3 then 2: 2.5 member times against 3
    (2, 2, 16, None, 2),
    (3, 1, 16, None, 1),    # 1 CPU: no round is shorter than running them in turn
    (3, 8, 16, None, 3),
    (3, 2, 2048, None, 2),  # above MAX_N / 2: at most one per CPU
    (3, 2, 1024, None, 3),
    (1, 2, 16, None, 1),
    (3, 2, 16, 2, 2),       # --jobs caps the pool
    (3, 2, 16, 1, 1),
    (3, 2, 2048, 1000, 2)])
def test_sweep_workers_minimise_the_makespan(members, cpus, N, jobs, workers):
    """The fewest workers in [min(k, c), min(k, 2c)] that finish k equal members
    on c CPUs soonest, one per CPU above N = MAX_N / 2, capped by jobs; 1 means
    in this process."""
    assert sweep_workers(members, cpus, N, jobs) == workers


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("N", [16, 2048])
def test_sweep_workers_hold_no_more_than_the_jobs_and_the_worst_case(cpus, N):
    """For 1-12 members and any jobs: never more than jobs workers, never
    fewer than min(members, CPUs) with no jobs, and at N = 2048 exactly
    min(members, CPUs), the pool's memory bound."""
    for members in range(1, 13):
        default = sweep_workers(members, cpus, N)
        assert min(members, cpus) <= default <= min(members, 2 * cpus)
        if N == 2048:
            assert default == min(members, cpus)
        for jobs in range(1, 14):
            assert sweep_workers(members, cpus, N, jobs) == min(default, jobs)


def _extremes():
    """pytest params (experiment, the [params] lines): each key of PARAMS with
    an interval, set alone to each in-range extreme of it: a closed finite
    end, the float next to an open one, or both +-1e300 and the largest
    float of that sign for an infinite end.  A sweep sets only eps_list, to
    one value, so that it runs one member in this process.  The n_times tops, 100000 times (5-9 s each at N = 64),
    are left out."""
    tables = [(e, None, PARAMS[e]) for e in EXPERIMENTS if e != "sweep"]
    tables += [("sweep", t, {"eps_list": PARAMS[t]["eps"]}) for t in ("sqg", "bouss")]
    cases = []
    for experiment, target, table in tables:
        for key, (_, within, kind) in table.items():
            if not isinstance(within, str):
                continue  # a choice
            lo, hi = (float(x) for x in within[1:-1].split(", "))
            for end, inside, closed in ((lo, hi, within[0] == "["), (hi, lo, within[-1] == "]")):
                values = (np.sign(end) * np.array([1e300, np.finfo(float).max]) if np.isinf(end)
                          else [end if closed else np.nextafter(end, inside)])
                for value in values:
                    value = str(int(value)) if kind is int else repr(float(value))
                    if key == "n_times" and value == "100000":
                        continue
                    name = experiment if target is None else f"{experiment}-{target}"
                    lines = (f"{key} = {value}" if target is None
                             else f"target = {target}\n{key} = {value}")
                    cases.append(pytest.param(experiment, lines, id=f"{name}-{key}={value}"))
    return cases


@pytest.mark.parametrize("experiment, lines", _extremes())
def test_each_in_range_extreme_exits_with_a_contract_code(tmp_path, capsys, experiment, lines):
    """One key at a time at an extreme of its range, on the N = 16 grid of
    PARAMS_INI (lin-decay at L = 400; the evolutions at t_final = 0.1,
    dt = 0.05 and 2 outputs, the kernel at t = 10, but for the key set): the
    run exits 0, 1, 2 or 3 with no exception and no warning (an error under
    this suite's filter), and exit 2 says why."""
    key = lines.splitlines()[-1].split(" =")[0]
    base = {"kernel": {"times": "10"},
            **dict.fromkeys(("sqg", "bouss", "sweep"),
                            {"t_final": "0.1", "dt": "0.05", "n_outputs": "2"})}
    lines += "".join(f"\n{k} = {v}" for k, v in base.get(experiment, {}).items() if k != key)
    text = PARAMS_INI.format(experiment=experiment, extra=lines)
    if experiment == "lin-decay":  # L/4 reaches the default t_hi, so the fit runs
        text = text.replace("L = 10.0", "L = 400.0")
    code = main([experiment, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (code == 2) == err.startswith("config error: "), err


@pytest.mark.parametrize("L", ["1e-10", "1e10"])
@pytest.mark.parametrize("experiment", ["lin-decay", "sharpness", "kernel", "sqg", "bouss"])
def test_grid_l_ends_exit_with_a_contract_code(tmp_path, capsys, experiment, L):
    """Each experiment on the N = 16 grid at either end of grid.L's interval
    (the evolutions at t_final = 0.1, dt = 0.05 and 2 outputs, the kernel at
    t = 10) exits 0, 1, 2 or 3 with no exception and no warning."""
    extra = "times = 10" if experiment == "kernel" else ""
    template = EVOLUTION_INI if experiment in ("sqg", "bouss") else PARAMS_INI
    text = template.format(experiment=experiment, extra=extra).replace("L = 10.0", f"L = {L}")
    code = main([experiment, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (code == 2) == err.startswith("config error: "), err


def _value_pool(default, within, kind):
    """Valid, boundary, malformed and out-of-range values for one key."""
    pool = [default, "", "abc", "nan", "inf", "-1", "0", "0.5", "7%", "1e-200", "1e300"]
    if isinstance(within, tuple):
        pool += [*within, within[0].upper()]
    elif within is not None:
        pool += within[1:-1].split(", ")
    if kind is list:
        pool += ["10,x", "0.02,", "0.04,0.01"]
    return pool


@st.composite
def _fuzzed_ini(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    table = dict(PARAMS[experiment])
    if experiment == "sweep":  # the keys of both targets, each unknown to the other
        table = {**PARAMS["sqg"], **PARAMS["bouss"], **table}
    keys = draw(st.lists(st.sampled_from([*table, "t_finall", "dealias", "seed"]),
                         unique=True, max_size=4))
    lines = [f"{k} = {draw(st.sampled_from(_value_pool(*table.get(k, ('1', None, float)))))}"
             for k in keys]
    if lines and draw(st.booleans()):
        lines.append(lines[0])  # a duplicated key
    text = PARAMS_INI.format(experiment=experiment, extra="\n".join(lines))
    rejected = False
    if draw(st.booleans()):  # one change outside [params]; `rejected` ones must exit 2
        old, new, rejected = draw(st.sampled_from([
            ("seed = 1", "seed = 0", False), ("seed = 1", "seed = 7", False),
            ("seed = 1", "seed = x", False), ("seed = 1", "seed = -1", True),
            ("seed = 1", "seed = 1\nseeds = 2", True), ("N = 16", "N = 16\ndx = 0.1", True),
            ("N = 16", "N = 16\nn = 16", False), ("[params]", "[param]", True),
            ("[params]", "[Params]", True), ("[params]", "[grid]", False)]))
        text = text.replace(old, new)
    return experiment, text, rejected


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(_fuzzed_ini())
def test_fuzzed_ini_exits_with_a_contract_code(case):
    """Any INI over the table's keys exits 0, 1, 2 or 3; an exception or a
    warning (an error under this suite's filter) fails the test instead.  A
    negative seed, an unknown section or an unknown key outside [params] exits 2."""
    experiment, text, rejected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([experiment, "--config", path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2, 3)
    assert code == 2 or not rejected
    assert (code == 2) == err.getvalue().startswith("config error: "), err.getvalue()
