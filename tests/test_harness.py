import importlib
import os

import numpy as np
import pytest

from anisodisp.cli import main
from anisodisp.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    load_config,
    make_profile,
    run,
)
from anisodisp.spectral import Grid2D, linf_norm


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
    for kind in ("gaussian", "bump", "random", "shell"):
        f = make_profile(grid, kind, seed=3, width=2.0, amplitude=0.5)
        assert f.coeffs[0, 0] == 0.0
        assert f.hermitian_defect() <= 1e-12
    with pytest.raises(ConfigError):
        make_profile(grid, "sawtooth")
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


# ---------------------------------------------------------------------------
# CLI exit codes

def test_cli_pass_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_INI)
    code = main(["kernel", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_config_error_exit_two(tmp_path):
    assert main(["kernel", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_experiment_mismatch_exit_two(tmp_path):
    path = write_config(tmp_path, KERNEL_INI)
    assert main(["sharpness", "--config", path]) == 2


def test_cli_usage_error_exit_two(capsys):
    assert main(["no-such-experiment", "--config", "x"]) == 2
    capsys.readouterr()


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


def test_cli_trimmed_fit_window_exit_three(tmp_path, capsys):
    """The wrap-around cap L/4 = 10 leaves one fit point: a numeric failure."""
    ini = "[experiment]\nname = lin-decay\n\n[grid]\nN = 64\nL = 40.0\n"
    path = write_config(tmp_path, ini)
    assert main(["lin-decay", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure: need at least 5 points" in capsys.readouterr().err


@pytest.mark.parametrize("line, bad", [
    ("N = 16", "N = abc"),
    ("N = 16", "N = 100"),
    ("L = 10.0", "L = -1"),
    ("L = 10.0", "L = nan"),
    ("L = 10.0", "L = inf"),
    ("seed = 1", "seed = x"),
    ("alpha = 1.0", "alpha = 3"),
    ("times = 10,30", "times = 10,x"),
    ("times = 10,30", "times = 0,10"),
])
def test_cli_malformed_grid_exit_two(tmp_path, capsys, line, bad):
    assert line in KERNEL_INI
    path = write_config(tmp_path, KERNEL_INI.replace(line, bad))
    assert main(["kernel", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment", ["sqg", "bouss"])
@pytest.mark.parametrize("line, bad", [
    ("dt = 0.05", "dt = 0"),
    ("dt = 0.05", "dt = -0.1"),
    ("dt = 0.05", "dt = abc"),
    ("dt = 0.05", "dt = nan"),
    ("dt = 0.05", "dt = inf"),
    ("t_final = 0.1", "t_final = -1"),
    ("t_final = 0.1", "t_final = 0"),
    ("t_final = 0.1", "t_final = inf"),
    ("n_outputs = 2", "n_outputs = 0"),
    ("n_outputs = 2", "n_outputs = two"),
])
def test_cli_bad_time_params_exit_two(tmp_path, capsys, experiment, line, bad):
    ini = EVOLUTION_INI.format(experiment=experiment, extra="")
    assert line in ini
    path = write_config(tmp_path, ini.replace(line, bad))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, extra", [
    ("lin-decay", "alpha = 3"),
    ("lin-decay", "width = 0"),
    ("lin-decay", "t_lo = 0"),
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
    ("kernel", "n_lambda = 0"),
    ("kernel", "lambda_lo = 2"),
    ("kernel", "lambda_hi = 2"),
    ("sweep", "target = kernel"),
    ("sweep", "target = lin-decay"),
    ("sqg", "delta = -9"),
    ("bouss", "delta = -9"),
    ("bouss", "gamma = 10"),
])
def test_cli_out_of_range_param_exit_two(tmp_path, capsys, experiment, extra):
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment=experiment, extra=extra))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment", ["sqg", "bouss"])
def test_cli_valid_time_params_run(tmp_path, capsys, experiment):
    path = write_config(tmp_path, EVOLUTION_INI.format(experiment=experiment, extra=""))
    assert main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every entry point the benchmark's tracer wraps still exists, so renaming
    one fails here and not at the next traced benchmark run."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, *_ in tracing._targets():
        assert attr in owner.__dict__, (owner, attr)
