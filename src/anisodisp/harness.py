"""Configuration-driven experiment runner and report emission.

Configs are flat INI files (sections: experiment / grid / params); reports
are a CSV series plus a text summary, written with repr() float formatting
so identical (config, seed) runs are byte-identical.
"""

import configparser
import hashlib
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import boussinesq, oscillatory, semigroup, sqg
from .fitting import FitError, fit_power_law
from .lp import LPBank, shell_field
from .spectral import (
    Grid2D,
    SpectralError,
    SpectralField,
    forward_transform,
    gaussian_field,
    linf_norm,
)

EXPERIMENTS = ("lin-decay", "sharpness", "kernel", "sqg", "bouss", "sweep")
# the Sobolev indices 4 + delta and 5 + gamma must lie in [-2, 8]
DELTA_RANGE, GAMMA_RANGE = "[-6, 4]", "[-7, 3]"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    N: int = 256
    L: float = 400.0
    seed: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        try:
            Grid2D(self.N, self.L)  # validates N, L
        except SpectralError as exc:
            raise ConfigError(str(exc)) from exc

    def canonical_text(self):
        lines = [
            f"experiment.name={self.experiment}",
            f"experiment.seed={self.seed}",
            f"grid.N={self.N}",
            f"grid.L={self.L!r}",
        ]
        for k in sorted(self.params):
            lines.append(f"params.{k}={self.params[k]}")
        return "\n".join(lines) + "\n"

    def hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def load_config(path):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        name = cp.get("experiment", "name")
    except (configparser.NoSectionError, configparser.NoOptionError) as exc:
        raise ConfigError(f"missing experiment.name: {exc}") from exc
    try:
        seed = cp.getint("experiment", "seed", fallback=1)
        N = cp.getint("grid", "N", fallback=256)
        L = cp.getfloat("grid", "L", fallback=400.0)
    except ValueError as exc:
        raise ConfigError(f"malformed grid or seed value: {exc}") from exc
    params = dict(cp.items("params")) if cp.has_section("params") else {}
    return ExperimentConfig(experiment=name, N=N, L=L, seed=seed, params=params)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: list = field(default_factory=list)  # (name, values) in order
    constants: dict = field(default_factory=dict)  # name -> (value, window, residual)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    metadata: dict = field(default_factory=dict)
    subreports: list = field(default_factory=list)

    def add_check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    def all_passed(self):
        ok = all(p for _, p, _ in self.checks)
        return ok and all(r.all_passed() for r in self.subreports)

    def csv_text(self):
        buf = io.StringIO()
        names = [n for n, _ in self.columns]
        buf.write(",".join(names) + "\n")
        if self.columns:
            nrows = len(self.columns[0][1])
            for i in range(nrows):
                buf.write(
                    ",".join(_fmt(vals[i]) for _, vals in self.columns) + "\n"
                )
        return buf.getvalue()

    def summary_text(self):
        buf = io.StringIO()
        buf.write(f"experiment: {self.config.experiment}\n")
        buf.write(f"config_hash: {self.config.hash()}\n")
        buf.write(f"grid: N={self.config.N} L={_fmt(self.config.L)}\n")
        buf.write(f"seed: {self.config.seed}\n")
        for k in sorted(self.metadata):
            buf.write(f"{k}: {self.metadata[k]}\n")
        for name in sorted(self.constants):
            value, window, residual = self.constants[name]
            buf.write(
                f"fit {name}: value={_fmt(value)} "
                f"window=({', '.join(_fmt(w) for w in window)}) "
                f"residual={_fmt(residual)}\n"
            )
        for name, passed, detail in self.checks:
            status = "PASS" if passed else "FAIL"
            buf.write(f"check {name}: {status} {detail}\n".rstrip() + "\n")
        buf.write(f"overall: {'PASS' if self.all_passed() else 'FAIL'}\n")
        return buf.getvalue()

    def write(self, out_dir, stem="report"):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{stem}.csv"), "w") as fh:
            fh.write(self.csv_text())
        with open(os.path.join(out_dir, f"{stem}.txt"), "w") as fh:
            fh.write(self.summary_text())
        for i, sub in enumerate(self.subreports):
            sub.write(out_dir, stem=f"{stem}_sub{i}")


def _fmt(x):
    # np.float64 subclasses float, and its numpy-2 repr is "np.float64(x)"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _pf(params, key, default, within="(-inf, inf)", kind=float):
    """params[key], or the default, as `kind`; it must lie in the interval
    `within`, written like "(0, 0.1]"."""
    try:
        value = kind(params.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"malformed params.{key}: {exc}") from exc
    lo, hi = (float(x) for x in within[1:-1].split(","))
    if not ((lo <= value if within[0] == "[" else lo < value)
            and (value <= hi if within[-1] == "]" else value < hi)):
        raise ConfigError(f"params.{key} must lie in {within}, got {value}")
    return value


def _pl(params, key, default, within="(-inf, inf)"):
    """A comma-separated list of floats, each checked as `_pf` checks one."""
    return [_pf({key: s}, key, None, within) for s in params.get(key, default).split(",")]


def _time_params(p, n_outputs):
    """(t_final, dt, n_outputs) of an evolution config, range-checked."""
    return (_pf(p, "t_final", 10.0, "(0, inf)"), _pf(p, "dt", 0.05, "(0, inf)"),
            _pf(p, "n_outputs", n_outputs, "[1, inf)", int))


def make_profile(grid, kind, seed=1, width=1.0, amplitude=1.0):
    """Fixed initial-data profiles; 'random' is a seeded smooth random field."""
    if kind == "gaussian":
        return gaussian_field(grid, width=width, amplitude=amplitude).zero_mean()
    if kind == "bump":
        X, Y = grid.meshgrid()
        r2 = (X**2 + Y**2) / width**2
        vals = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
        return forward_transform(amplitude * np.e * vals, grid).zero_mean()
    if kind == "shell":
        return shell_field(grid, amplitude=amplitude)
    if kind == "random":
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((grid.N, grid.N)) + 1j * rng.standard_normal(
            (grid.N, grid.N)
        )
        c *= np.exp(-grid.xi_sq / (2.0 * width**2))
        f = SpectralField(grid, c)
        f.enforce_hermitian().zero_nyquist().zero_mean()
        # unit sup norm, so `amplitude` is the actual perturbation size
        f.coeffs *= amplitude / linf_norm(f)
        return f
    raise ConfigError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment drivers

def _run_lin_decay(cfg):
    grid = Grid2D(cfg.N, cfg.L)
    p = cfg.params
    alpha = _pf(p, "alpha", 1.0, "[1, 2]")
    t_lo = _pf(p, "t_lo", 10.0, "(0, inf)")
    t_hi = _pf(p, "t_hi", 100.0, "(0, inf)")
    n_times = _pf(p, "n_times", 12, "[5, inf)", int)  # fit_power_law needs 5 points
    width = _pf(p, "width", 1.0, "(0, inf)")
    profile = p.get("profile", "gaussian")
    f0 = make_profile(grid, profile, seed=cfg.seed, width=width)
    bank = LPBank(grid)
    times = np.geomspace(t_lo, t_hi, n_times)
    rep = semigroup.measure_decay(f0, semigroup.SemigroupParams(alpha, 0.0), times, bank)
    out = ExperimentReport(config=cfg)
    out.columns = [
        ("t", list(rep.times)),
        ("linf", list(rep.linf_values)),
        ("fitted_slope", [rep.fitted_slope] * len(rep.times)),
    ]
    out.constants["decay_slope"] = (rep.fitted_slope, rep.fit_window, rep.residual)
    out.metadata["besov_value"] = _fmt(rep.besov_value)
    out.metadata["constant_estimate"] = _fmt(rep.constant_estimate)
    out.metadata["j_range"] = str(rep.j_range)
    out.metadata["boundary_contaminated"] = str(rep.boundary_contaminated)
    lo, hi = (-0.6, -0.4) if alpha == 1.0 else ((-1.15, -0.85) if alpha < 2.0 else (-1.1, -0.9))
    out.add_check(
        "slope_in_band",
        lo <= rep.fitted_slope <= hi,
        f"slope={rep.fitted_slope:.4f} band=({lo},{hi})",
    )
    out.add_check("window_reliable", not rep.boundary_contaminated)
    return out


def _run_sharpness(cfg):
    grid = Grid2D(cfg.N, cfg.L)
    p = cfg.params
    t_lo = _pf(p, "t_lo", 20.0)
    t_hi = _pf(p, "t_hi", 100.0)
    n_times = _pf(p, "n_times", 400, "[1, inf)", int)
    width = _pf(p, "width", 1.0, "(0, inf)")
    # the shell profile keeps the spectrum away from xi = 0, where the phase
    # is singular; box periodization then stays below the two-path tolerance
    profile = p.get("profile", "shell")
    f0 = make_profile(grid, profile, seed=cfg.seed, width=width)
    times = np.linspace(t_lo, t_hi, n_times)
    rep = semigroup.sharpness_check(f0, times, crossing_window=(t_lo, t_hi))
    out = ExperimentReport(config=cfg)
    out.columns = [
        ("t", list(rep.times)),
        ("origin_value", list(rep.origin_values)),
        ("radial_reference", list(rep.radial_reference)),
        ("envelope", list(rep.envelope)),
    ]
    out.metadata["max_two_path_reldiff"] = _fmt(rep.max_two_path_reldiff)
    out.add_check("two_path_agreement", rep.max_two_path_reldiff <= 1e-6,
                  f"reldiff={rep.max_two_path_reldiff:.2e}")
    peaks_ok = rep.peak_ratios.size > 0 and np.all(np.abs(rep.peak_ratios - 1.0) <= 0.05)
    out.add_check("envelope_peaks_within_5pct", peaks_ok,
                  f"n_peaks={rep.peak_ratios.size}")
    cross_ok = rep.zero_crossings.size > 0 and np.all(
        np.abs(rep.zero_crossings - rep.nearest_predicted) <= 0.05
    )
    out.add_check("zero_crossings_within_0.05", cross_ok,
                  f"n_crossings={rep.zero_crossings.size}")
    return out


def _run_kernel(cfg):
    p = cfg.params
    alpha = _pf(p, "alpha", 1.0, "[1, 2]")
    times = _pl(p, "times", "10,30,100", "(0, inf)")
    n_lambda = _pf(p, "n_lambda", 30, "[1, inf)", int)
    # split_bound takes a splitting scale in (0, 1]
    lam_grid = np.geomspace(_pf(p, "lambda_lo", 0.02, "(0, 1]"),
                            _pf(p, "lambda_hi", 1.0, "(0, 1]"), n_lambda)
    phase = oscillatory.PhaseSpec(v=(0.0, 0.0), alpha=alpha)
    out = ExperimentReport(config=cfg)
    col_t, col_k, col_lam_star, col_budget = [], [], [], []
    all_ok_min, all_ok_dom = True, True
    for t in times:
        kval = abs(oscillatory.kernel_direct(phase, t))
        sums = [sum(oscillatory.split_bound(phase, t, lam)) for lam in lam_grid]
        i_min = int(np.argmin(sums))
        lam_star = lam_grid[i_min]
        # within one grid cell of t^{-1/2}
        target = t**-0.5
        i_target = int(np.argmin(np.abs(np.log(lam_grid) - np.log(target))))
        all_ok_min &= abs(i_min - i_target) <= 1
        budget = sum(oscillatory.split_bound(phase, t, target))
        all_ok_dom &= kval <= 3.0 * budget
        col_t.append(t)
        col_k.append(kval)
        col_lam_star.append(float(lam_star))
        col_budget.append(budget)
    out.columns = [
        ("t", col_t),
        ("kernel_abs", col_k),
        ("lambda_min", col_lam_star),
        ("budget_at_tinvhalf", col_budget),
    ]
    out.add_check("minimizer_at_t_inv_half", all_ok_min)
    out.add_check("kernel_below_3x_budget", all_ok_dom)
    return out


def _run_sqg(cfg):
    grid = Grid2D(cfg.N, cfg.L)
    p = cfg.params
    eps = _pf(p, "eps", 0.02)
    T, dt, n_outputs = _time_params(p, 50)
    width = _pf(p, "width", 2.0, "(0, inf)")
    profile = p.get("profile", "gaussian")
    f0 = make_profile(grid, profile, seed=cfg.seed, width=width, amplitude=eps)
    diag = sqg.run_and_diagnose(
        f0, T, dt,
        alpha=_pf(p, "alpha", 1.0, "[1, 2]"),
        delta=_pf(p, "delta", 0.5, DELTA_RANGE),
        n_outputs=n_outputs,
    )
    out = ExperimentReport(config=cfg)
    out.columns = diag.columns()
    out.metadata["fitted_c"] = _fmt(diag.fitted_c)
    out.metadata["bootstrap_exit_time"] = str(diag.bootstrap_exit_time)
    out.metadata["blew_up"] = str(diag.blew_up)
    env_ok = all(e >= h * (1.0 - 1e-9) for e, h in zip(diag.envelope, diag.h_s))
    out.add_check("gronwall_envelope_dominates", env_ok)
    out.add_check("no_blowup", not diag.blew_up)
    return out


def _run_bouss(cfg):
    grid = Grid2D(cfg.N, cfg.L)
    p = cfg.params
    T, dt, n_outputs = _time_params(p, 60)
    branch = p.get("branch", "stable")
    if branch not in ("stable", "unstable"):
        raise ConfigError(f"params.branch must be stable or unstable, got {branch!r}")
    rep = boussinesq.stability_experiment(
        grid,
        eps=_pf(p, "eps", 0.02, "(0, 0.1]"),
        T=T,
        dt=dt,
        branch=branch,
        delta=_pf(p, "delta", 0.5, DELTA_RANGE),
        gamma=_pf(p, "gamma", 0.5, GAMMA_RANGE),
        n_outputs=n_outputs,
    )
    out = ExperimentReport(config=cfg)
    out.columns = rep.columns()
    out.metadata["exit_time"] = _fmt(float(rep.exit_time))
    out.metadata["branch"] = rep.branch
    for k, v in rep.initial_norms.items():
        out.metadata[f"initial_{k}"] = _fmt(v)
    out.add_check("finite_series", all(np.isfinite(rep.e_total)))
    return out


def _sweep_member(args):
    cfg_dict, eps = args
    cfg = ExperimentConfig(**cfg_dict)
    cfg.params = dict(cfg.params)
    cfg.params["eps"] = repr(eps)
    target = cfg.params.get("target", "sqg")
    member = ExperimentConfig(
        experiment=target, N=cfg.N, L=cfg.L, seed=cfg.seed, params=cfg.params
    )
    return run(member)


def _run_sweep(cfg, jobs=1):
    p = cfg.params
    eps_list = _pl(p, "eps_list", "0.04,0.02,0.01")
    target = p.get("target", "sqg")
    if target not in ("sqg", "bouss"):
        raise ConfigError(f"params.target must be sqg or bouss, got {target!r}")
    out = ExperimentReport(config=cfg)
    args = [
        (
            dict(experiment=cfg.experiment, N=cfg.N, L=cfg.L, seed=cfg.seed,
                 params=dict(cfg.params)),
            eps,
        )
        for eps in eps_list
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            subs = list(ex.map(_sweep_member, args))
    else:
        subs = [_sweep_member(a) for a in args]
    out.subreports = subs
    exits = []
    for sub in subs:
        if target == "sqg":
            et = sub.metadata.get("bootstrap_exit_time", "None")
            tf = _time_params(sub.config.params, 1)[0]
            exits.append(tf if et == "None" else float(et))
        else:
            exits.append(float(sub.metadata["exit_time"]))
    out.columns = [("eps", eps_list), ("exit_time", exits)]
    monotone = all(exits[i] <= exits[i + 1] + 1e-12 for i in range(len(exits) - 1))
    out.add_check("exit_time_nondecreasing_as_eps_decreases", monotone,
                  f"exits={exits}")
    return out


def run(config, jobs=1):
    """Dispatch a config to its experiment driver; deterministic per (config, seed)."""
    driver = {
        "lin-decay": _run_lin_decay,
        "sharpness": _run_sharpness,
        "kernel": _run_kernel,
        "sqg": _run_sqg,
        "bouss": _run_bouss,
    }
    if config.experiment == "sweep":
        return _run_sweep(config, jobs=jobs)
    return driver[config.experiment](config)
