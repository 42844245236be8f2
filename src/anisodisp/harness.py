"""Configuration-driven experiment runner and report emission.

Configs are flat INI files (sections: experiment / grid / params); reports
are a CSV series plus a text summary, written with repr() float formatting
so identical (config, seed) runs are byte-identical.
"""

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import boussinesq, oscillatory, semigroup, sqg
from .lp import shell_field
from .spectral import (
    Grid2D,
    SpectralError,
    SpectralField,
    gaussian_field,
    linf_norm,
)

# each section's keys, lowercased by configparser; PARAMS checks the params keys
SECTION_KEYS = {"experiment": {"name", "seed"}, "grid": {"n", "l"}, "params": set()}

# The parameter contract: each experiment's params as key -> (default,
# interval or choices, kind), the default written as in an INI file and an
# interval like "(0, 0.1]".  A `list` is comma-separated floats, each checked.
_POSITIVE = "(0, inf)"
_ALPHA = ("1.0", "[1, 2]", float)
_T_HI = ("100.0", _POSITIVE, float)
_TIME = {"t_final": ("10.0", _POSITIVE, float), "dt": ("0.05", _POSITIVE, float)}
_PROFILES = ("gaussian", "random")
# a profile's width is squared and divided by: 1e100 keeps both finite
_WIDTH = "[1e-100, 1e100]"
# bounds on the work a config asks for: time steps and sharpness scan points
# (semigroup.SCAN_POINTS_PER_UNIT per unit of window); time grids stop at 100000
MAX_STEPS = MAX_SCAN_POINTS = 1_000_000
# and on grid.N: a Boussinesq run peaks at about 1.5 GB at N = 2048, 4x that at 4096
MAX_N = 2048
PARAMS = {
    "lin-decay": {"alpha": _ALPHA, "t_lo": ("10.0", _POSITIVE, float), "t_hi": _T_HI,
                  # fit_power_law needs 5 points
                  "n_times": ("12", "[5, 100000]", int), "width": ("1.0", _WIDTH, float)},
    "sharpness": {"t_lo": ("20.0", _POSITIVE, float), "t_hi": _T_HI,
                  "n_times": ("400", "[1, 100000]", int)},
    # the run reads split_bound at lambda = t^{-1/2}, which must lie in (0, 1]
    "kernel": {"alpha": _ALPHA, "times": ("10,30,100", "[1, inf)", list)},
    # |eps| above 1e100 overflows the squares of the H^{4.5} norm
    "sqg": {"eps": ("0.02", "[-1e100, 1e100]", float), **_TIME,
            "n_outputs": ("50", "[1, 100000]", int), "width": ("2.0", _WIDTH, float),
            "profile": ("gaussian", _PROFILES, str), "alpha": _ALPHA},
    "bouss": {**_TIME, "n_outputs": ("60", "[1, 100000]", int),
              "branch": ("stable", ("stable", "unstable"), str),
              "eps": ("0.02", "(0, 0.1]", float)},
    # a sweep also reads its target's keys but eps; each eps_list value
    # lies in the target's eps interval
    "sweep": {"target": ("sqg", ("sqg", "bouss"), str),
              "eps_list": ("0.04,0.02,0.01", None, list)},
}
EXPERIMENTS = tuple(PARAMS)
# the kernel run's splitting scales, in the (0, 1] that split_bound takes
LAMBDAS = np.geomspace(0.02, 1.0, 30)


class ConfigError(ValueError):
    pass


class PoolError(RuntimeError):
    """A sweep's worker process died (killed, or out of memory)."""


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
            Grid2D.check_grid(self.N, self.L)
        except SpectralError as exc:
            raise ConfigError(str(exc)) from exc
        if self.N > MAX_N:
            raise ConfigError(f"grid.N must be at most {MAX_N}, got {self.N}")
        if self.seed < 0:
            raise ConfigError(f"experiment.seed must be >= 0, got {self.seed}")

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
    try:
        read = cp.read(path)
        sections = {section: dict(cp.items(section)) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, keys in sections.items():
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(keys) - SECTION_KEYS[section])
        if unknown and section != "params":
            raise ConfigError(f"unknown {section} keys {', '.join(unknown)}")
    experiment, grid, params = (sections.get(s, {}) for s in ("experiment", "grid", "params"))
    try:
        name, seed = experiment["name"], int(experiment.get("seed", "1"))
        N, L = int(grid.get("n", "256")), float(grid.get("l", "400.0"))
    except KeyError:
        raise ConfigError("missing experiment.name") from None
    except ValueError as exc:
        raise ConfigError(f"malformed grid or seed value: {exc}") from exc
    return ExperimentConfig(experiment=name, N=N, L=L, seed=seed, params=params)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: list = field(default_factory=list)  # (name, values) in order
    constants: dict = field(default_factory=dict)  # name -> (value, window, residual)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    metadata: dict = field(default_factory=dict)  # name -> value, formatted when written
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
            buf.write(f"{k}: {_fmt(self.metadata[k])}\n")
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


def _value(params, key, entry):
    """params[key], or the entry's default, as the entry's kind; it must lie
    in the entry's interval or be one of its choices."""
    default, within, kind = entry
    if kind is list:
        return [_value({key: s}, key, (None, within, float))
                for s in params.get(key, default).split(",")]
    try:
        value = kind(params.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"malformed params.{key}: {exc}") from exc
    if isinstance(within, tuple):
        if value not in within:
            raise ConfigError(f"params.{key} must be one of {', '.join(within)}, got {value!r}")
        return value
    lo, hi = (float(x) for x in within[1:-1].split(","))
    if not ((lo <= value if within[0] == "[" else lo < value)
            and (value <= hi if within[-1] == "]" else value < hi)):
        raise ConfigError(f"params.{key} must lie in {within}, got {value}")
    return value


def parse_params(experiment, params):
    """The checked values of a config's raw params, read through the
    experiment's PARAMS table; a key the table lacks is a ConfigError."""
    table = PARAMS[experiment]
    if experiment == "sweep":
        target = _value(params, "target", table["target"])
        table = dict(PARAMS[target], **table)
        table["eps_list"] = (table["eps_list"][0], table.pop("eps")[1], list)
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise ConfigError(f"unknown params {', '.join(unknown)}")
    p = {key: _value(params, key, entry) for key, entry in table.items()}
    if "t_lo" in p and not p["t_lo"] < p["t_hi"]:
        raise ConfigError(f"params.t_lo must be below params.t_hi, got {p['t_lo']} >= {p['t_hi']}")
    # the run loop takes round(t_final / dt) steps
    steps = p["t_final"] / p["dt"] if "dt" in p else 1.0
    if not (steps < np.inf and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ConfigError(f"params.t_final / params.dt must be a whole number, got {steps!r}")
    if round(steps) > MAX_STEPS:
        raise ConfigError(f"params.t_final / params.dt asks for {_count(steps)} steps, "
                          f"more than {MAX_STEPS}")
    # a float count before any int(), so t_hi = 1e308 gives inf, not an OverflowError
    points = (semigroup.SCAN_POINTS_PER_UNIT * (p["t_hi"] - p["t_lo"])
              if experiment == "sharpness" else 0.0)
    if points > MAX_SCAN_POINTS:
        raise ConfigError(f"params.t_hi - params.t_lo asks for {_count(np.floor(points))} "
                          f"scan points, more than {MAX_SCAN_POINTS}")
    return p


def _count(n):
    """A work count for a message: whole, or in e-notation from 1e15 on (1e300
    steps would print 302 digits)."""
    return f"{n:.0f}" if n < 1e15 else f"{n:.3g}"


def make_profile(grid, kind, seed=1, width=1.0, amplitude=1.0):
    """Initial data: the Gaussian, or 'random', a seeded smooth random field."""
    if kind == "gaussian":
        f = gaussian_field(grid, width=width, amplitude=amplitude)
        # so wide a profile that x^2 / width^2 rounds to 0 is a constant
        if not np.any(f.zero_mean().coeffs):
            raise ConfigError(f"params.width = {width} is too large: the gaussian profile "
                              "is constant on the grid, and zero once its mean is removed")
        return f
    if kind == "random":
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((grid.N, grid.N)) + 1j * rng.standard_normal(
            (grid.N, grid.N)
        )
        c *= np.exp(-grid.xi_sq / (2.0 * width**2))
        f = SpectralField(grid, c)
        f.enforce_hermitian().zero_nyquist().zero_mean()
        # unit sup norm, so `amplitude` is the actual perturbation size
        sup = linf_norm(f)
        if sup == 0.0:
            raise ConfigError(f"params.width = {width} is too small: the random profile's "
                              "envelope underflows on every mode")
        f.coeffs *= amplitude / sup
        return f
    raise ConfigError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment drivers

def _run_lin_decay(cfg, p):
    grid = Grid2D(cfg.N, cfg.L)
    alpha = p["alpha"]
    f0 = make_profile(grid, "gaussian", width=p["width"])
    times = np.geomspace(p["t_lo"], p["t_hi"], p["n_times"])
    rep = semigroup.measure_decay(f0, alpha, times)
    out = ExperimentReport(config=cfg)
    out.columns = [
        ("t", list(rep.times)),
        ("linf", list(rep.linf_values)),
        ("fitted_slope", [rep.fitted_slope] * len(rep.times)),
    ]
    out.constants["decay_slope"] = (rep.fitted_slope, rep.fit_window, rep.residual)
    out.metadata["besov_value"] = rep.besov_value
    out.metadata["constant_estimate"] = rep.constant_estimate
    out.metadata["j_range"] = rep.j_range
    out.metadata["boundary_contaminated"] = rep.boundary_contaminated
    lo, hi = (-0.6, -0.4) if alpha == 1.0 else ((-1.15, -0.85) if alpha < 2.0 else (-1.1, -0.9))
    out.add_check(
        "slope_in_band",
        lo <= rep.fitted_slope <= hi,
        f"slope={rep.fitted_slope:.4f} band=({lo},{hi})",
    )
    out.add_check("window_reliable", not rep.boundary_contaminated)
    return out


def _run_sharpness(cfg, p):
    # the shell profile keeps the spectrum away from xi = 0, where the phase
    # is singular; box periodization then stays below the two-path tolerance
    f0 = shell_field(Grid2D(cfg.N, cfg.L))
    rep = semigroup.sharpness_check(f0, p["t_lo"], p["t_hi"], p["n_times"])
    out = ExperimentReport(config=cfg)
    out.columns = [
        ("t", list(rep.times)),
        ("origin_value", list(rep.origin_values)),
        ("radial_reference", list(rep.radial_reference)),
        ("envelope", list(rep.envelope)),
    ]
    out.metadata["max_two_path_reldiff"] = rep.max_two_path_reldiff
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


def _run_kernel(cfg, p):
    phase = oscillatory.PhaseSpec(v=(0.0, 0.0), alpha=p["alpha"])
    out = ExperimentReport(config=cfg)
    rows = []
    all_ok_min, all_ok_dom = True, True
    for t in p["times"]:
        kval = abs(oscillatory.kernel_direct(phase, t))
        sums = [sum(oscillatory.split_bound(phase, t, lam)) for lam in LAMBDAS]
        i_min = int(np.argmin(sums))
        # within one grid cell of t^{-1/2}
        target = t**-0.5
        i_target = int(np.argmin(np.abs(np.log(LAMBDAS) - np.log(target))))
        all_ok_min &= abs(i_min - i_target) <= 1
        budget = sum(oscillatory.split_bound(phase, t, target))
        all_ok_dom &= kval <= 3.0 * budget
        rows.append((t, kval, float(LAMBDAS[i_min]), budget))
    names = ("t", "kernel_abs", "lambda_min", "budget_at_tinvhalf")
    out.columns = [(name, list(col)) for name, col in zip(names, zip(*rows))]
    out.add_check("minimizer_at_t_inv_half", all_ok_min,
                  "v=0: split_bound=(6*lam, 6/(lam*t)) for every alpha, "
                  "so the minimizer is t^-1/2 by construction")
    out.add_check("kernel_below_3x_budget", all_ok_dom)
    return out


def _run_sqg(cfg, p):
    # the profile goes straight in, so the run holds only its masked copy
    diag = sqg.run_and_diagnose(
        make_profile(Grid2D(cfg.N, cfg.L), p["profile"], seed=cfg.seed, width=p["width"],
                     amplitude=p["eps"]),
        p["t_final"], p["dt"], alpha=p["alpha"], n_outputs=p["n_outputs"])
    out = ExperimentReport(config=cfg)
    out.columns = [("t", diag.times), ("H_s", diag.h_s), ("L2", diag.l2),
                   ("gradU_inf", diag.grad_u_inf), ("gradTheta_inf", diag.grad_theta_inf),
                   ("integral", diag.integral), ("envelope", diag.envelope)]
    out.metadata["fitted_c"] = diag.fitted_c
    out.metadata["bootstrap_exit_time"] = diag.bootstrap_exit_time
    out.metadata["blew_up"] = diag.blew_up
    env_ok = all(e >= h * (1.0 - 1e-9) for e, h in zip(diag.envelope, diag.h_s))
    out.add_check("gronwall_envelope_dominates", env_ok)
    out.add_check("no_blowup", not diag.blew_up)
    return out


def _run_bouss(cfg, p):
    rep = boussinesq.stability_experiment(
        Grid2D(cfg.N, cfg.L), eps=p["eps"], T=p["t_final"], dt=p["dt"], branch=p["branch"],
        n_outputs=p["n_outputs"])
    out = ExperimentReport(config=cfg)
    out.columns = [("t", rep.times), ("Hs_omega", rep.hs_omega), ("Hs1_rho", rep.hs1_rho),
                   ("E_total", rep.e_total), ("gradU_inf", rep.grad_u_inf),
                   ("gradRho_inf", rep.grad_rho_inf), ("integral", rep.integral)]
    out.metadata["exit_time"] = float(rep.exit_time)
    out.metadata["branch"] = p["branch"]
    for k, v in rep.initial_norms.items():
        out.metadata[f"initial_{k}"] = v
    out.add_check("finite_series", all(np.isfinite(rep.e_total)))
    return out


def _sweep_member(args):
    cfg, p, eps = args
    # a member's config keeps the sweep's params, so its hash covers them
    member = ExperimentConfig(experiment=p["target"], N=cfg.N, L=cfg.L, seed=cfg.seed,
                              params=dict(cfg.params, eps=repr(eps)))
    return _DRIVERS[p["target"]](member, dict(p, eps=eps))


def sweep_workers(members, cpus, N, jobs=None):
    """Worker processes for a sweep of `members` equal members on `cpus`
    usable CPUs at grid size N: the fewest w in [min(members, cpus),
    min(members, 2 cpus)] that minimise the makespan, with the members in
    rounds of w and a round of m of them taking max(1, m / cpus) member
    times.  Above N = MAX_N / 2 the range is min(members, cpus) alone, so no
    pool holds more grid points at once than `cpus` members at MAX_N.
    `jobs` caps the result; 1 means the members run in this process."""
    def makespan(w):
        # in units of 1 / cpus member times, so that ties are exact
        full, rest = divmod(members, w)
        return full * max(cpus, w) + (max(cpus, rest) if rest else 0)

    low = min(members, cpus)
    high = low if N > MAX_N // 2 else min(members, 2 * cpus)
    workers = min(range(low, high + 1), key=makespan)
    return workers if jobs is None else min(workers, jobs)


def _run_sweep(cfg, p, jobs=None):
    """The members, one per eps, on `sweep_workers` worker processes for this
    process's usable CPUs: up to two per CPU where that finishes the sweep
    sooner (3 members on 2 CPUs take 3 workers, 4 members 2), and at most
    `jobs`.  At N = 2048 that is min(members, usable CPUs) members at once,
    the pool's memory bound.  With one worker the members run in this
    process.  Either way they come back in eps_list order."""
    out = ExperimentReport(config=cfg)
    args = [(cfg, p, eps) for eps in p["eps_list"]]
    workers = sweep_workers(len(args), len(os.sched_getaffinity(0)), cfg.N, jobs)
    if workers > 1:
        # imported here: it loads multiprocessing, which only a pool uses
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=workers) as ex:
                subs = list(ex.map(_sweep_member, args))
        except BrokenProcessPool:
            raise PoolError(f"a worker of the {workers}-process sweep pool died; "
                            "a smaller --jobs runs fewer members at once") from None
    else:
        subs = [_sweep_member(a) for a in args]
    out.subreports = subs
    exits = []
    for sub in subs:
        if p["target"] == "sqg":
            et = sub.metadata["bootstrap_exit_time"]
            exits.append(p["t_final"] if et is None else et)
        else:
            exits.append(sub.metadata["exit_time"])
    out.columns = [("eps", p["eps_list"]), ("exit_time", exits)]
    # a member with no exit before t_final carries no exit-time information
    censored = f"{sum(e >= p['t_final'] for e in exits)} of {len(exits)}"
    out.metadata["censored"] = censored
    # the rows keep the order of eps_list; the check reads the members by
    # decreasing perturbation size |eps|
    by_eps = [e for _, e in sorted(zip(p["eps_list"], exits), key=lambda m: -abs(m[0]))]
    monotone = all(a <= b + 1e-12 for a, b in zip(by_eps, by_eps[1:]))
    # with no exit, or one member, every comparison is t_final <= t_final or
    # none at all; one exit among censored members can still fail the check
    vacuous = len(exits) < 2 or min(exits) >= p["t_final"]
    out.add_check("exit_time_nondecreasing_as_eps_decreases", monotone,
                  f"exits={exits}" + (f"; vacuous: {censored} censored" if vacuous else ""))
    return out


_DRIVERS = {"lin-decay": _run_lin_decay, "sharpness": _run_sharpness, "kernel": _run_kernel,
            "sqg": _run_sqg, "bouss": _run_bouss}


def run(config, jobs=None):
    """Dispatch a config to its experiment driver; deterministic per (config, seed).
    `jobs` caps a sweep's worker processes (see `_run_sweep`)."""
    p = parse_params(config.experiment, config.params)
    if config.experiment == "sweep":
        return _run_sweep(config, p, jobs=jobs)
    return _DRIVERS[config.experiment](config, p)
