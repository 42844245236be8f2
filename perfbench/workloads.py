"""Workload inputs (INI files made from a seed) and the output checks.

Every check recomputes its reference outside the program, or tests a
property the method must have, and is paired with a perturbation of the
same data that the check must reject (see `Check.rejects_perturbation`).
"""

import copy
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sqg-n256", "evolve-n64", "linear-dispersion")
# grid size of each workload's dominant arrays, for the host-speed reference;
# on linear-dispersion that of sharpness, which takes most of the round, so
# that the reference adds little to the peak memory
REFERENCE_N = {"sqg-n256": 256, "evolve-n64": 64, "linear-dispersion": 512}


@dataclass
class Invocation:
    experiment: str  # CLI experiment argument
    kind: str  # which time-to-result it is: sqg, bouss, lin_decay, sharpness, kernel
    name: str  # INI stem and output sub-directory
    grid: dict
    params: dict


def _ini_text(inv, seed):
    lines = ["[experiment]", f"name = {inv.experiment}", f"seed = {seed}", "",
             "[grid]"]
    lines += [f"{k} = {v}" for k, v in inv.grid.items()]
    lines += ["", "[params]"] + [f"{k} = {v}" for k, v in inv.params.items()]
    return "\n".join(lines) + "\n"


def make_invocations(workload, seed):
    """The CLI invocations of one round of `workload`; inputs depend only on seed."""
    rng = np.random.default_rng(seed)
    if workload == "sqg-n256":
        return [Invocation("sqg", "sqg", "sqg", {"N": 256, "L": 10.0}, {
            "eps": 0.05, "profile": "random", "width": 2.0, "t_final": 10.0,
            "dt": 0.05, "n_outputs": 40, "alpha": 1.0})]
    if workload == "evolve-n64":
        # configs/sqg_run.ini, and configs/bouss_sweep.ini on both branches with
        # half its t_final (the stable sweep is censored either way), so that
        # a run fits its time budget
        bouss = {"target": "bouss", "eps_list": "0.04,0.02,0.01", "t_final": 10.0,
                 "dt": 0.02}
        return [
            Invocation("sqg", "sqg", "sqg", {"N": 64, "L": 10.0}, {
                "eps": 0.04, "profile": "random", "width": 4.0, "t_final": 60.0,
                "dt": 0.1, "n_outputs": 30, "alpha": 1.0}),
            Invocation("sweep", "bouss", "bouss_stable", {"N": 64, "L": 10.0},
                       dict(bouss, branch="stable")),
            Invocation("sweep", "bouss", "bouss_unstable", {"N": 64, "L": 10.0},
                       dict(bouss, branch="unstable")),
        ]
    if workload == "linear-dispersion":
        # the seed moves the Gaussian width and the sharpness window a little;
        # the window keeps its length, so the amount of work stays the same
        width = round(0.9 + 0.2 * rng.random(), 4)
        t_lo = round(19.0 + rng.random(), 4)
        t_hi = t_lo + 80.0
        return [
            Invocation("lin-decay", "lin_decay", "lin_decay", {"N": 1024, "L": 400.0}, {
                "alpha": 1.0, "t_lo": 10.0, "t_hi": 100.0, "n_times": 12,
                "width": width}),
            Invocation("sharpness", "sharpness", "sharpness", {"N": 512, "L": 400.0}, {
                "t_lo": t_lo, "t_hi": t_hi, "n_times": 400}),
            Invocation("kernel", "kernel", "kernel", {"N": 16, "L": 10.0}, {
                "alpha": 1.0, "times": "10,30,100"}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(invocations, seed, in_dir):
    os.makedirs(in_dir, exist_ok=True)
    paths = []
    for inv in invocations:
        path = os.path.join(in_dir, inv.name + ".ini")
        with open(path, "w") as fh:
            fh.write(_ini_text(inv, seed))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# reading reports

def _number(text):
    # numpy-2 scalars leak into the reports as "np.float64(x)"
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {h: np.array([_number(r[i]) for r in rows]) for i, h in enumerate(header)}


# ---------------------------------------------------------------------------
# checks

class Check:
    """A named verdict on `data`, with a perturbation it must reject."""

    def __init__(self, name, slot, data, verify, perturb):
        self.name, self.slot, self.data = name, slot, data
        self._verify, self._perturb = verify, perturb

    def run(self):
        return self._verify(self.data)

    def rejects_perturbation(self):
        data = copy.deepcopy(self.data)
        self._perturb(data)
        ok, _ = self._verify(data)
        return not ok


def _grid_xi(N, L):
    k = np.fft.fftfreq(N, d=1.0 / N)
    xi1 = (2.0 * np.pi / L) * k[:, None] * np.ones((1, N))
    xi2 = (2.0 * np.pi / L) * k[None, :] * np.ones((N, 1))
    return xi1, xi2


def _bump(r):
    """psi(r) = chi(r) - chi(2r), chi the smooth cutoff 1 on [0,1], 0 on [2,inf)."""
    def h(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)

    def chi(x):
        a, b = h(2.0 - x), h(x - 1.0)
        return a / (a + b)

    return chi(np.asarray(r, dtype=float)) - chi(2.0 * np.asarray(r, dtype=float))


def _output_times(t, expected, scale):
    if t.shape != expected.shape:
        return False, f"{t.size} output times, expected {expected.size}"
    err = float(np.max(np.abs(t - expected)))
    return err <= 1e-9 * scale, f"max time error {err:.1e}"


def _all(*verdicts):
    ok = all(v[0] for v in verdicts)
    return ok, "; ".join(v[1] for v in verdicts)


def sqg_checks(slot, inv, out):
    """L2 is conserved by the dealiased transport and the unitary integrating
    factor, so the L2 column may drift only by the RK4 truncation error:
    at most 1e-8 per unit time, the bound of acceptance criterion 7."""
    p = inv.params
    data = read_csv(os.path.join(out, "report.csv"))
    expected_t = np.linspace(0.0, p["t_final"], p["n_outputs"] + 1)
    bound = 1e-8 * p["t_final"]

    def verify(d):
        drift = float(np.max(np.abs(d["L2"] - d["L2"][0])) / d["L2"][0])
        return _all(_output_times(d["t"], expected_t, p["t_final"]),
                    (drift <= bound, f"L2 drift {drift:.1e} (<= {bound:.0e})"))

    def perturb(d):
        d["L2"][-1] *= 1.0 + 10.0 * bound

    return [Check("sqg_l2_conserved", slot, data, verify, perturb)]


def _bouss_invariant(omega, rho, xi_sq, sign):
    """sum |w|^2/|xi|^2 + sign |rho|^2, and its scale for relative drift."""
    kinetic = np.sum(np.abs(omega[1:]) ** 2 / xi_sq[1:])
    potential = np.sum(np.abs(rho[1:]) ** 2)
    return kinetic + sign * potential, kinetic + potential


def bouss_invariant_checks(slot, inv, n_steps=25):
    """Steps the run's initial data through the public boussinesq.step: the
    stable branch keeps sum |w|^2/|xi|^2 + |rho|^2, the unstable one
    sum |w|^2/|xi|^2 - |rho|^2 (linear part exact per mode, dealiased
    transport conserving both quadratic pieces)."""
    from anisodisp import boussinesq
    from anisodisp.spectral import Grid2D, SpectralField

    N, L = inv.grid["N"], inv.grid["L"]
    branch = inv.params["branch"]
    sign = 1.0 if branch == "stable" else -1.0
    xi1, xi2 = _grid_xi(N, L)
    xi_sq = (xi1**2 + xi2**2).ravel()
    grid = Grid2D(N, L)
    fo, fr = boussinesq.default_profiles(grid)
    checks = []
    for eps in (float(e) for e in inv.params["eps_list"].split(",")):
        state = boussinesq.BoussState(
            omega=SpectralField(grid, eps * fo.coeffs),
            rho=SpectralField(grid, eps * fr.coeffs),
            dt=inv.params["dt"], branch=branch)
        # the first step drops the modes outside the dealiasing set
        state = boussinesq.step(state)
        first = (state.omega.coeffs.ravel().copy(), state.rho.coeffs.ravel().copy())
        for _ in range(n_steps):
            state = boussinesq.step(state)
        data = {"first": first,
                "last": (state.omega.coeffs.ravel(), state.rho.coeffs.ravel())}

        def verify(d):
            i0, scale = _bouss_invariant(*d["first"], xi_sq, sign)
            i1, _ = _bouss_invariant(*d["last"], xi_sq, sign)
            drift = abs(i1 - i0) / scale
            return drift <= 1e-11, f"{branch} invariant drift {drift:.1e} (<= 1e-11)"

        def perturb(d):
            d["last"][1][d["last"][1] != 0] *= 1.0 + 1e-6

        checks.append(Check(f"bouss_{branch}_invariant_eps{eps}", slot, data,
                            verify, perturb))
    return checks


def bouss_exit_check(stable_slot, stable_out, unstable_out):
    data = {"stable": read_csv(os.path.join(stable_out, "report.csv")),
            "unstable": read_csv(os.path.join(unstable_out, "report.csv"))}

    def verify(d):
        s, u = d["stable"], d["unstable"]
        same_eps = np.array_equal(s["eps"], u["eps"])
        ok = same_eps and bool(np.all(u["exit_time"] < s["exit_time"]))
        return ok, (f"unstable exits {u['exit_time'].tolist()} < "
                    f"stable {s['exit_time'].tolist()}")

    def perturb(d):
        d["unstable"]["exit_time"][0] = d["stable"]["exit_time"][0]

    return [Check("bouss_unstable_exits_first", stable_slot, data, verify, perturb)]


def lin_decay_checks(slot, inv, out):
    """linf of an exact evolution made with numpy's FFT at sampled times, and
    a t^{-1/2} log-log slope of the reported series."""
    N, L = inv.grid["N"], inv.grid["L"]
    width = inv.params["width"]
    data = read_csv(os.path.join(out, "report.csv"))
    x = np.arange(N) * L / N - L / 2.0
    c = np.fft.fft2(np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / width**2))
    xi1, xi2 = _grid_xi(N, L)
    r = np.hypot(xi1, xi2)
    r[0, 0] = 1.0
    keep = np.ones((N, N))
    keep[0, 0] = 0.0  # zero-mean data
    keep[N // 2, :] = keep[:, N // 2] = 0.0  # Nyquist rows carry no real mode
    sample = sorted({0, len(data["t"]) // 2, len(data["t"]) - 1})
    exact = {}
    for i in sample:
        t = data["t"][i]
        exact[i] = float(np.max(np.abs(
            np.fft.ifft2(c * keep * np.exp(-1j * t * xi1 / r)).real)))
    del c, xi1, xi2, r, keep
    expected_t = np.geomspace(inv.params["t_lo"], inv.params["t_hi"],
                              inv.params["n_times"])

    def verify_exact(d):
        err = max(abs(d["linf"][i] - v) / v for i, v in exact.items())
        return _all(_output_times(d["t"], expected_t, inv.params["t_hi"]),
                    (err <= 1e-10, f"linf vs exact evolution {err:.1e} (<= 1e-10)"))

    def perturb_exact(d):
        d["linf"][sample[-1]] *= 1.0 + 1e-8

    def verify_slope(d):
        mask = (d["t"] >= 10.0) & (d["t"] <= 100.0)
        own = float(np.polyfit(np.log(d["t"][mask]), np.log(d["linf"][mask]), 1)[0])
        told = float(d["fitted_slope"][0])
        ok = abs(own + 0.5) <= 0.1 and abs(own - told) <= 1e-9
        return ok, f"slope {own:.4f} (reported {told:.4f}, band -0.5 +- 0.1)"

    def perturb_slope(d):
        d["linf"] = d["linf"] * (d["t"] / d["t"][0]) ** 0.2

    return [Check("lin_decay_exact_linf", slot, data, verify_exact, perturb_exact),
            Check("lin_decay_slope", slot, data, verify_slope, perturb_slope)]


def sharpness_checks(slot, inv, out):
    """The shell profile is radial, so the evolved value at the origin is
    f(0) J0(t); f(0) is the sum of the shell bump over the lattice."""
    N, L = inv.grid["N"], inv.grid["L"]
    data = read_csv(os.path.join(out, "report.csv"))
    xi1, xi2 = _grid_xi(N, L)
    weights = _bump(np.hypot(xi1, xi2))
    weights[N // 2, :] = weights[:, N // 2] = 0.0
    f0 = float(np.sum(weights))
    expected_t = np.linspace(inv.params["t_lo"], inv.params["t_hi"],
                             inv.params["n_times"])

    def verify(d):
        from scipy import special

        ref = f0 * special.j0(d["t"])
        origin = float(np.max(np.abs(d["origin_value"] - ref))) / abs(f0)
        radial = float(np.max(np.abs(d["radial_reference"] - ref))) / abs(f0)
        return _all(_output_times(d["t"], expected_t, inv.params["t_hi"]),
                    (origin <= 1e-6, f"origin vs f(0) J0(t) {origin:.1e} (<= 1e-6)"),
                    (radial <= 1e-10, f"radial reference {radial:.1e} (<= 1e-10)"))

    def perturb(d):
        d["origin_value"][len(d["t"]) // 2] += 1e-5 * f0

    return [Check("sharpness_origin_is_f0_j0", slot, data, verify, perturb)]


def kernel_checks(slot, inv, out):
    """With alpha = 1 and v = 0 the phase is -cos(angle), so the kernel is
    J0(t) times the mass of the shell bump."""
    from scipy import integrate, special

    data = read_csv(os.path.join(out, "report.csv"))
    mass = 2.0 * np.pi * integrate.quad(lambda r: float(_bump(r)) * r, 0.5, 2.0,
                                        epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    times = np.array([float(s) for s in inv.params["times"].split(",")])

    def verify(d):
        if not np.array_equal(d["t"], times):
            return False, f"times {list(d['t'])}, expected {list(times)}"
        err = float(np.max(np.abs(d["kernel_abs"] - mass * np.abs(special.j0(times)))))
        return err <= 1e-9 * mass, f"kernel vs |J0(t)| mass {err:.1e} (<= 1e-9 mass)"

    def perturb(d):
        d["kernel_abs"][-1] *= 1.0 + 1e-6

    return [Check("kernel_is_j0_times_mass", slot, data, verify, perturb)]


def output_checks(invocations, out_dirs):
    """All content checks on one round's outputs (`out_dirs` by slot)."""
    checks = []
    slots = {inv.name: i for i, inv in enumerate(invocations)}
    for i, inv in enumerate(invocations):
        if inv.kind == "sqg":
            checks += sqg_checks(i, inv, out_dirs[i])
        elif inv.kind == "bouss":
            checks += bouss_invariant_checks(i, inv)
        elif inv.kind == "lin_decay":
            checks += lin_decay_checks(i, inv, out_dirs[i])
        elif inv.kind == "sharpness":
            checks += sharpness_checks(i, inv, out_dirs[i])
        elif inv.kind == "kernel":
            checks += kernel_checks(i, inv, out_dirs[i])
    if "bouss_stable" in slots:
        checks += bouss_exit_check(slots["bouss_stable"],
                                   out_dirs[slots["bouss_stable"]],
                                   out_dirs[slots["bouss_unstable"]])
    return checks


def read_tree(out_dir):
    """{file name: bytes} of one invocation's report files."""
    tree = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


def identical_check(slot, first, later):
    """Repeated invocations on one input give byte-identical reports."""
    data = {"first": first, "later": later}

    def verify(d):
        same = all(tree == d["first"] for tree in d["later"])
        return same and bool(d["first"]), f"{len(d['later'])} repeats byte-identical"

    def perturb(d):
        name = next(iter(d["later"][0]))
        d["later"][0][name] = d["later"][0][name] + b" "

    return Check("reports_byte_identical", slot, data, verify, perturb)
