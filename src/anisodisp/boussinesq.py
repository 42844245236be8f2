"""Perturbed stratified Boussinesq system around rho = -y (stable) or
rho = +y (unstable), in vorticity/density-perturbation variables.

Per Fourier mode the linear part is a 2x2 system in (omega_hat, |xi| rho_hat)
with eigenvalues +-i xi_1/|xi| on the stable branch (an exact rotation, so
the mode energy |omega_hat|^2 + |xi|^2 |rho_hat|^2 is conserved) and real
growth rates +-xi_1/|xi| on the unstable branch.  The stepper uses this
exact propagator as the integrating factor for RK4.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .spectral import (
    MultiplierSpec,
    SpectralError,
    SpectralField,
    apply_multiplier,
    full_spectrum,
    half_spectrum,
    l2_norm,
    sobolev_norm,
    sobolev_weight,
    weighted_norm,
)
from .sqg import BlowUpError, CFLError, _dealias_mask


@dataclass
class BoussState:
    omega: SpectralField
    rho: SpectralField
    time: float = 0.0
    dt: float = 1e-2
    dealias: float = 2.0 / 3.0
    branch: str = "stable"

    def __post_init__(self):
        if self.branch not in ("stable", "unstable"):
            raise SpectralError(f"branch must be stable or unstable, got {self.branch}")
        if self.omega.grid != self.rho.grid:
            raise SpectralError("omega and rho must share a grid")
        self.omega.zero_mean()
        self.rho.zero_mean()


def velocity(omega):
    """u = (-d2, d1)(-Lap)^{-1} omega; u2 = d1 (-Lap)^{-1} omega."""
    return (
        apply_multiplier(omega, MultiplierSpec.velocity_bouss(1)),
        apply_multiplier(omega, MultiplierSpec.velocity_bouss(2)),
    )


def mode_energy(omega, rho):
    """Per-mode E(k) = |omega_hat|^2 + |xi|^2 |rho_hat|^2 and its total."""
    E = np.abs(omega.coeffs) ** 2 + omega.grid.xi_sq * np.abs(rho.coeffs) ** 2
    return E, float(np.sum(E))


def _propagator_arrays(xi1, r, t, branch):
    """(c, s_om, s_rho): omega' = c om + s_om rho, rho' = c rho + s_rho om.

    xi1 and r = |xi| (1 at the zero mode) may be the full or the half lattice.
    """
    beta = xi1 / r
    if branch == "stable":
        c = np.cos(beta * t)
        s = np.sin(beta * t)
        return c + 0j, 1j * r * s, 1j * s / r
    c = np.cosh(beta * t)
    s = np.sinh(beta * t)
    return c + 0j, 1j * r * s, -1j * s / r


def linear_propagator(state, t):
    """Exact per-mode solution of the linearized system, advanced by t."""
    grid = state.omega.grid
    c, s_om, s_rho = _propagator_arrays(grid.xi1, grid.xi_mod_safe, t, state.branch)
    om = state.omega.coeffs
    rh = state.rho.coeffs
    om_new = c * om + s_om * rh
    rh_new = c * rh + s_rho * om
    fo = SpectralField(grid, om_new)
    fr = SpectralField(grid, rh_new)
    for f in (fo, fr):
        f.zero_mean()
        f.zero_nyquist()
        f.enforce_hermitian()
    return BoussState(
        omega=fo, rho=fr, time=state.time + t, dt=state.dt,
        dealias=state.dealias, branch=state.branch,
    )


def diagonal_variables(state):
    """(omega + |grad| rho, omega - |grad| rho) as coefficient arrays."""
    r = state.omega.grid.xi_mod
    return (
        state.omega.coeffs + r * state.rho.coeffs,
        state.omega.coeffs - r * state.rho.coeffs,
    )


class _Workspace:
    """Half-spectrum arrays for one (grid, dealias, branch) combo.

    The pair (omega, rho) is stacked on a leading axis of the (N, N//2 + 1)
    half lattice that `rfft2` stores; transforms use norm="forward", the
    field normalization.
    """

    def __init__(self, grid, dealias, branch):
        self.grid = grid
        M = grid.N // 2 + 1
        xi1, xi2 = grid.xi1[:, :M], grid.xi2[:, :M]
        xi_sq = grid.xi_sq[:, :M].copy()
        xi_sq[0, 0] = 1.0
        u1, u2 = -1j * xi2 / xi_sq, 1j * xi1 / xi_sq
        d1, d2 = 1j * xi1, 1j * xi2
        self.velocity = np.stack([u1, u2])
        self.grad = np.stack([d1, d2])
        self.xi1 = xi1
        self.r = grid.xi_mod_safe[:, :M]
        self.mask = _dealias_mask(grid, dealias)
        self.half_mask = half_spectrum(self.mask)
        self.branch = branch
        self._props = {}

    def propagator(self, t):
        """(c, [s_om, s_rho]) of `_propagator_arrays` for time t, built once per t."""
        key = round(t, 15)
        if key not in self._props:
            c, s_om, s_rho = _propagator_arrays(self.xi1, self.r, t, self.branch)
            self._props[key] = (c, np.stack([s_om, s_rho]))
        return self._props[key]

    def nonlinear(self, y):
        """(-dealias(u.grad omega), -dealias(u.grad rho)) stacked, and max |u|."""
        spec = np.concatenate([self.velocity * y[0], self.grad[0] * y, self.grad[1] * y])
        u1, u2, ox, rx, oy, ry = sfft.irfft2(spec, axes=(-2, -1), norm="forward")
        adv = sfft.rfft2(np.stack([u1 * ox + u2 * oy, u1 * rx + u2 * ry]),
                         axes=(-2, -1), norm="forward")
        adv *= self.half_mask
        umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
        return -adv, umax

    def apply_prop(self, y, t):
        c, s = self.propagator(t)
        return c * y + s * y[::-1]

    def grad_norms(self, y):
        """(max |grad u|, max |grad rho|) over the entries of each gradient."""
        # d1, d2 applied to u1, u2 and rho: grad u's entries, then grad rho's
        fields = np.stack([self.velocity[0] * y[0], self.velocity[1] * y[0], y[1]])
        spec = (fields[:, None] * self.grad).reshape(6, *y.shape[1:])
        g = np.abs(sfft.irfft2(spec, axes=(-2, -1), norm="forward"))
        return float(np.max(g[:4])), float(np.max(g[4:]))


def _half_pair(state):
    return np.stack([half_spectrum(state.omega.coeffs), half_spectrum(state.rho.coeffs)])


def step(state, workspace=None):
    """One integrating-factor RK4 step of the perturbed system.

    The stages run on the stacked half spectra; the CFL check uses the
    velocity of the first stage.  The full Hermitian spectra are rebuilt
    once, at the end.
    """
    ws = workspace or _Workspace(state.omega.grid, state.dealias, state.branch)
    grid = state.omega.grid
    y = _half_pair(state) * ws.half_mask
    dt = state.dt
    k1, umax = ws.nonlinear(y)
    kmax = np.pi * grid.N / grid.L
    if umax > 0.0 and abs(dt) > 0.5 / (umax * kmax):
        raise CFLError(dt, 0.5 / (umax * kmax))
    P = ws.apply_prop
    Ey = P(y, dt)
    k2, _ = ws.nonlinear(P(y + dt / 2.0 * k1, dt / 2.0))
    k3, _ = ws.nonlinear(P(y, dt / 2.0) + dt / 2.0 * k2)
    k4, _ = ws.nonlinear(Ey + dt * P(k3, dt / 2.0))
    yn = Ey + dt / 6.0 * (P(k1, dt) + 2.0 * P(k2 + k3, dt / 2.0) + k4)
    if not np.all(np.isfinite(yn)):
        raise BlowUpError(state.time, state)
    fo, fr = (SpectralField(grid, c) for c in full_spectrum(yn))
    for f in (fo, fr):
        f.zero_mean()
        f.zero_nyquist()
    return BoussState(
        omega=fo, rho=fr, time=state.time + dt, dt=dt,
        dealias=state.dealias, branch=state.branch,
    )


@dataclass
class StabilityReport:
    branch: str
    eps: float
    times: list = field(default_factory=list)
    hs_omega: list = field(default_factory=list)
    hs1_rho: list = field(default_factory=list)
    e_total: list = field(default_factory=list)
    grad_u_inf: list = field(default_factory=list)
    grad_rho_inf: list = field(default_factory=list)
    integral: list = field(default_factory=list)
    exit_time: float = None
    initial_norms: dict = field(default_factory=dict)
    blew_up: bool = False

    def rows(self):
        for i in range(len(self.times)):
            yield {
                "t": self.times[i],
                "Hs_omega": self.hs_omega[i],
                "Hs1_rho": self.hs1_rho[i],
                "E_total": self.e_total[i],
                "gradU_inf": self.grad_u_inf[i],
                "gradRho_inf": self.grad_rho_inf[i],
                "integral": self.integral[i],
            }


def default_profiles(grid):
    """Fixed smooth zero-mean profiles for the unit-size perturbation."""
    X, Y = grid.meshgrid()
    w = np.exp(-(X**2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * X / grid.L * 4.0)
    r = np.exp(-((X - 2.0) ** 2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * Y / grid.L * 4.0)
    from .spectral import forward_transform

    fo = forward_transform(w, grid).zero_mean()
    fr = forward_transform(r, grid).zero_mean()
    return fo, fr


def stability_experiment(grid, eps, T, dt, branch="stable", delta=0.5, gamma=0.5,
                         n_outputs=60, dealias=2.0 / 3.0, growth_cap=1e3,
                         profiles=None):
    """Integrate eps-size perturbations and report the bootstrap exit time.

    Exit is the first output time where ||omega||_{H^{4+delta}} +
    ||rho||_{H^{5+gamma}} exceeds twice its initial value; censored runs
    report exit_time = T.
    """
    if not 0.0 < eps <= 0.1:
        raise SpectralError(f"perturbation size must lie in (0, 0.1], got {eps}")
    s_om = 4.0 + delta
    s_rh = 5.0 + gamma
    fo, fr = profiles if profiles else default_profiles(grid)
    om0 = SpectralField(grid, eps * fo.coeffs)
    rh0 = SpectralField(grid, eps * fr.coeffs)
    state = BoussState(omega=om0, rho=rh0, dt=dt, dealias=dealias, branch=branch)
    ws = _Workspace(grid, dealias, branch)
    state.omega.coeffs *= ws.mask
    state.rho.coeffs *= ws.mask

    rep = StabilityReport(branch=branch, eps=eps)
    rep.initial_norms = {
        "omega_H4d": sobolev_norm(state.omega, s_om),
        "omega_Hm1": sobolev_norm(state.omega, -1.0),
        "rho_H5g": sobolev_norm(state.rho, s_rh),
        "omega_L2": l2_norm(state.omega),
    }
    norm0 = rep.initial_norms["omega_H4d"] + rep.initial_norms["rho_H5g"]
    w_om = sobolev_weight(grid, s_om)
    w_rh = sobolev_weight(grid, s_rh)

    def record(st, running):
        gu, gr = ws.grad_norms(_half_pair(st))
        rep.times.append(st.time)
        rep.hs_omega.append(weighted_norm(st.omega, w_om))
        rep.hs1_rho.append(weighted_norm(st.rho, w_rh))
        rep.e_total.append(mode_energy(st.omega, st.rho)[1])
        rep.grad_u_inf.append(gu)
        rep.grad_rho_inf.append(gr)
        rep.integral.append(running)
        return gu + gr

    out_times = np.linspace(0.0, T, n_outputs + 1)
    running = 0.0
    last_rate = record(state, running)
    next_out = 1
    nsteps = int(round(T / dt))
    try:
        for n in range(1, nsteps + 1):
            state = step(state, ws)
            current = weighted_norm(state.omega, w_om) + weighted_norm(state.rho, w_rh)
            if eps > 0 and current > growth_cap * norm0:
                raise BlowUpError(state.time, state, reason="growth cap exceeded")
            while next_out <= n_outputs and state.time >= out_times[next_out] - 1e-12:
                rate_prev = last_rate
                t_prev = rep.times[-1]
                last_rate = record(state, running)
                running += 0.5 * (rate_prev + last_rate) * (state.time - t_prev)
                rep.integral[-1] = running
                next_out += 1
            if rep.exit_time is None and current > 2.0 * norm0:
                rep.exit_time = state.time
                break
    except BlowUpError:
        rep.blew_up = True
        if rep.exit_time is None:
            rep.exit_time = state.time
    if rep.exit_time is None:
        rep.exit_time = T
    return rep
