"""Perturbed stratified Boussinesq system around rho = -y (stable) or
rho = +y (unstable), in vorticity/density-perturbation variables.

Per Fourier mode the linear part is a 2x2 system in (omega_hat, |xi| rho_hat)
with eigenvalues +-i xi_1/|xi| on the stable branch (an exact rotation, so
the mode energy |omega_hat|^2 + |xi|^2 |rho_hat|^2 is conserved) and real
growth rates +-xi_1/|xi| on the unstable branch.  The stepper uses this
exact propagator as the integrating factor for RK4.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as sfft

from .spectral import (
    MultiplierSpec,
    SpectralError,
    SpectralField,
    apply_multiplier,
    forward_transform,
    full_spectrum,
    half_spectrum,
    l2_norm,
    sobolev_norm,
    sobolev_weight,
    weighted_norm,
)
from .sqg import _dealias_mask, _HalfSpectrumWorkspace, _if_rk4, _integrate


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
    return tuple(apply_multiplier(omega, MultiplierSpec.velocity_bouss(j)) for j in (1, 2))


def mode_energy(omega, rho):
    """Per-mode E(k) = |omega_hat|^2 + |xi|^2 |rho_hat|^2 and its total."""
    E = np.abs(omega.coeffs) ** 2 + omega.grid.xi_sq * np.abs(rho.coeffs) ** 2
    return E, float(np.sum(E))


def _propagator_arrays(xi1, xi2, r, t, branch):
    """(c, [s_om, s_rho]): omega' = c om + s_om rho, rho' = c rho + s_rho om.

    xi1, xi2 and r = |xi| (1 at the zero mode) on the half lattice.
    """
    # the rate xi_1/|xi|: the generator's symbol is -i xi_1/|xi|
    beta = -MultiplierSpec.generator(1.0).on(xi1, xi2).imag
    stable = branch == "stable"
    c = (np.cos if stable else np.cosh)(beta * t)
    s = (np.sin if stable else np.sinh)(beta * t)
    return c + 0j, np.stack([1j * r * s, (1j if stable else -1j) * s / r])


def _half_pair(state):
    return np.stack([half_spectrum(state.omega.coeffs), half_spectrum(state.rho.coeffs)])


def linear_propagator(state, t):
    """Exact per-mode solution of the linearized system, advanced by t."""
    grid = state.omega.grid
    xi1, xi2, r = (half_spectrum(a) for a in (grid.xi1, grid.xi2, grid.xi_mod_safe))
    P = _propagator_arrays(xi1, xi2, r, t, state.branch)
    y = full_spectrum(_Workspace.propagate(P, _half_pair(state)))
    fo, fr = (SpectralField(grid, c).zero_nyquist() for c in y)
    return replace(state, omega=fo, rho=fr, time=state.time + t)


def diagonal_variables(state):
    """(omega + |grad| rho, omega - |grad| rho) as coefficient arrays."""
    r = state.omega.grid.xi_mod
    return (
        state.omega.coeffs + r * state.rho.coeffs,
        state.omega.coeffs - r * state.rho.coeffs,
    )


class _Workspace(_HalfSpectrumWorkspace):
    """Boussinesq symbols for one (grid, dealias, branch) combo; the pair
    (omega, rho) is stacked on a leading axis of the half lattice."""

    def __init__(self, grid, dealias, branch):
        super().__init__(grid, dealias)
        self.velocity = self.symbols(MultiplierSpec.velocity_bouss, 1, 2)
        self.grad = self.symbols(MultiplierSpec.deriv, 1, 2)
        self.r = half_spectrum(grid.xi_mod_safe)
        self.branch = branch

    def propagator(self, dt):
        """`_propagator_arrays` for dt and for dt / 2, built once per dt."""
        key = round(dt, 15)
        if key not in self._props:
            self._props[key] = tuple(
                _propagator_arrays(self.xi1, self.xi2, self.r, t, self.branch)
                for t in (dt, dt / 2.0)
            )
        return self._props[key]

    @staticmethod
    def propagate(P, y):
        c, s = P
        return c * y + s * y[::-1]

    def nonlinear(self, y):
        """(-dealias(u.grad omega), -dealias(u.grad rho)) stacked, and max |u|."""
        spec = np.concatenate([self.velocity * y[0], self.grad[0] * y, self.grad[1] * y])
        u1, u2, ox, rx, oy, ry = sfft.irfft2(spec, axes=(-2, -1), norm="forward")
        adv = sfft.rfft2(np.stack([u1 * ox + u2 * oy, u1 * rx + u2 * ry]),
                         axes=(-2, -1), norm="forward")
        adv *= self.half_mask
        umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
        return -adv, umax

    def grad_fields(self, y):
        return np.stack([self.velocity[0] * y[0], self.velocity[1] * y[0], y[1]])


def step(state, workspace=None):
    """One `_if_rk4` step of the perturbed system on the stacked half spectra."""
    ws = workspace or _Workspace(state.omega.grid, state.dealias, state.branch)
    full = _if_rk4(ws, _half_pair(state) * ws.half_mask, state)
    fo, fr = (SpectralField(state.omega.grid, c) for c in full)
    return replace(state, omega=fo, rho=fr, time=state.time + state.dt)


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

    def columns(self):
        """The report columns, [(name, values)] in order."""
        return [("t", self.times), ("Hs_omega", self.hs_omega), ("Hs1_rho", self.hs1_rho),
                ("E_total", self.e_total), ("gradU_inf", self.grad_u_inf),
                ("gradRho_inf", self.grad_rho_inf), ("integral", self.integral)]


def default_profiles(grid):
    """Fixed smooth zero-mean profiles for the unit-size perturbation."""
    X, Y = grid.meshgrid()
    w = np.exp(-(X**2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * X / grid.L * 4.0)
    r = np.exp(-((X - 2.0) ** 2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * Y / grid.L * 4.0)
    fo = forward_transform(w, grid).zero_mean()
    fr = forward_transform(r, grid).zero_mean()
    return fo, fr


def stability_experiment(grid, eps, T, dt, branch="stable", delta=0.5, gamma=0.5,
                         n_outputs=60, dealias=2.0 / 3.0, growth_cap=1e3,
                         profiles=None):
    """Integrate eps-size perturbations and report the bootstrap exit time.

    Exit is the first step time where ||omega||_{H^{4+delta}} +
    ||rho||_{H^{5+gamma}} exceeds twice its initial value; censored runs
    report exit_time = T, and a blown-up run the time of its last state.
    """
    if not 0.0 < eps <= 0.1:
        raise SpectralError(f"perturbation size must lie in (0, 0.1], got {eps}")
    s_om = 4.0 + delta
    s_rh = 5.0 + gamma
    fo, fr = profiles if profiles else default_profiles(grid)
    ws = _Workspace(grid, dealias, branch)
    om0 = SpectralField(grid, eps * fo.coeffs * ws.mask)
    rh0 = SpectralField(grid, eps * fr.coeffs * ws.mask)
    state = BoussState(omega=om0, rho=rh0, dt=dt, dealias=dealias, branch=branch)

    rep = StabilityReport(branch=branch, eps=eps)
    rep.initial_norms = {
        "omega_H4d": sobolev_norm(state.omega, s_om),
        "omega_Hm1": sobolev_norm(state.omega, -1.0),
        "rho_H5g": sobolev_norm(state.rho, s_rh),
        "omega_L2": l2_norm(state.omega),
    }
    w_om = sobolev_weight(grid, s_om)
    w_rh = sobolev_weight(grid, s_rh)

    def record(st):
        gu, gr = ws.grad_norms(_half_pair(st))
        rep.hs_omega.append(weighted_norm(st.omega, w_om))
        rep.hs1_rho.append(weighted_norm(st.rho, w_rh))
        rep.e_total.append(mode_energy(st.omega, st.rho)[1])
        rep.grad_u_inf.append(gu)
        rep.grad_rho_inf.append(gr)
        return gu + gr

    def norm(st):
        return weighted_norm(st.omega, w_om) + weighted_norm(st.rho, w_rh)

    _, stop = _integrate(rep, state, lambda st: step(st, ws), record, norm,
                         T, n_outputs, growth_cap, exit_factor=2.0)
    rep.exit_time = T if stop is None else stop
    return rep
