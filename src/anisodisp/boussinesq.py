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

from .spectral import (
    MultiplierSpec,
    SpectralError,
    SpectralField,
    _modulus_sq,
    dispersion_rate,
    forward_transform,
    full_spectrum,
    l2_norm,
    sobolev_norm,
    sobolev_weight,
    weighted_norm,
)
from .sqg import _Clock, _HalfSpectrumWorkspace, _if_rk4, _integrate


@dataclass
class BoussState(_Clock):
    omega: SpectralField
    rho: SpectralField
    t0: float = 0.0
    dt: float = 1e-2
    branch: str = "stable"
    steps: int = 0

    def __post_init__(self):
        if self.branch not in ("stable", "unstable"):
            raise SpectralError(f"branch must be stable or unstable, got {self.branch}")
        if self.omega.grid != self.rho.grid:
            raise SpectralError("omega and rho must share a grid")
        self.omega.zero_mean()
        self.rho.zero_mean()


def mode_energy(omega, rho):
    """Per-mode E(k) = |omega_hat|^2 + |xi|^2 |rho_hat|^2 and its total."""
    E = np.abs(omega.coeffs) ** 2 + omega.grid.xi_sq * np.abs(rho.coeffs) ** 2
    return E, float(np.sum(E))


def _propagator_arrays(xi1, xi2, r, t, branch):
    """(c, [s_om, s_rho]): omega' = c om + s_om rho, rho' = c rho + s_rho om.

    xi1, xi2 (the half lattice or its axes) and r = |xi|, 1 at the zero mode.
    """
    beta = dispersion_rate(xi1, xi2, 1.0)
    stable = branch == "stable"
    c = (np.cos if stable else np.cosh)(beta * t)
    s = (np.sin if stable else np.sinh)(beta * t)
    return c + 0j, np.stack([1j * r * s, (1j if stable else -1j) * s / r])


def _half_pair(state):
    return np.stack([state.omega.half, state.rho.half])


def linear_propagator(state, t):
    """Exact per-mode solution of the linearized system, advanced by t."""
    grid = state.omega.grid
    xi1, xi2 = grid.xi_axes(half=True)
    P = _propagator_arrays(xi1, xi2, np.sqrt(_modulus_sq(xi1, xi2)), t, state.branch)
    y = full_spectrum(_Workspace.propagate(P, _half_pair(state)))
    fo, fr = (SpectralField(grid, c).zero_nyquist() for c in y)
    return replace(state, omega=fo, rho=fr, t0=state.time + t, steps=0)


def diagonal_variables(state):
    """(omega + |grad| rho, omega - |grad| rho) as coefficient arrays."""
    r = state.omega.grid.xi_mod
    return (
        state.omega.coeffs + r * state.rho.coeffs,
        state.omega.coeffs - r * state.rho.coeffs,
    )


class _Workspace(_HalfSpectrumWorkspace):
    """Boussinesq symbols for one (grid, branch) pair; the pair (omega, rho)
    is stacked on a leading axis of the half lattice."""

    FIELDS = 6

    def __init__(self, grid, branch):
        super().__init__(grid)
        self.velocity = self.symbols(MultiplierSpec.velocity_bouss, 1, 2)
        self.grad = self.symbols(MultiplierSpec.deriv, 1, 2)
        self.r = np.sqrt(_modulus_sq(self.xi1, self.xi2))
        self.branch = branch

    def propagator(self, dt):
        """`_propagator_arrays` for dt and for dt / 2, built once per dt."""
        return self._cached_propagators(
            dt, lambda t: _propagator_arrays(self.xi1, self.xi2, self.r, t, self.branch))

    @staticmethod
    def propagate(P, y):
        c, s = P
        return c * y + s * y[::-1]

    def nonlinear(self, y):
        """(-dealias(u.grad omega), -dealias(u.grad rho)) stacked on the kept
        columns, and max |u|."""
        def fill(spec, rows):
            np.multiply(self.velocity[:, rows], y[0, rows], out=spec[:2, rows])
            # grad_j * y, j = 1 then 2
            np.multiply(self.grad[:, None, rows], y[:, rows],
                        out=spec[2:].reshape(2, 2, *spec.shape[1:])[:, :, rows])

        return self.advection(fill)


def step(state, workspace=None):
    """One `_if_rk4` step of the perturbed system on the stacked half spectra."""
    ws = workspace or _Workspace(state.omega.grid, state.branch)
    full = _if_rk4(ws, _half_pair(state)[..., : ws.K] * ws.mask_K, state)
    fo, fr = (SpectralField(state.omega.grid, c) for c in full)
    return replace(state, omega=fo, rho=fr, steps=state.steps + 1)


@dataclass
class StabilityReport:
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


def default_profiles(grid):
    """Fixed smooth zero-mean profiles for the unit-size perturbation."""
    X, Y = grid.x[:, None], grid.x[None, :]
    w = np.exp(-(X**2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * X / grid.L * 4.0)
    r = np.exp(-((X - 2.0) ** 2 + Y**2) / 4.0) * np.sin(2.0 * np.pi * Y / grid.L * 4.0)
    fo = forward_transform(w, grid).zero_mean()
    fr = forward_transform(r, grid).zero_mean()
    return fo, fr


def stability_experiment(grid, eps, T, dt, branch="stable", n_outputs=60):
    """Integrate eps-size perturbations and report the bootstrap exit time.

    Exit is the first step time where ||omega||_{H^{4.5}} +
    ||rho||_{H^{5.5}} exceeds twice its initial value; censored runs
    report exit_time = T, and a blown-up run the time of its last state.
    """
    if not 0.0 < eps <= 0.1:
        raise SpectralError(f"perturbation size must lie in (0, 0.1], got {eps}")
    s_om, s_rh = 4.5, 5.5
    fo, fr = default_profiles(grid)
    ws = _Workspace(grid, branch)
    om0 = SpectralField(grid, eps * fo.coeffs * ws.mask)
    rh0 = SpectralField(grid, eps * fr.coeffs * ws.mask)
    del fo, fr  # two (N, N) spectra the run no longer reads
    state = BoussState(omega=om0, rho=rh0, dt=dt, branch=branch)

    w_om = sobolev_weight(grid, s_om)
    w_rh = sobolev_weight(grid, s_rh)
    rep = StabilityReport()
    # the H^{4.5} and H^{5.5} norms at t = 0 are the first record's
    rep.initial_norms = {"omega_Hm1": sobolev_norm(state.omega, -1.0),
                         "omega_L2": l2_norm(state.omega)}

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
                         T, n_outputs, exit_factor=2.0, worker=ws.worker)
    rep.initial_norms.update(omega_H4d=rep.hs_omega[0], rho_H5g=rep.hs1_rho[0])
    rep.exit_time = T if stop is None else stop
    return rep
