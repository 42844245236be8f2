"""Dispersive SQG evolution with an integrating-factor RK4 stepper.

The linear semigroup is applied exactly as a multiplier, so only the
pseudo-spectral transport term is discretized in time.  Products are
dealiased with the 2/3 rule (state and nonlinear term masked to the
retained disc), which makes the semi-discrete transport conserve L^2
exactly; any drift measures the RK4 truncation error.
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
    sobolev_weight,
    weighted_norm,
)


class CFLError(RuntimeError):
    def __init__(self, dt, dt_required):
        super().__init__(
            f"CFL violated: dt={dt} exceeds the admissible {dt_required:.3e}"
        )
        self.dt_required = dt_required


class BlowUpError(RuntimeError):
    """Carries the last valid state and its time."""

    def __init__(self, time, state=None, reason="NaN detected"):
        super().__init__(f"blow-up signal at t={time}: {reason}")
        self.time = time
        self.state = state


@dataclass
class SQGState:
    theta: SpectralField
    time: float = 0.0
    alpha: float = 1.0
    dt: float = 1e-2
    dealias: float = 2.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.dealias <= 1.0:
            raise SpectralError(f"dealias fraction must be in (0, 1], got {self.dealias}")
        self.theta.zero_mean()


def velocity(theta):
    """u = (-R2 theta, R1 theta); divergence-free by construction."""
    return (
        apply_multiplier(theta, MultiplierSpec.velocity_sqg(1)),
        apply_multiplier(theta, MultiplierSpec.velocity_sqg(2)),
    )


def _dealias_mask(grid, fraction):
    cutoff = fraction * (grid.N // 2)
    return (np.abs(grid.k1) < cutoff) & (np.abs(grid.k2) < cutoff)


class _Workspace:
    """Half-spectrum arrays for one (grid, alpha, dealias) combo.

    Symbols live on the (N, N//2 + 1) half lattice that `rfft2` stores.  The
    transforms use norm="forward", which is the field normalization: no
    factor on synthesis, 1/N^2 on analysis.
    """

    def __init__(self, grid, alpha, dealias):
        self.grid = grid
        M = grid.N // 2 + 1
        xi1, xi2 = grid.xi1[:, :M], grid.xi2[:, :M]
        r = grid.xi_mod_safe[:, :M]
        u1, u2 = 1j * xi2 / r, -1j * xi1 / r
        d1, d2 = 1j * xi1, 1j * xi2
        # u1, u2, d1 theta, d2 theta: the four fields of u . grad theta
        self.transport = np.stack([u1, u2, d1, d2])
        self.lam = -1j * xi1 / r**alpha
        self.mask = _dealias_mask(grid, dealias)
        self.half_mask = half_spectrum(self.mask)
        self._props = {}

    def propagator(self, dt):
        """(exp(lam dt), exp(lam dt / 2)), built once per dt."""
        if dt not in self._props:
            self._props[dt] = (np.exp(self.lam * dt), np.exp(self.lam * (dt / 2.0)))
        return self._props[dt]

    def nonlinear(self, c):
        """-dealias(u . grad theta) on the half spectrum; returns (rhs, max |u|)."""
        u1, u2, tx, ty = sfft.irfft2(self.transport * c, axes=(-2, -1), norm="forward")
        adv = sfft.rfft2(u1 * tx + u2 * ty, norm="forward")
        adv *= self.half_mask
        umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
        return -adv, umax

    def grad_norms(self, c):
        """(max |grad u|, max |grad theta|) over the entries of each gradient."""
        # d1, d2 applied to u1, u2 and theta: grad u's entries, then grad theta's
        fields = np.stack([self.transport[0] * c, self.transport[1] * c, c])
        spec = (fields[:, None] * self.transport[2:]).reshape(6, *c.shape)
        g = np.abs(sfft.irfft2(spec, axes=(-2, -1), norm="forward"))
        return float(np.max(g[:4])), float(np.max(g[4:]))


def cfl_dt(state, umax):
    kmax = np.pi * state.theta.grid.N / state.theta.grid.L
    if umax == 0.0:
        return np.inf
    return 0.5 / (umax * kmax)


def step(state, workspace=None):
    """Advance one dt of integrating-factor RK4; raises CFLError / BlowUpError.

    The stages run on the half spectrum; the CFL check uses the velocity of
    the first stage.  The full Hermitian spectrum is rebuilt once, at the end.
    """
    ws = workspace or _Workspace(state.theta.grid, state.alpha, state.dealias)
    dt = state.dt
    c = half_spectrum(state.theta.coeffs) * ws.half_mask
    k1, umax = ws.nonlinear(c)
    admissible = cfl_dt(state, umax)
    if abs(dt) > admissible:
        raise CFLError(dt, admissible)
    E, E2 = ws.propagator(dt)
    k2, _ = ws.nonlinear(E2 * (c + dt / 2.0 * k1))
    k3, _ = ws.nonlinear(E2 * c + dt / 2.0 * k2)
    k4, _ = ws.nonlinear(E * c + dt * E2 * k3)
    cn = E * c + dt / 6.0 * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    if not np.all(np.isfinite(cn)):
        raise BlowUpError(state.time, state)
    out = SpectralField(state.theta.grid, full_spectrum(cn))
    out.zero_mean()
    out.zero_nyquist()
    return SQGState(
        theta=out,
        time=state.time + dt,
        alpha=state.alpha,
        dt=dt,
        dealias=state.dealias,
    )


@dataclass
class BootstrapDiagnostics:
    times: list = field(default_factory=list)
    h_s: list = field(default_factory=list)
    l2: list = field(default_factory=list)
    grad_u_inf: list = field(default_factory=list)
    grad_theta_inf: list = field(default_factory=list)
    integral: list = field(default_factory=list)
    envelope: list = field(default_factory=list)
    s: float = 4.5
    fitted_c: float = 0.0
    bootstrap_exit_time: float = None
    blew_up: bool = False
    final_state: object = None

    def rows(self):
        for i in range(len(self.times)):
            yield {
                "t": self.times[i],
                "H_s": self.h_s[i],
                "L2": self.l2[i],
                "gradU_inf": self.grad_u_inf[i],
                "gradTheta_inf": self.grad_theta_inf[i],
                "integral": self.integral[i],
                "envelope": self.envelope[i],
            }


def run_and_diagnose(theta0, T, dt, alpha=1.0, delta=0.5, n_outputs=50,
                     dealias=2.0 / 3.0, blowup_factor=1e3):
    """Integrate to T recording the bootstrap/blow-up diagnostics.

    Tracks ||theta||_{H^{4+delta}}, ||theta||_{L^2}, ||grad u||_inf,
    ||grad theta||_inf, the running blow-up-criterion integral, and the
    Gronwall envelope with the constant c fitted as the smallest value that
    dominates the whole recorded series.  The bootstrap exit time is the
    first output time where the H^{4+delta} norm exceeds twice its initial
    value (None if that never happens before T).
    """
    s = 4.0 + delta
    state = SQGState(theta=theta0.copy(), alpha=alpha, dt=dt, dealias=dealias)
    ws = _Workspace(state.theta.grid, alpha, dealias)
    state.theta.coeffs *= ws.mask

    diag = BootstrapDiagnostics(s=s)
    weight = sobolev_weight(state.theta.grid, s)
    h0 = weighted_norm(state.theta, weight)
    out_times = np.linspace(0.0, T, n_outputs + 1)

    def record(st, running):
        gu, gt = ws.grad_norms(half_spectrum(st.theta.coeffs))
        diag.times.append(st.time)
        diag.h_s.append(weighted_norm(st.theta, weight))
        diag.l2.append(l2_norm(st.theta))
        diag.grad_u_inf.append(gu)
        diag.grad_theta_inf.append(gt)
        diag.integral.append(running)
        return gu + gt

    running = 0.0
    last_rate = record(state, running)
    next_out = 1
    nsteps = int(round(T / dt))
    try:
        for n in range(1, nsteps + 1):
            state = step(state, ws)
            if h0 > 0 and weighted_norm(state.theta, weight) > blowup_factor * h0:
                raise BlowUpError(state.time, state, reason="norm cap exceeded")
            while next_out <= n_outputs and state.time >= out_times[next_out] - 1e-12:
                rate_prev = last_rate
                t_prev = diag.times[-1]
                last_rate = record(state, running)
                running += 0.5 * (rate_prev + last_rate) * (state.time - t_prev)
                diag.integral[-1] = running
                next_out += 1
    except BlowUpError:
        diag.blew_up = True

    diag.final_state = state
    hs = np.array(diag.h_s)
    integ = np.array(diag.integral)
    if h0 > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(np.maximum(hs / h0, 1e-300)) / np.maximum(integ, 1e-300)
        pos = ratios[integ > 1e-12]
        diag.fitted_c = float(np.max(pos)) if pos.size else 0.0
        diag.envelope = list(h0 * np.exp(diag.fitted_c * integ))
        exceeded = np.nonzero(hs > 2.0 * h0)[0]
        diag.bootstrap_exit_time = (
            float(np.array(diag.times)[exceeded[0]]) if exceeded.size else None
        )
    else:
        diag.envelope = [0.0] * len(diag.times)
    return diag
