"""Dispersive SQG evolution with an integrating-factor RK4 stepper.

The linear semigroup is applied exactly as a multiplier, so only the
pseudo-spectral transport term is discretized in time.  Products are
dealiased with the 2/3 rule (state and nonlinear term masked to the
retained disc), which makes the semi-discrete transport conserve L^2
exactly; any drift measures the RK4 truncation error.  The stepper
(`_if_rk4`) and the run loop (`_integrate`) are shared with `boussinesq`.
"""

from dataclasses import dataclass, field, replace

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
        self.theta.zero_mean()


def velocity(theta):
    """u = (-R2 theta, R1 theta); divergence-free by construction."""
    return tuple(apply_multiplier(theta, MultiplierSpec.velocity_sqg(j)) for j in (1, 2))


def _dealias_mask(grid, fraction):
    if not 0.0 < fraction <= 1.0:
        raise SpectralError(f"dealias fraction must be in (0, 1], got {fraction}")
    cutoff = fraction * (grid.N // 2)
    return (np.abs(grid.k1) < cutoff) & (np.abs(grid.k2) < cutoff)


class _HalfSpectrumWorkspace:
    """What the SQG and Boussinesq workspaces share, on the (N, N//2 + 1) half
    lattice that `rfft2` stores (transforms use norm="forward", the field
    normalization); a subclass adds its symbols, `grad` and `grad_fields`."""

    def __init__(self, grid, dealias):
        self.grid = grid
        self.xi1, self.xi2 = half_spectrum(grid.xi1), half_spectrum(grid.xi2)
        self.mask = _dealias_mask(grid, dealias)
        self.half_mask = half_spectrum(self.mask)
        self._props = {}

    def symbols(self, factory, *args):
        """The symbols of `factory(a)` for each a in args on the half lattice, stacked."""
        return np.stack([factory(a).on(self.xi1, self.xi2) for a in args])

    def grad_norms(self, y):
        """(max |grad u|, max |grad f|) for the (u1, u2, f) of grad_fields(y)."""
        spec = (self.grad_fields(y)[:, None] * self.grad).reshape(6, *self.xi1.shape)
        g = np.abs(sfft.irfft2(spec, axes=(-2, -1), norm="forward"))
        return float(np.max(g[:4])), float(np.max(g[4:]))


class _Workspace(_HalfSpectrumWorkspace):
    """SQG symbols for one (grid, alpha, dealias) combo."""

    def __init__(self, grid, alpha, dealias):
        super().__init__(grid, dealias)
        # u1, u2, d1 theta, d2 theta: the four fields of u . grad theta
        self.transport = np.concatenate([self.symbols(MultiplierSpec.velocity_sqg, 1, 2),
                                         self.symbols(MultiplierSpec.deriv, 1, 2)])
        self.grad = self.transport[2:]
        self.lam = MultiplierSpec.generator(alpha).on(self.xi1, self.xi2)

    def propagator(self, dt):
        """(exp(lam dt), exp(lam dt / 2)), built once per dt."""
        if dt not in self._props:
            self._props[dt] = (np.exp(self.lam * dt), np.exp(self.lam * (dt / 2.0)))
        return self._props[dt]

    @staticmethod
    def propagate(P, c):
        return P * c

    def nonlinear(self, c):
        """-dealias(u . grad theta) on the half spectrum; returns (rhs, max |u|)."""
        u1, u2, tx, ty = sfft.irfft2(self.transport * c, axes=(-2, -1), norm="forward")
        adv = sfft.rfft2(u1 * tx + u2 * ty, norm="forward")
        adv *= self.half_mask
        umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
        return -adv, umax

    def grad_fields(self, c):
        return np.stack([self.transport[0] * c, self.transport[1] * c, c])


def _admissible_dt(grid, umax):
    if umax == 0.0:
        return np.inf
    return 0.5 / (umax * np.pi * grid.N / grid.L)


def cfl_dt(state, umax):
    return _admissible_dt(state.theta.grid, umax)


def _if_rk4(ws, y, state):
    """One integrating-factor RK4 step of y' = L y + N(y) on the half spectrum.

    `ws.nonlinear(y)` is (N(y), max |u|); `ws.propagator(dt)` holds the exact
    propagators of L over dt and dt/2, applied by `ws.propagate`.  The CFL
    check uses the velocity of the first stage.  Returns the full Hermitian
    spectrum of the result; for y and N(y) zero outside the dealias mask,
    which excludes |k_j| = N/2, its Nyquist lines are exactly 0.
    """
    dt = state.dt
    k1, umax = ws.nonlinear(y)
    admissible = _admissible_dt(ws.grid, umax)
    if abs(dt) > admissible:
        raise CFLError(dt, admissible)
    P, P2 = ws.propagator(dt)
    Ey = ws.propagate(P, y)
    k2, _ = ws.nonlinear(ws.propagate(P2, y + dt / 2.0 * k1))
    k3, _ = ws.nonlinear(ws.propagate(P2, y) + dt / 2.0 * k2)
    k4, _ = ws.nonlinear(Ey + dt * ws.propagate(P2, k3))
    yn = Ey + dt / 6.0 * (ws.propagate(P, k1) + 2.0 * ws.propagate(P2, k2 + k3) + k4)
    if not np.all(np.isfinite(yn)):
        raise BlowUpError(state.time, state)
    # rebuilt before the stage arrays are freed: rebuilt after them, an N=64
    # Boussinesq step took 3-4x the minor page faults (glibc heap trimming)
    return full_spectrum(yn)


def step(state, workspace=None):
    """Advance one dt of `_if_rk4`; raises CFLError / BlowUpError."""
    ws = workspace or _Workspace(state.theta.grid, state.alpha, state.dealias)
    full = _if_rk4(ws, half_spectrum(state.theta.coeffs) * ws.half_mask, state)
    return replace(state, theta=SpectralField(state.theta.grid, full),
                   time=state.time + state.dt)


def _integrate(rep, state, advance, record, norm, T, n_outputs, cap, exit_factor=None):
    """Step `state` to T by `advance`, recording n_outputs evenly spaced outputs.

    `record(state)` appends an output's diagnostics to `rep` and returns the
    blow-up-criterion rate, whose trapezoid integral goes to `rep.integral`.
    A step whose `norm` exceeds `cap` (or `exit_factor`) times the initial
    norm blows up (or exits after its outputs).  Returns the last state and
    the time of an early stop, None if the run reached T."""
    norm0 = norm(state)
    out_times = np.linspace(0.0, T, n_outputs + 1)
    rate = record(state)
    rep.times.append(state.time)
    rep.integral.append(0.0)
    running = 0.0
    next_out = 1
    try:
        for _ in range(int(round(T / state.dt))):
            state = advance(state)
            current = norm(state)
            if norm0 > 0 and current > cap * norm0:
                raise BlowUpError(state.time, state, reason="norm cap exceeded")
            while next_out <= n_outputs and state.time >= out_times[next_out] - 1e-12:
                rate_prev, rate = rate, record(state)
                running += 0.5 * (rate_prev + rate) * (state.time - rep.times[-1])
                rep.times.append(state.time)
                rep.integral.append(running)
                next_out += 1
            if exit_factor is not None and current > exit_factor * norm0:
                return state, state.time
    except BlowUpError:
        rep.blew_up = True
        return state, state.time
    return state, None


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

    def columns(self):
        """The report columns, [(name, values)] in order."""
        return [("t", self.times), ("H_s", self.h_s), ("L2", self.l2),
                ("gradU_inf", self.grad_u_inf), ("gradTheta_inf", self.grad_theta_inf),
                ("integral", self.integral), ("envelope", self.envelope)]


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

    def record(st):
        gu, gt = ws.grad_norms(half_spectrum(st.theta.coeffs))
        diag.h_s.append(weighted_norm(st.theta, weight))
        diag.l2.append(l2_norm(st.theta))
        diag.grad_u_inf.append(gu)
        diag.grad_theta_inf.append(gt)
        return gu + gt

    diag.final_state, _ = _integrate(
        diag, state, lambda st: step(st, ws), record,
        lambda st: weighted_norm(st.theta, weight), T, n_outputs, blowup_factor,
    )
    h0 = diag.h_s[0]
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
