"""Dispersive SQG evolution with an integrating-factor RK4 stepper.

The linear semigroup is applied exactly as a multiplier, so only the
pseudo-spectral transport term is discretized in time.  Products are
dealiased with the 2/3 rule (state and nonlinear term masked to the
retained disc), which makes the semi-discrete transport conserve L^2
exactly; any drift measures the RK4 truncation error.  The stepper
(`_if_rk4`) and the run loop (`_integrate`) are shared with `boussinesq`.

On a grid of N >= 256 the transport terms and the gradient sups are
transformed in row blocks (`spectral.physical_rows`), so the whole stack of
physical fields is never held, on one thread or two, bit for bit.  The
drivers (`run_and_diagnose`, `boussinesq.stability_experiment`) hold their
workspace's `spectral.Worker` around the run loop, from its first record to
its last: where the process may use two CPUs, the worker's thread takes its
share of those transforms.  A bare `step`, a run at N <= 128 and a run in a
sweep's pool worker take no second thread.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import (
    ROW_PASS_BYTES,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    Worker,
    full_spectrum,
    half_spectrum,
    half_to_physical,
    l2_norm,
    physical_rows,
    sobolev_weight,
    weighted_norm,
)


# CFLError pickles as its constructor arguments, so that a sweep member's
# error reaches the calling process from a pool worker intact.

class CFLError(SpectralError):
    def __init__(self, dt, dt_required):
        super().__init__(
            f"CFL violated: dt={dt} exceeds the admissible {dt_required:.3e}"
        )
        self.dt = dt
        self.dt_required = dt_required

    def __reduce__(self):
        return type(self), (self.dt, self.dt_required)


class BlowUpError(SpectralError):
    """A step from the state at `time` gave a non-finite result."""

    def __init__(self, time):
        super().__init__(f"blow-up signal at t={time}: NaN detected")
        self.time = time


class _Clock:
    """A stepped state's time, t0 + steps * dt: exact at every step, where a
    running sum of dt would accumulate rounding."""

    @property
    def time(self):
        return self.t0 + self.steps * self.dt


@dataclass
class SQGState(_Clock):
    theta: SpectralField
    t0: float = 0.0
    alpha: float = 1.0
    dt: float = 1e-2
    steps: int = 0

    def __post_init__(self):
        self.theta.zero_mean()


# The 2/3 rule: products keep the modes with |k_j| < DEALIAS * N/2.
DEALIAS = 2.0 / 3.0
# A run whose monitored norm exceeds NORM_CAP times its initial value blows up.
NORM_CAP = 1e3


def _dealias_mask(grid):
    kept = np.abs(grid.k) < DEALIAS * (grid.N // 2)
    return kept[:, None] & kept[None, :]


def _u_dot_grad(phys):
    """(u, u . grad f) from the physical values (u1, u2, d1 f, d2 f) of a
    stack f, whole or a row block, the products formed in place there."""
    u = phys[:2]
    grads = phys[2:].reshape(2, -1, *phys.shape[1:])
    grads *= u[:, None]
    grads[0] += grads[1]
    return u, grads[0]


class _HalfSpectrumWorkspace:
    """What the SQG and Boussinesq workspaces share: symbols, stage arrays and
    `rfft2` on the first K columns of the (N, N//2 + 1) half lattice, the ones
    the dealias mask keeps.  `spectral.half_to_physical` and `full_spectrum`
    take those K columns as they are.  A subclass adds FIELDS, the count of
    half spectra of its transport stack, its symbols, among them `velocity`
    (that of the first field) and `grad`, its `propagator` formula,
    `propagate` and `nonlinear`.  Each system keeps its own `nonlinear`, a
    symbol fill that calls `advection`: sharing either one raised the other's
    page faults per step."""

    def __init__(self, grid):
        self.grid = grid
        self.mask = _dealias_mask(grid)
        half_mask = half_spectrum(self.mask)
        self.K = K = int(np.count_nonzero(half_mask[0]))
        self.mask_K = np.ascontiguousarray(half_mask[:, :K])
        xi1, xi2 = grid.xi_axes(half=True)
        self.xi1, self.xi2 = xi1 + 0.0 * xi2[:, :K], xi2[:, :K] + 0.0 * xi1
        self._props = {}
        # the transport stack is row-blocked where its values exceed
        # ROW_PASS_BYTES (N >= 256), and only there may a run's worker take a
        # second thread
        self.blocked = 8 * self.FIELDS * grid.N**2 > ROW_PASS_BYTES
        self.worker = Worker(None if self.blocked else 1)

    def symbols(self, factory, *args):
        """The symbols of `factory(a)` for each a in args on the K kept
        columns, stacked."""
        return np.stack([factory(a).on(self.xi1, self.xi2) for a in args])

    def _cached_propagators(self, dt, build):
        """(build(dt), build(dt / 2)), built once per dt."""
        if dt not in self._props:
            self._props[dt] = (build(dt), build(dt / 2.0))
        return self._props[dt]

    def to_spectral(self, stack):
        """`rfft2(stack)[..., :K] * mask_K` of a stack of real fields."""
        cols = np.fft.rfft(stack, axis=-1, norm="forward")[..., : self.K]
        return np.fft.fft(cols, axis=-2, norm="forward", out=cols) * self.mask_K

    def _filled(self, n, fill):
        """A new stack of n half spectra on the K kept columns, which
        `fill(spec, rows)` writes into `spec[:, rows]` in row parts, one per
        share of `worker`."""
        spec = np.empty((n, self.grid.N, self.K), dtype=np.complex128)
        self.worker.split(self.grid.N, lambda rows, share: fill(spec, rows))
        return spec

    def advection(self, fill):
        """(-dealias(u . grad f), max |u|) for a stack f of m fields, from the
        FIELDS = 2 + 2m half spectra (u1, u2, d1 f, d2 f) on the K kept
        columns that `fill(spec, rows)` writes into `spec[:, rows]`.

        A stack whose values fit ROW_PASS_BYTES (N <= 128, `blocked` false)
        is transformed whole, in one array.  A larger one is row-blocked, on
        one share of `worker` or two, bit for bit: the fill in row parts,
        the row pass of `physical_rows` also forming u . grad f, its row
        `rfft` into the rows of the result and max |u|; then the column
        `fft` in column parts and the mask and the negation in row parts.  The products and the mask run on whole
        rows: on column halves their strided views made them about 3 and 2
        times slower."""
        N, K = self.grid.N, self.K
        if not self.blocked:
            u, products = _u_dot_grad(half_to_physical(
                self.grid, self._filled(self.FIELDS, fill), overwrite_x=True))
            adv = self.to_spectral(products)
            umax = float(np.max(np.abs(u, out=u)))
            return np.negative(adv, out=adv), umax

        m = (self.FIELDS - 2) // 2
        wide = np.empty((m, N, N // 2 + 1), dtype=np.complex128)
        adv = np.empty((m, N, K), dtype=np.complex128)

        def transport(phys, rows):
            u, products = _u_dot_grad(phys)
            np.fft.rfft(products, axis=-1, norm="forward", out=wide[:, rows])
            return np.max(np.abs(u, out=u))

        def forward(cols, share):
            np.fft.fft(wide[..., cols], axis=-2, norm="forward", out=adv[..., cols])

        def masked(rows, share):
            np.multiply(adv[:, rows], self.mask_K[rows], out=adv[:, rows])
            np.negative(adv[:, rows], out=adv[:, rows])

        # the stack is made after the result's arrays, as the heap best takes them;
        # np.max, not max: a NaN in any block gives NaN, as the whole stack's max does
        spec = self._filled(self.FIELDS, fill)
        umax = float(np.max(physical_rows(self.grid, spec, transport, self.worker)))
        self.worker.split(K, forward)
        self.worker.split(N, masked)
        return adv, umax

    def grad_norms(self, y):
        """(max |grad u|, max |grad f|) from a stack y of half spectra, u the
        velocity of its first field and f its last field, from the row blocks
        of `physical_rows`."""
        c = y[..., : self.K]

        def fill(spec, rows):
            s = spec.reshape(3, 2, *spec.shape[1:])[:, :, rows]
            # (velocity_i c_0) grad_j, the first factor kept in slot j = 1 until last
            np.multiply(self.velocity[:, rows], c[0, rows], out=s[:2, 1])
            np.multiply(s[:2, 1], self.grad[0, rows], out=s[:2, 0])
            np.multiply(s[:2, 1], self.grad[1, rows], out=s[:2, 1])
            np.multiply(c[-1, rows], self.grad[:, rows], out=s[2])

        def sups(phys, rows):
            np.abs(phys, out=phys)
            return np.max(phys[:4]), np.max(phys[4:])

        gu, gf = zip(*physical_rows(self.grid, self._filled(6, fill), sups, self.worker))
        return float(np.max(gu)), float(np.max(gf))


class _Workspace(_HalfSpectrumWorkspace):
    """SQG symbols for one (grid, alpha) pair."""

    FIELDS = 4

    def __init__(self, grid, alpha):
        super().__init__(grid)
        # u1, u2, d1 theta, d2 theta: the four fields of u . grad theta
        self.transport = np.concatenate([self.symbols(MultiplierSpec.velocity_sqg, 1, 2),
                                         self.symbols(MultiplierSpec.deriv, 1, 2)])
        self.velocity, self.grad = self.transport[:2], self.transport[2:]
        self.lam = MultiplierSpec.generator(alpha).on(self.xi1, self.xi2)

    def propagator(self, dt):
        """(exp(lam dt), exp(lam dt / 2)), built once per dt."""
        return self._cached_propagators(dt, lambda t: np.exp(self.lam * t))

    @staticmethod
    def propagate(P, c):
        return P * c

    def nonlinear(self, c):
        """-dealias(u . grad theta) on the kept columns; returns (rhs, max |u|)."""
        adv, umax = self.advection(lambda spec, rows: np.multiply(
            self.transport[:, rows], c[rows], out=spec[:, rows]))
        return adv[0], umax


def _admissible_dt(grid, umax):
    if umax == 0.0:
        return np.inf
    return 0.5 / (umax * np.pi * grid.N / grid.L)


def _if_rk4(ws, y, state):
    """One integrating-factor RK4 step of y' = L y + N(y) on the K kept
    columns of the half spectrum.

    `ws.nonlinear(y)` is (N(y), max |u|); `ws.propagator(dt)` holds the exact
    propagators of L over dt and dt/2, applied by `ws.propagate`.  The CFL
    check uses the velocity of the first stage.  Returns the full Hermitian
    spectrum of the result, zero outside the kept columns; for y and N(y)
    zero outside the dealias mask, which excludes |k_j| = N/2, its Nyquist
    lines are exactly 0.
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
        raise BlowUpError(state.time)
    # rebuilt before the stage arrays are freed: rebuilt after them, an N=64
    # Boussinesq step took 3-4x the minor page faults (glibc heap trimming)
    return full_spectrum(yn)


def step(state, workspace=None):
    """Advance one dt of `_if_rk4`; raises CFLError / BlowUpError."""
    ws = workspace or _Workspace(state.theta.grid, state.alpha)
    full = _if_rk4(ws, state.theta.half[..., : ws.K] * ws.mask_K, state)
    return replace(state, theta=SpectralField(state.theta.grid, full), steps=state.steps + 1)


def _integrate(rep, state, advance, record, norm, T, n_outputs, exit_factor=None):
    """Step `state` to T by `advance`, recording output k at step ceil(k T / (n_outputs dt)).

    `record(state)` appends an output's diagnostics to `rep` and returns the
    blow-up-criterion rate, whose trapezoid integral goes to `rep.integral`.
    A step whose `norm` exceeds NORM_CAP (or `exit_factor`) times the initial
    norm blows up before its outputs (or exits after them), and a step that
    raises BlowUpError blows up at the state before it.  Counted in whole
    steps, no output comes late or goes missing through float-time drift,
    and a step that several outputs fall on is recorded once.  Returns the
    time of an early stop, None if the run reached T.  The loop holds no
    thread: its caller holds the workspace's worker around it."""
    norm0 = norm(state)
    steps = round(T / state.dt)
    out_steps = {-(-k * steps // n_outputs) for k in range(1, n_outputs + 1)}
    rate = record(state)
    rep.times.append(state.time)
    rep.integral.append(0.0)
    running = 0.0
    try:
        for i in range(1, steps + 1):
            state = advance(state)
            current = norm(state)
            if norm0 > 0 and current > NORM_CAP * norm0:
                rep.blew_up = True
                return state.time
            if i in out_steps:
                rate_prev, rate = rate, record(state)
                running += 0.5 * (rate_prev + rate) * (state.time - rep.times[-1])
                rep.times.append(state.time)
                rep.integral.append(running)
            if exit_factor is not None and current > exit_factor * norm0:
                return state.time
    except BlowUpError:
        rep.blew_up = True
        return state.time
    return None


@dataclass
class BootstrapDiagnostics:
    times: list = field(default_factory=list)
    h_s: list = field(default_factory=list)
    l2: list = field(default_factory=list)
    grad_u_inf: list = field(default_factory=list)
    grad_theta_inf: list = field(default_factory=list)
    integral: list = field(default_factory=list)
    envelope: list = field(default_factory=list)
    fitted_c: float = 0.0
    bootstrap_exit_time: float = None
    blew_up: bool = False


def run_and_diagnose(theta0, T, dt, alpha=1.0, n_outputs=50):
    """Integrate to T recording the bootstrap/blow-up diagnostics.

    Tracks ||theta||_{H^{4.5}}, ||theta||_{L^2}, ||grad u||_inf,
    ||grad theta||_inf, the running blow-up-criterion integral, and the
    Gronwall envelope with the constant c fitted as the smallest value that
    dominates the whole recorded series.  The bootstrap exit time is the
    first output time where the H^{4.5} norm exceeds twice its initial
    value (None if that never happens before T).  The run holds its
    workspace's worker around `_integrate`: the worker's thread, if any, is
    started once and joined however the run ends.
    """
    ws = _Workspace(theta0.grid, alpha)
    state = SQGState(theta=SpectralField(theta0.grid, theta0.coeffs * ws.mask),
                     alpha=alpha, dt=dt)
    del theta0  # a caller that passes a new profile keeps no second copy

    diag = BootstrapDiagnostics()
    weight = sobolev_weight(state.theta.grid, 4.5)

    def record(st):
        gu, gt = ws.grad_norms(st.theta.half[None])
        diag.h_s.append(weighted_norm(st.theta, weight))
        diag.l2.append(l2_norm(st.theta))
        diag.grad_u_inf.append(gu)
        diag.grad_theta_inf.append(gt)
        return gu + gt

    with ws.worker:
        _integrate(diag, state, lambda st: step(st, ws), record,
                   lambda st: weighted_norm(st.theta, weight), T, n_outputs)
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
