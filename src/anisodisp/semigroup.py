"""The anisotropic linear semigroup, its decay measurement and power-law fit,
and the Bessel-function sharpness oracle.

evolve_linear applies exp(-i t xi_1 / |xi|^alpha) exactly in Fourier space,
so there is no time-discretization error; the semigroup is unitary on L^2.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp import LPBank
from .spectral import (
    CHUNK_BYTES,
    MultiplierSpec,
    SpectralError,
    Worker,
    apply_multiplier,
    dispersion_rate,
    physical_rows,
    row_blocks,
    share_of,
)


def evolve_linear(f, alpha, t):
    """Apply the semigroup multiplier exp(-i t xi_1 / |xi|^alpha)."""
    return apply_multiplier(f, MultiplierSpec.semigroup_phase(alpha, t))


def reliable_time(grid):
    """Wrap-around cap L/4 of the decay fit.  At alpha = 1 the group speed
    is at most 1/|xi|, so the waves of shell j re-enter the box after about
    L 2^{j-2} to L 2^{j-1}: L/4 is the horizon of shell j = 0 only, and the
    coarser shells j < 0 wrap sooner."""
    return grid.L / 4.0


@dataclass
class DecayReport:
    times: np.ndarray
    linf_values: np.ndarray
    fitted_slope: float
    fit_window: tuple
    residual: float
    besov_value: float
    constant_estimate: float
    boundary_contaminated: bool
    j_range: tuple = ()


def _evolved_linf(f0, alpha, times):
    """`linf_norm(evolve_linear(f0, ...))` at each time for a Hermitian f0,
    on the half lattice with the semigroup's rate built once and every array
    of the loop but the row-pass buffers allocated before it; the sup is the
    max and -min over the row blocks of `physical_rows`.

    The generator is -i ph with ph = `dispersion_rate`, real, so the phase is
    cos(-t ph) + i sin(-t ph), the bits numpy's complex `exp` gives.  It is
    odd in k1, so it is evaluated on the rows k1 = 0 .. N/2 only, and each
    row -k1 is the conjugate of row k1.  Where the process may use two CPUs
    (`thread_shares`), the thread of a `Worker` held for the whole loop takes
    half the rows of the phase and of the product, and its share of each row
    pass; every value is computed alone, so none depends on it."""
    g = f0.grid
    ny = g.N // 2
    half = f0.half
    ph = dispersion_rate(*g.xi_axes(slice(0, ny + 1), half=True), alpha)
    arg = np.empty_like(ph)
    m = np.empty(half.shape, dtype=np.complex128)
    vals = np.empty(len(times))

    def phase(share, shares, t):
        rows = share_of(ny + 1, share, shares)
        np.multiply(-t, ph[rows], out=arg[rows])
        np.cos(arg[rows], out=m.real[rows])
        np.sin(arg[rows], out=m.imag[rows])

    def product(share, shares):
        rows = share_of(g.N, share, shares)
        np.multiply(half[rows], m[rows], out=m[rows])

    with Worker() as worker:
        for i, t in enumerate(times):
            MultiplierSpec.semigroup_phase(alpha, t)  # validates t
            worker.split(lambda share, shares: phase(share, shares, t))
            np.conjugate(m[ny - 1 : 0 : -1], out=m[ny + 1 :])
            worker.split(product)
            m[ny] = m[:, -1] = 0.0  # the Nyquist row and column
            blocks = physical_rows(g, m, _extrema, worker)
            vals[i] = max(np.max([hi for hi, _ in blocks]), -np.min([lo for _, lo in blocks]))
    return vals


def _extrema(block, rows):
    return block.max(), block.min()


class FitError(SpectralError):
    pass


def fit_power_law(times, values, window):
    """Least-squares fit of log(values) vs log(times) inside `window`.

    Returns (slope, intercept, residual) where intercept is the fitted
    log-amplitude and residual the RMS of the log-space misfit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if np.count_nonzero(mask) < 5:
        raise FitError(f"need at least 5 points in window ({float(lo)}, {float(hi)})")
    if np.any(values[mask] <= 0.0):
        raise FitError("nonpositive values in fit window")
    lt = np.log(times[mask])
    lv = np.log(values[mask])
    A = np.vstack([lt, np.ones_like(lt)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, lv, rcond=None)
    residual = float(np.sqrt(np.mean((A @ [slope, intercept] - lv) ** 2)))
    return float(slope), float(intercept), residual


def measure_decay(f0, alpha, times, fit_window=None):
    """L^inf of the evolved field against time, with a log-log rate fit.

    The data norm is the homogeneous Besov norm B^s_{1,1} on the shells that
    f0's grid resolves, with s = 2 when alpha = 1 and 1 + alpha otherwise;
    the constant estimate is the max of ||e^{tA} f||_inf * t^rate / ||f||_B
    over the fit window.
    """
    bank = LPBank(f0.grid)
    times = np.asarray(sorted(times), dtype=float)
    if np.any(times <= 0.0):
        raise SpectralError("decay measurement needs strictly positive times")
    if abs(f0.half[0, 0]) > 1e-13:
        raise SpectralError("initial data must be zero-mean")
    vals = _evolved_linf(f0, alpha, times)
    t_cap = reliable_time(f0.grid)
    contaminated = bool(times.max() > t_cap)
    if fit_window is None:
        # exclude the pre-asymptotic regime t < 10 and the wrap-around tail
        lo = max(10.0, times.min())
        hi = min(times.max(), t_cap) if contaminated else times.max()
        if hi < lo:
            bound = f"L/4 = {t_cap}" if hi == t_cap else f"t_hi = {float(hi)}"
            raise FitError(f"empty fit window: {bound} lies below its start t = {float(lo)}")
        fit_window = (lo, hi)
    slope, _, residual = fit_power_law(times, vals, fit_window)
    reg = 2.0 if alpha == 1.0 else 1.0 + alpha
    rate = 0.5 if alpha == 1.0 else 1.0
    besov = bank.besov_norm(f0, reg)
    mask = (times >= fit_window[0]) & (times <= fit_window[1])
    const = float(np.max(vals[mask] * times[mask] ** rate / besov))
    return DecayReport(
        times=times, linf_values=vals, fitted_slope=slope, fit_window=tuple(fit_window),
        residual=residual, besov_value=besov, constant_estimate=const,
        boundary_contaminated=contaminated, j_range=(bank.j_min, bank.j_max))


# ---------------------------------------------------------------------------
# Bessel J0: two independent evaluations

def bessel_j0_series(t):
    """J0(t) without quadrature: the power series
    sum (-1)^m (t/2)^{2m} / (m!)^2 for t <= 12, the Hankel expansion beyond.

    Past t ~ 12 the alternating terms cancel catastrophically in float64.
    There the Hankel asymptotic expansion (DLMF 10.17.3),
    sqrt(2 / (pi t)) (P cos(t - pi/4) + Q sin(t - pi/4)), takes over, cut
    before its smallest term.  Its error is about that term times
    sqrt(2 / (pi t)): at most 1.4e-12 at t = 12, where the smallest term is
    6.1e-12, and falling fast with t; against scipy's J0 it is at most
    8.2e-13 on (12, 200].  It shares nothing with the trapezoid path below.
    """
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise SpectralError(f"J0 argument must be nonnegative and finite, got {t}")
    if t > 12.0:
        return _j0_hankel(t)
    total = 1.0
    term = 1.0
    m = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)) and m < 200:
        m += 1
        term *= -((t / 2.0) ** 2) / m**2
        total += term
    return total


def _j0_hankel(t):
    """The Hankel expansion of J0 at t > 12.  Its k-th term has size
    b_k = prod_{j <= k} (2j - 1)^2 / (8 j t) and sign (-1)^(k // 2); the even
    k sum to P and the odd to Q.  The sum stops before the first term that
    does not shrink (optimal truncation), or before the first under 1e-17,
    which is below the rounding of P ~ 1."""
    pq = [1.0, 0.0]
    b = 1.0
    for k in range(1, 64):  # every t > 12 breaks out by k = 39
        nxt = b * (2 * k - 1) ** 2 / (8.0 * k * t)
        if nxt >= b or nxt < 1e-17:
            break
        b = nxt
        pq[k % 2] += -b if k // 2 % 2 else b
    w = t - np.pi / 4.0
    return float(np.sqrt(2.0 / (np.pi * t)) * (pq[0] * np.cos(w) + pq[1] * np.sin(w)))


# the trapezoid's agreement tolerance and its largest panel count
J0_QUAD_TOL = 1e-13
J0_QUAD_MAX_N = 1 << 21


def bessel_j0_quadrature(t):
    """(1/2 pi) * integral over [0, 2 pi) of exp(-i t cos theta).

    Trapezoid on the periodic integrand, doubling the panel count until two
    successive refinements agree to J0_QUAD_TOL.  A float t gives a float.
    A 1-D array of times gives the array of their values, each with the
    bits of its float call, and raises the error that the first failing
    time, in order, raises in a float call (`_j0_values`).
    """
    return _j0_values(t, series=False)


def bessel_j0(t):
    """J0(t) cross-checked between the series and the oscillatory quadrature.
    Takes a float or a 1-D array of times, as `bessel_j0_quadrature` does;
    the series runs time by time.  `sharpness_check` makes one call for all
    its times."""
    return _j0_values(t, series=True)


def _j0_values(t, series):
    """The trapezoid J0 at a float t or at each time of a 1-D array, with
    `series` cross-checked against `bessel_j0_series` time by time.

    Consecutive times go together in blocks under CHUNK_BYTES, each time
    weighing 16 bytes per panel the largest time should take: the trapezoid
    stops by 4 times the power of two above t (at 128 panels or more), and
    its levels up to there take twice that many cosines in all.  Each
    block's times are walked in order once `_j0_trapezoid` has run them,
    and checked as a float call checks its time, so the first time that
    fails raises that call's error, with at most one block of work done
    past it.
    """
    scalar = np.ndim(t) == 0
    times = np.atleast_1d(np.asarray(t, dtype=float))
    valid = (times >= 0.0) & (times < np.inf)
    t_max = float(np.max(times[valid], initial=32.0))
    panels = min(J0_QUAD_MAX_N, 4 * 2 ** int(np.ceil(np.log2(t_max))))
    out = np.empty(times.size)
    for block in row_blocks(times.size, 16 * panels):
        quad = np.full(block.stop - block.start, np.nan)
        live = np.flatnonzero(valid[block])
        quad[live] = _j0_trapezoid(times[block][live])
        for i, q in zip(range(block.start, block.stop), quad):
            x = float(times[i])
            if not valid[i]:
                raise SpectralError(f"J0 argument must be nonnegative and finite, got {x}")
            s = bessel_j0_series(x) if series else None
            if np.isnan(q):
                raise SpectralError(f"J0 quadrature did not converge for t={x}")
            if series and abs(s - q) > 1e-10:
                raise SpectralError(f"J0 series/quadrature disagree at t={x}: {s} vs {float(q)}")
            out[i] = q
    return float(out[0]) if scalar else out


def _j0_trapezoid(times):
    """The trapezoid of `bessel_j0_quadrature` at each of `times` (all
    nonnegative and finite), NaN where it does not converge by
    J0_QUAD_MAX_N panels.  The unconverged times take each panel count
    together, in row blocks of the (times, panels) cosines under
    CHUNK_BYTES, and each drops out once it converges.  Each value has the
    bits of the float call: the same `cos(t cos theta)` values, averaged by
    `np.mean` along a contiguous row, which sums pairwise as it does for
    one time."""
    out = np.full(times.size, np.nan)
    active = np.arange(times.size)
    prev = None
    n = 64
    while n <= J0_QUAD_MAX_N and active.size:
        cos_theta = np.cos(np.arange(n) * (2.0 * np.pi / n))
        val = np.empty(active.size)
        for rows in row_blocks(active.size, 8 * n):
            arg = np.multiply.outer(times[active[rows]], cos_theta)
            val[rows] = np.mean(np.cos(arg, out=arg), axis=1)
        if prev is not None:
            done = np.abs(val - prev) <= J0_QUAD_TOL
            out[active[done]] = val[done]
            active, val = active[~done], val[~done]
        prev = val
        n *= 2
    return out


def j0_asymptotic_envelope(t):
    """sqrt(2 / (pi t)), inf where the quotient overflows (t below ~1e-308)."""
    with np.errstate(over="ignore"):
        return np.sqrt(2.0 / (np.pi * np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# Sharpness of the decay rate

@dataclass
class SharpnessReport:
    times: np.ndarray
    origin_values: np.ndarray
    radial_reference: np.ndarray
    envelope: np.ndarray
    max_two_path_reldiff: float
    peak_ratios: np.ndarray = field(default_factory=lambda: np.array([]))
    zero_crossings: np.ndarray = field(default_factory=lambda: np.array([]))
    nearest_predicted: np.ndarray = field(default_factory=lambda: np.array([]))


def _origin_evaluator(f0):
    """Closure times -> Re sum_k c_k exp(-i t xi_1/|xi|) at each t of a 1-D
    array (the evolved field at x=0).

    The phase xi_1/|xi| depends only on the direction of xi, and -xi has the
    negated phase, so the modes are first grouped by u = |phase|.  With C+
    and C- the coefficient sums of a group over phase >= 0 and phase < 0,

        Re sum_k c_k exp(-i t ph_k) = sum_u A_u cos(t u) + B_u sin(t u),
        A = Re(C+ + C-),  B = Im(C+ - C-),

    for any complex coefficients.  The (times, phases) matrix is evaluated
    in row blocks under a fixed byte budget.  `at.linspace(lo, hi, n)` is
    `at(np.linspace(lo, hi, n))` to rounding: with t = T_j + s_m on anchors
    T_j and M ~ sqrt(n) offsets s_m, A cos(t u) + B sin(t u) is
    (A cos T_j u + B sin T_j u) cos s_m u + (B cos T_j u - A sin T_j u) sin s_m u,
    two (anchors x phases)(phases x offsets) products.  `sharpness_check`
    reads only `at.linspace`; the direct `at` is the reference it is tested
    against.  The sums over the phases are `np.einsum` reductions, not BLAS
    products, whose split across threads would make the last digits depend
    on the thread count.
    """
    ph = dispersion_rate(*f0.grid.xi_axes(), 1.0).ravel()
    c = f0.coeffs.ravel()
    size = np.abs(c)
    keep = size > 1e-18 * np.max(size)
    del size
    c = c[keep]
    ph = ph[keep]
    u, group = np.unique(np.abs(ph), return_inverse=True)
    A = np.bincount(group, weights=c.real, minlength=u.size)
    B = np.bincount(group, weights=np.where(ph < 0.0, -c.imag, c.imag),
                    minlength=u.size)

    def at(times):
        out = np.empty(len(times))
        # two float64 temporaries per entry: the arguments and their cosines
        for rows in row_blocks(out.size, 16 * u.size):
            arg = np.multiply.outer(times[rows], u)
            out[rows] = (np.einsum("ij,j->i", np.cos(arg), A)
                         + np.einsum("ij,j->i", np.sin(arg, out=arg), B))
        return out

    def linspace(lo, hi, n):
        step = (hi - lo) / max(n - 1, 1)
        # the offsets' cosines and sines take at most half the byte budget,
        # a block of anchors the other half
        M = max(1, min(int(np.ceil(np.sqrt(n))), CHUNK_BYTES // (32 * u.size)))
        arg = np.multiply.outer(np.arange(M) * step, u)
        cos_s, sin_s = np.cos(arg), np.sin(arg, out=arg)
        anchors = lo + np.arange(-(-n // M)) * (M * step)
        out = np.empty((anchors.size, M))
        # four float64 temporaries per anchor: the arguments, their cosines
        # and the two products that make P_j (then Q_j)
        for rows in row_blocks(anchors.size, 32 * u.size, CHUNK_BYTES // 2):
            arg = np.multiply.outer(anchors[rows], u)
            c, s = np.cos(arg), np.sin(arg, out=arg)
            out[rows] = (np.einsum("ju,mu->jm", c * A + s * B, cos_s)
                         + np.einsum("ju,mu->jm", c * B - s * A, sin_s))
        return out.ravel()[:n]

    at.linspace = linspace
    return at


# zero crossings are sought on a scan of this many points per unit of
# t_hi - t_lo (at least 64); the harness bounds the count from it
SCAN_POINTS_PER_UNIT = 16


def sharpness_check(f0, t_lo, t_hi, n_times):
    """Two-path check of the t^{-1/2} sharpness statement at the origin, at
    the n_times times np.linspace(t_lo, t_hi, n_times).

    Path one evaluates the evolved field at x = 0 from its lattice sum (the
    factored scan `at.linspace`); path two uses the radial reduction
    f(0) * J0(t).  For smooth radial data the two agree to spectral
    accuracy, which validates the reduction on the grid.
    """
    times = np.linspace(t_lo, t_hi, n_times)
    f0_origin = float(np.sum(f0.coeffs).real)
    if abs(f0_origin) < 1e-12:
        raise SpectralError("sharpness check requires f(0) != 0")
    at = _origin_evaluator(f0)
    origin_vals = at.linspace(t_lo, t_hi, n_times)
    reference = f0_origin * bessel_j0(times)
    scale = np.maximum(np.abs(reference), 1e-3 * abs(f0_origin))
    reldiff = float(np.max(np.abs(origin_vals - reference) / scale))
    env = abs(f0_origin) * j0_asymptotic_envelope(times)

    # envelope-peak ratios: local maxima of |value| / envelope
    ratio = np.abs(origin_vals) / env
    peak_idx = 1 + np.flatnonzero((ratio[1:-1] >= ratio[:-2]) & (ratio[1:-1] >= ratio[2:]))
    peak_ratios = ratio[peak_idx]

    # zero crossings: the linear interpolant of each sign change on the scan,
    # a scan sample of exactly 0 being a crossing at its own time
    n = max(64, int((t_hi - t_lo) * SCAN_POINTS_PER_UNIT))
    tgrid = np.linspace(t_lo, t_hi, n)
    vg = at.linspace(t_lo, t_hi, n)
    v0, v1 = vg[:-1], vg[1:]
    i = np.flatnonzero((v0 == 0.0) | (v0 * v1 < 0.0))
    dv = np.where(v0[i] == 0.0, 1.0, v1[i] - v0[i])
    crossings = tgrid[i] - v0[i] * (tgrid[i + 1] - tgrid[i]) / dv
    # predicted zeros of cos(t - pi/4): t = 3 pi / 4 + k pi
    ks = np.round((crossings - 3.0 * np.pi / 4.0) / np.pi)
    predicted = 3.0 * np.pi / 4.0 + ks * np.pi
    return SharpnessReport(
        times=times, origin_values=origin_vals, radial_reference=reference, envelope=env,
        max_two_path_reldiff=reldiff, peak_ratios=peak_ratios,
        zero_crossings=crossings, nearest_predicted=predicted)
