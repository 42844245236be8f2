import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0

from anisodisp import semigroup, spectral
from anisodisp.harness import make_profile
from anisodisp.lp import shell_field
from anisodisp.semigroup import (
    FitError,
    _evolved_linf,
    _origin_evaluator,
    bessel_j0,
    bessel_j0_quadrature,
    bessel_j0_series,
    evolve_linear,
    fit_power_law,
    j0_asymptotic_envelope,
    measure_decay,
    reliable_time,
    sharpness_check,
)
from anisodisp.spectral import (
    Grid2D,
    MultiplierSpec,
    SpectralError,
    forward_transform,
    l2_norm,
    linf_norm,
)
from conftest import grid_arrays, hermitian_defect, random_field


def test_params_validated(grid32):
    f = random_field(grid32)
    with pytest.raises(SpectralError):
        evolve_linear(f, 0.9, 1.0)
    with pytest.raises(SpectralError):
        evolve_linear(f, 1.0, -0.1)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_time_rejected(grid32, t):
    with pytest.raises(SpectralError):
        evolve_linear(random_field(grid32), 1.0, t)
    with pytest.raises(SpectralError):
        MultiplierSpec.semigroup_phase(1.0, t)
    with pytest.raises(SpectralError):
        bessel_j0_series(t)
    with pytest.raises(SpectralError):
        bessel_j0_quadrature(t)


def test_t_zero_is_identity(grid64):
    f = random_field(grid64)
    g = evolve_linear(f, 1.0, 0.0)
    ref = f.copy()
    ref.zero_nyquist()
    assert np.max(np.abs(g.coeffs - ref.coeffs)) <= 1e-15


def test_unitary_on_l2(grid64):
    f = random_field(grid64, seed=1)
    n0 = l2_norm(f)
    for t in (0.5, 5.0, 50.0):
        assert abs(l2_norm(evolve_linear(f, 1.3, t)) - n0) <= 1e-12 * n0


def test_group_law(grid64):
    f = random_field(grid64, seed=2)
    a = evolve_linear(evolve_linear(f, 1.5, 2.0), 1.5, 3.0)
    b = evolve_linear(f, 1.5, 5.0)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


# property checks on the half-lattice engines, on one small grid
GRID32 = Grid2D(32, 10.0)
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)
ALPHAS = st.floats(1.0, 2.0)
TIMES = st.floats(0.0, 100.0)
SEEDS = st.integers(0, 2**16)


@PROPERTY
@given(ALPHAS, TIMES, SEEDS)
def test_evolved_linf_matches_evolve_linear(alpha, t, seed):
    """White noise, so the Nyquist lines that the loop zeroes carry data."""
    noise = np.random.default_rng(seed).standard_normal((32, 32))
    f = forward_transform(noise, GRID32).zero_mean()
    want = linf_norm(evolve_linear(f, alpha, t))
    assert _evolved_linf(f, alpha, [t])[0] == want


@PROPERTY
@given(ALPHAS, TIMES, SEEDS)
def test_unitary_on_half_lattice(alpha, t, seed):
    f = random_field(GRID32, seed=seed)
    n0 = l2_norm(f)
    assert abs(l2_norm(evolve_linear(f, alpha, t)) - n0) <= 1e-14 * n0


@PROPERTY
@given(ALPHAS, st.floats(0.0, 50.0), st.floats(0.0, 50.0), SEEDS)
def test_group_law_on_half_lattice(alpha, t, s, seed):
    f = random_field(GRID32, seed=seed)
    a = evolve_linear(evolve_linear(f, alpha, s), alpha, t)
    b = evolve_linear(f, alpha, t + s)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_evolved_field_stays_real(grid64):
    f = random_field(grid64, seed=3)
    g = evolve_linear(f, 1.0, 17.0)
    assert hermitian_defect(g) == 0.0


def test_plane_wave_does_not_decay(grid64):
    X = np.broadcast_to(grid64.x[:, None], (grid64.N, grid64.N))  # x1 at each point
    f = forward_transform(np.cos(2.0 * np.pi * X * 3 / grid64.L), grid64)
    base = linf_norm(f)
    for t in (1.0, 10.0, 40.0):
        g = evolve_linear(f, 1.0, t)
        # coefficient moduli are untouched; the physical sup only moves by
        # the sampling error of a phase-shifted cosine, O((pi/N)^2)
        assert np.max(np.abs(np.abs(g.coeffs) - np.abs(f.coeffs))) <= 1e-14
        assert abs(linf_norm(g) - base) <= 2e-3 * base


# ---------------------------------------------------------------------------
# Bessel oracle

def test_j0_two_paths_agree():
    for t in np.linspace(0.0, 50.0, 26):
        assert abs(bessel_j0_series(t) - bessel_j0_quadrature(t)) <= 1e-10


def test_j0_known_values():
    assert abs(bessel_j0(0.0) - 1.0) <= 1e-14
    # first zero of J0
    assert abs(bessel_j0(2.404825557695773)) <= 1e-10


def test_j0_satisfies_bessel_ode():
    """t y'' + y' + t y = 0, via central differences of the quadrature path."""
    h = 1e-4
    for t in (1.0, 5.0, 17.5, 40.0):
        ym, y0, yp = (bessel_j0_quadrature(t + k * h) for k in (-1, 0, 1))
        d1 = (yp - ym) / (2.0 * h)
        d2 = (yp - 2.0 * y0 + ym) / h**2
        assert abs(t * d2 + d1 + t * y0) <= 1e-5


def test_j0_envelope_tracks_asymptotics():
    for t in (20.0, 35.0, 50.0):
        pred = j0_asymptotic_envelope(t) * np.cos(t - np.pi / 4.0)
        assert abs(bessel_j0(t) - pred) <= 0.3 * j0_asymptotic_envelope(t)


def test_j0_series_matches_scipy_beyond_12():
    """The Hankel branch of the series path against scipy's J0 on (12, 200],
    and on both sides of the switch at t = 12."""
    for t in np.linspace(12.0, 200.0, 2001)[1:]:
        assert abs(bessel_j0_series(t) - j0(t)) <= 1e-12, t
    for t in (12.0 - 1e-9, 12.0, 12.0 + 1e-9):
        assert abs(bessel_j0_series(t) - j0(t)) <= 1e-12, t


def test_j0_rejects_negative():
    with pytest.raises(SpectralError):
        bessel_j0_series(-1.0)


def _float_trapezoid(t):
    """The float trapezoid of `bessel_j0_quadrature`, written out: doubling
    the panel count from 64 until two values agree to J0_QUAD_TOL."""
    n, prev = 64, None
    while n <= semigroup.J0_QUAD_MAX_N:
        theta = np.arange(n) * (2.0 * np.pi / n)
        val = float(np.mean(np.cos(t * np.cos(theta))))
        if prev is not None and abs(val - prev) <= semigroup.J0_QUAD_TOL:
            return val
        prev = val
        n *= 2
    raise SpectralError(f"J0 quadrature did not converge for t={t}")


def _float_loop_error(times):
    """The message of the first error of `bessel_j0` called time by time,
    with the trapezoid written out."""
    for t in times:
        try:
            s = semigroup.bessel_j0_series(float(t))
            q = _float_trapezoid(float(t))
        except SpectralError as exc:
            return str(exc)
        if abs(s - q) > 1e-10:
            return f"J0 series/quadrature disagree at t={float(t)}: {s} vs {q}"
    return None


J0_TIMES = {
    "sharpness": np.linspace(19.5, 99.5, 400),
    "wide": np.linspace(0.0, 200.0, 1000),
    "tiny": np.array([0.0, 5e-324, 1e-300, 1e-10, 1e-5, 0.5]),
}


@pytest.mark.parametrize("name", J0_TIMES)
def test_j0_array_has_the_bits_of_each_float_call(name):
    """An array of times gives, for each, the bits of the trapezoid written
    out for one time and of the float calls, which return floats."""
    times = J0_TIMES[name]
    expected = np.array([_float_trapezoid(float(t)) for t in times])
    for fn in (bessel_j0_quadrature, bessel_j0):
        values = fn(times)
        assert values.tobytes() == expected.tobytes()
        floats = [fn(float(t)) for t in times]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == expected.tobytes()


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 100.0, 50),            # 32 and below converge at 128 panels
    np.array([10.0, 50.0, np.nan]),         # 50 fails before the NaN is reached
    np.array([10.0, -1.0, 50.0]),           # the negative time is reached first
    np.array([np.inf, 10.0]),
])
def test_j0_array_raises_the_first_error_of_the_float_loop(monkeypatch, times):
    """With at most 128 panels, the array path raises the error `bessel_j0`
    called time by time would raise first, message included."""
    monkeypatch.setattr(semigroup, "J0_QUAD_MAX_N", 128)
    expected = _float_loop_error(times)
    assert expected is not None
    with pytest.raises(SpectralError) as err:
        bessel_j0(times)
    assert str(err.value) == expected
    if np.all(np.isfinite(times)) and np.all(times >= 0.0):
        with pytest.raises(SpectralError) as err:
            bessel_j0_quadrature(times)
        assert str(err.value) == expected


def test_j0_array_raises_the_first_disagreement(monkeypatch):
    """A series that is off from t = 50 on: the array path reports the first
    time past 50, with the series and trapezoid values the float loop prints."""
    series = semigroup.bessel_j0_series
    monkeypatch.setattr(semigroup, "bessel_j0_series",
                        lambda t: series(t) + (1e-9 if t > 50.0 else 0.0))
    times = np.linspace(0.0, 100.0, 41)
    expected = _float_loop_error(times)
    assert expected.startswith("J0 series/quadrature disagree at t=52.5: ")
    with pytest.raises(SpectralError) as err:
        bessel_j0(times)
    assert str(err.value) == expected


def test_sharpness_far_window_fails_as_the_float_loop_does(monkeypatch):
    """At t_lo = 1e15 no panel count up to J0_QUAD_MAX_N converges.  The
    check ends with the float loop's message after the trapezoid of the
    first time alone, in about the time the float loop takes for it."""
    f = shell_field(Grid2D(256, 200.0))
    trapezoid, sizes = semigroup._j0_trapezoid, []

    def recorded(times):
        sizes.append(times.size)
        return trapezoid(times)

    monkeypatch.setattr(semigroup, "_j0_trapezoid", recorded)
    start = time.perf_counter()
    with pytest.raises(SpectralError):
        _float_trapezoid(1e15)
    alone = time.perf_counter() - start
    start = time.perf_counter()
    with pytest.raises(SpectralError) as err:
        sharpness_check(f, 1e15, 1e15 + 10.0, 400)
    took = time.perf_counter() - start
    assert str(err.value) == "J0 quadrature did not converge for t=1000000000000000.0"
    assert sizes == [1]
    assert took < 3.0 * alone + 0.5


# ---------------------------------------------------------------------------
# power-law fit

def test_exact_power_law_recovered():
    t = np.geomspace(1.0, 100.0, 20)
    v = 3.5 * t**-0.5
    slope, intercept, residual = fit_power_law(t, v, (t.min(), t.max()))
    assert abs(slope + 0.5) <= 1e-12
    assert abs(np.exp(intercept) - 3.5) <= 1e-12
    assert residual <= 1e-13


def test_window_restricts_fit():
    t = np.geomspace(1.0, 100.0, 40)
    v = t**-1.0
    v[t < 10.0] = 1.0  # flat head outside the window
    slope, _, _ = fit_power_law(t, v, window=(10.0, 100.0))
    assert abs(slope + 1.0) <= 1e-12


def test_too_few_points_rejected():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitError):
        fit_power_law(t, t, (t.min(), t.max()))


def test_nonpositive_values_rejected():
    t = np.geomspace(1.0, 10.0, 10)
    v = t.copy()
    v[3] = 0.0
    with pytest.raises(FitError):
        fit_power_law(t, v, (t.min(), t.max()))


# ---------------------------------------------------------------------------
# decay measurement

def test_measure_decay_requires_zero_mean(grid64):
    f = random_field(grid64)
    f.coeffs[0, 0] = 1.0
    with pytest.raises(SpectralError):
        measure_decay(f, 1.0, [1.0, 2.0, 4.0])


def test_contamination_flag():
    grid = Grid2D(64, 160.0)
    f = random_field(grid, seed=4)
    times = np.geomspace(10.0, 60.0, 8)  # beyond L/4 = 40
    rep = measure_decay(f, 1.0, times)
    assert rep.boundary_contaminated
    assert rep.fit_window[1] <= reliable_time(grid) + 1e-12
    clean = measure_decay(f, 1.0, np.geomspace(10.0, 39.0, 8))
    assert not clean.boundary_contaminated


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_measure_decay_equals_full_lattice_path(alpha):
    """The half-lattice loop gives the bits of linf_norm(evolve_linear(...)),
    here for white noise, whose Nyquist lines the loop must zero."""
    grid = Grid2D(128, 80.0)
    noise = np.random.default_rng(6).standard_normal((128, 128))
    f = forward_transform(noise, grid).zero_mean()
    times = np.geomspace(1.0, 30.0, 7)
    rep = measure_decay(f, alpha, times, fit_window=(1.0, 30.0))
    full = [linf_norm(evolve_linear(f, alpha, t)) for t in times]
    assert np.array_equal(rep.linf_values, full)


def test_evolved_linf_of_zero_field_is_zero(grid64):
    f = random_field(grid64)
    f.coeffs[:] = 0.0
    assert np.array_equal(_evolved_linf(f, 1.5, [1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(SpectralError):  # each time is checked
        _evolved_linf(f, 1.0, [1.0, np.inf])


@pytest.mark.parametrize("n_times", [1, 12])
def test_evolved_linf_memory_bounded(n_times):
    """The time loop holds the same arrays for 1 time and for 12: the phase
    and its argument on half the rows (a quarter of a half-lattice complex
    array each), the multiplier (one) and the row pass's buffers, with 64
    KiB to spare.  At N = 256 one block holds every row, in one buffer; at
    N = 1024 the row pass takes several blocks, in two buffers of half the
    budget when a second thread takes every other block, and no (N, N) array
    is made, on the grid or elsewhere."""
    for N in (256, 1024):
        grid = Grid2D(N, 400.0)
        f = make_profile(grid, "gaussian")
        times = np.geomspace(10.0, 100.0, n_times)
        block = min(8 * N * N, spectral.ROW_PASS_BYTES)
        assert (block < 8 * N * N) == (N == 1024)
        tracemalloc.start()
        try:
            _evolved_linf(f, 1.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * N * (N // 2 + 1) * 16 + block + (64 << 10), N
        assert grid_arrays(grid) == ["k", "x"]


def test_measure_decay_joins_its_threads_and_raises_their_errors(monkeypatch):
    """Every second thread is gone when `measure_decay` returns, and an
    exception raised in the second thread's share of a row pass reaches the
    caller."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = Grid2D(1024, 400.0)
    f = make_profile(grid, "gaussian")
    times = np.geomspace(10.0, 100.0, 5)
    caller, threads = threading.get_ident(), set()
    extrema = semigroup._extrema

    def recorded(block, rows):
        threads.add(threading.get_ident())
        return extrema(block, rows)

    monkeypatch.setattr(semigroup, "_extrema", recorded)
    before = threading.active_count()
    measure_decay(f, 1.0, times)
    assert len(threads) == 2 and caller in threads
    assert threading.active_count() == before

    def failing(block, rows):
        if threading.get_ident() != caller:
            raise MemoryError("on the second thread")
        return extrema(block, rows)

    monkeypatch.setattr(semigroup, "_extrema", failing)
    with pytest.raises(MemoryError, match="on the second thread"):
        measure_decay(f, 1.0, times)
    assert threading.active_count() == before


def test_decay_slope_small_grid():
    """Coarse, fast version of the rate fit; the band is generous."""
    grid = Grid2D(256, 200.0)
    from anisodisp.spectral import gaussian_field

    f = gaussian_field(grid).zero_mean()
    times = np.geomspace(10.0, 50.0, 8)
    rep = measure_decay(f, 1.0, times)
    assert -0.7 <= rep.fitted_slope <= -0.3
    assert rep.constant_estimate > 0.0


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_decay_measurement_obeys_the_dilation_law(alpha):
    """The symbol xi_1 / |xi|^alpha is homogeneous of degree 1 - alpha, so
    f(2x) evolves at t as f does at 2^{1-alpha} t, and B^s_{1,1} scales by
    2^{s-2}.  On the lattice: shell 0 on a box of side L and shell 1 on L/2
    have the same coefficients, the same sups at matching times, and so
    the same fitted slope and constant, with the Besov ratio exactly
    2^{s-2}.  A wrong dx power or Besov index breaks the last two."""
    N, L = 256, 400.0
    f, h = shell_field(Grid2D(N, L), 0), shell_field(Grid2D(N, L / 2), 1)
    assert np.array_equal(f.coeffs, h.coeffs)
    c = 2.0 ** (1.0 - alpha)
    times = np.geomspace(10.0, 40.0, 8)
    sup_f, sup_h = _evolved_linf(f, alpha, c * times), _evolved_linf(h, alpha, times)
    assert np.max(np.abs(sup_f - sup_h) / sup_h) <= 1e-15
    rep_f = measure_decay(f, alpha, c * times, fit_window=(c * 10.0, c * 40.0))
    rep_h = measure_decay(h, alpha, times, fit_window=(10.0, 40.0))
    s = 2.0 if alpha == 1.0 else 1.0 + alpha
    assert rep_h.besov_value == 2.0 ** (s - 2.0) * rep_f.besov_value
    assert rep_f.fitted_slope == pytest.approx(rep_h.fitted_slope, rel=1e-14, abs=0.0)
    assert rep_f.constant_estimate == pytest.approx(rep_h.constant_estimate, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# sharpness

def test_sharpness_requires_nonzero_origin(grid64):
    f = shell_field(grid64)
    f.coeffs[:] = 0.0
    with pytest.raises(SpectralError):
        sharpness_check(f, 1.0, 2.0, 2)


def test_sharpness_two_paths_small_grid():
    grid = Grid2D(256, 200.0)
    f = shell_field(grid)
    rep = sharpness_check(f, 1.0, 50.0, 50)
    # the coarse lattice leaves ~2e-6; the production grid is checked elsewhere
    assert rep.max_two_path_reldiff <= 1e-5


def _plain_origin_sum(f, t):
    """Re sum_k c_k exp(-i t xi_1/|xi|), mode by mode."""
    grid = f.grid
    ph = grid.xi1 / grid.xi_mod_safe
    ph[0, 0] = 0.0
    return float(np.real(np.sum(f.coeffs * np.exp(-1j * t * ph))))


@pytest.mark.parametrize("kind", ["shell", "random", "non-hermitian"])
def test_origin_evaluator_matches_plain_sum(kind):
    grid = Grid2D(64, 40.0)
    if kind == "non-hermitian":
        # the phase grouping must not rely on c(-k) = conj(c(k))
        f = random_field(grid, seed=5)
        f.coeffs = f.coeffs + 0.3j * np.abs(f.coeffs)
    elif kind == "shell":
        f = shell_field(grid)
    else:
        f = make_profile(grid, kind, seed=5, width=1.5)
    at = _origin_evaluator(f)
    tol = 1e-13 * np.sum(np.abs(f.coeffs))
    times = np.array([37.5, 0.0, 3.25, 91.0, 12.0, 55.5])
    vals = at(times)
    assert vals.shape == times.shape
    for t, v in zip(times, vals):
        ref = _plain_origin_sum(f, t)
        assert abs(v - ref) <= tol


@pytest.mark.parametrize("kind", ["shell", "random", "non-hermitian"])
@pytest.mark.parametrize("n", [64, 400, 1280, 1281])
def test_origin_scan_matches_direct_sum(kind, n):
    """The factored scan on np.linspace(lo, hi, n) gives the direct sum's
    values; n = 400 is the report series (20 anchors x 20 offsets), and at
    n = 1280 and 1281 the last anchor's row of offsets is cut."""
    grid = Grid2D(64, 40.0)
    if kind == "non-hermitian":
        f = random_field(grid, seed=7)
        f.coeffs = f.coeffs + 0.3j * np.abs(f.coeffs)
    elif kind == "shell":
        f = shell_field(grid)
    else:
        f = make_profile(grid, kind, seed=7, width=1.5)
    at = _origin_evaluator(f)
    scan = at.linspace(20.0, 100.0, n)
    direct = at(np.linspace(20.0, 100.0, n))
    assert scan.shape == (n,)
    assert np.max(np.abs(scan - direct)) <= 1e-13 * np.sum(np.abs(f.coeffs))


def test_origin_scan_memory_follows_budget(monkeypatch):
    """The offsets take half the byte budget and each block of anchors the
    other half, so a 1 MiB budget bounds the scan, up to small arrays."""
    f = shell_field(Grid2D(512, 400.0))
    at = _origin_evaluator(f)
    direct = at(np.linspace(20.0, 100.0, 1280))
    monkeypatch.setattr(semigroup, "CHUNK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        vals = at.linspace(20.0, 100.0, 1280)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(vals - direct)) <= 1e-13 * np.sum(np.abs(f.coeffs))
    assert peak < 1.5 * 2**20


def test_sharpness_crossings_interpolate_direct_scan():
    """Each crossing lies in an interval that a direct-sum scan brackets, one
    per bracket, within 1e-4 of the direct sum's root found by brentq."""
    f = shell_field(Grid2D(512, 400.0))
    lo, hi = 20.0, 100.0
    rep = sharpness_check(f, lo, hi, 5)
    at = _origin_evaluator(f)
    tgrid = np.linspace(lo, hi, 1280)
    vg = at(tgrid)
    i = np.flatnonzero(vg[:-1] * vg[1:] < 0.0)
    assert np.all(vg != 0.0) and i.size > 20
    x = rep.zero_crossings
    assert x.size == i.size
    assert np.all((tgrid[i] <= x) & (x <= tgrid[i + 1]))
    roots = [brentq(lambda t: at(np.array([t]))[0], tgrid[k], tgrid[k + 1], xtol=1e-12)
             for k in i]
    assert np.max(np.abs(x - roots)) <= 1e-4


def test_sharpness_zero_sample_is_a_crossing(monkeypatch):
    """A scan sample of exactly 0 is a crossing at its own time, without a
    0/0 from the flat interval after it (a warning fails the suite).  Only
    the n-point crossing scan is stubbed, not the 2-point report series."""
    f = shell_field(Grid2D(64, 40.0))
    n = 64
    tgrid = np.linspace(20.0, 21.0, n)
    vg = np.ones(n)
    vg[10:12] = 0.0  # two zero samples in a row: the first interval is 0/0
    vg[30:] = -1.0
    evaluator = _origin_evaluator

    def flat_scan(f0):
        at = evaluator(f0)
        scan = at.linspace
        at.linspace = lambda lo, hi, m: vg if m == n else scan(lo, hi, m)
        return at

    monkeypatch.setattr(semigroup, "_origin_evaluator", flat_scan)
    rep = sharpness_check(f, 20.0, 21.0, 2)
    expected = [tgrid[10], tgrid[11], tgrid[29] + 0.5 * (tgrid[30] - tgrid[29])]
    assert np.array_equal(rep.zero_crossings, expected)


def test_origin_evaluator_memory_bounded():
    """The 1280 x (distinct phases) matrix is evaluated in row blocks, and
    so are the anchor rows of the scan."""
    f = shell_field(Grid2D(512, 400.0))
    for evaluate in (lambda: _origin_evaluator(f)(np.linspace(20.0, 100.0, 1280)),
                     lambda: _origin_evaluator(f).linspace(20.0, 100.0, 1280)):
        tracemalloc.start()
        try:
            vals = evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (1280,) and np.all(np.isfinite(vals))
        assert peak < 64 * 2**20
