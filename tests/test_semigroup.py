import tracemalloc

import numpy as np
import pytest

from anisodisp.harness import make_profile
from anisodisp.lp import LPBank, shell_field
from anisodisp.semigroup import (
    SemigroupParams,
    _origin_evaluator,
    bessel_j0,
    bessel_j0_quadrature,
    bessel_j0_series,
    evolve_linear,
    j0_asymptotic_envelope,
    measure_decay,
    reliable_time,
    sharpness_check,
)
from anisodisp.spectral import (
    Grid2D,
    SpectralError,
    forward_transform,
    l2_norm,
    linf_norm,
)
from conftest import random_field


def test_params_validated():
    with pytest.raises(SpectralError):
        SemigroupParams(0.9, 1.0)
    with pytest.raises(SpectralError):
        SemigroupParams(1.0, -0.1)


def test_t_zero_is_identity(grid64):
    f = random_field(grid64)
    g = evolve_linear(f, SemigroupParams(1.0, 0.0))
    ref = f.copy()
    ref.zero_nyquist()
    assert np.max(np.abs(g.coeffs - ref.coeffs)) <= 1e-15


def test_unitary_on_l2(grid64):
    f = random_field(grid64, seed=1)
    n0 = l2_norm(f)
    for t in (0.5, 5.0, 50.0):
        assert abs(l2_norm(evolve_linear(f, SemigroupParams(1.3, t))) - n0) <= 1e-12 * n0


def test_group_law(grid64):
    f = random_field(grid64, seed=2)
    p = lambda t: SemigroupParams(1.5, t)
    a = evolve_linear(evolve_linear(f, p(2.0)), p(3.0))
    b = evolve_linear(f, p(5.0))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


def test_evolved_field_stays_real(grid64):
    f = random_field(grid64, seed=3)
    g = evolve_linear(f, SemigroupParams(1.0, 17.0))
    assert g.hermitian_defect() == 0.0


def test_plane_wave_does_not_decay(grid64):
    X, _ = grid64.meshgrid()
    f = forward_transform(np.cos(2.0 * np.pi * X * 3 / grid64.L), grid64)
    base = linf_norm(f)
    for t in (1.0, 10.0, 40.0):
        g = evolve_linear(f, SemigroupParams(1.0, t))
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


def test_j0_rejects_negative():
    with pytest.raises(SpectralError):
        bessel_j0_series(-1.0)


# ---------------------------------------------------------------------------
# decay measurement

def test_measure_decay_requires_zero_mean(grid64):
    f = random_field(grid64)
    f.coeffs[0, 0] = 1.0
    bank = LPBank(grid64)
    with pytest.raises(SpectralError):
        measure_decay(f, SemigroupParams(1.0, 0.0), [1.0, 2.0, 4.0], bank)


def test_contamination_flag():
    grid = Grid2D(64, 160.0)
    f = random_field(grid, seed=4)
    bank = LPBank(grid)
    times = np.geomspace(10.0, 60.0, 8)  # beyond L/4 = 40
    rep = measure_decay(f, SemigroupParams(1.0, 0.0), times, bank)
    assert rep.boundary_contaminated
    assert rep.fit_window[1] <= reliable_time(grid) + 1e-12
    clean = measure_decay(
        f, SemigroupParams(1.0, 0.0), np.geomspace(10.0, 39.0, 8), bank
    )
    assert not clean.boundary_contaminated


def test_decay_slope_small_grid():
    """Coarse, fast version of the rate fit; the band is generous."""
    grid = Grid2D(256, 200.0)
    from anisodisp.spectral import gaussian_field

    f = gaussian_field(grid).zero_mean()
    bank = LPBank(grid)
    times = np.geomspace(10.0, 50.0, 8)
    rep = measure_decay(f, SemigroupParams(1.0, 0.0), times, bank)
    assert -0.7 <= rep.fitted_slope <= -0.3
    assert rep.constant_estimate > 0.0


# ---------------------------------------------------------------------------
# sharpness

def test_sharpness_requires_nonzero_origin(grid64):
    f = shell_field(grid64)
    f.coeffs[:] = 0.0
    with pytest.raises(SpectralError):
        sharpness_check(f, [1.0, 2.0])


def test_sharpness_two_paths_small_grid():
    grid = Grid2D(256, 200.0)
    f = shell_field(grid)
    rep = sharpness_check(f, np.linspace(1.0, 50.0, 50))
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
        s = at(float(t))
        assert isinstance(s, float)
        assert abs(s - ref) <= tol


def test_origin_evaluator_memory_bounded():
    """The 1280 x (distinct phases) matrix is evaluated in row blocks."""
    f = shell_field(Grid2D(512, 400.0))
    tracemalloc.start()
    try:
        vals = _origin_evaluator(f)(np.linspace(20.0, 100.0, 1280))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (1280,) and np.all(np.isfinite(vals))
    assert peak < 64 * 2**20
