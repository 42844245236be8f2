import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares

from anisodisp import oscillatory
from anisodisp.lp import bump
from anisodisp.oscillatory import (
    GRAD_TOL,
    PhaseSpec,
    QuadratureBudgetError,
    _polar_quadrature,
    find_stationary,
    hessian_det,
    kernel_direct,
    phase_gradient,
    phase_hessian,
    phase_value,
    split_bound,
)
from anisodisp.semigroup import bessel_j0
from anisodisp.spectral import SpectralError, row_blocks
from conftest import count_calls


def fd_gradient(p, xi, h=1e-5):
    out = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        out[i] = (phase_value(p, xi + e) - phase_value(p, xi - e)) / (2.0 * h)
    return out


def fd_hessian(p, xi, h=1e-5):
    out = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        gp = phase_gradient(p, xi + e)
        gm = phase_gradient(p, xi - e)
        out[:, i] = (gp - gm) / (2.0 * h)
    return out


def annulus_samples(n, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 2.0, n)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.cos(psi), r * np.sin(psi)], axis=-1)


def test_phase_spec_validated():
    with pytest.raises(SpectralError):
        PhaseSpec(v=(0.0, 0.0), alpha=0.5)
    with pytest.raises(SpectralError):
        PhaseSpec(v=(np.inf, 0.0))


def test_phase_singular_at_origin():
    p = PhaseSpec(v=(0.0, 0.0))
    with pytest.raises(SpectralError):
        phase_value(p, np.array([0.0, 0.0]))


def test_gradient_matches_finite_differences():
    for alpha in (1.0, 1.5, 2.0):
        p = PhaseSpec(v=(0.3, -0.7), alpha=alpha)
        for xi in annulus_samples(100, seed=1):
            g = phase_gradient(p, xi)
            assert np.max(np.abs(g - fd_gradient(p, xi))) <= 1e-7


def test_hessian_matches_finite_differences():
    for alpha in (1.0, 1.5, 2.0):
        p = PhaseSpec(v=(0.0, 0.0), alpha=alpha)
        for xi in annulus_samples(100, seed=2):
            H = phase_hessian(p, xi)
            assert np.max(np.abs(H - fd_hessian(p, xi))) <= 1e-7
            det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
            assert abs(det - hessian_det(p, xi)) <= 1e-7


def test_hessian_det_sign_alpha_one():
    """alpha = 1: det < 0 off the line xi_2 = 0 and = 0 on it."""
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    for xi in annulus_samples(200, seed=3):
        if abs(xi[1]) > 1e-6:
            assert hessian_det(p, xi) < 0.0
    assert abs(hessian_det(p, np.array([1.3, 0.0]))) <= 1e-14


def test_hessian_det_nonzero_alpha_gt_one():
    """alpha > 1: the determinant never vanishes on the annulus."""
    for alpha in (1.5, 2.0):
        p = PhaseSpec(v=(0.0, 0.0), alpha=alpha)
        dets = np.array([hessian_det(p, xi) for xi in annulus_samples(200, seed=4)])
        assert np.all(np.abs(dets) > 1e-3)


# ---------------------------------------------------------------------------
# stationary points

def test_stationary_points_alpha1_unit_v():
    """v = (1, 0), alpha = 1: gradient vanishes at (0, +-1)."""
    p = PhaseSpec(v=(1.0, 0.0), alpha=1.0)
    ss = find_stationary(p)
    assert not ss.degenerate_flag
    pts = sorted(ss.points, key=lambda q: q[1])
    assert len(pts) == 2
    assert np.max(np.abs(pts[0] - np.array([0.0, -1.0]))) <= 1e-8
    assert np.max(np.abs(pts[1] - np.array([0.0, 1.0]))) <= 1e-8
    assert all(r <= GRAD_TOL for r in ss.residuals)


def test_stationary_residual_postcondition():
    for p in (
        PhaseSpec(v=(0.5, 0.2), alpha=1.0),
        PhaseSpec(v=(-0.5, 0.0), alpha=2.0),
        PhaseSpec(v=(0.0, 0.0), alpha=1.5),
    ):
        ss = find_stationary(p)
        for q in ss.points:
            if not ss.degenerate_flag:
                assert np.hypot(*phase_gradient(p, q)) <= GRAD_TOL


def test_degenerate_continuum_detected():
    """alpha = 1, v = 0: the whole line xi_2 = 0 is stationary and singular."""
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    ss = find_stationary(p)
    assert ss.degenerate_flag
    assert len(ss.points) == 2
    for q in ss.points:
        assert abs(q[1]) <= 1e-12
        assert np.hypot(*phase_gradient(p, q)) <= 1e-12


def test_alpha2_negative_v_has_stationary_points():
    p = PhaseSpec(v=(-0.5, 0.0), alpha=2.0)
    ss = find_stationary(p)
    assert 1 <= len(ss.points) <= 2
    assert not ss.degenerate_flag


def _scanned_stationary_points(p, n_r=301, n_th=720):
    """Zeros of grad phi on the annulus 1/2 <= |xi| <= 2, found without the
    closed form: every local minimum of |grad phi| on a polar grid, refined
    by least squares on grad phi, kept if it is a zero in the annulus."""
    r = np.linspace(0.5, 2.0, n_r)
    th = np.arange(n_th) * (2.0 * np.pi / n_th)
    xi = np.stack([r[:, None] * np.cos(th), r[:, None] * np.sin(th)], axis=-1)
    g = np.linalg.norm(phase_gradient(p, xi), axis=-1)
    padded = np.pad(g, ((1, 1), (0, 0)), constant_values=np.inf)
    is_min = np.ones_like(g, dtype=bool)
    for dr in (-1, 0, 1):
        for dth in (-1, 0, 1):
            if dr or dth:
                is_min &= g <= np.roll(padded, dth, axis=1)[1 + dr:n_r + 1 + dr]
    zeros = []
    for start in xi[is_min]:
        fit = least_squares(lambda q: phase_gradient(p, q), start,
                            jac=lambda q: phase_hessian(p, q), method="lm",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        q = fit.x
        if (np.hypot(*phase_gradient(p, q)) <= 1e-6 and 0.5 <= np.hypot(*q) <= 2.0
                and not any(np.hypot(*(q - z)) < 1e-3 for z in zeros)):
            zeros.append(q)
    return zeros


_rng = np.random.default_rng(19)
_SEEDED = [((float(a), float(b)), float(alpha)) for (a, b), alpha in zip(
    _rng.uniform(-1.5, 1.5, (6, 2)), _rng.choice([1.0, 1.25, 1.5, 1.75, 2.0], 6))]


@pytest.mark.parametrize("v, alpha, n_points", [
    ((1.0, 0.0), 1.0, 2),
    ((-0.5, 0.0), 2.0, 2),
    ((0.4, 0.3), 1.5, 2),
    ((1e-4, 0.01), 1.0, 2),  # next to the tangent case, near the line xi_2 = 0
    ((3.0, 1.0), 1.25, 0),  # every root has |xi| < 1/2
    ((0.0, 0.3), 1.0, 0),  # tangent: |v_2 (2 - alpha) / (alpha |v|)| = 1
    *[(v, alpha, None) for v, alpha in _SEEDED],
])
def test_closed_form_finds_every_stationary_point(v, alpha, n_points):
    """The closed form returns exactly the zeros that a dense scan of
    |grad phi| finds.  phi is odd, so its stationary points come in pairs
    +-xi and a count is never odd."""
    p = PhaseSpec(v=v, alpha=alpha)
    ss = find_stationary(p)
    zeros = _scanned_stationary_points(p)
    for z in zeros:
        assert min(np.hypot(*(z - q)) for q in ss.points) <= 1e-3
    assert len(ss.points) == len(zeros)
    assert n_points is None or len(ss.points) == n_points
    for q in ss.points:
        assert min(np.hypot(*(q + f)) for f in ss.points) <= 1e-12
    assert all(res <= GRAD_TOL for res in ss.residuals)


# ---------------------------------------------------------------------------
# kernel quadrature

def bump_mass():
    """integral of bump(xi) over the plane (the shell-0 kernel's value at t -> 0)."""
    r = np.linspace(0.5, 2.0, 4001)
    return float(2.0 * np.pi * np.trapezoid(bump(r) * r, r))


def test_kernel_small_t_limit():
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    val = kernel_direct(p, 1e-8)
    assert abs(val.imag) <= 1e-7
    assert abs(val.real - bump_mass()) <= 1e-6


def test_kernel_bounded_by_mass():
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.5)
    mass = bump_mass()
    for t in (1.0, 10.0, 60.0):
        assert abs(kernel_direct(p, t)) <= mass + 1e-8


def test_kernel_radial_reduction_vs_j0():
    """At v = 0, alpha = 1 the angular integral is 2 pi J0(t) exactly."""
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    for t in (3.0, 10.0, 25.0):
        r = np.linspace(0.5, 2.0, 4001)
        ref = 2.0 * np.pi * np.trapezoid(bump(r) * r, r) * bessel_j0(t)
        assert abs(kernel_direct(p, t).real - ref) <= 1e-6
        assert abs(kernel_direct(p, t).imag) <= 1e-8


def test_kernel_requires_positive_t():
    with pytest.raises(SpectralError):
        kernel_direct(PhaseSpec(v=(0.0, 0.0)), 0.0)


def test_kernel_budget_error():
    """t = 1e7 asks for more than KERNEL_MAX_POINTS before any quadrature runs."""
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    with pytest.raises(QuadratureBudgetError, match=r"more than 6e\+07 points"):
        kernel_direct(p, 1e7)


@pytest.mark.parametrize("t", [8e306, 9e306, np.finfo(float).max])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_kernel_budget_error_past_the_int_range(t, alpha):
    """Every larger finite t asks for too many points too, also where 20
    points per period no longer fit an int (from about 9e306 on)."""
    p = PhaseSpec(v=(0.0, 0.0), alpha=alpha)
    with pytest.raises(QuadratureBudgetError, match=r"more than 6e\+07 points"):
        kernel_direct(p, t)


def _stationary_phase_term(p, t, flip=False):
    """The leading term sum_s (2 pi / t) psi(xi_s) |det H(xi_s)|^{-1/2}
    exp(i t phi(xi_s) + i pi sigma_s / 4) of the shell-0 kernel, sigma_s the
    signature of H (Stein, Harmonic Analysis, ch. VIII).  `flip` uses the
    signature that det H > 0 would give instead: 2 sign(trace H)."""
    total = 0j
    for q in find_stationary(p).points:
        H = phase_hessian(p, q)
        sigma = 2 * np.sign(np.trace(H)) if flip else np.sum(np.sign(np.linalg.eigvalsh(H)))
        total += (2.0 * np.pi / t) * bump(np.hypot(*q)) * abs(np.linalg.det(H)) ** -0.5 \
            * np.exp(1j * (t * phase_value(p, q) + np.pi * sigma / 4.0))
    return total


def test_kernel_approaches_stationary_phase_term():
    """At v = (0.4, 0.3), alpha = 1.5 the phase has two nondegenerate
    stationary points, and the quadrature's relative distance to the leading
    term falls as t doubles: 7.1%, 4.4% and 1.6% at t = 25, 50 and 100.  The
    signature det H > 0 would give (the alpha > 1 sign of the strict xfail)
    reads 1,168%, 645% and 372%.  This ties find_stationary, phase_hessian
    and kernel_direct together; the three quadratures take about 2 s."""
    p = PhaseSpec(v=(0.4, 0.3), alpha=1.5)
    ss = find_stationary(p)
    assert len(ss.points) == 2 and not ss.degenerate_flag
    errors = []
    for t in (25.0, 50.0, 100.0):
        k = kernel_direct(p, t)
        err, flipped = (abs(k - sp) / abs(sp) for sp in
                        (_stationary_phase_term(p, t, flip) for flip in (False, True)))
        assert 10.0 * err < flipped, (t, err, flipped)
        errors.append(err)
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[-1] < 0.02, errors


def test_kernel_richardson_order(monkeypatch):
    """Doubling the final resolution moves the value by less than tol."""
    p = PhaseSpec(v=(0.1, 0.2), alpha=1.0)
    a = kernel_direct(p, 12.0)
    monkeypatch.setattr(oscillatory, "KERNEL_TOL", 1e-10)
    b = kernel_direct(p, 12.0)
    assert abs(a - b) <= 2e-8


# ---------------------------------------------------------------------------
# near/far splitting

def test_near_bound_linear_in_lambda():
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    lams = np.linspace(0.05, 0.8, 9)
    nears = np.array([split_bound(p, 10.0, lam)[0] for lam in lams])
    slope = nears / lams
    assert np.max(np.abs(slope - slope[0])) <= 1e-10


def test_split_bound_validation():
    p = PhaseSpec(v=(0.0, 0.0))
    with pytest.raises(SpectralError):
        split_bound(p, 10.0, 0.0)
    with pytest.raises(SpectralError):
        split_bound(p, -1.0, 0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_time_rejected(t):
    p = PhaseSpec(v=(0.0, 0.0))
    with pytest.raises(SpectralError):
        kernel_direct(p, t)
    with pytest.raises(SpectralError):
        split_bound(p, t, 0.5)


def test_budget_curves_cross_at_t_inv_half():
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    for t in (10.0, 100.0):
        near, far = split_bound(p, t, t**-0.5)
        assert abs(near - far) <= 1e-10 * near


@pytest.mark.parametrize("shares", [1, 2])
@pytest.mark.parametrize("v, alpha, t, j", [((0.0, 0.0), 1.0, 10.0, 0),
                                             ((0.3, -0.7), 1.5, 25.0, 1)])
def test_polar_quadrature_blocks_in_place(monkeypatch, v, alpha, t, j, shares):
    """The blocks are evaluated in buffers made once per call: a 4.2M-point
    quadrature peaks at its 64-row block's three float64 and one complex
    buffers, 10.2 MiB traced (18.2 with each block's temporaries made
    anew), and the sum has the bits of the formula evaluated block by
    block.  So it does with a second thread evaluating half the rows of
    each block, which is joined before the call returns."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shares)))
    p, n_r, n_psi = PhaseSpec(v=v, alpha=alpha), 1025, 4096
    threads = threading.active_count()
    tracemalloc.start()
    try:
        val = _polar_quadrature(p, t, j, n_r, n_psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert threading.active_count() == threads

    r_lo, r_hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
    r = np.linspace(r_lo, r_hi, n_r)
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    amp = bump(r * 2.0 ** (-j)) * r
    dr = (r_hi - r_lo) / (n_r - 1)
    w_r = np.full(n_r, dr)
    w_r[0] = w_r[-1] = dr / 2.0
    total = 0.0
    for rows in row_blocks(n_r, 128 * n_psi):
        R = r[rows, None]
        x1, x2 = R * np.cos(psi), R * np.sin(psi)
        phase = p.v[0] * x1 + p.v[1] * x2 - x1 * R ** (-p.alpha)
        total += np.sum(amp[rows, None] * np.exp(1j * t * phase) * w_r[rows, None])
    assert val == complex(total * (2.0 * np.pi / n_psi))


def test_polar_quadrature_holds_one_thread_per_call(monkeypatch):
    """A quadrature of several row blocks starts one thread for all of them
    where the process may use two CPUs and none on one, and its value has
    the same bits either way."""
    p, t, n_r, n_psi = PhaseSpec(v=(0.3, -0.7), alpha=1.5), 25.0, 1025, 4096
    assert len(list(row_blocks(n_r, 128 * n_psi))) > 2
    starts = count_calls(monkeypatch, threading.Thread, "start")
    values = []
    for cpus, started in (({0, 1}, 1), ({0}, 0)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        starts.clear()
        values.append(_polar_quadrature(p, t, 1, n_r, n_psi))
        assert len(starts) == started, cpus
    assert values[0] == values[1]


def test_polar_quadrature_memory_bounded():
    """Radial row blocks keep a 4.2M-point quadrature well under 64 MiB and
    reproduce the one-shot trapezoid sum."""
    p, t, n_r, n_psi = PhaseSpec(v=(0.0, 0.0)), 10.0, 1025, 4096
    tracemalloc.start()
    try:
        val = _polar_quadrature(p, t, 0, n_r, n_psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

    r = np.linspace(0.5, 2.0, n_r)
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    R, PSI = np.meshgrid(r, psi, indexing="ij")
    x1 = R * np.cos(PSI)
    phase = -x1 / R
    w_r = np.full(n_r, r[1] - r[0])
    w_r[0] = w_r[-1] = w_r[0] / 2.0
    ref = np.sum(bump(R) * R * np.exp(1j * t * phase) * w_r[:, None])
    ref *= 2.0 * np.pi / n_psi
    assert abs(val - ref) <= 1e-12 * abs(ref)
