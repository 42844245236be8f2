"""End-to-end acceptance checks for the whole toolkit.

Each test prints a one-line PASS/FAIL summary with the measured quantity so
the suite output doubles as a results table.  Tolerances are stated inline.
"""

import numpy as np
import pytest

from anisodisp.boussinesq import (
    BoussState,
    diagonal_variables,
    linear_propagator,
    mode_energy,
    stability_experiment,
)
from anisodisp.harness import ExperimentConfig, make_profile, run
from anisodisp.lp import LPBank, shell_field
from anisodisp.oscillatory import (
    PhaseSpec,
    hessian_det,
    kernel_direct,
    phase_gradient,
    phase_hessian,
    phase_value,
    split_bound,
)
from anisodisp.semigroup import (
    bessel_j0_quadrature,
    bessel_j0_series,
    evolve_linear,
    measure_decay,
    sharpness_check,
)
from anisodisp.spectral import (
    Grid2D,
    SpectralField,
    forward_transform,
    gaussian_field,
    l2_norm,
    linf_norm,
)
from anisodisp import sqg


def report(name, passed, detail):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def decay_slope(alpha, N=1024, L=400.0):
    grid = Grid2D(N, L)
    f0 = gaussian_field(grid).zero_mean()
    times = np.geomspace(10.0, 100.0, 12)
    return measure_decay(f0, alpha, times)


# ---------------------------------------------------------------------------
# 1. linear decay rate, alpha = 1

def test_criterion_1_decay_rate_alpha1():
    """Fitted L-inf slope over t in [10, 100] lies in [-0.6, -0.4].

    The fit needs the whole window inside the reliable span t <= L/4, which
    requires a box of side 400; on a side-40 box the same window is
    wrap-around contaminated and the report must say so.
    """
    rep = decay_slope(1.0)
    ok_slope = -0.6 <= rep.fitted_slope <= -0.4
    assert not rep.boundary_contaminated

    small = Grid2D(256, 40.0)
    f0 = gaussian_field(small).zero_mean()
    contaminated = measure_decay(
        f0,
        1.0,
        np.geomspace(10.0, 100.0, 12),
        fit_window=(10.0, 100.0),
    )
    report(
        "1 decay rate alpha=1",
        ok_slope and contaminated.boundary_contaminated,
        f"slope={rep.fitted_slope:.4f} in [-0.6,-0.4]; "
        f"L=40 flagged contaminated={contaminated.boundary_contaminated}",
    )
    assert ok_slope
    assert contaminated.boundary_contaminated


# ---------------------------------------------------------------------------
# 2. alpha-family rates

def test_criterion_2_decay_rate_alpha_family():
    rep2 = decay_slope(2.0)
    rep15 = decay_slope(1.5)
    ok2 = -1.1 <= rep2.fitted_slope <= -0.9
    ok15 = -1.15 <= rep15.fitted_slope <= -0.85
    report(
        "2 alpha-family rates",
        ok2 and ok15,
        f"alpha=2 slope={rep2.fitted_slope:.4f} in [-1.1,-0.9]; "
        f"alpha=1.5 slope={rep15.fitted_slope:.4f} in [-1.15,-0.85]",
    )
    assert ok2
    assert ok15


# ---------------------------------------------------------------------------
# 3. sharpness of the t^{-1/2} rate

def test_criterion_3_sharpness():
    grid = Grid2D(512, 400.0)
    f0 = shell_field(grid)
    rep = sharpness_check(f0, 20.0, 100.0, 400)
    ok_two_path = rep.max_two_path_reldiff <= 1e-6
    ok_peaks = rep.peak_ratios.size > 0 and np.all(
        np.abs(rep.peak_ratios - 1.0) <= 0.05
    )
    cross_off = np.max(np.abs(rep.zero_crossings - rep.nearest_predicted))
    ok_cross = rep.zero_crossings.size > 0 and cross_off <= 0.05
    j0_err = max(
        abs(bessel_j0_series(t) - bessel_j0_quadrature(t))
        for t in np.linspace(0.5, 50.0, 34)
    )
    ok_j0 = j0_err <= 1e-10
    report(
        "3 sharpness",
        ok_two_path and ok_peaks and ok_cross and ok_j0,
        f"two-path reldiff={rep.max_two_path_reldiff:.2e} (<=1e-6); "
        f"{rep.peak_ratios.size} peaks within 5%; "
        f"crossing offset={cross_off:.4f} (<=0.05); J0 err={j0_err:.2e} (<=1e-10)",
    )
    assert ok_two_path
    assert ok_peaks
    assert ok_cross
    assert ok_j0


# ---------------------------------------------------------------------------
# 4. phase formulas

def _annulus_points(n, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 2.0, n)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([r * np.cos(psi), r * np.sin(psi)], axis=-1)


def test_criterion_4_phase_formulas_vs_finite_differences():
    h = 1e-5
    worst = 0.0
    sign_ok = True
    for alpha in (1.0, 1.5, 2.0):
        p = PhaseSpec(v=(0.2, -0.4), alpha=alpha)
        for xi in _annulus_points(100, seed=int(10 * alpha)):
            g = phase_gradient(p, xi)
            fd = np.array(
                [
                    (
                        phase_value(p, xi + h * e) - phase_value(p, xi - h * e)
                    )
                    / (2.0 * h)
                    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                ]
            )
            worst = max(worst, float(np.max(np.abs(g - fd))))
            H = phase_hessian(p, xi)
            fdH = np.column_stack(
                [
                    (phase_gradient(p, xi + h * e) - phase_gradient(p, xi - h * e))
                    / (2.0 * h)
                    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                ]
            )
            worst = max(worst, float(np.max(np.abs(H - fdH))))
            if alpha == 1.0 and abs(xi[1]) > 1e-6:
                sign_ok &= hessian_det(p, xi) < 0.0
    ok_fd = worst <= 1e-7
    report(
        "4 phase formulas (finite differences + alpha=1 sign)",
        ok_fd and sign_ok,
        f"max |closed-form - FD|={worst:.2e} (<=1e-7); "
        f"alpha=1 det<0 off xi2=0: {sign_ok}",
    )
    assert ok_fd
    assert sign_ok


@pytest.mark.xfail(
    strict=True,
    reason="for alpha > 1 the closed-form determinant, confirmed by the "
    "finite-difference oracle, is negative on the whole annulus; the "
    "documented positive sign for alpha > 1 does not hold",
)
def test_criterion_4_sign_pattern_alpha_gt_one():
    dets = []
    for alpha in (1.5, 2.0):
        p = PhaseSpec(v=(0.0, 0.0), alpha=alpha)
        dets += [hessian_det(p, xi) for xi in _annulus_points(100, seed=44)]
    positive = all(d > 0.0 for d in dets)
    report(
        "4b det H > 0 for alpha > 1",
        positive,
        f"min det={min(dets):.3f}, max det={max(dets):.3f}",
    )
    assert positive


# ---------------------------------------------------------------------------
# 5. lambda-splitting

def test_criterion_5_lambda_splitting():
    p = PhaseSpec(v=(0.0, 0.0), alpha=1.0)
    lam_grid = np.geomspace(0.02, 1.0, 30)
    ok_min = True
    details = []
    for t in (10.0, 30.0, 100.0):
        sums = [sum(split_bound(p, t, lam)) for lam in lam_grid]
        i_min = int(np.argmin(sums))
        i_target = int(np.argmin(np.abs(np.log(lam_grid) - np.log(t**-0.5))))
        ok_min &= abs(i_min - i_target) <= 1
        details.append(f"t={t:g}: cell {i_min} vs {i_target}")
    ok_dom = True
    worst_ratio = 0.0
    for t in np.linspace(10.0, 100.0, 10):
        kval = abs(kernel_direct(p, t))
        budget = sum(split_bound(p, t, t**-0.5))
        ok_dom &= kval <= 3.0 * budget
        worst_ratio = max(worst_ratio, kval / budget)
    report(
        "5 lambda-splitting",
        ok_min and ok_dom,
        "; ".join(details) + f"; max |kernel|/budget={worst_ratio:.3f} (<=3)",
    )
    assert ok_min
    assert ok_dom


# ---------------------------------------------------------------------------
# 6. rescaling identity

def test_criterion_6_rescaling_identity():
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        for j in (-1, 1):
            for t in (5.0, 15.0):
                for x in (np.zeros(2), np.array([0.3, -0.2])):
                    lhs = kernel_direct(
                        PhaseSpec(v=tuple(x / t), alpha=alpha), t, j=j
                    )
                    t2 = 2.0 ** (j * (1.0 - alpha)) * t
                    rhs = 2.0 ** (2 * j) * kernel_direct(
                        PhaseSpec(v=tuple(2.0**j * x / t2), alpha=alpha), t2
                    )
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-6
    report("6 rescaling identity j=+-1", ok, f"max reldiff={worst:.2e} (<=1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 7. SQG conservation

def test_criterion_7_sqg_l2_conservation():
    grid = Grid2D(256, 10.0)
    f0 = make_profile(grid, "random", seed=1, width=2.0, amplitude=0.05)
    ws = sqg._Workspace(grid, 1.0)
    f0.coeffs *= ws.mask
    n0 = l2_norm(f0)
    state = sqg.SQGState(theta=f0.copy(), alpha=1.0, dt=1e-3)
    for _ in range(1000):
        state = sqg.step(state, ws)
    drift = abs(l2_norm(state.theta) - n0) / n0  # over exactly one time unit
    ok_drift = drift <= 1e-8

    # dt^4 order check at a stronger amplitude where truncation dominates
    g2 = Grid2D(64, 10.0)
    f = make_profile(g2, "random", seed=1, width=2.0, amplitude=0.3)
    ws2 = sqg._Workspace(g2, 1.0)
    f.coeffs *= ws2.mask
    m0 = l2_norm(f)

    def drift_at(dt):
        st = sqg.SQGState(theta=f.copy(), alpha=1.0, dt=dt)
        for _ in range(int(round(1.0 / dt))):
            st = sqg.step(st, ws2)
        return abs(l2_norm(st.theta) - m0) / m0

    ratio = drift_at(0.04) / drift_at(0.02)
    ok_ratio = 13.0 <= ratio <= 19.0
    report(
        "7 SQG L2 conservation",
        ok_drift and ok_ratio,
        f"drift={drift:.2e}/unit time (<=1e-8); "
        f"dt-halving ratio={ratio:.2f} (16+-3)",
    )
    assert ok_drift
    assert ok_ratio


# ---------------------------------------------------------------------------
# 8. SQG bootstrap trend

def test_criterion_8_sqg_bootstrap_trend():
    grid = Grid2D(64, 10.0)
    T = 400.0
    exits = []
    for eps in (0.04, 0.02, 0.01):
        f0 = make_profile(grid, "random", seed=1, width=4.0, amplitude=eps)
        diag = sqg.run_and_diagnose(f0, T=T, dt=0.1, alpha=1.0, n_outputs=40)
        exits.append(T if diag.bootstrap_exit_time is None else diag.bootstrap_exit_time)
    ok_monotone = all(exits[i] <= exits[i + 1] + 1e-9 for i in range(2))
    ok_nonvacuous = exits[0] < T  # the largest eps genuinely exits

    # linear regime: nonlinear-vs-linear deviation <= 10 eps^2 at t = 1,
    # with the quadratic constant validated by eps-halving
    ws = sqg._Workspace(grid, 1.0)

    def deviation(eps):
        f0 = make_profile(grid, "random", seed=1, width=4.0, amplitude=eps)
        f0.coeffs *= ws.mask
        st = sqg.SQGState(theta=f0.copy(), alpha=1.0, dt=0.01)
        for _ in range(100):
            st = sqg.step(st, ws)
        lin = evolve_linear(f0, 1.0, 1.0)
        return linf_norm(SpectralField(grid, st.theta.coeffs - lin.coeffs))

    eps = 1e-4
    dev = deviation(eps)
    ok_dev = dev <= 10.0 * eps**2
    halving_ratio = dev / deviation(eps / 2.0)
    ok_quad = 3.5 <= halving_ratio <= 4.5
    report(
        "8 SQG bootstrap trend",
        ok_monotone and ok_nonvacuous and ok_dev and ok_quad,
        f"exits={exits} nondecreasing as eps decreases; "
        f"linear-regime dev={dev:.2e} (<= {10 * eps**2:.0e}); "
        f"eps-halving ratio={halving_ratio:.3f} (~4)",
    )
    assert ok_monotone
    assert ok_nonvacuous
    assert ok_dev
    assert ok_quad


# ---------------------------------------------------------------------------
# 9. Boussinesq linear structure

def test_criterion_9_boussinesq_linear_structure():
    grid = Grid2D(64, 10.0 * np.pi)
    rng = np.random.default_rng(9)

    def smooth(seed_shift):
        c = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f = SpectralField(grid, c * np.exp(-grid.xi_sq))
        f.enforce_hermitian().zero_nyquist().zero_mean()
        return f

    st = BoussState(omega=smooth(0), rho=smooth(1), branch="stable")
    E0, _ = mode_energy(st.omega, st.rho)
    st2 = linear_propagator(st, 3.7)
    E1, _ = mode_energy(st2.omega, st2.rho)
    energy_defect = float(np.max(np.abs(E1 - E0)) / np.max(E0))
    ok_energy = energy_defect <= 1e-12

    ap0, am0 = diagonal_variables(st)
    ap1, am1 = diagonal_variables(st2)
    beta = grid.xi1 / grid.xi_mod_safe
    beta[0, 0] = 0.0
    scale = float(np.max(np.abs(ap0)))
    diag_defect = max(
        float(np.max(np.abs(ap1 - np.exp(1j * beta * 3.7) * ap0))),
        float(np.max(np.abs(am1 - np.exp(-1j * beta * 3.7) * am0))),
    ) / scale
    ok_diag = diag_defect <= 1e-12

    om = SpectralField(grid, np.zeros((64, 64), dtype=complex))
    rh = SpectralField(grid, np.zeros((64, 64), dtype=complex))
    om.coeffs[5, 0] = 1.0  # xi = (1, 0)
    rh.coeffs[5, 0] = -1j
    om.enforce_hermitian()
    rh.enforce_hermitian()
    stu = BoussState(omega=om, rho=rh, branch="unstable")
    stu2 = linear_propagator(stu, 2.0)
    a0 = stu.omega.coeffs[5, 0] + 1j * stu.rho.coeffs[5, 0]
    a1 = stu2.omega.coeffs[5, 0] + 1j * stu2.rho.coeffs[5, 0]
    rate = float(np.log(abs(a1 / a0)) / 2.0)
    ok_rate = abs(rate - 1.0) <= 1e-10
    report(
        "9 Boussinesq linear structure",
        ok_energy and ok_diag and ok_rate,
        f"per-mode energy defect={energy_defect:.2e} (<=1e-12); "
        f"diagonal defect={diag_defect:.2e} (<=1e-12); "
        f"unstable rate at xi=(1,0)={rate:.12f} (1 +- 1e-10)",
    )
    assert ok_energy
    assert ok_diag
    assert ok_rate


# ---------------------------------------------------------------------------
# 10. Boussinesq stability trend

def test_criterion_10_boussinesq_stability_trend():
    grid = Grid2D(64, 10.0)
    T = 20.0
    stable_exits = [
        stability_experiment(grid, eps=eps, T=T, dt=0.02, branch="stable").exit_time
        for eps in (0.04, 0.02, 0.01)
    ]
    ok_monotone = all(
        stable_exits[i] <= stable_exits[i + 1] + 1e-9 for i in range(2)
    )
    unstable_exits = [
        stability_experiment(grid, eps=eps, T=T, dt=0.02, branch="unstable").exit_time
        for eps in (0.04, 0.02, 0.01)
    ]
    contrast = min(s / u for s, u in zip(stable_exits, unstable_exits))
    ok_contrast = contrast >= 5.0
    report(
        "10 Boussinesq stability trend",
        ok_monotone and ok_contrast,
        f"stable exits={stable_exits} nondecreasing; "
        f"unstable exits={unstable_exits}; min contrast={contrast:.1f}x (>=5x)",
    )
    assert ok_monotone
    assert ok_contrast


# ---------------------------------------------------------------------------
# 11. infrastructure

def test_criterion_11_infrastructure(tmp_path):
    grid = Grid2D(128, 20.0)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((128, 128))
    back = forward_transform(vals, grid).to_physical()
    rt = float(np.max(np.abs(back - vals)) / np.max(np.abs(vals)))
    ok_rt = rt <= 1e-12

    f = forward_transform(vals, grid)
    direct = float(np.sqrt(np.sum(vals**2) * grid.dx**2))
    pv = abs(l2_norm(f) - direct) / direct
    ok_pv = pv <= 1e-12

    bank = LPBank(grid)
    xi = grid.xi_mod
    band = (xi >= 2.0**bank.j_min) & (xi <= 2.0**bank.j_max)
    pd = bank.partition_defect(xi[band])
    ok_pd = pd <= 1e-12

    cfg = ExperimentConfig(
        experiment="kernel", N=16, L=10.0, seed=1, params={"times": "10,30"}
    )
    r1, r2 = run(cfg), run(cfg)
    ok_det = (
        r1.csv_text() == r2.csv_text() and r1.summary_text() == r2.summary_text()
    )
    report(
        "11 infrastructure",
        ok_rt and ok_pv and ok_pd and ok_det,
        f"roundtrip={rt:.2e}; Parseval={pv:.2e}; partition defect={pd:.2e} "
        f"(all <=1e-12); byte-identical reports={ok_det}",
    )
    assert ok_rt
    assert ok_pv
    assert ok_pd
    assert ok_det
