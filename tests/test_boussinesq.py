import os
import tracemalloc

import numpy as np
import pytest

from anisodisp import boussinesq, sqg
from anisodisp.boussinesq import (
    BoussState,
    _Workspace,
    default_profiles,
    diagonal_variables,
    linear_propagator,
    mode_energy,
    stability_experiment,
    step,
)
from anisodisp.spectral import (
    Grid2D,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    apply_multiplier,
    full_spectrum,
    half_spectrum,
    sobolev_norm,
)
from anisodisp.sqg import CFLError, _dealias_mask
from conftest import cosine, count_calls, hermitian_defect, nyquist_mask, random_field


def random_pair(grid, seed=1):
    om = random_field(grid, seed=seed)
    rh = random_field(grid, seed=seed + 100)
    return om, rh


def test_branch_validated(grid64):
    om, rh = random_pair(grid64)
    with pytest.raises(SpectralError):
        BoussState(omega=om, rho=rh, branch="sideways")


def test_grids_must_match(grid64):
    om = random_field(grid64)
    rh = random_field(Grid2D(32, 10.0))
    with pytest.raises(SpectralError):
        BoussState(omega=om, rho=rh)


def test_workspace_symbols_come_from_the_table(grid64):
    ws = _Workspace(grid64, "stable")
    pairs = [(ws.velocity, MultiplierSpec.velocity_bouss), (ws.grad, MultiplierSpec.deriv)]
    # stored on the K columns the dealias mask keeps
    assert not half_spectrum(ws.mask)[:, ws.K:].any()
    assert np.array_equal(ws.mask_K, half_spectrum(ws.mask)[:, : ws.K])
    for arrays, factory in pairs:
        for j, row in enumerate(arrays, start=1):
            expected = half_spectrum(factory(j).symbol(grid64))[:, : ws.K]
            assert np.array_equal(row, expected), factory(j)


@pytest.mark.parametrize("workspace", [
    lambda g: _Workspace(g, "stable"), lambda g: _Workspace(g, "unstable"),
    lambda g: sqg._Workspace(g, 1.0)], ids=["stable", "unstable", "sqg"])
def test_propagator_cache_keys_on_exact_dt(grid64, workspace):
    """Time steps that agree to 15 decimals still get their own propagators."""
    ws = workspace(grid64)
    a, b = ws.propagator(1e-16), ws.propagator(4e-16)
    assert a is not b
    assert ws.propagator(1e-16) is a and len(ws._props) == 2


def test_vorticity_recovered_from_velocity(grid64):
    """u = perp-grad (-Lap)^{-1} omega, so curl u = d1 u2 - d2 u1 = -omega."""
    om = random_field(grid64, seed=3)
    u1, u2 = (apply_multiplier(om, MultiplierSpec.velocity_bouss(j)) for j in (1, 2))
    curl = (
        apply_multiplier(u2, MultiplierSpec.deriv(1)).coeffs
        - apply_multiplier(u1, MultiplierSpec.deriv(2)).coeffs
    )
    ref = om.copy()
    ref.zero_nyquist()
    assert np.max(np.abs(curl + ref.coeffs)) <= 1e-12


@pytest.mark.parametrize("branch", ["stable", "unstable"])
def test_nonlinear_term_conserves_energy(grid64, monkeypatch, branch):
    """The stepper's dealiased transport term keeps both quadratic pieces on
    masked broadband data: <omega/|xi|^2, N_omega> = 0 and <rho, N_rho> = 0.
    With DEALIAS = 1 (no 2/3 rule) aliasing breaks both, which this sees."""
    for dealias, conserved in ((2.0 / 3.0, True), (1.0, False)):
        monkeypatch.setattr(sqg, "DEALIAS", dealias)
        ws = _Workspace(grid64, branch)
        om, rh = (random_field(grid64, seed=s, width=20.0).coeffs * ws.mask for s in (5, 6))
        y = np.stack([half_spectrum(om), half_spectrum(rh)])[..., : ws.K]
        n_om, n_rh = full_spectrum(ws.nonlinear(y)[0])
        assert (abs(cosine(om / grid64.xi_mod_safe**2, n_om)) <= 1e-14) == conserved, dealias
        assert (abs(cosine(rh, n_rh)) <= 1e-14) == conserved, dealias


def test_stable_propagator_conserves_mode_energy(grid64):
    om, rh = random_pair(grid64, seed=4)
    st = BoussState(omega=om, rho=rh, branch="stable")
    E0, tot0 = mode_energy(st.omega, st.rho)
    st2 = linear_propagator(st, 7.3)
    E1, tot1 = mode_energy(st2.omega, st2.rho)
    assert np.max(np.abs(E1 - E0)) <= 1e-12 * np.max(E0)
    assert abs(tot1 - tot0) <= 1e-12 * tot0


def test_diagonal_variables_rotate(grid64):
    """omega +- |grad| rho pick up exactly the phases exp(+-i beta t)."""
    om, rh = random_pair(grid64, seed=5)
    st = BoussState(omega=om, rho=rh, branch="stable")
    t = 2.6
    st2 = linear_propagator(st, t)
    ap0, am0 = diagonal_variables(st)
    ap1, am1 = diagonal_variables(st2)
    beta = grid64.xi1 / grid64.xi_mod_safe
    beta[0, 0] = 0.0
    scale = np.max(np.abs(ap0))
    assert np.max(np.abs(ap1 - np.exp(1j * beta * t) * ap0)) <= 1e-12 * scale
    assert np.max(np.abs(am1 - np.exp(-1j * beta * t) * am0)) <= 1e-12 * scale


def test_unstable_growth_rate_unit_frequency():
    """At xi = (1, 0) the unstable branch grows like exp(t) exactly."""
    grid = Grid2D(64, 10.0 * np.pi)  # lattice contains xi = (1, 0) at k = (5, 0)
    om = SpectralField(grid, np.zeros((64, 64), dtype=complex))
    rh = SpectralField(grid, np.zeros((64, 64), dtype=complex))
    om.coeffs[5, 0] = 1.0
    rh.coeffs[5, 0] = -1j
    om.enforce_hermitian()
    rh.enforce_hermitian()
    assert grid.xi1[5, 0] == 1.0 and grid.xi2[5, 0] == 0.0
    st = BoussState(omega=om, rho=rh, branch="unstable")
    t = 2.0
    st2 = linear_propagator(st, t)
    a0 = st.omega.coeffs[5, 0] + 1j * st.rho.coeffs[5, 0]
    a1 = st2.omega.coeffs[5, 0] + 1j * st2.rho.coeffs[5, 0]
    rate = np.log(abs(a1 / a0)) / t
    assert abs(rate - 1.0) <= 1e-10


@pytest.mark.parametrize("branch", ["stable", "unstable"])
def test_linear_propagator_exactly_hermitian(grid64, branch):
    om, rh = random_pair(grid64, seed=9)
    st = linear_propagator(BoussState(omega=om, rho=rh, branch=branch), 1.7)
    assert hermitian_defect(st.omega) == 0.0
    assert hermitian_defect(st.rho) == 0.0


def test_time_is_step_count_times_dt(grid64):
    """Steps count from the state's t0, which `linear_propagator` moves."""
    st = small_state(grid64, dt=0.1)
    for _ in range(10):
        st = step(st)
    assert (st.steps, st.time) == (10, 1.0)
    st = linear_propagator(st, 0.25)
    assert (st.t0, st.steps, st.time) == (1.25, 0, 1.25)


def test_linear_propagator_group_law(grid64):
    om, rh = random_pair(grid64, seed=6)
    st = BoussState(omega=om, rho=rh, branch="stable")
    a = linear_propagator(linear_propagator(st, 1.1), 2.2)
    b = linear_propagator(st, 3.3)
    assert np.max(np.abs(a.omega.coeffs - b.omega.coeffs)) <= 1e-12
    assert np.max(np.abs(a.rho.coeffs - b.rho.coeffs)) <= 1e-12


def test_step_keeps_fields_real(grid64):
    om, rh = random_pair(grid64, seed=7)
    om.coeffs *= 0.01
    rh.coeffs *= 0.01
    st = BoussState(omega=om, rho=rh, dt=0.02, branch="stable")
    for _ in range(5):
        st = step(st)
    assert hermitian_defect(st.omega) <= 1e-12
    assert hermitian_defect(st.rho) <= 1e-12


def test_small_step_tracks_linear(grid64):
    """Tiny amplitude: the nonlinear stepper reproduces the exact propagator."""
    om, rh = random_pair(grid64, seed=8)
    eps = 1e-6
    om.coeffs *= eps
    rh.coeffs *= eps
    st = BoussState(omega=om.copy(), rho=rh.copy(), dt=0.05, branch="stable")
    for _ in range(10):
        st = step(st)
    ref = linear_propagator(
        BoussState(omega=om, rho=rh, branch="stable"), 0.5
    )
    scale = np.max(np.abs(ref.omega.coeffs))
    # the residual is the quadratic coupling, O(eps^2) relative to eps
    assert np.max(np.abs(st.omega.coeffs - ref.omega.coeffs)) <= 10.0 * eps * scale


def test_eps_zero_rejected(grid64):
    with pytest.raises(SpectralError):
        stability_experiment(grid64, eps=0.0, T=1.0, dt=0.1)
    with pytest.raises(SpectralError):
        stability_experiment(grid64, eps=0.2, T=1.0, dt=0.1)


def test_stability_experiment_series(grid64):
    rep = stability_experiment(grid64, eps=0.01, T=1.0, dt=0.05, n_outputs=5)
    assert rep.exit_time == 1.0  # censored: no doubling this fast
    assert len(rep.times) == 6
    assert all(np.isfinite(rep.e_total))
    assert all(
        rep.integral[i] <= rep.integral[i + 1] + 1e-15
        for i in range(len(rep.integral) - 1)
    )
    assert rep.initial_norms["omega_H4d"] > 0.0


def test_default_profiles_zero_mean(grid64):
    fo, fr = default_profiles(grid64)
    assert fo.coeffs[0, 0] == 0.0
    assert fr.coeffs[0, 0] == 0.0
    assert hermitian_defect(fo) <= 1e-13


def reference_step(om, rh, grid, dt, branch):
    """Plain full-spectrum IF-RK4 step with complex numpy transforms."""
    N2 = grid.N**2
    xi_sq = np.where(grid.xi_sq == 0.0, 1.0, grid.xi_sq)
    d1, d2 = 1j * grid.xi1, 1j * grid.xi2
    u_syms = (-1j * grid.xi2 / xi_sq, 1j * grid.xi1 / xi_sq)
    mask = _dealias_mask(grid)
    r = grid.xi_mod_safe
    beta = grid.xi1 / r

    def phys(c):
        return np.real(np.fft.ifft2(c)) * N2

    def rhs(y):
        u1, u2 = (phys(m * y[0]) for m in u_syms)
        return [-np.fft.fft2(u1 * phys(d1 * f) + u2 * phys(d2 * f)) / N2 * mask
                for f in y]

    def prop(y, t):
        if branch == "stable":
            c, s, sign = np.cos(beta * t), np.sin(beta * t), 1.0
        else:
            c, s, sign = np.cosh(beta * t), np.sinh(beta * t), -1.0
        return [c * y[0] + 1j * r * s * y[1], c * y[1] + sign * 1j * s / r * y[0]]

    def ax(a, h, b):
        return [a[0] + h * b[0], a[1] + h * b[1]]

    y = [om * mask, rh * mask]
    k1 = rhs(y)
    k2 = rhs(prop(ax(y, dt / 2.0, k1), dt / 2.0))
    k3 = rhs(ax(prop(y, dt / 2.0), dt / 2.0, k2))
    k4 = rhs(ax(prop(y, dt), dt, prop(k3, dt / 2.0)))
    stages = ax(prop(k1, dt), 2.0, prop(ax(k2, 1.0, k3), dt / 2.0))
    out = ax(prop(y, dt), dt / 6.0, ax(stages, 1.0, k4))
    for c in out:
        c[0, 0] = 0.0
        c[nyquist_mask(grid)] = 0.0
    return out


@pytest.mark.parametrize("branch", ["stable", "unstable"])
def test_step_matches_full_spectrum_reference(grid64, branch):
    om, rh = random_pair(grid64, seed=9)
    om.coeffs *= 0.05
    rh.coeffs *= 0.05
    st = BoussState(omega=om, rho=rh, dt=0.02, branch=branch)
    ref = [st.omega.coeffs.copy(), st.rho.coeffs.copy()]
    ws = _Workspace(grid64, branch)
    for _ in range(20):
        st = step(st, ws)
        ref = reference_step(ref[0], ref[1], grid64, 0.02, branch)
    for got, want in ((st.omega.coeffs, ref[0]), (st.rho.coeffs, ref[1])):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def small_state(grid, amplitude=0.01, dt=0.02, seed=10):
    om, rh = random_pair(grid, seed=seed)
    om.coeffs *= amplitude
    rh.coeffs *= amplitude
    return BoussState(omega=om, rho=rh, dt=dt, branch="stable")


@pytest.mark.parametrize("branch", ["stable", "unstable"])
def test_nonlinear_buffers_do_not_alias(grid64, branch):
    """Results live in new arrays, and `nonlinear` and `grad_norms` leave
    their arguments bit for bit unchanged."""
    ws = _Workspace(grid64, branch)
    st = small_state(grid64, amplitude=0.3)
    half = np.stack([half_spectrum(st.omega.coeffs), half_spectrum(st.rho.coeffs)])
    y = half[..., : ws.K] * ws.mask_K
    half0, y0 = half.copy(), y.copy()
    rhs, _ = ws.nonlinear(y)
    rhs0 = rhs.copy()
    ws.nonlinear(2.0 * y)
    ws.grad_norms(3.0 * half)
    assert np.array_equal(rhs, rhs0)
    ws.grad_norms(half)
    assert np.array_equal(y, y0)
    assert np.array_equal(half, half0)


def test_four_nonlinear_calls_per_step(grid64, monkeypatch):
    calls = count_calls(monkeypatch, _Workspace, "nonlinear")
    st = small_state(grid64)
    ws = _Workspace(grid64, "stable")
    for n in range(1, 4):
        st = step(st, ws)
        assert len(calls) == 4 * n


def test_step_output_exactly_hermitian(grid64):
    st = step(small_state(grid64))
    assert hermitian_defect(st.omega) == 0.0
    assert hermitian_defect(st.rho) == 0.0


@pytest.mark.parametrize("branch", ["stable", "unstable"])
@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_stepped_nyquist_lines_exactly_zero(grid64, monkeypatch, branch, dealias):
    """The dealias mask excludes |k_j| = N/2, so a step zeroes the Nyquist
    lines of its input without a separate pass."""
    monkeypatch.setattr(sqg, "DEALIAS", dealias)
    st = small_state(grid64)
    st.branch = branch
    for f in (st.omega, st.rho):
        f.coeffs[nyquist_mask(grid64)] = 1e-3
    for _ in range(3):
        st = step(st)
        assert not np.any(st.omega.coeffs[nyquist_mask(grid64)])
        assert not np.any(st.rho.coeffs[nyquist_mask(grid64)])


def test_cfl_raised_after_first_stage(grid64, monkeypatch):
    """The CFL check reads the first stage's velocity and stops the step there."""
    calls = count_calls(monkeypatch, _Workspace, "nonlinear")
    st = small_state(grid64, amplitude=10.0, dt=10.0)
    with pytest.raises(CFLError):
        step(st)
    assert len(calls) == 1


def stepped_states(grid, eps, dt, nsteps, branch):
    """The states stability_experiment steps through, and their monitored norms."""
    fo, fr = default_profiles(grid)
    st = BoussState(omega=SpectralField(grid, eps * fo.coeffs),
                    rho=SpectralField(grid, eps * fr.coeffs), dt=dt, branch=branch)
    mask = _dealias_mask(grid)
    st.omega.coeffs *= mask
    st.rho.coeffs *= mask
    states = [st]
    for _ in range(nsteps):
        states.append(step(states[-1]))
    norms = [sobolev_norm(s.omega, 4.5) + sobolev_norm(s.rho, 5.5) for s in states]
    return states, norms


def test_growth_cap_exit_at_crossing_step(grid64, monkeypatch):
    """A norm cap of 1.5 stops the unstable run at the step that crosses it."""
    states, norms = stepped_states(grid64, 0.01, 0.05, 20, "unstable")
    crossing = next(n for n in range(1, 21) if norms[n] > 1.5 * norms[0])
    assert crossing > 1
    monkeypatch.setattr(sqg, "NORM_CAP", 1.5)
    rep = stability_experiment(grid64, eps=0.01, T=2.0, dt=0.05, branch="unstable",
                               n_outputs=40)
    assert rep.blew_up
    assert rep.exit_time == states[crossing].time
    # the cap is checked before the step's output is recorded
    assert rep.times == [st.time for st in states[:crossing]]


def test_early_exit_at_doubling_step(grid64):
    """The exit is the first step above twice the initial norm; its output is the last."""
    states, norms = stepped_states(grid64, 0.01, 0.05, 20, "unstable")
    crossing = next(n for n in range(1, 21) if norms[n] > 2.0 * norms[0])
    rep = stability_experiment(grid64, eps=0.01, T=2.0, dt=0.05, branch="unstable",
                               n_outputs=40)
    assert not rep.blew_up
    assert rep.exit_time == states[crossing].time
    assert rep.times == [st.time for st in states[:crossing + 1]]


def test_censored_exit_time_is_t_final(grid64):
    """A censored run reports T itself, not the time of its last step."""
    rep = stability_experiment(grid64, eps=0.01, T=0.99, dt=0.1, n_outputs=5)
    assert not rep.blew_up
    assert rep.exit_time == 0.99
    assert rep.times[-1] > 0.99


def test_run_calls_step_through_module_global(grid64, monkeypatch):
    """The run loop looks `step` up at call time, so a wrapper sees every step."""
    calls = count_calls(monkeypatch, boussinesq, "step")
    stability_experiment(grid64, eps=0.01, T=0.5, dt=0.05, n_outputs=5)
    assert len(calls) == round(0.5 / 0.05)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_stability_run_memory_bounded(monkeypatch, cpus):
    """A stable run at N = 512 (4 steps, 2 records) frees its two profiles once
    it holds their masked copies, and transforms its 6-field transport stack
    in row blocks on one usable CPU as on two: the traced peak stays below
    70 MiB (67.3 MiB measured; 75.3 with both profiles kept to the end, 71.9
    on one CPU with the whole transport stack held, 78.8 with the gradient
    sups' stack too)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    tracemalloc.start()
    try:
        stability_experiment(Grid2D(512, 400.0), eps=0.02, T=0.2, dt=0.05, n_outputs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 << 20
