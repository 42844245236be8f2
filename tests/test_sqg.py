import numpy as np
import pytest

from anisodisp import sqg
from anisodisp.semigroup import SemigroupParams, evolve_linear
from anisodisp.spectral import (
    Grid2D,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    forward_transform,
    half_spectrum,
    l2_norm,
    linf_norm,
    sobolev_norm,
)
from anisodisp.sqg import (
    BlowUpError,
    CFLError,
    SQGState,
    _dealias_mask,
    _Workspace,
    cfl_dt,
    run_and_diagnose,
    step,
    velocity,
)
from conftest import count_calls, random_field


def small_state(grid, eps=0.05, dt=0.01, seed=1):
    f = random_field(grid, seed=seed, width=2.0)
    f.coeffs *= eps / linf_norm(f)
    return SQGState(theta=f, alpha=1.0, dt=dt)


def test_state_validation(grid64):
    """The dealias fraction is checked where the mask is built, before any step."""
    f = random_field(grid64)
    for bad in (0.0, 1.5):
        with pytest.raises(SpectralError):
            step(SQGState(theta=f.copy(), dealias=bad))
        with pytest.raises(SpectralError):
            run_and_diagnose(f, T=0.1, dt=0.05, dealias=bad)


def test_workspace_symbols_come_from_the_table(grid64):
    ws = _Workspace(grid64, 1.5, 2.0 / 3.0)
    specs = (MultiplierSpec.velocity_sqg(1), MultiplierSpec.velocity_sqg(2),
             MultiplierSpec.deriv(1), MultiplierSpec.deriv(2))
    for row, spec in zip(ws.transport, specs):
        assert np.array_equal(row, half_spectrum(spec.symbol(grid64))), spec
    assert np.array_equal(ws.lam, half_spectrum(MultiplierSpec.generator(1.5).symbol(grid64)))


@pytest.mark.parametrize("alpha", [0.5, 2.5, float("nan")])
def test_workspace_rejects_alpha_outside_range(grid64, alpha):
    with pytest.raises(SpectralError):
        _Workspace(grid64, alpha, 2.0 / 3.0)


def test_velocity_perpendicular_to_gradient(grid64):
    """u = perp-gradient of the stream function, so u . grad is divergence form."""
    theta = random_field(grid64, seed=2)
    u1, u2 = velocity(theta)
    from anisodisp.spectral import MultiplierSpec, apply_multiplier, inner_product

    d1, d2 = MultiplierSpec.deriv(1), MultiplierSpec.deriv(2)
    div = apply_multiplier(u1, d1).coeffs + apply_multiplier(u2, d2).coeffs
    assert np.max(np.abs(div)) <= 1e-12
    # transport by u preserves L^2: <theta, u . grad theta> = 0
    tx = apply_multiplier(theta, d1)
    ty = apply_multiplier(theta, d2)
    adv = forward_transform(
        u1.to_physical() * tx.to_physical() + u2.to_physical() * ty.to_physical(),
        grid64,
    )
    assert abs(inner_product(theta, adv)) <= 1e-10


def test_dealias_mask_shape(grid64):
    mask = _dealias_mask(grid64, 2.0 / 3.0)
    cutoff = 2.0 / 3.0 * (grid64.N // 2)
    assert mask[0, 0]
    assert not mask[grid64.N // 2, 0]
    assert bool(mask[int(cutoff) + 1, 0]) is False


def test_single_mode_matches_linear(grid64):
    """One plane wave: the nonlinearity cancels, stepping equals the semigroup."""
    c = np.zeros((64, 64), dtype=complex)
    c[2, 1] = 0.3 - 0.1j
    f = SpectralField(grid64, c)
    f.enforce_hermitian()
    st = SQGState(theta=f.copy(), alpha=1.0, dt=0.05)
    for _ in range(10):
        st = step(st)
    lin = evolve_linear(f, SemigroupParams(1.0, 0.5))
    assert np.max(np.abs(st.theta.coeffs - lin.coeffs)) <= 1e-12


def test_l2_conserved_short_run(grid64):
    st = small_state(grid64, dt=0.01)
    n0 = l2_norm(st.theta)
    for _ in range(50):
        st = step(st)
    assert abs(l2_norm(st.theta) - n0) <= 1e-10 * n0


def test_reversibility(grid64):
    st = small_state(grid64, dt=0.02, seed=3)
    start = st.theta.copy()
    for _ in range(10):
        st = step(st)
    st = SQGState(theta=st.theta, time=st.time, alpha=st.alpha, dt=-st.dt)
    for _ in range(10):
        st = step(st)
    diff = np.max(np.abs(st.theta.coeffs - start.coeffs))
    assert diff <= 1e-6 * max(np.max(np.abs(start.coeffs)), 1e-30)


def test_cfl_guard(grid64):
    st = small_state(grid64, eps=1.0, dt=10.0, seed=4)
    with pytest.raises(CFLError) as err:
        step(st)
    assert err.value.dt_required < 10.0


def test_cfl_dt_scales_with_velocity(grid64):
    st = small_state(grid64)
    assert cfl_dt(st, 2.0) == 2.0 * cfl_dt(st, 4.0)
    assert cfl_dt(st, 0.0) == np.inf


def test_blowup_error_carries_state(grid64):
    st = small_state(grid64)
    st.theta.coeffs *= np.nan
    ws = _Workspace(grid64, 1.0, 2.0 / 3.0)
    with pytest.raises(BlowUpError):
        # NaN input propagates to a NaN output
        step(st, ws)


def test_zero_data_stays_zero(grid64):
    f = SpectralField(grid64, np.zeros((64, 64), dtype=complex))
    diag = run_and_diagnose(f, T=0.5, dt=0.05, n_outputs=5)
    assert all(v == 0.0 for v in diag.h_s)
    assert all(v == 0.0 for v in diag.integral)


def test_diagnostics_series(grid64):
    st = small_state(grid64)
    diag = run_and_diagnose(st.theta, T=1.0, dt=0.05, n_outputs=10)
    assert len(diag.times) == 11
    assert diag.times[0] == 0.0
    # running integral is nondecreasing
    assert all(
        diag.integral[i] <= diag.integral[i + 1] + 1e-15
        for i in range(len(diag.integral) - 1)
    )
    # the fitted Gronwall envelope dominates the recorded norms
    assert all(
        e >= h * (1.0 - 1e-9) for e, h in zip(diag.envelope, diag.h_s)
    )
    assert not diag.blew_up


def test_max_theta_nearly_monotone(grid64):
    """Transport preserves sup; discretization leaks only at high order."""
    st = small_state(grid64, eps=0.05, dt=0.01, seed=5)
    m0 = linf_norm(st.theta)
    worst = 0.0
    for _ in range(20):
        st = step(st)
        m1 = linf_norm(st.theta)
        worst = max(worst, m1 - m0)
        m0 = m1
    # the leak per step is dealiasing error, far below the 0.05 amplitude
    assert worst <= 1e-4


def reference_step(c, grid, dt, alpha=1.0):
    """Plain full-spectrum IF-RK4 step with complex numpy transforms."""
    N2 = grid.N**2
    r = grid.xi_mod_safe
    mask = _dealias_mask(grid, 2.0 / 3.0)
    syms = (1j * grid.xi2 / r, -1j * grid.xi1 / r, 1j * grid.xi1, 1j * grid.xi2)

    def rhs(c):
        u1, u2, tx, ty = (np.real(np.fft.ifft2(m * c)) * N2 for m in syms)
        return -np.fft.fft2(u1 * tx + u2 * ty) / N2 * mask

    lam = -1j * grid.xi1 / r**alpha
    E, E2 = np.exp(lam * dt), np.exp(lam * dt / 2.0)
    c = c * mask
    k1 = rhs(c)
    k2 = rhs(E2 * (c + dt / 2.0 * k1))
    k3 = rhs(E2 * c + dt / 2.0 * k2)
    k4 = rhs(E * c + dt * E2 * k3)
    out = E * c + dt / 6.0 * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)
    out[0, 0] = 0.0
    out[grid.nyquist_mask] = 0.0
    return out


def test_step_matches_full_spectrum_reference(grid64):
    st = small_state(grid64, eps=0.3, dt=0.02, seed=6)
    ref = st.theta.coeffs.copy()
    ws = _Workspace(grid64, 1.0, 2.0 / 3.0)
    for _ in range(20):
        st = step(st, ws)
        ref = reference_step(ref, grid64, 0.02)
    assert np.max(np.abs(st.theta.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_four_nonlinear_calls_per_step(grid64, monkeypatch):
    calls = count_calls(monkeypatch, _Workspace, "nonlinear")
    st = small_state(grid64)
    ws = _Workspace(grid64, 1.0, 2.0 / 3.0)
    for n in range(1, 4):
        st = step(st, ws)
        assert len(calls) == 4 * n


def test_step_output_exactly_hermitian(grid64):
    st = step(small_state(grid64, seed=7))
    assert st.theta.hermitian_defect() == 0.0


@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_stepped_nyquist_lines_exactly_zero(grid64, dealias):
    """The dealias mask excludes |k_j| = N/2, so a step zeroes the Nyquist
    lines of its input without a separate pass."""
    st = small_state(grid64, seed=8)
    st.dealias = dealias
    st.theta.coeffs[grid64.nyquist_mask] = 1e-3
    for _ in range(3):
        st = step(st)
        assert not np.any(st.theta.coeffs[grid64.nyquist_mask])


def test_cfl_raised_after_first_stage(grid64, monkeypatch):
    """The CFL check reads the first stage's velocity and stops the step there."""
    calls = count_calls(monkeypatch, _Workspace, "nonlinear")
    st = small_state(grid64, eps=1.0, dt=10.0, seed=4)
    with pytest.raises(CFLError):
        step(st)
    assert len(calls) == 1


def stepped_states(theta0, dt, nsteps):
    """The states run_and_diagnose steps through: the masked start, then `step`."""
    st = SQGState(theta=theta0.copy(), dt=dt)
    st.theta.coeffs *= _dealias_mask(st.theta.grid, 2.0 / 3.0)
    states = [st]
    for _ in range(nsteps):
        states.append(step(states[-1]))
    return states


def test_norm_cap_stops_at_crossing_step(grid64):
    """A cap just above 1 stops the run at the first step whose H^s norm crosses it."""
    theta0 = small_state(grid64, eps=0.3, dt=0.02, seed=6).theta
    states = stepped_states(theta0, 0.02, 20)
    factor = 1.0 + 1e-3
    h = [sobolev_norm(st.theta, 4.5) for st in states]
    crossing = next(n for n in range(1, 21) if h[n] > factor * h[0])
    assert crossing > 1
    diag = run_and_diagnose(theta0, T=0.4, dt=0.02, n_outputs=20, blowup_factor=factor)
    assert diag.blew_up
    assert diag.final_state.time == states[crossing].time
    np.testing.assert_array_equal(diag.final_state.theta.coeffs,
                                  states[crossing].theta.coeffs)
    # the cap is checked before the step's output is recorded
    assert diag.times[-1] == states[crossing - 1].time
    assert diag.bootstrap_exit_time is None


def test_nan_keeps_last_finite_state(grid64, monkeypatch):
    """A NaN inside step 4 ends the run with the state after step 3."""
    theta0 = small_state(grid64).theta
    original = _Workspace.nonlinear
    calls = []

    def poisoned(self, c):
        calls.append(1)
        rhs, umax = original(self, c)
        return (rhs * np.nan if len(calls) == 4 * 3 + 2 else rhs), umax

    monkeypatch.setattr(_Workspace, "nonlinear", poisoned)
    diag = run_and_diagnose(theta0, T=1.0, dt=0.05, n_outputs=20)
    monkeypatch.undo()
    states = stepped_states(theta0, 0.05, 3)
    assert diag.blew_up
    assert diag.final_state.time == states[3].time
    np.testing.assert_array_equal(diag.final_state.theta.coeffs, states[3].theta.coeffs)
    assert diag.times == [st.time for st in states]
    assert np.all(np.isfinite(diag.h_s))


def test_run_calls_step_through_module_global(grid64, monkeypatch):
    """The run loop looks `step` up at call time, so a wrapper sees every step."""
    calls = count_calls(monkeypatch, sqg, "step")
    run_and_diagnose(small_state(grid64).theta, T=0.5, dt=0.05, n_outputs=5)
    assert len(calls) == round(0.5 / 0.05)
