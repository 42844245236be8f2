import os
import pickle
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft as sfft

from anisodisp import sqg
from anisodisp.semigroup import evolve_linear
from anisodisp.spectral import (
    Grid2D,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    Worker,
    full_spectrum,
    gaussian_field,
    half_spectrum,
    half_to_physical,
    l2_norm,
    linf_norm,
    sobolev_norm,
)
from anisodisp.sqg import (
    BlowUpError,
    CFLError,
    SQGState,
    _admissible_dt,
    _dealias_mask,
    _Workspace,
    run_and_diagnose,
    step,
)
from conftest import cosine, count_calls, hermitian_defect, nyquist_mask, random_field


def small_state(grid, eps=0.05, dt=0.01, seed=1):
    f = random_field(grid, seed=seed, width=2.0)
    f.coeffs *= eps / linf_norm(f)
    return SQGState(theta=f, alpha=1.0, dt=dt)


def test_workspace_symbols_come_from_the_table(grid64):
    ws = _Workspace(grid64, 1.5)
    specs = (MultiplierSpec.velocity_sqg(1), MultiplierSpec.velocity_sqg(2),
             MultiplierSpec.deriv(1), MultiplierSpec.deriv(2))
    # the symbols and the mask are stored on the K columns the dealias mask keeps
    assert not half_spectrum(ws.mask)[:, ws.K:].any()
    assert np.array_equal(ws.mask_K, half_spectrum(ws.mask)[:, : ws.K])
    for row, spec in zip(ws.transport, specs):
        assert np.array_equal(row, half_spectrum(spec.symbol(grid64))[:, : ws.K]), spec
    lam = half_spectrum(MultiplierSpec.generator(1.5).symbol(grid64))[:, : ws.K]
    assert np.array_equal(ws.lam, lam)


@pytest.mark.parametrize("alpha", [0.5, 2.5, float("nan")])
def test_workspace_rejects_alpha_outside_range(grid64, alpha):
    with pytest.raises(SpectralError):
        _Workspace(grid64, alpha)


def test_nonlinear_term_conserves_l2(grid64, monkeypatch):
    """<theta, N(theta)> = 0 for the stepper's dealiased transport term on
    masked broadband data; with DEALIAS = 1 (no 2/3 rule) aliasing breaks
    it, which this sees."""
    for dealias, conserved in ((2.0 / 3.0, True), (1.0, False)):
        monkeypatch.setattr(sqg, "DEALIAS", dealias)
        ws = _Workspace(grid64, 1.0)
        theta = random_field(grid64, seed=2, width=20.0).coeffs * ws.mask
        rhs = full_spectrum(ws.nonlinear(half_spectrum(theta)[:, : ws.K])[0])
        assert (abs(cosine(theta, rhs)) <= 1e-14) == conserved, dealias


def test_dealias_mask_shape(grid64):
    mask = _dealias_mask(grid64)
    cutoff = sqg.DEALIAS * (grid64.N // 2)
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
    lin = evolve_linear(f, 1.0, 0.5)
    assert np.max(np.abs(st.theta.coeffs - lin.coeffs)) <= 1e-12


def test_l2_conserved_short_run(grid64):
    st = small_state(grid64, dt=0.01)
    n0 = l2_norm(st.theta)
    for _ in range(50):
        st = step(st)
    assert abs(l2_norm(st.theta) - n0) <= 1e-10 * n0


def test_time_is_step_count_times_dt(grid64):
    """Ten steps of dt = 0.1 end at exactly 1.0, where a running sum of dt
    reads 0.9999999999999999; a state started at t0 counts from there."""
    st = small_state(grid64, dt=0.1)
    for _ in range(10):
        st = step(st)
    assert (st.steps, st.time) == (10, 1.0)
    st = step(SQGState(theta=st.theta, t0=st.time, alpha=st.alpha, dt=0.1))
    assert (st.steps, st.time) == (1, 1.1)


def test_reversibility(grid64):
    st = small_state(grid64, dt=0.02, seed=3)
    start = st.theta.copy()
    for _ in range(10):
        st = step(st)
    st = SQGState(theta=st.theta, t0=st.time, alpha=st.alpha, dt=-st.dt)
    for _ in range(10):
        st = step(st)
    diff = np.max(np.abs(st.theta.coeffs - start.coeffs))
    assert diff <= 1e-6 * max(np.max(np.abs(start.coeffs)), 1e-30)


def test_cfl_guard(grid64):
    st = small_state(grid64, eps=1.0, dt=10.0, seed=4)
    with pytest.raises(CFLError) as err:
        step(st)
    assert err.value.dt_required < 10.0


def test_errors_round_trip_through_pickle():
    """A sweep member's CFLError crosses a process pool pickled: it must come
    back with its message and attributes."""
    err = pickle.loads(pickle.dumps(CFLError(0.5, 0.0116)))
    assert type(err) is CFLError and (err.dt, err.dt_required) == (0.5, 0.0116)
    assert str(err) == str(CFLError(0.5, 0.0116))


def test_cfl_dt_scales_with_velocity(grid64):
    assert _admissible_dt(grid64, 2.0) == 2.0 * _admissible_dt(grid64, 4.0)
    assert _admissible_dt(grid64, 0.0) == np.inf


def test_step_raises_blowup_on_nan_state(grid64):
    st = small_state(grid64)
    st.theta.coeffs *= np.nan
    ws = _Workspace(grid64, 1.0)
    with pytest.raises(BlowUpError) as err:
        # NaN input propagates to a NaN output
        step(st, ws)
    assert err.value.time == st.time


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
    mask = _dealias_mask(grid)
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
    out[nyquist_mask(grid)] = 0.0
    return out


def test_step_matches_full_spectrum_reference(grid64):
    st = small_state(grid64, eps=0.3, dt=0.02, seed=6)
    ref = st.theta.coeffs.copy()
    ws = _Workspace(grid64, 1.0)
    for _ in range(20):
        st = step(st, ws)
        ref = reference_step(ref, grid64, 0.02)
    assert np.max(np.abs(st.theta.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_four_nonlinear_calls_per_step(grid64, monkeypatch):
    calls = count_calls(monkeypatch, _Workspace, "nonlinear")
    st = small_state(grid64)
    ws = _Workspace(grid64, 1.0)
    for n in range(1, 4):
        st = step(st, ws)
        assert len(calls) == 4 * n


def test_step_output_exactly_hermitian(grid64):
    st = step(small_state(grid64, seed=7))
    assert hermitian_defect(st.theta) == 0.0


@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_stepped_nyquist_lines_exactly_zero(grid64, monkeypatch, dealias):
    """The dealias mask excludes |k_j| = N/2, so a step zeroes the Nyquist
    lines of its input without a separate pass."""
    monkeypatch.setattr(sqg, "DEALIAS", dealias)
    st = small_state(grid64, seed=8)
    st.theta.coeffs[nyquist_mask(grid64)] = 1e-3
    for _ in range(3):
        st = step(st)
        assert not np.any(st.theta.coeffs[nyquist_mask(grid64)])


@pytest.mark.parametrize("N", [16, 64, 128, 256, 512])
@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_pruned_transforms_equal_full_real_transforms(monkeypatch, N, dealias):
    """half_to_physical and to_spectral work on the K columns the dealias
    mask keeps with `numpy.fft`, and still give exactly the values of
    `scipy.fft`'s irfft2 and rfft2 * the half mask, whose dropped columns are
    exactly zero."""
    monkeypatch.setattr(sqg, "DEALIAS", dealias)
    ws = _Workspace(Grid2D(N, 10.0), 1.0)
    rng = np.random.default_rng(N)
    for n in (1, 4, 6):
        x = rng.standard_normal((n, N, N))
        spec = sfft.rfft2(x, norm="forward") * half_spectrum(ws.mask)
        assert not spec[..., ws.K:].any()
        got = half_to_physical(ws.grid, spec[..., : ws.K])
        assert got.shape == (n, N, N)
        assert np.array_equal(got, sfft.irfft2(spec, norm="forward"))
        assert np.array_equal(ws.to_spectral(x), spec[..., : ws.K])


def test_nonlinear_buffers_do_not_alias(grid64):
    """Results live in new arrays, and the transforms, `nonlinear` and
    `grad_norms` leave their arguments bit for bit unchanged: the in-place
    column passes touch only arrays the workspace made."""
    ws = _Workspace(grid64, 1.0)
    half = half_spectrum(small_state(grid64, eps=0.3, seed=11).theta.coeffs)
    y = half[:, : ws.K] * ws.mask_K
    x = np.random.default_rng(11).standard_normal((2, 64, 64))
    args = (half.copy(), y.copy(), x.copy())
    rhs, _ = ws.nonlinear(y)
    rhs0 = rhs.copy()
    ws.nonlinear(2.0 * y)
    ws.grad_norms(3.0 * half[None])
    assert np.array_equal(rhs, rhs0)
    ws.grad_norms(half[None])
    half_to_physical(ws.grid, y)
    ws.to_spectral(x)
    for arg, arg0 in zip((half, y, x), args):
        assert np.array_equal(arg, arg0)


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
    st.theta.coeffs *= _dealias_mask(st.theta.grid)
    states = [st]
    for _ in range(nsteps):
        states.append(step(states[-1]))
    return states


def test_norm_cap_stops_at_crossing_step(grid64, monkeypatch):
    """A cap just above 1 stops the run at the first step whose H^s norm crosses it."""
    theta0 = small_state(grid64, eps=0.3, dt=0.02, seed=6).theta
    states = stepped_states(theta0, 0.02, 20)
    factor = 1.0 + 1e-3
    h = [sobolev_norm(st.theta, 4.5) for st in states]
    crossing = next(n for n in range(1, 21) if h[n] > factor * h[0])
    assert crossing > 1
    monkeypatch.setattr(sqg, "NORM_CAP", factor)
    calls = count_calls(monkeypatch, sqg, "step")
    diag = run_and_diagnose(theta0, T=0.4, dt=0.02, n_outputs=20)
    assert diag.blew_up
    # the run stops at the crossing step: no step is taken past it
    assert len(calls) == crossing
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
    steps = count_calls(monkeypatch, sqg, "step")
    diag = run_and_diagnose(theta0, T=1.0, dt=0.05, n_outputs=20)
    monkeypatch.undo()
    states = stepped_states(theta0, 0.05, 3)
    assert diag.blew_up
    # the fourth step raised, and the run took no step after it
    assert len(steps) == 4
    assert diag.times == [st.time for st in states]
    assert np.all(np.isfinite(diag.h_s))


def test_run_calls_step_through_module_global(grid64, monkeypatch):
    """The run loop looks `step` up at call time, so a wrapper sees every step."""
    calls = count_calls(monkeypatch, sqg, "step")
    run_and_diagnose(small_state(grid64).theta, T=0.5, dt=0.05, n_outputs=5)
    assert len(calls) == round(0.5 / 0.05)


@pytest.mark.parametrize("t_final, dt, n_outputs, out_steps", [
    (400.0, 0.1, 40, range(0, 4001, 100)),
    (100.0, 0.1, 10, range(0, 1001, 100)),
    (100.0, 0.1, 1, [0, 1000]),
    (1.0, 0.1, 3, [0, 4, 7, 10]),  # k T / n_outputs between steps: the next step
    (0.1, 0.05, 4, [0, 1, 2]),  # more outputs than steps: one row per step
])
def test_outputs_fall_on_scheduled_steps(t_final, dt, n_outputs, out_steps):
    """Output k is recorded at the first step at or after k t_final / n_outputs,
    however far the accumulated float time has drifted, and once per step."""
    rep = SimpleNamespace(times=[], integral=[], blew_up=False)
    recorded = []

    def record(st):
        recorded.append(st.step)
        return 1.0

    stepped = [SimpleNamespace(time=0.0, dt=dt, step=0)]

    def advance(st):
        stepped.append(SimpleNamespace(time=st.time + dt, dt=dt, step=st.step + 1))
        return stepped[-1]

    stop = sqg._integrate(rep, stepped[0], advance, record, lambda st: 1.0, t_final, n_outputs)
    final = stepped[-1]
    assert stop is None and final.step == round(t_final / dt)
    assert recorded == list(out_steps)
    assert len(rep.times) == len(rep.integral) == len(recorded)
    assert all(a < b for a, b in zip(rep.times, rep.times[1:]))
    assert rep.times[-1] == final.time


def _transport_inputs(ws, m, seed):
    """m random half spectra on ws's kept columns, zero outside its mask (one
    field for SQG, a stacked pair for Boussinesq), and m whole half spectra."""
    rng = np.random.default_rng(seed)
    N = ws.grid.N
    y = (rng.standard_normal((m, N, ws.K)) + 1j * rng.standard_normal((m, N, ws.K))) * ws.mask_K
    half = rng.standard_normal((m, N, N // 2 + 1)) + 1j * rng.standard_normal((m, N, N // 2 + 1))
    return (y[0] if m == 1 else y), half


def _whole_stack_transport(ws, y, half):
    """(`nonlinear(y)`, `grad_norms(half)`) as the whole-stack `advection`
    computes them, with scipy.fft's irfft2 and rfft2 in place of the pruned
    transforms (`test_pruned_transforms_equal_full_real_transforms`)."""
    N, K = ws.grid.N, ws.K

    def physical(stack):
        padded = np.zeros(stack.shape[:-1] + (N // 2 + 1,), dtype=np.complex128)
        padded[..., :K] = stack
        return sfft.irfft2(padded, norm="forward")

    if ws.FIELDS == 4:
        stack = ws.transport * y
    else:
        stack = np.concatenate([ws.velocity * y[0], ws.grad[0] * y, ws.grad[1] * y])
    phys = physical(stack)
    u = phys[:2]
    grads = phys[2:].reshape(2, -1, N, N)
    grads *= u[:, None]
    grads[0] += grads[1]
    adv = np.negative(sfft.rfft2(grads[0], norm="forward") * half_spectrum(ws.mask))[..., :K]
    c = half[..., :K]
    g = np.abs(physical((np.concatenate([ws.velocity * c[0], c[-1:]])[:, None]
                         * ws.grad).reshape(6, N, K)))
    sups = (float(np.max(g[:4])), float(np.max(g[4:])))
    return (adv[0] if ws.FIELDS == 4 else adv), float(np.max(np.abs(u))), sups


@pytest.mark.parametrize("shares", [1, 2])
@pytest.mark.parametrize("N", [128, 256, 512, 1024])
@pytest.mark.parametrize("system", ["sqg", "bouss"])
def test_split_transport_has_the_bits_of_the_serial_path(monkeypatch, system, N, shares):
    """`nonlinear` and `grad_norms` give the bits of the whole-stack formula
    for the 4-field SQG and the 6-field Boussinesq stacks: every value with
    the sign of its zeros, max |u| and both sups.  At N = 128 the transport
    stack is one block, transformed whole; from N = 256 it is row-blocked,
    like the sups at every N, on this thread alone with one share and with
    the worker's thread taking half of each phase with two.  The arguments
    stay as they were."""
    from anisodisp import boussinesq

    grid = Grid2D(N, 10.0)
    ws = _Workspace(grid, 1.0) if system == "sqg" else boussinesq._Workspace(grid, "unstable")
    y, half = _transport_inputs(ws, 1 if system == "sqg" else 2, N)
    args = (y.copy(), half.copy())
    want, want_umax, want_sups = _whole_stack_transport(ws, y, half)
    row_passes = count_calls(monkeypatch, sqg, "physical_rows")
    with Worker(shares) as ws.worker:
        assert ws.worker.shares == shares
        got, got_umax = ws.nonlinear(y)
        got_sups = ws.grad_norms(half)
    assert ws.blocked == (N >= 256) and len(row_passes) == 1 + ws.blocked
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))
    assert got_umax == want_umax and got_sups == want_sups
    assert np.array_equal(y, args[0]) and np.array_equal(half, args[1])


@pytest.mark.parametrize("N, shares", [(128, 1), (256, 2)])
def test_only_a_run_at_n_256_or_more_splits(monkeypatch, N, shares):
    """From N = 256 up, where a stack of 4 physical fields exceeds
    ROW_PASS_BYTES, the transport term is row-blocked: on this thread alone
    outside a run, and split with the workspace's worker, which starts one
    thread, inside it.  At N = 128 the stack is transformed whole and the
    worker starts no thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ws = _Workspace(Grid2D(N, 10.0), 1.0)
    y, _ = _transport_inputs(ws, 1, N)
    row_passes = count_calls(monkeypatch, sqg, "physical_rows")
    starts = count_calls(monkeypatch, threading.Thread, "start")
    ws.nonlinear(y)
    assert len(row_passes) == shares - 1 and starts == []
    with ws.worker:
        assert ws.worker.shares == shares
        ws.nonlinear(y)
    assert len(row_passes) == 2 * (shares - 1) and len(starts) == shares - 1
    assert ws.worker.shares == 1


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_sqg_run_memory_bounded_on_any_cpu_count(monkeypatch, cpus):
    """An sqg run at N = 512 (Gaussian, 4 steps, 2 records) transforms its
    4-field transport stack in row blocks on one usable CPU as on two: the
    traced peak stays below 41 MiB (38.9 MiB measured; on one CPU 42.5 with
    the whole transport stack held, 46.1 with the gradient sups' stack too)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    tracemalloc.start()
    try:
        run_and_diagnose(gaussian_field(Grid2D(512, 400.0)), T=0.02, dt=0.005, n_outputs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 41 << 20


def _watch_threads(monkeypatch, fail_on_worker=False):
    """The threads that run a row `irfft` (one of them the worker's); with
    `fail_on_worker`, a MemoryError on any thread but this one."""
    caller, seen = threading.get_ident(), set()
    irfft = np.fft.irfft

    def watched(*args, **kwargs):
        seen.add(threading.get_ident())
        if fail_on_worker and threading.get_ident() != caller:
            raise MemoryError("on the worker")
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", watched)
    return caller, seen


@pytest.mark.parametrize("ending", ["completes", "cfl", "worker-raises"])
def test_a_run_joins_its_worker(monkeypatch, ending):
    """An sqg run at N = 256 on two CPUs holds one worker thread, which takes
    its share of the transforms, and joins it however the run ends: reaching
    T, on a CFLError from its third step, or on a MemoryError raised on the
    worker, which reaches the caller."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = threading.active_count()
    caller, seen = _watch_threads(monkeypatch, fail_on_worker=ending == "worker-raises")
    starts = count_calls(monkeypatch, threading.Thread, "start")
    if ending == "cfl":
        admissible = sqg._admissible_dt
        calls = count_calls(monkeypatch, sqg, "_admissible_dt")
        monkeypatch.setattr(sqg, "_admissible_dt", lambda grid, umax: (
            calls.append(1), 0.0 if len(calls) == 3 else admissible(grid, umax))[1])
    theta0 = small_state(Grid2D(256, 10.0), eps=0.05, seed=3).theta
    expected = {"completes": None, "cfl": CFLError, "worker-raises": MemoryError}[ending]
    if expected is None:
        diag = run_and_diagnose(theta0, T=0.1, dt=0.02, n_outputs=2)
        assert diag.times[-1] == pytest.approx(0.1) and not diag.blew_up
    else:
        with pytest.raises(expected):
            run_and_diagnose(theta0, T=0.1, dt=0.02, n_outputs=2)
    assert len(starts) == 1 and caller in seen and len(seen) == 2
    assert threading.active_count() == before


def test_a_bare_step_starts_no_thread(monkeypatch):
    """`step` outside a run runs serially, with or without a workspace, and
    gives the bits of a step inside a run's worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    st = small_state(Grid2D(256, 10.0), eps=0.05, seed=5)
    ws = _Workspace(st.theta.grid, 1.0)
    starts = count_calls(monkeypatch, threading.Thread, "start")
    bare = step(step(st), ws)
    assert starts == []
    with ws.worker:
        held = step(step(st, ws), ws)
    assert len(starts) == 1
    assert np.array_equal(bare.theta.coeffs.view(np.float64), held.theta.coeffs.view(np.float64))
