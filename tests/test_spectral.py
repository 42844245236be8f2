import ast
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodisp import spectral
from anisodisp.spectral import (
    SYMBOLS,
    Grid2D,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    Worker,
    _centre_phase,
    _modulus_sq,
    apply_multiplier,
    dispersion_rate,
    forward_transform,
    full_spectrum,
    gaussian_field,
    half_spectrum,
    half_to_physical,
    l1_norm,
    l2_norm,
    linf_norm,
    physical_rows,
    sobolev_norm,
)
from conftest import grid_arrays, hermitian_defect, nyquist_mask, random_field


# ---------------------------------------------------------------------------
# grid and transform basics

def test_grid_rejects_bad_sizes():
    with pytest.raises(SpectralError):
        Grid2D(8, 10.0)
    with pytest.raises(SpectralError):
        Grid2D(48, 10.0)
    with pytest.raises(SpectralError):
        Grid2D(32, -1.0)


def _eager_lattice(N, L):
    """The lattice arrays as Grid2D once built them all in its constructor."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    k1, k2 = k[:, None], k[None, :]
    scale = 2.0 * np.pi / L
    xi1 = scale * k1 + 0.0 * k2
    xi2 = scale * k2 + 0.0 * k1
    xi_sq = xi1**2 + xi2**2
    q = xi_sq.copy()
    q[0, 0] = 1.0
    return {"xi1": xi1, "xi2": xi2, "xi_sq": xi_sq, "xi_mod": np.sqrt(xi_sq),
            "xi_mod_safe": np.sqrt(q)}


def _eager_centre_phase(N):
    """The centre phase (-1)^(k1 + k2) on the half lattice, as the product of
    the two sign vectors that Grid2D once cached."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    sign1 = np.where(np.mod(k[:, None], 2) == 0, 1.0, -1.0)
    sign2 = np.where(np.mod(k[None, : N // 2 + 1], 2) == 0, 1.0, -1.0)
    return sign1 * sign2


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", [16, 64, 1024])
def test_lazy_lattice_equals_eager_formulas(N):
    """The arrays built from `xi_axes`, full and half, on all rows and on the
    first half of them, and each lattice property of the grid have the bits
    of the eager formula (sliced to the k2 >= 0 columns for the half).  Each
    property is built anew on each read: the grid keeps only `k` and `x`."""
    grid = Grid2D(N, 10.0)
    want = _eager_lattice(N, 10.0)
    for half, cols in ((False, slice(None)), (True, slice(0, N // 2 + 1))):
        for rows in (slice(None), slice(0, N // 2 + 1)):
            xi1, xi2 = grid.xi_axes(rows, half=half)
            assert xi1.shape == (len(range(N)[rows]), 1) and xi2.shape == (1, N // 2 + 1 if half else N)
            assert _same_bits(xi1 + 0.0 * xi2, want["xi1"][rows, cols])
            assert _same_bits(xi2 + 0.0 * xi1, want["xi2"][rows, cols])
            assert _same_bits(xi1**2 + xi2**2, want["xi_sq"][rows, cols])
            assert _same_bits(np.sqrt(xi1**2 + xi2**2), want["xi_mod"][rows, cols])
            assert _same_bits(np.sqrt(_modulus_sq(xi1, xi2)), want["xi_mod_safe"][rows, cols])
    for name, ref in want.items():
        assert _same_bits(getattr(grid, name), ref), name
        assert getattr(grid, name) is not getattr(grid, name), name
    assert grid_arrays(grid) == ["k", "x"]
    if N == 64:
        # column N/2 is k2 = -N/2, as in fftfreq (rfftfreq would say +N/2)
        assert grid.xi_axes(half=True)[1][0, N // 2] < 0.0


@pytest.mark.parametrize("N, L", [(16, 10.0), (64, 4.0 * np.pi), (256, 400.0)])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_dispersion_rate_is_the_generators_real_rate(N, L, alpha):
    """`dispersion_rate` has the bits of -Im of the generator's symbol on the
    full and the half lattice, as arrays and as broadcast axes, everywhere
    but xi = 0: there the rate is +0.0 and -Im of the symbol's 0 is -0.0."""
    grid = Grid2D(N, L)
    gen = MultiplierSpec.generator(alpha)
    for half in (False, True):
        xi1, xi2 = grid.xi_axes(half=half)
        xi1, xi2 = xi1 + 0.0 * xi2, xi2 + 0.0 * xi1
        want = -gen.on(xi1, xi2).imag
        for rate in (dispersion_rate(xi1, xi2, alpha),
                     dispersion_rate(*grid.xi_axes(half=half), alpha)):
            assert _same_bits(rate.ravel()[1:], want.ravel()[1:])
            assert _same_bits(rate[:1, :1], np.zeros((1, 1)))
            assert _same_bits(want[:1, :1], -np.zeros((1, 1)))


def test_roundtrip_is_identity(grid64):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((64, 64))
    back = forward_transform(vals, grid64).to_physical()
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_transforms_equal_scipy_fft(N):
    """`numpy.fft` gives the bits of `scipy.fft`, the independent reference
    here: both wrap pocketfft."""
    grid = Grid2D(N, 10.0)
    vals = np.random.default_rng(N).standard_normal((N, N))
    phase = _eager_centre_phase(N)
    half = phase * sfft.rfft2(vals, norm="forward")
    f = forward_transform(vals, grid)
    assert _same_bits(f.coeffs, full_spectrum(half))
    want = sfft.irfft2(half, norm="forward")
    assert np.array_equal(half_to_physical(grid, half), want)
    # the values at the grid points are those of the centre-phase product
    centred = phase * f.coeffs[:, : N // 2 + 1]
    assert _same_bits(f.to_physical(), sfft.irfft2(centred, norm="forward"))
    # in place on its input, the same bits
    assert np.array_equal(half_to_physical(grid, half.copy(), overwrite_x=True), want)
    # a half spectrum cut to its first K columns stands for zeros beyond them
    K = N // 4 + 1
    cut = half.copy()
    cut[:, K:] = 0.0
    assert np.array_equal(half_to_physical(grid, half[:, :K]), sfft.irfft2(cut, norm="forward"))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("N", [16, 64, 128, 256, 1024])
def test_physical_rows_are_the_values_of_half_to_physical(N, cpus, monkeypatch):
    """The row blocks of `physical_rows`, in block order, are the values of
    `half_to_physical` bit for bit, for one half and for stacks of 4 and 6,
    each whole and cut to a K-column Besov piece.  On s shares every stack
    takes blocks of the largest power-of-two count of rows, at most N, with
    s * 8 * n * rows * N <= ROW_PASS_BYTES, on this thread alone (one usable
    CPU, or a single block) or in contiguous runs on it and a second one.
    Six fields at N = 128 (768 KiB of values) are one block on one share
    and two blocks on two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    grid = Grid2D(N, 400.0)
    rng = np.random.default_rng(N)
    starts = []

    def keep(vals, rows):
        starts.append((rows.start, threading.get_ident()))
        assert vals.shape[-2:] == (rows.stop - rows.start, N)
        return vals.copy()

    for n in (1, 4, 6):
        half = sfft.rfft2(rng.standard_normal((n, N, N)), norm="forward")
        half = half[0] if n == 1 else half
        for K in (N // 2 + 1, N // 8 + 3):
            want = half_to_physical(grid, half[..., :K])
            starts.clear()
            with Worker() as worker:
                blocks = physical_rows(grid, half[..., :K].copy(), keep, worker)
            assert np.array_equal(np.concatenate(blocks, axis=-2), want), (n, K)
            rows = blocks[0].shape[-2]
            assert [b.shape[-2] for b in blocks] == [rows] * (N // rows)
            assert rows <= N and rows & (rows - 1) == 0
            shares, budget = len(cpus), spectral.ROW_PASS_BYTES
            assert shares * 8 * n * rows * N <= budget
            assert rows == N or shares * 16 * n * rows * N > budget
            if (n, N) == (6, 128):
                assert rows == N // shares
            threaded = shares > 1 and rows < N
            assert len({ident for _, ident in starts}) == 1 + threaded
            # a contiguous run of blocks on each thread, this one's first and longer
            here = [start for start, ident in starts if ident == threading.get_ident()]
            assert sorted(here) == list(range(0, -(-N // rows // shares) * rows, rows))


@pytest.mark.parametrize("mode", ["one-share", "two-shares", "no-thread"])
def test_split_cuts_range_n_into_contiguous_parts(mode, monkeypatch):
    """`Worker.split(n, work)` for n = 0 .. 9 calls `work(part, share)` once
    per share, share 0 on this thread: the parts are slices that tile
    range(n) in share order, share 0 taking all of it on one share and the
    first ceil(n / 2) on two, also where the thread cannot start.  An
    exception raised in either share reaches the caller."""
    if mode == "no-thread":
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
    shares = 1 if mode == "one-share" else 2
    here = threading.get_ident()
    with Worker(shares) as worker:
        assert worker.shares == shares
        for n in range(10):
            ran = []
            worker.split(n, lambda part, share: ran.append((share, part, threading.get_ident())))
            ran.sort(key=lambda r: r[0])
            assert [share for share, _, _ in ran] == list(range(shares))
            parts = [part for _, part, _ in ran]
            assert all(part.step is None for part in parts)
            assert [i for part in parts for i in range(n)[part]] == list(range(n))
            assert parts[0] == slice(0, -(-n // shares))
            idents = [ident for _, _, ident in ran]
            assert idents[0] == here and (here in idents[1:]) == (mode == "no-thread")
            for failing in range(shares):
                def work(part, share):
                    if share == failing:
                        raise ValueError(f"share {share}")

                with pytest.raises(ValueError, match=f"share {failing}"):
                    worker.split(n, work)


def _no_thread(self):
    raise RuntimeError("can't start new thread")


def test_an_exception_in_the_second_share_reaches_the_caller():
    """An exception raised on a held Worker's thread is raised here once both
    shares are done, and the thread is joined when the `with` ends."""
    before = threading.active_count()
    ran = {}

    def work(part, share):
        ran[share] = threading.get_ident()
        if share == 1:
            raise MemoryError("the second share")

    with pytest.raises(MemoryError, match="the second share"):
        with Worker(2) as worker:
            worker.split(2, work)
    assert ran[0] == threading.get_ident() != ran[1]
    assert threading.active_count() == before


def test_a_held_worker_runs_each_share_of_every_split_once():
    """Three threads, each holding its own Worker (six threads in all), make
    300 splits each under a 1 us switch interval: every split returns only
    after both of its shares ran, each once and each on its own thread, and
    every thread ends within its timeout."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    bad = []

    def client():
        with Worker(2) as worker:
            for i in range(300):
                ran = []
                worker.split(2, lambda part, share: ran.append((share, threading.get_ident())))
                shares = sorted(share for share, _ in ran)
                if shares != [0, 1] or len({ident for _, ident in ran}) != 2:
                    bad.append((i, ran))

    try:
        clients = [threading.Thread(target=client) for _ in range(3)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []


def test_a_thread_that_cannot_start_leaves_its_share_here(monkeypatch):
    """A thread whose stack cannot be had (under `RLIMIT_AS`, say) leaves
    its share to the calling thread, so the pass runs serially rather than
    fail, with the same values."""
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    grid = Grid2D(1024, 400.0)
    half = np.random.default_rng(0).standard_normal((1024, 40)) + 0j
    want = half_to_physical(grid, half)
    threads = set()

    def keep(vals, rows):
        threads.add(threading.get_ident())
        return vals.copy()

    with Worker(2) as worker:
        blocks = physical_rows(grid, half, keep, worker)
    assert np.array_equal(np.concatenate(blocks), want)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("N", [16, 32, 64, 128, 256, 512, 1024, 2048])
def test_centre_phase_is_a_half_box_shift(N):
    """The centre phase moves the values of `half_to_physical` by exactly half
    the box, bit for bit, for a field, a stack and a K-column half: so every
    shift-invariant quantity may read the uncentred values."""
    grid = Grid2D(N, 10.0)
    rng = np.random.default_rng(N)
    f = forward_transform(rng.standard_normal((N, N)), grid)
    half = f.coeffs[:, : N // 2 + 1]
    shift = dict(shift=N // 2, axis=(-2, -1))
    assert np.array_equal(f.to_physical(), np.roll(half_to_physical(grid, half), **shift))
    stack = sfft.rfft2(rng.standard_normal((2, N, N)), norm="forward")
    for K in (N // 2 + 1, N // 3):
        kept = stack[..., :K]
        centred = half_to_physical(grid, _eager_centre_phase(N)[:, :K] * kept)
        assert np.array_equal(centred, np.roll(half_to_physical(grid, kept), **shift))


@pytest.mark.parametrize("N", [16, 32, 64])
def test_centre_phase_signs_match_the_product(N):
    """The centre phase applied as row-parity column signs gives the bits of
    the product with the whole (-1)^(k1 + k2) array, signed zeros included,
    into a new array and in place."""
    grid = Grid2D(N, 10.0)
    parts = np.random.default_rng(N).choice([0.0, -0.0, 1.5, -2.0], (2, N, N // 2 + 1))
    half = parts[0] + 1j * parts[1]
    half.imag[:] = parts[1]  # `1j * -0.0` would not keep the sign
    want = _eager_centre_phase(N) * half
    assert _same_bits(_centre_phase(grid, half, np.empty_like(half)), want)
    assert _same_bits(_centre_phase(grid, half, half), want)


def _full_spectrum_by_fancy_index(half):
    """The conjugate reflection as `full_spectrum` once wrote it, through a
    fancy-indexed copy of the half and its conjugate."""
    N = half.shape[-2]
    M = N // 2 + 1
    if half.shape[-1] < M:
        half, cut = np.zeros(half.shape[:-1] + (M,), dtype=np.complex128), half
        half[..., : cut.shape[-1]] = cut
    neg = -np.arange(N) % N
    full = np.empty(half.shape[:-1] + (N,), dtype=np.complex128)
    full[..., :M] = half
    full[..., M:] = np.conj(half[..., neg, M - 2 : 0 : -1])
    edges = [0, N // 2]
    full[..., M:, edges] = np.conj(full[..., N // 2 - 1 : 0 : -1, edges])
    return full


@pytest.mark.parametrize("N, width", [(16, 1.0), (64, 0.3), (1024, 1.0)])
def test_gaussian_profile_drops_its_samples_before_the_rebuild(N, width):
    """The Gaussian profile has the bits of `forward_transform` of its
    samples, and holds only its half spectrum until `.coeffs` is read: it
    peaks at its real samples and that half, one whole spectrum (16 MiB at
    N = 1024, where rebuilding the whole spectrum in the profile read 24.4
    MiB, and holding the samples too 32.4)."""
    grid = Grid2D(N, 400.0 if N == 1024 else 10.0)
    x1, x2 = grid.x[:, None], grid.x[None, :]
    want = forward_transform(0.7 * np.exp(-(x1**2 + x2**2) / width**2), grid)
    tracemalloc.start()
    try:
        f = gaussian_field(grid, width, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_bits(f.coeffs, want.coeffs)
    assert peak < f.coeffs.nbytes + (1 << 20)


def _lazy_fields(N):
    """(name, factory) of the fields made on the half lattice at grid size N."""
    grid = Grid2D(N, 10.0)
    values = np.random.default_rng(N).standard_normal((N, N))
    return [("gaussian", lambda: gaussian_field(grid, 0.7)),
            ("transform", lambda: forward_transform(values, grid))]


@pytest.mark.parametrize("N", [16, 64, 256])
def test_lazy_half_is_the_half_of_the_full_spectrum(N):
    """A field made by `from_half` holds its half spectrum until `.coeffs` is
    read.  Before and after `zero_mean`, that half has the bits of the half
    of the full array built from it: `from_half` makes the k2 = 0 and
    k2 = N/2 columns exactly Hermitian, which `rfft2` leaves to rounding."""
    for name, make in _lazy_fields(N):
        for zero_mean in (False, True):
            f = make()
            if zero_mean:
                f.zero_mean()
            half = f.half.copy()
            assert _same_bits(half, half_spectrum(f.coeffs)), (name, zero_mean)
            assert _same_bits(f.half, half), (name, zero_mean)


def test_lazy_field_keeps_the_full_array_once_read():
    """The first `.coeffs` read builds the full array once and keeps it: an
    in-place write through it shows in `.half` and in a second read, and
    the copy of a field not yet read compares equal to the field."""
    for name, make in _lazy_fields(32):
        f = make()
        c = f.coeffs
        c[1, 2] = 5.0
        assert f.coeffs is c and f.half[1, 2] == 5.0, name
        g = make()
        assert _same_bits(g.copy().coeffs, g.coeffs), name


def test_from_half_rejects_shape_mismatch(grid64):
    with pytest.raises(SpectralError):
        SpectralField.from_half(grid64, np.zeros((64, 64), dtype=np.complex128))


def test_no_reader_builds_the_full_array_for_its_half():
    """No code in src/ takes `half_spectrum(<field>.coeffs)`, which would
    build a lazy field's full array only to slice it: readers take `.half`."""
    pkg = os.path.dirname(spectral.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("half_spectrum")
                    and any(isinstance(a, ast.Attribute) and a.attr == "coeffs"
                            for a in node.args)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("N", [16, 32, 64, 128, 256])
def test_full_spectrum_equals_fancy_index_reflection(N):
    """The slice-based rebuild has the bits of the fancy-index one, on whole
    halves and on K-column cuts, for one field and for a (2, N, K) stack."""
    rng = np.random.default_rng(N)
    stack = sfft.rfft2(rng.standard_normal((2, N, N)), norm="forward")
    for K in (N // 2 + 1, N // 3, 1):
        for half in (stack[..., :K], stack[1, :, :K]):
            assert _same_bits(full_spectrum(half), _full_spectrum_by_fancy_index(half))


@pytest.mark.parametrize("N", [16, 64, 256])
def test_full_spectrum_pads_a_column_cut(N):
    """A half cut to its first K columns rebuilds to the bits of its
    zero-padded half, for one field and for a stack."""
    rng = np.random.default_rng(N)
    half = sfft.rfft2(rng.standard_normal((3, N, N)), norm="forward")
    for K in (1, N // 3, N // 2):
        padded = half.copy()
        padded[..., K:] = 0.0
        assert _same_bits(full_spectrum(half[..., :K]), full_spectrum(padded))
        assert _same_bits(full_spectrum(half[0, :, :K]), full_spectrum(padded[0]))


def test_forward_rejects_shape_mismatch(grid64):
    with pytest.raises(SpectralError):
        forward_transform(np.zeros((32, 32)), grid64)


def test_forward_rejects_complex_values(grid64):
    with pytest.raises(SpectralError):
        forward_transform(np.ones((64, 64)) + 1j, grid64)


def test_plane_wave_coefficients(grid64):
    """cos(2 pi x / L) has exactly two coefficients of value 1/2."""
    X = np.broadcast_to(grid64.x[:, None], (grid64.N, grid64.N))  # x1 at each point
    f = forward_transform(np.cos(2.0 * np.pi * X / grid64.L), grid64)
    c = f.coeffs
    assert abs(c[1, 0] - 0.5) <= 1e-13
    assert abs(c[-1, 0] - 0.5) <= 1e-13
    c[1, 0] = c[-1, 0] = 0.0
    assert np.max(np.abs(c)) <= 1e-13


def test_forward_output_is_hermitian(grid64):
    rng = np.random.default_rng(3)
    f = forward_transform(rng.standard_normal((64, 64)), grid64)
    assert hermitian_defect(f) <= 1e-14


def test_parseval(grid64):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((64, 64))
    f = forward_transform(vals, grid64)
    direct = np.sqrt(np.sum(vals**2) * grid64.dx**2)
    assert abs(l2_norm(f) - direct) <= 1e-12 * direct


def test_sobolev_norm_plane_wave(grid64):
    """H^s of cos(xi0 . x) is L * sqrt(2 * (1/4)) * (1+|xi0|^2)^{s/2}."""
    X = np.broadcast_to(grid64.x[:, None], (grid64.N, grid64.N))  # x1 at each point
    xi0 = 2.0 * np.pi / grid64.L * 3
    f = forward_transform(np.cos(xi0 * X), grid64)
    expected = grid64.L * np.sqrt(0.5) * (1.0 + xi0**2) ** 0.75
    assert abs(sobolev_norm(f, 1.5) - expected) <= 1e-12 * expected


def test_sobolev_range_validated(grid64):
    f = random_field(grid64)
    with pytest.raises(SpectralError):
        sobolev_norm(f, 9.0)


def test_lp_norms(grid64):
    f = gaussian_field(grid64)
    assert abs(linf_norm(f) - 1.0) <= 1e-12
    # Gaussian integral: pi * width^2 (box is much larger than the bump)
    assert abs(l1_norm(f) - np.pi) <= 1e-3


# ---------------------------------------------------------------------------
# multipliers

def test_multiplier_validation():
    with pytest.raises(SpectralError):
        MultiplierSpec.velocity_sqg(3)
    with pytest.raises(SpectralError):
        MultiplierSpec.deriv(0)
    with pytest.raises(SpectralError):
        MultiplierSpec.semigroup_phase(0.5, 1.0)
    with pytest.raises(SpectralError):
        MultiplierSpec.semigroup_phase(1.0, -1.0)
    with pytest.raises(SpectralError):
        MultiplierSpec.generator(2.5)


def test_riesz_is_skew_adjoint(grid64):
    """The SQG velocity components -R2 and R1 are skew-adjoint in the L^2
    inner product, which Parseval gives as L^2 Re(vdot) of the coefficients."""
    f = random_field(grid64, seed=7)
    g = random_field(grid64, seed=8)

    def inner(a, b):
        return grid64.L**2 * np.real(np.vdot(a.coeffs, b.coeffs))

    for j in (1, 2):
        r = MultiplierSpec.velocity_sqg(j)
        lhs = inner(f, apply_multiplier(g, r))
        rhs = -inner(apply_multiplier(f, r), g)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        # and <f, R f> = 0
        assert abs(inner(f, apply_multiplier(f, r))) <= 1e-12


# random multipliers: a SYMBOLS entry with its parameters drawn from their ranges
GRID32 = Grid2D(32, 10.0)
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)
ALPHAS = st.floats(1.0, 2.0)
ONE_OR_TWO = st.sampled_from([1, 2])
SYMBOL_PARAMS = {
    "Deriv": {"j": ONE_OR_TWO},
    "Generator": {"alpha": ALPHAS},
    "SemigroupPhase": {"alpha": ALPHAS, "t": st.floats(0.0, 100.0)},
    "VelocitySQG": {"component": ONE_OR_TWO},
    "VelocityBouss": {"component": ONE_OR_TWO},
}


@st.composite
def multipliers(draw):
    tag = draw(st.sampled_from(sorted(SYMBOLS)))
    return MultiplierSpec(tag, **{k: draw(v) for k, v in SYMBOL_PARAMS[tag].items()})


def white_noise(seed):
    """A random real field; its Nyquist lines carry data."""
    return forward_transform(np.random.default_rng(seed).standard_normal((32, 32)), GRID32)


def test_symbol_params_cover_the_table():
    assert set(SYMBOL_PARAMS) == set(SYMBOLS)


@PROPERTY
@given(multipliers(), multipliers(), st.integers(0, 2**16))
def test_multipliers_commute(m1, m2, seed):
    f = white_noise(seed)
    a = apply_multiplier(apply_multiplier(f, m1), m2).coeffs
    b = apply_multiplier(apply_multiplier(f, m2), m1).coeffs
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a)), (m1, m2)


def test_velocities_divergence_free(grid64):
    f = random_field(grid64, seed=11)
    d1, d2 = MultiplierSpec.deriv(1), MultiplierSpec.deriv(2)
    for vel in (MultiplierSpec.velocity_sqg, MultiplierSpec.velocity_bouss):
        u1 = apply_multiplier(f, vel(1))
        u2 = apply_multiplier(f, vel(2))
        div = apply_multiplier(u1, d1).coeffs + apply_multiplier(u2, d2).coeffs
        assert np.max(np.abs(div)) <= 1e-12


@PROPERTY
@given(multipliers(), st.integers(0, 2**16))
def test_multiplier_keeps_field_real(m, seed):
    """The full-lattice product of a real field and the symbol is real in
    physical space, and `apply_multiplier`, which writes the conjugate half
    by reflection, gives exactly its coefficients."""
    f = white_noise(seed)
    full = SpectralField(GRID32, f.coeffs * m.symbol(GRID32)).zero_nyquist()
    values = np.fft.ifft2(full.coeffs)
    assert np.max(np.abs(values.imag)) <= 1e-14 * np.max(np.abs(values.real)), m
    g = apply_multiplier(f, m)
    assert hermitian_defect(g) == 0.0, m
    assert np.array_equal(g.coeffs, full.coeffs), m


# one instance of every table entry, with its documented value at xi = 0
TABLE_ZERO_MODES = [
    (MultiplierSpec.deriv(1), 0.0),
    (MultiplierSpec.deriv(2), 0.0),
    (MultiplierSpec.generator(1.5), 0.0),
    (MultiplierSpec.semigroup_phase(1.5, 7.0), 1.0),
    (MultiplierSpec.velocity_sqg(1), 0.0),
    (MultiplierSpec.velocity_sqg(2), 0.0),
    (MultiplierSpec.velocity_bouss(1), 0.0),
    (MultiplierSpec.velocity_bouss(2), 0.0),
]


def test_table_entries_hermitian_with_zero_mode(grid64):
    """m(-k) == conj(m(k)) exactly off the Nyquist lines, so a multiplier maps
    real fields to real fields, and each entry has its documented m(0)."""
    assert {m.tag for m, _ in TABLE_ZERO_MODES} == set(SYMBOLS)
    neg = -np.arange(grid64.N) % grid64.N
    inner = ~nyquist_mask(grid64)
    for mult, zero in TABLE_ZERO_MODES:
        m = mult.symbol(grid64)
        assert np.array_equal(m[neg][:, neg][inner], np.conj(m)[inner]), mult
        assert m[0, 0] == zero, mult


def test_multiplier_on_half_lattice_equals_full_product(grid64):
    """The half-lattice product rebuilt by reflection is the full product
    with its Nyquist lines zeroed, bit for bit, and exactly Hermitian."""
    f = random_field(grid64, seed=14)
    f.coeffs[nyquist_mask(grid64)] = 0.25  # real, so f stays Hermitian
    for mult, _ in TABLE_ZERO_MODES:
        want = f.coeffs * mult.symbol(grid64)
        want[nyquist_mask(grid64)] = 0.0
        g = apply_multiplier(f, mult)
        assert np.array_equal(g.coeffs, want), mult
        assert hermitian_defect(g) == 0.0, mult


def test_non_finite_symbol_rejected(grid64, monkeypatch):
    """One finiteness check in `on` guards the multipliers, the workspaces'
    half-lattice symbols and `symbol`."""
    monkeypatch.setitem(SYMBOLS, "NaN", lambda xi1, xi2: np.full(xi1.shape, np.nan))
    mult = MultiplierSpec("NaN")
    with pytest.raises(SpectralError):
        mult.symbol(grid64)
    with pytest.raises(SpectralError):
        mult.on(grid64.xi1[:, :33], grid64.xi2[:, :33])
    with pytest.raises(SpectralError):
        apply_multiplier(random_field(grid64), mult)


def test_unknown_tag_rejected():
    with pytest.raises(SpectralError):
        MultiplierSpec("NoSuchSymbol")
