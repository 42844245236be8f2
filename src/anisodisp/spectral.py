"""Grids, transforms, Fourier multipliers and discrete norms.

Everything downstream works on a periodic box [-L/2, L/2)^2 sampled on an
N x N grid (N a power of two).  A real scalar field is stored as complex
Fourier coefficients c_k normalized so that

    f(x) = sum_k c_k exp(i xi_k . x),      xi_k = (2 pi / L) k,

i.e. the forward transform divides by N^2.  With this choice a plane wave
cos(2 pi x1 / L) has exactly two coefficients of value 1/2, and Parseval
reads ||f||_{L^2} = L * sqrt(sum |c_k|^2).  All transforms are the real ones
(rfft2/irfft2, norm="forward") on the k2 >= 0 half; `full_spectrum` rebuilds
the rest by conjugate reflection, so fields made here are Hermitian by
construction and `enforce_hermitian` is only for coefficients from outside.
The centre phase (-1)^(k1 + k2), there since samples start at -L/2, is a
half-box shift that no norm or transport product sees: only
`forward_transform` and `SpectralField.to_physical` apply it.

The package's one threading mechanism is `Worker`: a second thread, held
for a run (`sqg._integrate`), a lin-decay measurement, a Besov norm or a
kernel quadrature, that takes one of two shares of each split and calls
only numpy.  `Worker.split(n, work)` alone cuts range(n) into the shares'
contiguous parts; each share writes its own part of arrays the calling
thread made, every value is computed alone, so results have the same bits
on one thread or two.  Every split transform goes through one row pass,
`physical_rows`.
"""

import math
import os
import sys
import threading

import numpy as np


class SpectralError(ValueError):
    """The package's numeric failure: a value out of its domain, a check that
    failed, a quadrature or a fit that could not finish.  The CLI exits 3 on it."""


# Default byte budget for the temporaries of one block of a row-blocked
# evaluation (the sharpness origin sum, the J0 trapezoid, the kernel quadrature).
CHUNK_BYTES = 32 << 20
# Byte budget of the values of the row blocks of `physical_rows` in flight at
# once, and of the temporaries of one row block of the Besov shells' bump.
ROW_PASS_BYTES = 1 << 20


def row_blocks(n_rows, row_bytes, budget=CHUNK_BYTES):
    """Slices covering range(n_rows) whose rows take at most `budget` bytes
    of temporaries at row_bytes each (and at least one row per block)."""
    step = max(1, budget // max(1, row_bytes))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


class Grid2D:
    """Periodic N x N grid on a box of side L.  It keeps only its wavenumbers
    `k` and samples `x`; the lattice properties build their arrays anew on
    each read, and other code builds what it needs from `xi_axes`."""

    def __init__(self, N, L):
        self.check_grid(N, L)
        self.N = int(N)
        self.L = float(L)
        self.k = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integer wavenumbers
        self.x = np.arange(self.N) * self.L / self.N - self.L / 2.0
        self.dx = self.L / self.N

    @staticmethod
    def check_grid(N, L):
        """Raise SpectralError unless N is a power of two >= 16 and the box
        side L lies in [1e-10, 1e10].  Far outside that, samples, symbols or
        norms overflow: at N = 16 from L = 1e160 up and L = 1e-30 down, at
        N = 2048 already at L = 1e-20."""
        if N < 16 or (N & (N - 1)) != 0:
            raise SpectralError(f"grid.N must be a power of two >= 16, got {N}")
        if not 1e-10 <= L <= 1e10:
            raise SpectralError(f"grid.L must lie in [1e-10, 1e10], got {L}")

    def xi_axes(self, rows=slice(None), half=False):
        """The broadcast frequency vectors xi = (2 pi / L) (k1, k2): xi1 a
        column over the given rows, xi2 a row over the N columns, or over the
        N//2 + 1 of the half lattice that rfft2 stores (k2 = 0 .. N/2 - 1
        and -N/2, as fftfreq orders them).  `xi1 + 0.0 * xi2` is the (N, N)
        array `xi1`, `xi1**2 + xi2**2` is `xi_sq`, and so on."""
        scale = 2.0 * np.pi / self.L
        k2 = self.k[: self.N // 2 + 1] if half else self.k
        return scale * self.k[rows, None], scale * k2[None, :]

    @property
    def xi1(self):
        xi1, xi2 = self.xi_axes()
        return xi1 + 0.0 * xi2

    @property
    def xi2(self):
        xi1, xi2 = self.xi_axes()
        return xi2 + 0.0 * xi1

    @property
    def xi_sq(self):
        xi1, xi2 = self.xi_axes()
        return xi1**2 + xi2**2

    @property
    def xi_mod(self):
        return np.sqrt(self.xi_sq)

    @property
    def xi_mod_safe(self):
        return np.sqrt(_modulus_sq(*self.xi_axes()))

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.N == other.N and self.L == other.L

    def __hash__(self):
        return hash((self.N, self.L))

    def __repr__(self):
        return f"Grid2D(N={self.N}, L={self.L})"


class SpectralField:
    """A real scalar field stored as Hermitian-symmetric Fourier coefficients.

    A field made by `from_half` holds only its half spectrum until `.coeffs`
    is first read; that read builds the full (N, N) array by `full_spectrum`,
    keeps it and drops the half, so from then on in-place writes through
    `.coeffs` are the field.  `.half` reads the k2 >= 0 half either way."""

    def __init__(self, grid, coeffs):
        if coeffs.shape != (grid.N, grid.N):
            raise SpectralError(
                f"coefficient array shape {coeffs.shape} does not match grid N={grid.N}"
            )
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def from_half(cls, grid, half):
        """The field of the half spectrum `half` (N, N//2 + 1), taken as is.
        Its k2 = 0 and k2 = N/2 columns are made exactly Hermitian in place,
        as `full_spectrum` makes them, so `.half` has the bits of
        `half_spectrum(.coeffs)`."""
        N = grid.N
        if half.shape != (N, N // 2 + 1):
            raise SpectralError(
                f"half spectrum shape {half.shape} does not match grid N={N}"
            )
        edges = [0, N // 2]
        half[N // 2 + 1 :, edges] = np.conj(half[N // 2 - 1 : 0 : -1, edges])
        field = cls.__new__(cls)
        field.grid, field._half, field._coeffs = grid, half, None
        return field

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs, self._half = full_spectrum(self._half), None
        return self._coeffs

    @coeffs.setter
    def coeffs(self, coeffs):
        self._coeffs, self._half = np.asarray(coeffs, dtype=np.complex128), None

    @property
    def half(self):
        """The k2 >= 0 half spectrum, a view of the full array once built."""
        return self._half if self._coeffs is None else half_spectrum(self._coeffs)

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self):
        half = self.half
        centred = _centre_phase(self.grid, half, np.empty_like(half))
        return half_to_physical(self.grid, centred, overwrite_x=True)

    def enforce_hermitian(self):
        """Symmetrize c(-k) = conj(c(k)), for coefficients set from outside."""
        self.coeffs = 0.5 * (self.coeffs + self._reflected())
        return self

    def zero_nyquist(self):
        ny = self.grid.N // 2
        self.coeffs[ny] = self.coeffs[:, ny] = 0.0
        return self

    def zero_mean(self):
        # the mean is self-conjugate, a mode `full_spectrum` copies as given
        self.half[0, 0] = 0.0
        return self

    def _reflected(self):
        """conj(c(-k)) at each k."""
        return np.conj(np.roll(self.coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))


def forward_transform(values, grid):
    """Physical-space real array -> SpectralField.  Round trip is exact to rounding."""
    values = np.asarray(values)
    if values.shape != (grid.N, grid.N):
        raise SpectralError(
            f"field shape {values.shape} does not match grid N={grid.N}"
        )
    if np.iscomplexobj(values):
        raise SpectralError("physical values must be real")
    return _from_row_pass(grid, np.fft.rfft(values, axis=-1, norm="forward"))


def _from_row_pass(grid, half):
    """The SpectralField of the real values whose row `rfft` is `half`: the
    column pass in place in `half` (the two passes of `rfft2`, so its
    bits), then the centre phase in place; the field holds that half."""
    np.fft.fft(half, axis=-2, norm="forward", out=half)
    return SpectralField.from_half(grid, _centre_phase(grid, half, half))


def _centre_phase(grid, half, out):
    """`out` = (-1)^(k1 + k2) * `half` on the half lattice, `out` may be
    `half`.  Physical samples start at -L/2; this checkerboard factor shifts
    the DFT so coefficients refer to exp(i xi . x) in centred coordinates.
    It is applied as the column signs (-1)^k2 on the even rows and their
    negatives on the odd ones (k1 has the parity of its row, N being even):
    each entry is multiplied by the same float +-1 as by the whole product."""
    sign = np.where(np.mod(grid.k[: grid.N // 2 + 1], 2) == 0, 1.0, -1.0)
    np.multiply(half[0::2], sign, out=out[0::2])
    np.multiply(half[1::2], -sign, out=out[1::2])
    return out


def half_spectrum(coeffs):
    """The k2 >= 0 half (..., N, N//2 + 1) of a real field's spectrum, the
    part that `rfft2` returns and `irfft2` reads."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def half_to_physical(grid, half, overwrite_x=False):
    """`irfft2` of a half spectrum, without the centre phase: for the half of
    a field f, `np.roll(f.to_physical(), N//2, axis=(0, 1))` bit for bit.
    `half` may hold only the first K columns of the half lattice: `irfft`
    zero-pads them, which gives exactly `irfft2` of the zero-padded half.
    With `overwrite_x` the column pass runs in `half`, which is left holding
    neither input nor output."""
    cols = np.fft.ifft(half, axis=-2, norm="forward", out=half if overwrite_x else None)
    return np.fft.irfft(cols, n=grid.N, axis=-1, norm="forward")


def usable_cpus():
    """The CPUs this process may run on: its affinity set where `os` has
    `sched_getaffinity` (Linux), else `os.cpu_count()`, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_shares():
    """How many shares a `Worker` splits work into: 2 where the process may
    use two CPUs or more (`usable_cpus`), else 1.  A process that
    `multiprocessing` started (a sweep's pool worker) takes 1: the pool's
    processes fill the CPUs between them.  Such a process has
    `multiprocessing` loaded already, so this imports nothing."""
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return 2 if usable_cpus() > 1 else 1


class Worker:
    """A second thread for `split`, held across many calls: the package's
    only way to hold one, and the only place that cuts work into shares.

    `with Worker():` starts the thread where the shares (by default
    `thread_shares()`) are 2, and joins it on exit, also when the body
    raises.  Outside the `with`, and on one share, `shares` is 1 and `split`
    runs in the caller alone.  A thread that cannot be started (its stack is
    an allocation too) leaves both shares to the caller, with `shares` still
    2, so the work is cut the same way and gives the same values."""

    def __init__(self, shares=None):
        self._wanted = shares
        self.shares = 1
        self._thread = self._work = self._failed = None

    def __enter__(self):
        self.shares = thread_shares() if self._wanted is None else self._wanted
        if self.shares == 2:
            # plain locks hand work over fastest; either thread may release one
            self._go, self._done = threading.Lock(), threading.Lock()
            self._go.acquire()
            self._done.acquire()
            self._thread = threading.Thread(target=self._serve)
            try:
                self._thread.start()
            except RuntimeError:  # "can't start new thread"
                self._thread = None
        return self

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._work = None
            self._go.release()
            self._thread.join()
            self._thread = None
        self.shares = 1

    def _serve(self):
        while True:
            self._go.acquire()
            if self._work is None:
                return
            try:
                self._work()
            except BaseException as exc:  # raised again in the caller
                self._failed = exc
            finally:
                self._done.release()

    def split(self, n, work):
        """`work(part, share)` for each share, `part` a contiguous slice of
        range(n): share 0, this thread, takes all of it on 1 share and the
        first ceil(n / 2) on 2, so a single item stays here.  With a thread,
        share 1 runs there while share 0 runs here; the call returns once
        both are done, and an exception raised in either reaches the caller.
        Each share writes only its own part of caller-owned arrays."""
        cut = -(-n // self.shares)
        parts = [slice(0, cut), slice(cut, n)][: self.shares]
        if self._thread is None:
            for share, part in enumerate(parts):
                work(part, share)
            return
        self._work = lambda: work(parts[1], 1)
        self._go.release()
        try:
            work(parts[0], 0)
        finally:
            self._done.acquire()
            exc, self._work, self._failed = self._failed, None, None
        if exc is not None:
            raise exc


def physical_rows(grid, half, reduce, worker):
    """`reduce(values, rows)` of each row block of `half_to_physical(grid,
    half, overwrite_x=True)` for a stack `half` (..., N, K) of half spectra,
    `values[..., i, :]` being row `rows.start + i` of each field, in block
    order.  Each 1-D transform is computed on its own, so the values have
    the bits of `half_to_physical`.

    The column pass runs first, in place, in column parts, one per share of
    `worker`.  The rows are then transformed in blocks of the largest
    power-of-two count of rows, at most N, whose values on every share fit
    ROW_PASS_BYTES together, so a stack over that budget is never made
    whole.  Each share takes a contiguous run of blocks, each block into
    that share's buffer, and reduces it there; a stack of one block is made
    on the calling thread."""
    N = grid.N
    n = math.prod(half.shape[:-2])
    rows = N
    while rows > 1 and worker.shares * 8 * n * rows * N > ROW_PASS_BYTES:
        rows //= 2
    blocks = [slice(start, start + rows) for start in range(0, N, rows)]
    bufs = np.empty((min(worker.shares, len(blocks)), *half.shape[:-2], rows, N))
    out = [None] * len(blocks)

    def columns(cols, share):
        np.fft.ifft(half[..., cols], axis=-2, norm="forward", out=half[..., cols])

    def row_pass(part, share):
        for i in range(part.start, part.stop):
            out[i] = reduce(np.fft.irfft(half[..., blocks[i], :], n=N, axis=-1,
                                         norm="forward", out=bufs[share]), blocks[i])

    worker.split(half.shape[-1], columns)
    worker.split(len(blocks), row_pass)
    return out


def full_spectrum(half):
    """The (..., N, N) spectrum rebuilt from its half by conjugate reflection.

    A half cut to its first K columns is zero-padded into a new one first.
    The k2 > N/2 columns are c(k) = conj(c(-k)), and the k1 > N/2 entries of
    the k2 = 0 and k2 = N/2 columns are reflected the same way, so the result
    is exactly Hermitian apart from the four self-conjugate modes (the mean
    and the Nyquist corners), which are copied as given.
    """
    N = half.shape[-2]
    M = N // 2 + 1
    if half.shape[-1] < M:
        half, cut = np.zeros(half.shape[:-1] + (M,), dtype=np.complex128), half
        half[..., : cut.shape[-1]] = cut
    full = np.empty(half.shape[:-1] + (N,), dtype=np.complex128)
    full[..., :M] = half
    # column -k2 of row -k1: row 0 reflects onto itself, rows 1.. in reverse
    right = half[..., M - 2 : 0 : -1]
    np.conjugate(right[..., :1, :], out=full[..., :1, M:])
    np.conjugate(right[..., :0:-1, :], out=full[..., 1:, M:])
    edges = [0, N // 2]
    full[..., M:, edges] = np.conj(full[..., N // 2 - 1 : 0 : -1, edges])
    return full


def _modulus_sq(xi1, xi2):
    """|xi|^2, set to 1 at the zero mode so that quotients stay finite there."""
    q = xi1**2 + xi2**2
    q[0, 0] = 1.0
    return q


def _at_zero(m, value):
    m[0, 0] = value
    return m


def dispersion_rate(xi1, xi2, alpha):
    """xi_1 / |xi|^alpha, 0 at xi = 0: the real rate of the semigroup
    e^{R_1 t} = exp(-i t xi_1 / |xi|^alpha), on a lattice or its axes."""
    return _at_zero(xi1 / np.sqrt(_modulus_sq(xi1, xi2)) ** alpha, 0.0)


def _riesz(xi1, xi2, j, alpha=1.0):
    # -i xi_j / |xi|^alpha: R_j for alpha = 1, and for j = 1 the generator of
    # the semigroup; |xi|^2 is a sum, so xi_2's quotient is the rate with the
    # axes swapped
    rate = dispersion_rate(xi1, xi2, alpha) if j == 1 else dispersion_rate(xi2, xi1, alpha)
    return _at_zero(-1j * rate, 0.0)


# Every Fourier symbol m(xi1, xi2, **params) of the package, each written once.
# The lattice is the full (N, N) one, the (N, N//2 + 1) half or the axes of
# either (`Grid2D.xi_axes`); each has xi = 0 at [0, 0], set by each entry.
SYMBOLS = {
    "Deriv": lambda xi1, xi2, j: _at_zero(1j * (xi1 if j == 1 else xi2), 0.0),
    "Generator": lambda xi1, xi2, alpha: _riesz(xi1, xi2, 1, alpha),
    # exp(t * generator); 1 at xi = 0
    "SemigroupPhase": lambda xi1, xi2, alpha, t: np.exp(t * _riesz(xi1, xi2, 1, alpha)),
    # u = (-R2, R1) theta
    "VelocitySQG": lambda xi1, xi2, component: (
        -_riesz(xi1, xi2, 2) if component == 1 else _riesz(xi1, xi2, 1)),
    # u = (-d2, d1) (-Lap)^{-1} omega, so that u2 = d1 (-Lap)^{-1} omega
    "VelocityBouss": lambda xi1, xi2, component: _at_zero(
        (-1j * xi2 if component == 1 else 1j * xi1) / _modulus_sq(xi1, xi2), 0.0),
}


def _one_or_two(what, j):
    if j not in (1, 2):
        raise SpectralError(f"{what} must be 1 or 2, got {j}")
    return j


class MultiplierSpec:
    """A Fourier multiplier m(xi): an entry of `SYMBOLS` and its parameters.

    Zero-mode convention: the symbols singular at xi = 0 (the generator and
    the velocities) take the value 0 there; evolved fields are kept
    zero-mean throughout.
    """

    def __init__(self, tag, **params):
        if tag not in SYMBOLS:
            raise SpectralError(f"unknown multiplier tag {tag!r}")
        self.tag = tag
        self.params = params

    @classmethod
    def deriv(cls, j):
        return cls("Deriv", j=_one_or_two("derivative direction", j))

    @classmethod
    def generator(cls, alpha):
        """-i xi_1 / |xi|^alpha, the symbol of the semigroup's generator."""
        if not 1.0 <= alpha <= 2.0:
            raise SpectralError(f"alpha must lie in [1, 2], got {alpha}")
        return cls("Generator", alpha=float(alpha))

    @classmethod
    def semigroup_phase(cls, alpha, t):
        cls.generator(alpha)  # validates alpha
        if not 0.0 <= t < np.inf:
            raise SpectralError(f"time must be nonnegative and finite, got {t}")
        return cls("SemigroupPhase", alpha=float(alpha), t=float(t))

    @classmethod
    def velocity_sqg(cls, component):
        return cls("VelocitySQG", component=_one_or_two("velocity component", component))

    @classmethod
    def velocity_bouss(cls, component):
        return cls("VelocityBouss", component=_one_or_two("velocity component", component))

    def on(self, xi1, xi2):
        """Evaluate m on the lattice (xi1, xi2), full or half, or its axes."""
        m = SYMBOLS[self.tag](xi1, xi2, **self.params)
        if not np.all(np.isfinite(m)):
            raise SpectralError(f"multiplier {self.tag} not finite on the lattice")
        return m

    def symbol(self, grid):
        """Evaluate m(xi) on the full lattice of `grid`."""
        return self.on(grid.xi1, grid.xi2)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"MultiplierSpec({self.tag}, {ps})"


def apply_multiplier(field, mult):
    """Coefficientwise product with the symbol on the half lattice, rebuilt by
    conjugate reflection, with the Nyquist lines zeroed.  Every symbol has
    m(-xi) = conj(m(xi)), so a real field maps to a real field."""
    g = field.grid
    m = mult.on(*g.xi_axes(half=True))
    return SpectralField(g, full_spectrum(field.half * m)).zero_nyquist()


def l2_norm(field):
    """L * sqrt(sum |c_k|^2), summed by numpy: a BLAS dot splits the sum
    across its threads, which moves the last digits with the thread count."""
    return weighted_norm(field, 1.0)


def sobolev_weight(grid, s):
    """Weight (1 + |xi|^2)^s of the discrete H^s norm."""
    if not -2.0 <= s <= 8.0:
        raise SpectralError(f"Sobolev index must lie in [-2, 8], got {s}")
    return (1.0 + grid.xi_sq) ** s


def weighted_norm(field, weight):
    """L * sqrt(sum weight |c_k|^2); with a `sobolev_weight` it is the H^s norm."""
    return field.grid.L * float(np.sqrt(np.sum(weight * np.abs(field.coeffs) ** 2)))


def sobolev_norm(field, s):
    """Discrete H^s norm."""
    return weighted_norm(field, sobolev_weight(field.grid, s))


def linf_norm(field):
    return float(np.max(np.abs(half_to_physical(field.grid, field.half))))


def l1_norm(field):
    """Physical L^1 norm with quadrature weight (L/N)^2, on the uncentred
    values that `per_shell` sums: a sum over the centred ones can differ in
    its last bits."""
    vals = half_to_physical(field.grid, field.half)
    return float(np.sum(np.abs(vals))) * field.grid.dx**2


def gaussian_field(grid, width=1.0, amplitude=1.0):
    """amplitude * exp(-|x|^2 / width^2) as a SpectralField."""
    x1, x2 = grid.x[:, None], grid.x[None, :]
    # in place in one (N, N) array, in the order of the formula's operations
    vals = x1**2 + x2**2
    np.negative(vals, out=vals)
    np.divide(vals, width**2, out=vals)
    np.exp(vals, out=vals)
    np.multiply(amplitude, vals, out=vals)
    half = np.fft.rfft(vals, axis=-1, norm="forward")
    del vals  # the samples go before the field is made
    return _from_row_pass(grid, half)
