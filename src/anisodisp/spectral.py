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
"""

import struct

import numpy as np
import scipy.fft as sfft

MAGIC = b"ADSP"
DUMP_VERSION = 1


class SpectralError(ValueError):
    pass


# Byte budget for the temporaries of one block of a row-blocked evaluation
# (the sharpness origin sum, the kernel quadrature).
CHUNK_BYTES = 32 << 20


def row_blocks(n_rows, row_bytes):
    """Slices covering range(n_rows) whose rows take at most CHUNK_BYTES of
    temporaries at row_bytes each (and at least one row per block)."""
    step = max(1, CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


class Grid2D:
    """Periodic N x N grid on a box of side L, with its frequency lattice."""

    def __init__(self, N, L):
        if N < 16 or (N & (N - 1)) != 0:
            raise SpectralError(f"N must be a power of two >= 16, got {N}")
        if not 0 < L < np.inf:
            raise SpectralError(f"box side must be positive and finite, got {L}")
        self.N = int(N)
        self.L = float(L)
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integer wavenumbers
        self.k1 = k[:, None]
        self.k2 = k[None, :]
        scale = 2.0 * np.pi / self.L
        self.xi1 = scale * self.k1 + 0.0 * self.k2
        self.xi2 = scale * self.k2 + 0.0 * self.k1
        self.xi_sq = self.xi1**2 + self.xi2**2
        self.xi_mod = np.sqrt(self.xi_sq)
        self.xi_mod_safe = np.sqrt(_modulus_sq(self.xi1, self.xi2))
        # Nyquist rows have no Hermitian partner on the lattice
        ny = self.N // 2
        self.nyquist_mask = np.zeros((self.N, self.N), dtype=bool)
        self.nyquist_mask[ny, :] = True
        self.nyquist_mask[:, ny] = True
        self.x = np.arange(self.N) * self.L / self.N - self.L / 2.0
        self.dx = self.L / self.N
        # physical samples start at -L/2; this checkerboard factor shifts the
        # DFT so coefficients refer to exp(i xi . x) in centered coordinates
        sign1 = np.where(np.mod(self.k1, 2) == 0, 1.0, -1.0)
        sign2 = np.where(np.mod(self.k2, 2) == 0, 1.0, -1.0)
        self.center_phase = sign1 * sign2

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.N == other.N and self.L == other.L

    def __hash__(self):
        return hash((self.N, self.L))

    def __repr__(self):
        return f"Grid2D(N={self.N}, L={self.L})"

    def meshgrid(self):
        return np.meshgrid(self.x, self.x, indexing="ij")


class SpectralField:
    """A real scalar field stored as Hermitian-symmetric Fourier coefficients."""

    def __init__(self, grid, coeffs):
        if coeffs.shape != (grid.N, grid.N):
            raise SpectralError(
                f"coefficient array shape {coeffs.shape} does not match grid N={grid.N}"
            )
        self.grid = grid
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self):
        phase = half_spectrum(self.grid.center_phase)
        return sfft.irfft2(phase * half_spectrum(self.coeffs), norm="forward")

    def enforce_hermitian(self):
        """Symmetrize c(-k) = conj(c(k)), for coefficients set from outside."""
        c = self.coeffs
        flipped = np.conj(c[::-1, ::-1])
        self.coeffs = 0.5 * (c + np.roll(flipped, (1, 1), axis=(0, 1)))
        return self

    def zero_nyquist(self):
        self.coeffs[self.grid.nyquist_mask] = 0.0
        return self

    def zero_mean(self):
        self.coeffs[0, 0] = 0.0
        return self

    def hermitian_defect(self):
        c = self.coeffs
        flipped = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
        return float(np.max(np.abs(c - flipped)))


def forward_transform(values, grid):
    """Physical-space real array -> SpectralField.  Round trip is exact to rounding."""
    values = np.asarray(values)
    if values.shape != (grid.N, grid.N):
        raise SpectralError(
            f"field shape {values.shape} does not match grid N={grid.N}"
        )
    if np.iscomplexobj(values):
        raise SpectralError("physical values must be real")
    half = half_spectrum(grid.center_phase) * sfft.rfft2(values, norm="forward")
    return SpectralField(grid, full_spectrum(half))


def inverse_transform(field):
    return field.to_physical()


def half_spectrum(coeffs):
    """The k2 >= 0 half (..., N, N//2 + 1) of a real field's spectrum, the
    part that `scipy.fft.rfft2` returns and `irfft2` reads."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def full_spectrum(half):
    """The (..., N, N) spectrum rebuilt from its half by conjugate reflection.

    The k2 > N/2 columns are c(k) = conj(c(-k)), and the k1 > N/2 entries of
    the k2 = 0 and k2 = N/2 columns are reflected the same way, so the result
    is exactly Hermitian apart from the four self-conjugate modes (the mean
    and the Nyquist corners), which are copied as given.
    """
    N = half.shape[-2]
    M = N // 2 + 1
    neg = -np.arange(N) % N
    full = np.empty(half.shape[:-1] + (N,), dtype=np.complex128)
    full[..., :M] = half
    full[..., M:] = np.conj(half[..., neg, M - 2 : 0 : -1])
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


def _riesz(xi1, xi2, j, alpha=1.0):
    # -i xi_j / |xi|^alpha: the Riesz transform R_j, and for j = 1 the generator
    # of the semigroup; the quotient is real, so -Im(m) is exactly xi_j/|xi|^alpha
    xj = xi1 if j == 1 else xi2
    return _at_zero(-1j * (xj / np.sqrt(_modulus_sq(xi1, xi2)) ** alpha), 0.0)


def _frac_lap(xi1, xi2, s):
    # |xi|^s; at xi = 0 it is |0|^s = 0 for s > 0, the identity's 1 for s = 0,
    # and the singular convention 0 for s < 0
    return _at_zero(np.sqrt(_modulus_sq(xi1, xi2)) ** s + 0j, 1.0 if s == 0 else 0.0)


# Every Fourier symbol m(xi1, xi2, **params) of the package, each written once.
# The lattice may be the full (N, N) one or the (N, N//2 + 1) half that rfft2
# stores; both hold xi = 0 at [0, 0], whose value each entry sets itself.
SYMBOLS = {
    "Deriv": lambda xi1, xi2, j: _at_zero(1j * (xi1 if j == 1 else xi2), 0.0),
    "Riesz": _riesz,
    "FracLap": _frac_lap,
    "InvFracLap": lambda xi1, xi2, s: _frac_lap(xi1, xi2, -s),
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

    Zero-mode convention: symbols singular at xi = 0 (Riesz, FracLap with
    s < 0, InvFracLap with s > 0, velocities, the generator) take the value 0
    there; evolved fields are kept zero-mean throughout.
    """

    def __init__(self, tag, **params):
        if tag not in SYMBOLS:
            raise SpectralError(f"unknown multiplier tag {tag!r}")
        self.tag = tag
        self.params = params

    @classmethod
    def riesz(cls, j):
        return cls("Riesz", j=_one_or_two("Riesz component", j))

    @classmethod
    def frac_lap(cls, s):
        return cls("FracLap", s=float(s))

    @classmethod
    def inv_frac_lap(cls, s):
        return cls("InvFracLap", s=float(s))

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
        if t < 0:
            raise SpectralError(f"time must be nonnegative, got {t}")
        return cls("SemigroupPhase", alpha=float(alpha), t=float(t))

    @classmethod
    def velocity_sqg(cls, component):
        return cls("VelocitySQG", component=_one_or_two("velocity component", component))

    @classmethod
    def velocity_bouss(cls, component):
        return cls("VelocityBouss", component=_one_or_two("velocity component", component))

    def on(self, xi1, xi2):
        """Evaluate m on the lattice (xi1, xi2), full or half."""
        m = SYMBOLS[self.tag](xi1, xi2, **self.params)
        if not np.all(np.isfinite(m)):
            raise AssertionError(f"multiplier {self.tag} not finite on the lattice")
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
    m = mult.on(half_spectrum(g.xi1), half_spectrum(g.xi2))
    return SpectralField(g, full_spectrum(half_spectrum(field.coeffs) * m)).zero_nyquist()


def inner_product(f, g):
    """Physical L^2 inner product <f, g> via Parseval."""
    if f.grid != g.grid:
        raise SpectralError("fields live on different grids")
    return float(np.real(np.vdot(f.coeffs, g.coeffs)) * f.grid.L**2)


def l2_norm(field):
    return field.grid.L * float(np.linalg.norm(field.coeffs))


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
    return float(np.max(np.abs(field.to_physical())))


def l1_norm(field):
    """Physical L^1 norm with quadrature weight (L/N)^2."""
    return float(np.sum(np.abs(field.to_physical()))) * field.grid.dx**2


def lp_norm(field, p):
    if p == 1:
        return l1_norm(field)
    if p == 2:
        return l2_norm(field)
    if np.isinf(p):
        return linf_norm(field)
    raise SpectralError(f"only p in {{1, 2, inf}} supported, got {p}")


def gaussian_field(grid, width=1.0, amplitude=1.0, center=(0.0, 0.0)):
    """amplitude * exp(-|x - center|^2 / width^2) as a SpectralField."""
    X, Y = grid.meshgrid()
    vals = amplitude * np.exp(
        -((X - center[0]) ** 2 + (Y - center[1]) ** 2) / width**2
    )
    return forward_transform(vals, grid)


def write_field(path, field):
    """Binary dump: little-endian header {ADSP, version, N, L}, then N^2 complex pairs."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", DUMP_VERSION))
        fh.write(struct.pack("<I", field.grid.N))
        fh.write(struct.pack("<d", field.grid.L))
        # row-major wavenumber order, k2 fastest
        fh.write(field.coeffs.astype("<c16").tobytes(order="C"))


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise SpectralError(f"bad magic {magic!r} in field dump")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != DUMP_VERSION:
            raise SpectralError(f"unsupported dump version {version}")
        (N,) = struct.unpack("<I", fh.read(4))
        (L,) = struct.unpack("<d", fh.read(8))
        grid = Grid2D(N, L)
        data = np.frombuffer(fh.read(16 * N * N), dtype="<c16").reshape(N, N)
        return SpectralField(grid, data.astype(np.complex128))
