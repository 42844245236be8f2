"""Grids, transforms, Fourier multipliers and discrete norms.

Everything downstream works on a periodic box [-L/2, L/2)^2 sampled on an
N x N grid (N a power of two).  A real scalar field is stored as complex
Fourier coefficients c_k normalized so that

    f(x) = sum_k c_k exp(i xi_k . x),      xi_k = (2 pi / L) k,

i.e. the forward transform divides by N^2.  With this choice a plane wave
cos(2 pi x1 / L) has exactly two coefficients of value 1/2, and Parseval
reads ||f||_{L^2} = L * sqrt(sum |c_k|^2).
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
        # |xi| with the zero mode patched to 1; multipliers define their own
        # value at xi = 0 and never read this entry.
        self.xi_mod = np.sqrt(self.xi_sq)
        self.xi_mod_safe = self.xi_mod.copy()
        self.xi_mod_safe[0, 0] = 1.0
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
        return np.real(
            sfft.ifft2(self.grid.center_phase * self.coeffs) * self.grid.N**2
        )

    def enforce_hermitian(self):
        """Symmetrize c(-k) = conj(c(k)); removes roundoff-level imaginary parts."""
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
    coeffs = grid.center_phase * sfft.fft2(values) / grid.N**2
    f = SpectralField(grid, coeffs)
    if np.isrealobj(values):
        f.enforce_hermitian()
    return f


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


class MultiplierSpec:
    """A Fourier multiplier m(xi) identified by a symbolic tag.

    Zero-mode convention: symbols singular at xi = 0 (Riesz, InvFracLap,
    velocities, semigroup phase) take the value 0 there; evolved fields are
    kept zero-mean throughout.
    """

    def __init__(self, tag, **params):
        self.tag = tag
        self.params = params

    @classmethod
    def riesz(cls, j):
        if j not in (1, 2):
            raise SpectralError(f"Riesz component must be 1 or 2, got {j}")
        return cls("Riesz", j=j)

    @classmethod
    def frac_lap(cls, s):
        return cls("FracLap", s=float(s))

    @classmethod
    def inv_frac_lap(cls, s):
        return cls("InvFracLap", s=float(s))

    @classmethod
    def deriv(cls, j):
        if j not in (1, 2):
            raise SpectralError(f"derivative direction must be 1 or 2, got {j}")
        return cls("Deriv", j=j)

    @classmethod
    def semigroup_phase(cls, alpha, t):
        if not 1.0 <= alpha <= 2.0:
            raise SpectralError(f"alpha must lie in [1, 2], got {alpha}")
        if t < 0:
            raise SpectralError(f"time must be nonnegative, got {t}")
        return cls("SemigroupPhase", alpha=float(alpha), t=float(t))

    @classmethod
    def velocity_sqg(cls, component):
        if component not in (1, 2):
            raise SpectralError(f"velocity component must be 1 or 2, got {component}")
        return cls("VelocitySQG", component=component)

    @classmethod
    def velocity_bouss(cls, component):
        if component not in (1, 2):
            raise SpectralError(f"velocity component must be 1 or 2, got {component}")
        return cls("VelocityBouss", component=component)

    def symbol(self, grid):
        """Evaluate m(xi) on the full lattice of `grid`."""
        xi1, xi2 = grid.xi1, grid.xi2
        r = grid.xi_mod_safe
        tag = self.tag
        if tag == "Riesz":
            xj = xi1 if self.params["j"] == 1 else xi2
            m = -1j * xj / r
        elif tag == "FracLap":
            m = r ** self.params["s"] + 0j
        elif tag == "InvFracLap":
            m = r ** (-self.params["s"]) + 0j
        elif tag == "Deriv":
            xj = xi1 if self.params["j"] == 1 else xi2
            m = 1j * xj + 0.0 * r
        elif tag == "SemigroupPhase":
            alpha, t = self.params["alpha"], self.params["t"]
            m = np.exp(-1j * t * xi1 / r**alpha)
        elif tag == "VelocitySQG":
            # u = (-R2, R1) theta
            if self.params["component"] == 1:
                m = 1j * xi2 / r
            else:
                m = -1j * xi1 / r
        elif tag == "VelocityBouss":
            # u = (-d2, d1) (-Lap)^{-1} omega, so that u2 = d1 (-Lap)^{-1} omega
            if self.params["component"] == 1:
                m = -1j * xi2 / grid.xi_sq.clip(min=1e-300)
            else:
                m = 1j * xi1 / grid.xi_sq.clip(min=1e-300)
        else:
            raise SpectralError(f"unknown multiplier tag {tag!r}")
        m = np.asarray(m, dtype=np.complex128)
        # singular-at-origin symbols are defined as 0 at the zero mode;
        # FracLap(s>0) and Deriv vanish there anyway, SemigroupPhase -> 1
        if tag == "SemigroupPhase":
            m[0, 0] = 1.0
        elif tag == "FracLap" and self.params["s"] <= 0:
            m[0, 0] = 0.0
        elif tag in ("Riesz", "InvFracLap", "VelocitySQG", "VelocityBouss"):
            m[0, 0] = 0.0
        if not np.all(np.isfinite(m)):
            raise AssertionError(f"multiplier {tag} not finite on the lattice")
        return m

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"MultiplierSpec({self.tag}, {ps})"


def apply_multiplier(field, mult):
    """Coefficientwise product with the symbol; re-enforces realness conventions."""
    out = SpectralField(field.grid, field.coeffs * mult.symbol(field.grid))
    out.zero_nyquist()
    out.enforce_hermitian()
    return out


def inner_product(f, g):
    """Physical L^2 inner product <f, g> via Parseval."""
    if f.grid != g.grid:
        raise SpectralError("fields live on different grids")
    return float(np.real(np.vdot(f.coeffs, g.coeffs)) * f.grid.L**2)


def l2_norm(field):
    return field.grid.L * float(np.linalg.norm(field.coeffs))


def sobolev_weight(grid, s, homogeneous=False):
    """Weight of the discrete H^s norm: (1 + |xi|^2)^s, or |xi|^{2s} (0 at
    the zero mode) for the homogeneous Hdot^s."""
    if not -2.0 <= s <= 8.0:
        raise SpectralError(f"Sobolev index must lie in [-2, 8], got {s}")
    if homogeneous:
        w = grid.xi_sq**s
        w[0, 0] = 0.0
    else:
        w = (1.0 + grid.xi_sq) ** s
    return w


def weighted_norm(field, weight):
    """L * sqrt(sum weight |c_k|^2); with a `sobolev_weight` it is the H^s norm."""
    return field.grid.L * float(np.sqrt(np.sum(weight * np.abs(field.coeffs) ** 2)))


def sobolev_norm(field, s, homogeneous=False):
    """Discrete H^s (or homogeneous Hdot^s) norm."""
    return weighted_norm(field, sobolev_weight(field.grid, s, homogeneous))


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
