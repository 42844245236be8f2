import numpy as np
import pytest

from anisodisp.spectral import Grid2D, SpectralField


@pytest.fixture
def grid32():
    return Grid2D(32, 10.0)


@pytest.fixture
def grid64():
    return Grid2D(64, 10.0)


def random_field(grid, seed=0, width=2.0):
    """Seeded smooth random real field, zero-mean, Nyquist-free."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((grid.N, grid.N)) + 1j * rng.standard_normal(
        (grid.N, grid.N)
    )
    c *= np.exp(-grid.xi_sq / (2.0 * width**2))
    f = SpectralField(grid, c)
    f.enforce_hermitian().zero_nyquist().zero_mean()
    return f


def nyquist_mask(grid):
    """The k1 = N/2 row and the k2 = N/2 column: the modes with no Hermitian
    partner on the lattice."""
    mask = np.zeros((grid.N, grid.N), dtype=bool)
    mask[grid.N // 2, :] = mask[:, grid.N // 2] = True
    return mask


def hermitian_defect(field):
    """max |c(k) - conj(c(-k))| over the lattice: 0 for an exactly real field."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))))))


def grid_arrays(grid):
    """The names of the arrays a grid keeps: its lattice arrays are built
    anew on each read, so only the wavenumbers `k` and the samples `x`."""
    return sorted(name for name, value in vars(grid).items() if isinstance(value, np.ndarray))


def cosine(a, b):
    """Re <a, b> / (|a| |b|) of two coefficient arrays: by Parseval, the
    normalized L^2 inner product of the fields."""
    return float(np.real(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
