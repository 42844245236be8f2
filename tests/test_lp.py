import numpy as np
import pytest

from anisodisp import lp, spectral
from anisodisp.lp import LPBank, bump, bump_fattened, chi, shell_field
from anisodisp.spectral import (
    Grid2D,
    SpectralError,
    SpectralField,
    forward_transform,
    gaussian_field,
    l1_norm,
    row_blocks,
)
from conftest import hermitian_defect, random_field


def test_chi_plateaus():
    r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    assert np.array_equal(chi(r), [1.0, 1.0, 1.0, 0.0, 0.0])
    mid = chi(np.linspace(1.0, 2.0, 101))
    assert np.all(np.diff(mid) <= 1e-12)  # monotone down


def test_bump_support_and_telescoping():
    r = np.geomspace(0.01, 100.0, 4001)
    psi = bump(r)
    assert np.all(psi[(r < 0.5) | (r > 2.0)] == 0.0)
    total = sum(bump(r * 2.0**-j) for j in range(-10, 11))
    inside = (r > 0.5 * 2.0**-10) & (r < 2.0**10)
    assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


def test_fattened_covers_bump():
    r = np.geomspace(0.1, 10.0, 2001)
    fat = bump_fattened(r)
    psi = bump(r)
    assert np.all(fat[psi > 0.0] >= 1.0 - 1e-12)
    assert np.all(fat[(r < 0.25) | (r > 4.0)] == 0.0)


def test_j_range(grid64):
    bank = LPBank(grid64)
    xi_min = 2.0 * np.pi / grid64.L
    xi_max = np.pi * grid64.N / grid64.L
    assert 2.0**bank.j_min >= xi_min - 1e-12
    assert 2.0 ** (bank.j_max + 1) <= xi_max + 1e-12


def project(f, j, fattened=False):
    """The shell-j Littlewood-Paley piece of f on the full lattice."""
    g = f.grid
    prof = bump_fattened if fattened else bump
    return SpectralField(g, f.coeffs * prof(g.xi_mod * 2.0 ** (-j)))


def test_project_plane_waves():
    # box chosen so the lattice hits |xi0| = 1 exactly, where psi(1) = 1
    grid = Grid2D(64, 4.0 * np.pi)
    bank = LPBank(grid)
    X = np.broadcast_to(grid.x[:, None], (grid.N, grid.N))  # x1 at each point
    f = forward_transform(np.cos(X), grid)
    same = project(f, 0)
    assert np.max(np.abs(same.coeffs - f.coeffs)) <= 1e-12
    gone = project(f, bank.j_max)
    assert np.max(np.abs(gone.coeffs)) <= 1e-14


def test_partition_of_unity_on_lattice(grid64):
    bank = LPBank(grid64)
    xi = grid64.xi_mod
    band = (xi >= 2.0 ** bank.j_min) & (xi <= 2.0 ** bank.j_max)
    assert bank.partition_defect(xi[band]) <= 1e-12


def test_projection_reconstructs_band_limited(grid64):
    """Sum of P_j recovers any field spectrally supported in the valid band."""
    bank = LPBank(grid64)
    f = random_field(grid64, seed=20)
    band = (grid64.xi_mod >= 2.0 ** bank.j_min) & (
        grid64.xi_mod <= 2.0 ** bank.j_max
    )
    f.coeffs *= band
    total = np.zeros_like(f.coeffs)
    for j in bank.j_range:
        total += project(f, j).coeffs
    assert np.max(np.abs(total - f.coeffs)) <= 1e-12


def test_besov_validation(grid64):
    bank = LPBank(grid64)
    f = random_field(grid64)
    for a in (-0.5, 7.0):
        with pytest.raises(SpectralError):
            bank.besov_norm(f, a)


def test_per_shell_validation(grid64):
    """per_shell makes besov_norm's regularity check, before any shell."""
    bank = LPBank(grid64)
    f = random_field(grid64)
    with pytest.raises(SpectralError):
        bank.per_shell(f, 7.0)
    with pytest.raises(SpectralError):  # every piece is zero, so no norm is taken
        bank.per_shell(SpectralField(grid64, np.zeros_like(f.coeffs)), 7.0)


@pytest.mark.parametrize("make", [
    lambda g: random_field(g, seed=22, width=3.0),
    lambda g: gaussian_field(g, width=1.5).zero_mean(),
    lambda g: shell_field(g, j=1),
])
def test_per_shell_equals_full_lattice_projection(monkeypatch, make):
    """The half-lattice shells give the bits of the L^1 norms of the full
    projections, whose values `l1_norm` sums as one array: with the values
    in one row block, and in 8 blocks (a budget of 16 rows), whose sums are
    combined pairwise."""
    grid = Grid2D(128, 60.0)
    bank = LPBank(grid)
    f = make(grid)
    for blocks in (1, 8):
        monkeypatch.setattr(spectral, "ROW_PASS_BYTES", 8 * grid.N * grid.N // blocks)
        assert len(list(row_blocks(grid.N, 8 * grid.N, spectral.ROW_PASS_BYTES))) == blocks
        got = bank.per_shell(f, 1.5)
        assert list(got) == list(bank.j_range)
        for j, value in got.items():
            assert value == 2.0 ** (j * 1.5) * l1_norm(project(f, j, fattened=True))


@pytest.mark.parametrize("rows", [None, 5, 1])
@pytest.mark.parametrize("N", [16, 128, 1024])
def test_per_shell_mirrored_bump_has_the_bits_of_all_rows(monkeypatch, N, rows):
    """The bump is evaluated on the rows k1 = 0 .. N/2 alone and multiplied
    into rows k1 and N - k1: each shell's piece has the bits of the bump
    evaluated on all N rows, with the rows in one block (None), or in
    blocks of at least 5 rows or of one row."""
    grid = Grid2D(N, 0.39 * N)
    f = gaussian_field(grid, width=1.0).zero_mean()
    if rows is not None:
        monkeypatch.setattr(lp, "ROW_PASS_BYTES", 80 * rows * (N // 2 + 1))
    pieces = []

    def recorded(grid, piece, shares):
        pieces.append(piece.copy())
        return abs_sum(grid, piece, shares)

    abs_sum = lp._abs_sum
    monkeypatch.setattr(lp, "_abs_sum", recorded)
    bank = LPBank(grid)
    bank.per_shell(f, 2.0)
    assert len(pieces) == len(bank.j_range) > 0
    xi1, xi2 = grid.xi_axes(half=True)
    for j, piece in zip(bank.j_range, pieces):
        K = piece.shape[1]
        r = np.sqrt(xi1**2 + xi2[:, :K] ** 2) * 2.0 ** (-j)
        assert piece.tobytes() == (f.half[:, :K] * bump_fattened(r)).tobytes()


def test_per_shell_of_zero_field_is_zero(grid64):
    bank = LPBank(grid64)
    zero = SpectralField(grid64, np.zeros((64, 64), dtype=complex))
    assert set(bank.per_shell(zero, 2.0).values()) == {0.0}
    assert bank.besov_norm(zero, 2.0) == 0.0


def test_besov_single_shell_scaling(grid64):
    """Each term of a one-shell field is 2^{ja} times its a = 0 term, and
    the norm is the sum of the terms."""
    bank = LPBank(grid64)
    f = shell_field(grid64, j=1)
    base = bank.per_shell(f, 0.0)
    per = bank.per_shell(f, 2.0)
    for j, value in per.items():
        assert abs(value - 4.0**j * base[j]) <= 1e-14 * value
    assert abs(bank.besov_norm(f, 2.0) - sum(per.values())) <= 1e-14 * sum(per.values())
    assert per[1] > 0.0


def test_besov_monotone_in_regularity(grid64):
    bank = LPBank(grid64)
    f = random_field(grid64, seed=21)
    # weights 2^{ja} grow with a on shells j >= 1; restrict support there
    f.coeffs *= grid64.xi_mod >= 2.0
    assert bank.besov_norm(f, 3.0) >= bank.besov_norm(f, 2.0)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("N, L", [(16, 10.0), (64, 40.0), (512, 400.0)])
def test_shell_field_equals_full_lattice_formula(N, L, j):
    """The half-lattice shell and its Hermitian rebuild give the values of the
    bump evaluated on the whole lattice; only the sign of some zero imaginary
    parts may differ, which np.array_equal does not see."""
    grid = Grid2D(N, L)
    xi1, xi2 = grid.xi_axes()
    want = bump(np.sqrt(xi1**2 + xi2**2) * 2.0 ** (-j)).astype(np.complex128)
    want[N // 2] = want[:, N // 2] = 0.0
    assert np.array_equal(shell_field(grid, j).coeffs, want)


def test_shell_field_properties(grid64):
    f = shell_field(grid64)
    assert hermitian_defect(f) == 0.0
    assert f.coeffs[0, 0] == 0.0
    vals = f.to_physical()
    assert np.sum(f.coeffs).real > 0.0
    # radial: invariant under x -> -x up to grid reflection
    flipped = np.roll(vals[::-1, ::-1], (1, 1), axis=(0, 1))
    assert np.max(np.abs(vals - flipped)) <= 1e-12 * np.max(np.abs(vals))
