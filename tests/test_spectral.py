import numpy as np
import pytest

from anisodisp.spectral import (
    SYMBOLS,
    Grid2D,
    MultiplierSpec,
    SpectralError,
    SpectralField,
    apply_multiplier,
    forward_transform,
    gaussian_field,
    inner_product,
    inverse_transform,
    l1_norm,
    l2_norm,
    linf_norm,
    lp_norm,
    read_field,
    sobolev_norm,
    write_field,
)
from conftest import random_field


# ---------------------------------------------------------------------------
# grid and transform basics

def test_grid_rejects_bad_sizes():
    with pytest.raises(SpectralError):
        Grid2D(8, 10.0)
    with pytest.raises(SpectralError):
        Grid2D(48, 10.0)
    with pytest.raises(SpectralError):
        Grid2D(32, -1.0)


def test_roundtrip_is_identity(grid64):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((64, 64))
    back = inverse_transform(forward_transform(vals, grid64))
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_forward_rejects_shape_mismatch(grid64):
    with pytest.raises(SpectralError):
        forward_transform(np.zeros((32, 32)), grid64)


def test_plane_wave_coefficients(grid64):
    """cos(2 pi x / L) has exactly two coefficients of value 1/2."""
    X, _ = grid64.meshgrid()
    f = forward_transform(np.cos(2.0 * np.pi * X / grid64.L), grid64)
    c = f.coeffs
    assert abs(c[1, 0] - 0.5) <= 1e-13
    assert abs(c[-1, 0] - 0.5) <= 1e-13
    c[1, 0] = c[-1, 0] = 0.0
    assert np.max(np.abs(c)) <= 1e-13


def test_forward_output_is_hermitian(grid64):
    rng = np.random.default_rng(3)
    f = forward_transform(rng.standard_normal((64, 64)), grid64)
    assert f.hermitian_defect() <= 1e-14


def test_parseval(grid64):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((64, 64))
    f = forward_transform(vals, grid64)
    direct = np.sqrt(np.sum(vals**2) * grid64.dx**2)
    assert abs(l2_norm(f) - direct) <= 1e-12 * direct


def test_inner_product_matches_quadrature(grid64):
    f = random_field(grid64, seed=5)
    g = random_field(grid64, seed=6)
    fp, gp = f.to_physical(), g.to_physical()
    direct = np.sum(fp * gp) * grid64.dx**2
    assert abs(inner_product(f, g) - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_sobolev_norm_plane_wave(grid64):
    """H^s of cos(xi0 . x) is L * sqrt(2 * (1/4)) * (1+|xi0|^2)^{s/2}."""
    X, _ = grid64.meshgrid()
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
    assert abs(lp_norm(f, np.inf) - linf_norm(f)) == 0.0
    # Gaussian integral: pi * width^2 (box is much larger than the bump)
    assert abs(l1_norm(f) - np.pi) <= 1e-3
    with pytest.raises(SpectralError):
        lp_norm(f, 3)


# ---------------------------------------------------------------------------
# multipliers

def test_multiplier_validation():
    with pytest.raises(SpectralError):
        MultiplierSpec.riesz(3)
    with pytest.raises(SpectralError):
        MultiplierSpec.deriv(0)
    with pytest.raises(SpectralError):
        MultiplierSpec.semigroup_phase(0.5, 1.0)
    with pytest.raises(SpectralError):
        MultiplierSpec.semigroup_phase(1.0, -1.0)
    with pytest.raises(SpectralError):
        MultiplierSpec.generator(2.5)


def test_riesz_is_skew_adjoint(grid64):
    f = random_field(grid64, seed=7)
    g = random_field(grid64, seed=8)
    r1 = MultiplierSpec.riesz(1)
    lhs = inner_product(f, apply_multiplier(g, r1))
    rhs = -inner_product(apply_multiplier(f, r1), g)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # and <f, R1 f> = 0
    assert abs(inner_product(f, apply_multiplier(f, r1))) <= 1e-12


def test_multipliers_commute(grid64):
    f = random_field(grid64, seed=9)
    pairs = [
        (MultiplierSpec.riesz(1), MultiplierSpec.frac_lap(0.5)),
        (MultiplierSpec.deriv(2), MultiplierSpec.semigroup_phase(1.0, 3.0)),
        (MultiplierSpec.velocity_sqg(1), MultiplierSpec.inv_frac_lap(1.0)),
    ]
    for m1, m2 in pairs:
        a = apply_multiplier(apply_multiplier(f, m1), m2)
        b = apply_multiplier(apply_multiplier(f, m2), m1)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


def test_frac_lap_inverts(grid64):
    f = random_field(grid64, seed=10)
    g = apply_multiplier(
        apply_multiplier(f, MultiplierSpec.frac_lap(1.0)),
        MultiplierSpec.inv_frac_lap(1.0),
    )
    ref = f.copy()
    ref.zero_nyquist().zero_mean()
    assert np.max(np.abs(g.coeffs - ref.coeffs)) <= 1e-12


def test_velocities_divergence_free(grid64):
    f = random_field(grid64, seed=11)
    d1, d2 = MultiplierSpec.deriv(1), MultiplierSpec.deriv(2)
    for vel in (MultiplierSpec.velocity_sqg, MultiplierSpec.velocity_bouss):
        u1 = apply_multiplier(f, vel(1))
        u2 = apply_multiplier(f, vel(2))
        div = apply_multiplier(u1, d1).coeffs + apply_multiplier(u2, d2).coeffs
        assert np.max(np.abs(div)) <= 1e-12


def test_multiplier_keeps_field_real(grid64):
    f = random_field(grid64, seed=12)
    for m in (
        MultiplierSpec.riesz(2),
        MultiplierSpec.semigroup_phase(1.5, 7.0),
        MultiplierSpec.velocity_bouss(2),
    ):
        g = apply_multiplier(f, m)
        assert g.hermitian_defect() <= 1e-13


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_frac_lap_zero_mode(grid64, s):
    """|0|^s is 0 for s > 0, the identity's 1 for s = 0, and the singular
    convention 0 for s < 0; inv_frac_lap(s) is frac_lap(-s) entry for entry."""
    m = MultiplierSpec.frac_lap(s).symbol(grid64)
    assert m[0, 0] == (1.0 if s == 0 else 0.0)
    assert np.array_equal(MultiplierSpec.inv_frac_lap(-s).symbol(grid64), m)


# one instance of every table entry, with its documented value at xi = 0
TABLE_ZERO_MODES = [
    (MultiplierSpec.deriv(1), 0.0),
    (MultiplierSpec.deriv(2), 0.0),
    (MultiplierSpec.riesz(1), 0.0),
    (MultiplierSpec.riesz(2), 0.0),
    (MultiplierSpec.frac_lap(0.5), 0.0),
    (MultiplierSpec.inv_frac_lap(0.5), 0.0),
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
    inner = ~grid64.nyquist_mask
    for mult, zero in TABLE_ZERO_MODES:
        m = mult.symbol(grid64)
        assert np.array_equal(m[neg][:, neg][inner], np.conj(m)[inner]), mult
        assert m[0, 0] == zero, mult


def test_unknown_tag_rejected():
    with pytest.raises(SpectralError):
        MultiplierSpec("NoSuchSymbol")


# ---------------------------------------------------------------------------
# binary dump

def test_field_dump_roundtrip(tmp_path, grid64):
    f = random_field(grid64, seed=13)
    path = tmp_path / "field.adsp"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == grid64
    assert np.array_equal(g.coeffs, f.coeffs)


def test_field_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.adsp"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SpectralError):
        read_field(path)
