"""Dyadic frequency projectors and homogeneous Besov norms.

The radial bump is built from the standard smooth cutoff

    chi(r) = 1 for r <= 1,  0 for r >= 2,
    chi(r) = h(2 - r) / (h(2 - r) + h(r - 1)),   h(s) = exp(-1/s),

and psi(r) = chi(r) - chi(2r), supported in 1/2 <= r <= 2.  The dyadic sum
sum_j psi(2^{-j} r) telescopes to 1 away from r = 0.  The fattened bump
psi_fat(r) = chi(r/2) - chi(4r) equals 1 on the support of psi and is
supported in 1/4 <= r <= 4.
"""

import numpy as np

from .spectral import (
    ROW_PASS_BYTES,
    SpectralError,
    SpectralField,
    Worker,
    full_spectrum,
    physical_rows,
    row_blocks,
)


def _smooth_step(s):
    """C^inf step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


def chi(r):
    """Radial cutoff: 1 on [0, 1], 0 on [2, inf)."""
    return _smooth_step(2.0 - np.asarray(r, dtype=float))


def bump(r):
    """psi(r) = chi(r) - chi(2r); support [1/2, 2], dyadic partition of unity."""
    r = np.asarray(r, dtype=float)
    return chi(r) - chi(2.0 * r)


def bump_fattened(r):
    """psi_fat = 1 on supp psi, support [1/4, 4]."""
    r = np.asarray(r, dtype=float)
    return chi(r / 2.0) - chi(4.0 * r)


def shell_field(grid, j=0):
    """Radial field whose spectrum is the shell-j bump: smooth, radial,
    nonzero at the origin, and supported away from the symbol singularity
    at xi = 0 (so the periodic box sees no slow dispersive tails).  The bump
    is real and even in xi, so it is evaluated on the half lattice alone and
    `full_spectrum` writes the rest."""
    xi1, xi2 = grid.xi_axes(half=True)
    half = bump(np.sqrt(xi1**2 + xi2**2) * 2.0 ** (-j))
    return SpectralField(grid, full_spectrum(half)).zero_nyquist()


class LPBank:
    """Littlewood-Paley projector family for one grid.

    j_range covers the dyadic shells fully resolved by the frequency lattice:
    2^{j_min} is at least the lattice spacing 2 pi / L and 2^{j_max + 1} stays
    below the Nyquist frequency pi N / L.
    """

    def __init__(self, grid):
        self.grid = grid
        xi_min = 2.0 * np.pi / grid.L
        xi_max = np.pi * grid.N / grid.L
        self.j_min = int(np.ceil(np.log2(xi_min)))
        self.j_max = int(np.floor(np.log2(xi_max))) - 1
        if self.j_max < self.j_min:
            raise SpectralError("grid too coarse for any dyadic shell")
        self.j_range = range(self.j_min, self.j_max + 1)

    def partition_defect(self, xi_mod):
        """max |sum_j psi(2^-j xi) - 1| over the given moduli (valid shell band)."""
        total = np.zeros_like(xi_mod)
        for j in self.j_range:
            total += bump(xi_mod * 2.0 ** (-j))
        return float(np.max(np.abs(total - 1.0)))

    def besov_norm(self, field, a):
        """Homogeneous Besov norm B^a_{1,1}: the sum of the `per_shell` sequence."""
        return float(np.sum(list(self.per_shell(field, a).values())))

    def per_shell(self, field, a):
        """The sequence 2^{ja} ||Q_j f||_{L^1} indexed by j.

        Q_j uses the fattened bump, matching how the shell pieces enter the
        decay estimate.  The pieces stay on the half lattice of a real field,
        and each L^1 norm is a physical-space quadrature.  A piece is built
        and transformed only on the first K columns of the half lattice, those
        with |xi_2| < 4 * 2^j, outside which the bump is exactly 0.  Its bump
        is evaluated in row blocks on the rows k1 = 0 .. N/2 only and
        multiplied into each row k1 and its mirror N - k1, which holds -k1
        and so the same |xi|, bit for bit; its values are summed in row
        blocks (`_abs_sum`), so no (N, N) array is made, their transforms
        split with one `Worker` held for all the shells.  The bump holds the
        GIL in many small calls, so it runs on this thread alone.
        """
        if not 0.0 <= a <= 6.0:
            raise SpectralError(f"Besov regularity must lie in [0, 6], got {a}")
        g = self.grid
        ny = g.N // 2
        half = field.half
        xi1, xi2 = g.xi_axes(half=True)
        # row 0 holds each column's smallest |xi|, rising column by column
        edge = np.sqrt(xi1[0] ** 2 + xi2[0] ** 2)
        terms = {}
        with Worker() as worker:
            for j in self.j_range:
                K = int(np.count_nonzero(edge * 2.0 ** (-j) < 4.0))
                piece = np.empty((g.N, K), dtype=np.complex128)
                # about ten float temporaries of the block's shape make the bump
                for rows in row_blocks(ny + 1, 80 * K, ROW_PASS_BYTES):
                    r = np.sqrt(xi1[rows] ** 2 + xi2[:, :K] ** 2)
                    r *= 2.0 ** (-j)
                    b = bump_fattened(r)
                    np.multiply(half[rows, :K], b, out=piece[rows])
                    # row N - k1 holds -k1 and so the bump of row k1, 0 < k1 < N/2
                    lo, hi = max(rows.start, 1), min(rows.stop, ny)
                    mirror = slice(g.N - hi + 1, g.N - lo + 1)
                    np.multiply(half[mirror, :K], b[lo - rows.start : hi - rows.start][::-1],
                                out=piece[mirror])
                norm = 0.0
                if np.any(piece):
                    norm = _abs_sum(g, piece, worker) * g.dx**2
                # freed before the next shell's arrays are made
                del piece
                terms[j] = 2.0 ** (j * a) * norm
        return terms


def _abs_sum(grid, piece, worker):
    """`np.sum(np.abs(half_to_physical(grid, piece)))` bit for bit, from the
    row blocks of `physical_rows` (which overwrites `piece`), split between
    the shares of `worker`.  numpy sums a contiguous power-of-two count of
    floats pairwise by halves, so the sums of the equal power-of-two blocks,
    taken in block order and combined pairwise in the same binary tree, give
    its bits; a running sum of the blocks would not."""
    partial = []  # (level, sum) of finished subtrees, levels decreasing
    for block_sum in physical_rows(grid, piece, _sum_abs, worker):
        level, total = 0, block_sum
        while partial and partial[-1][0] == level:
            total = partial.pop()[1] + total
            level += 1
        partial.append((level, total))
    [(_, total)] = partial
    return float(total)


def _sum_abs(vals):
    return np.sum(np.abs(vals, out=vals))
