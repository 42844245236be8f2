"""Direct analysis of the phase phi(xi) = v . xi - xi_1/|xi|^alpha.

Closed-form gradient, Hessian and stationary set on the unit annulus,
brute-force oscillatory quadrature of the shell-localized kernel, and the
near/far splitting budget whose optimal cut reproduces the
t^{-1/2} decay.

Note on signs: the closed forms below are the ones that match central
finite differences of phi (see the tests).  In particular the Hessian
determinant is

    det H_phi = -alpha^2 ((alpha - 1) xi_1^2 + xi_2^2) / |xi|^{2 alpha + 4},

which is <= 0 for every alpha in [1, 2], vanishing exactly on the line
xi_2 = 0 when alpha = 1 and nowhere (away from the origin) when alpha > 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .lp import bump
from .spectral import SpectralError, Worker, row_blocks, share_of


class QuadratureBudgetError(SpectralError):
    """The oscillatory quadrature could not verify its tolerance in budget."""


@dataclass(frozen=True)
class PhaseSpec:
    v: tuple  # velocity parameter x/t
    alpha: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.alpha <= 2.0:
            raise SpectralError(f"alpha must lie in [1, 2], got {self.alpha}")
        if not np.all(np.isfinite(self.v)):
            raise SpectralError("velocity parameter must be finite")


@dataclass
class StationarySet:
    points: list
    degenerate_flag: bool
    residuals: list = field(default_factory=list)


def _check_nonzero(xi):
    xi = np.asarray(xi, dtype=float)
    if np.hypot(xi[..., 0], xi[..., 1]).min() == 0.0:
        raise SpectralError("phase is singular at xi = 0")
    return xi


def phase_value(p, xi):
    xi = _check_nonzero(xi)
    r = np.hypot(xi[..., 0], xi[..., 1])
    return p.v[0] * xi[..., 0] + p.v[1] * xi[..., 1] - xi[..., 0] / r**p.alpha


def phase_gradient(p, xi):
    xi = _check_nonzero(xi)
    x1, x2 = xi[..., 0], xi[..., 1]
    r2 = x1**2 + x2**2
    w = r2 ** (-(p.alpha + 2.0) / 2.0)
    g1 = p.v[0] + ((p.alpha - 1.0) * x1**2 - x2**2) * w
    g2 = p.v[1] + p.alpha * x1 * x2 * w
    return np.stack([g1, g2], axis=-1)


def phase_hessian(p, xi):
    """Full 2x2 Hessian of phi (independent of v)."""
    xi = _check_nonzero(xi)
    x1, x2 = xi[..., 0], xi[..., 1]
    a = p.alpha
    r2 = x1**2 + x2**2
    w = r2 ** (-(a + 4.0) / 2.0)
    h11 = -a * w * x1 * ((a + 2.0) * x1**2 - 3.0 * r2)
    h12 = -a * w * x2 * ((a + 2.0) * x1**2 - r2)
    h22 = -a * w * x1 * ((a + 2.0) * x2**2 - r2)
    H = np.empty(xi.shape[:-1] + (2, 2))
    H[..., 0, 0] = h11
    H[..., 0, 1] = h12
    H[..., 1, 0] = h12
    H[..., 1, 1] = h22
    return H


def hessian_det(p, xi):
    xi = _check_nonzero(xi)
    x1, x2 = xi[..., 0], xi[..., 1]
    a = p.alpha
    r2 = x1**2 + x2**2
    return -(a**2) * ((a - 1.0) * x1**2 + x2**2) * r2 ** (-(a + 2.0))


GRAD_TOL = 1e-10
DEGENERATE_TOL = 1e-8


def find_stationary(p):
    """Stationary points of phi on the annulus 1/2 <= |xi| <= 2 of shell
    j = 0, in closed form.

    With xi = r (cos th, sin th), grad phi = 0 reads v = r^{-alpha} w(th),
    w = (1 - alpha cos^2 th, -alpha cos th sin th).  So w is parallel to v,
    that is cos(2 th + atan2(v_1, v_2)) = (2 - alpha) v_2 / (alpha |v|),
    which has at most four roots th in [0, 2 pi); w points the same way as
    v; and r = (|w| / |v|)^{1/alpha}.

    At v = 0 the gradient vanishes only where w does: nowhere when
    alpha > 1, and on the whole line xi_2 = 0, with singular Hessian, when
    alpha = 1.  That continuum is returned as one representative per arc
    with the degenerate flag set, never as a point list.
    """
    r_lo, r_hi = 0.5, 2.0
    v1, v2 = p.v
    a = p.alpha
    if v1 == 0.0 and v2 == 0.0:
        if a > 1.0:
            return StationarySet(points=[], degenerate_flag=False)
        mid = np.sqrt(r_lo * r_hi)
        return StationarySet(points=[np.array([mid, 0.0]), np.array([-mid, 0.0])],
                             degenerate_flag=True)

    vmag = np.hypot(v1, v2)
    # arccos((2 - alpha) v_2 / (alpha |v|)), without the cancellation of
    # 1 - cos^2 near the tangent case
    acos = np.arctan2(np.sqrt((a * v1) ** 2 + 4.0 * (a - 1.0) * v2**2), (2.0 - a) * v2)
    beta = np.arctan2(v1, v2)
    th = np.array([(sign * acos - beta) / 2.0 + n * np.pi
                   for sign in (1.0, -1.0) for n in (0, 1)])
    c, s = np.cos(th), np.sin(th)
    w1, w2 = 1.0 - a * c**2, -a * c * s
    r = (np.hypot(w1, w2) / vmag) ** (1.0 / a)
    keep = (w1 * v1 + w2 * v2 > 0.0) & (r >= r_lo - 1e-9) & (r <= r_hi + 1e-9)
    found = []
    for q in np.stack([r * c, r * s], axis=-1)[keep]:
        if not any(np.hypot(*(q - f)) < 1e-6 for f in found):
            found.append(q)
    residuals = [float(np.hypot(*phase_gradient(p, q))) for q in found]
    if any(res > GRAD_TOL for res in residuals):
        raise SpectralError(f"stationary point residual {max(residuals):.1e} exceeds {GRAD_TOL}")
    degenerate = any(abs(hessian_det(p, q)) <= DEGENERATE_TOL for q in found)
    return StationarySet(points=found, degenerate_flag=degenerate, residuals=residuals)


def _polar_quadrature(p, t, j, n_r, n_psi):
    """Trapezoid sum over the polar (r, psi) grid, in blocks of radial rows
    under a fixed byte budget.  Each block is evaluated in place in buffers
    made once per call, so the blocks allocate nothing but one R^-alpha
    column: the cost of a call does not depend on whether the allocator kept
    or returned the memory that freed temporaries would take.

    Where the process may use two CPUs, the thread of a `Worker` held for
    the block loop evaluates half the rows of each block.  Every value is
    computed alone, and this thread sums each whole block once both halves
    are done, in block order, so the sum has the same bits either way."""
    r_lo, r_hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
    r = np.linspace(r_lo, r_hi, n_r)
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    amp = bump(r * 2.0 ** (-j)) * r
    dr = (r_hi - r_lo) / (n_r - 1)
    dpsi = 2.0 * np.pi / n_psi
    w_r = np.full(n_r, dr)
    w_r[0] = w_r[-1] = dr / 2.0  # integrand vanishes there anyway
    total = 0.0
    # blocks of 128 bytes per point, more than the 40 the buffers take: the
    # block boundaries set the order of the sum, and so its bits
    blocks = list(row_blocks(n_r, 128 * n_psi))
    size = blocks[0].stop
    xs, vals = np.empty((3, size, n_psi)), np.empty((size, n_psi), dtype=np.complex128)

    def evaluate(block, share, shares):
        part = share_of(block.stop - block.start, share, shares)
        rows = slice(block.start + part.start, block.start + part.stop)
        R = r[rows, None]
        x1, x2, drift = xs[:, part]
        v = vals[part]
        # phase = v1 x1 + v2 x2 - x1 R^-alpha, in the formula's order, in x1
        np.multiply(R, cos_psi, out=x1)
        np.multiply(R, sin_psi, out=x2)
        np.multiply(x1, R ** (-p.alpha), out=drift)
        np.multiply(p.v[0], x1, out=x1)
        np.multiply(p.v[1], x2, out=x2)
        np.add(x1, x2, out=x1)
        np.subtract(x1, drift, out=x1)
        np.multiply(1j * t, x1, out=v)
        np.exp(v, out=v)
        np.multiply(amp[rows, None], v, out=v)
        np.multiply(v, w_r[rows, None], out=v)

    with Worker() as worker:
        for block in blocks:
            worker.split(lambda share, shares: evaluate(block, share, shares))
            total += np.sum(vals[: block.stop - block.start])
    return complex(total * dpsi)


# kernel_direct's agreement between two resolutions, and its polar-point budget
KERNEL_TOL = 1e-8
KERNEL_MAX_POINTS = 6e7


def kernel_direct(p, t, j=0):
    """Oscillatory integral of the shell-j bump against exp(i t phi).

    Dense polar sampling (at least 20 points per oscillation period in each
    direction) with step-halving verification to KERNEL_TOL.  Raises
    QuadratureBudgetError past KERNEL_MAX_POINTS, not an inaccurate value.
    """
    t = float(t)  # so the counts below overflow to inf without a warning
    if not 0.0 < t < np.inf:
        raise SpectralError(f"kernel quadrature needs a finite t > 0, got {t}")
    r_lo, r_hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
    vmag = float(np.hypot(*p.v))
    m_psi = t * (vmag * r_hi + r_lo ** (1.0 - p.alpha))
    m_r = t * (vmag + abs(1.0 - p.alpha) * r_lo ** (-p.alpha))
    # float counts up to the budget check, so that a t past ~1e306 asks for
    # too many points here rather than overflowing int()
    n_psi = max(256.0, float(np.ceil(20.0 * m_psi)))
    n_r = max(128.0, float(np.ceil(20.0 * m_r * (r_hi - r_lo) / (2.0 * np.pi))) + 1.0)
    prev = None
    while n_r * n_psi <= KERNEL_MAX_POINTS:
        val = _polar_quadrature(p, t, j, int(n_r), int(n_psi))
        if prev is not None and abs(val - prev) <= KERNEL_TOL:
            return val
        prev = val
        n_r = 2 * n_r - 1
        n_psi *= 2
    raise QuadratureBudgetError(
        f"kernel quadrature budget exceeded at t={t}, j={j} "
        f"(would need more than {KERNEL_MAX_POINTS:.0e} points)"
    )


BUMP_SUP = 1.0  # max of the shell profile
STRIP_WIDTH = 6.0  # linearized measure of {1/2<=|xi|<=2, |xi_2|<=lam} is 6 lam


def split_bound(p, t, lam):
    """Budget terms of the near/far splitting at cut parameter lam.

    near: measure of the degenerate strip times the bump sup (linear in lam).
    far: t^{-1} times the stationary-phase weight sum |det H|^{-1/2} over
    stationary points outside the strip; when no nondegenerate stationary
    point exists the worst-case envelope 1/lam over the annulus is used.
    The single shape constant is normalized so the two budget curves cross
    at lam = t^{-1/2}; the stationary-phase constant is fitted, not derived.
    """
    if not 0.0 < lam <= 1.0:
        raise SpectralError(f"cut parameter must lie in (0, 1], got {lam}")
    if not 0.0 < t < np.inf:
        raise SpectralError(f"split bound needs a finite t > 0, got {t}")
    near = STRIP_WIDTH * BUMP_SUP * lam
    ss = find_stationary(p)
    weights = [
        abs(hessian_det(p, q)) ** -0.5
        for q in ss.points
        if abs(q[1]) > lam and abs(hessian_det(p, q)) > DEGENERATE_TOL
    ]
    S = sum(weights) if weights else 1.0 / lam
    far = STRIP_WIDTH * BUMP_SUP * S / t
    return near, far
