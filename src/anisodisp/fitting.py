"""Log-log power-law fitting shared by the decay experiments and the CLI."""

import numpy as np


class FitError(ValueError):
    pass


def fit_power_law(times, values, window=None):
    """Least-squares fit of log(values) vs log(times) inside `window`.

    Returns (slope, intercept, residual) where intercept is the fitted
    log-amplitude and residual the RMS of the log-space misfit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is None:
        window = (times.min(), times.max())
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if np.count_nonzero(mask) < 5:
        raise FitError(f"need at least 5 points in window ({float(lo)}, {float(hi)})")
    if np.any(values[mask] <= 0.0):
        raise FitError("nonpositive values in fit window")
    lt = np.log(times[mask])
    lv = np.log(values[mask])
    A = np.vstack([lt, np.ones_like(lt)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, lv, rcond=None)
    residual = float(np.sqrt(np.mean((A @ [slope, intercept] - lv) ** 2)))
    return float(slope), float(intercept), residual
