import numpy as np
import pytest

from anisodisp.semigroup import FitError, fit_power_law


def test_exact_power_law_recovered():
    t = np.geomspace(1.0, 100.0, 20)
    v = 3.5 * t**-0.5
    slope, intercept, residual = fit_power_law(t, v, (t.min(), t.max()))
    assert abs(slope + 0.5) <= 1e-12
    assert abs(np.exp(intercept) - 3.5) <= 1e-12
    assert residual <= 1e-13


def test_window_restricts_fit():
    t = np.geomspace(1.0, 100.0, 40)
    v = t**-1.0
    v[t < 10.0] = 1.0  # flat head outside the window
    slope, _, _ = fit_power_law(t, v, window=(10.0, 100.0))
    assert abs(slope + 1.0) <= 1e-12


def test_too_few_points_rejected():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitError):
        fit_power_law(t, t, (t.min(), t.max()))


def test_nonpositive_values_rejected():
    t = np.geomspace(1.0, 10.0, 10)
    v = t.copy()
    v[3] = 0.0
    with pytest.raises(FitError):
        fit_power_law(t, v, (t.min(), t.max()))
