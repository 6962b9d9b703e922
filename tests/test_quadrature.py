"""Self-tests of the adaptive Simpson oracle in ``_oracles``."""

import math

import numpy as np
import pytest

from _oracles import QuadratureConvergenceError, adaptive_simpson, gaussian_window_integral


def test_gaussian_window():
    value, err = adaptive_simpson(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-10)
    np.testing.assert_allclose(value, gaussian_window_integral(8.0), rtol=1e-12)
    assert err <= 2e-10


def test_oscillatory_gaussian():
    # closed form: integral of cos(kx) exp(-x^2) over the real line
    k = 5.0
    exact = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
    value, _ = adaptive_simpson(lambda x: np.cos(k * x) * np.exp(-x * x), -8.0, 8.0, 1e-10)
    np.testing.assert_allclose(value, exact, rtol=1e-8)


def test_polynomial():
    value, _ = adaptive_simpson(lambda x: x**3 + 2.0 * x**2 + 1.0, -1.0, 3.0, 1e-12)
    exact = (3.0**4 - 1.0) / 4.0 + 2.0 * (3.0**3 + 1.0) / 3.0 + 4.0
    np.testing.assert_allclose(value, exact, rtol=1e-13)


def test_narrow_peak_forces_refinement():
    eps = 1e-3
    value, _ = adaptive_simpson(lambda x: 1.0 / (x * x + eps * eps), -8.0, 8.0, 1e-9, 100)
    exact = 2.0 / eps * math.atan(8.0 / eps)
    np.testing.assert_allclose(value, exact, rtol=1e-7)


def test_reported_error_bounds_tolerance():
    value, err = adaptive_simpson(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-8)
    assert 0.0 <= err <= 2e-8
    # tightening the tolerance moves the value by less than the reported error
    value2, _ = adaptive_simpson(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-12)
    assert abs(value - value2) <= max(err * abs(value), 1e-15)


def test_unreachable_tolerance_raises_with_achieved_error():
    with pytest.raises(QuadratureConvergenceError) as excinfo:
        adaptive_simpson(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-20, 1000, max_evals=100_000)
    achieved = excinfo.value.achieved_rel_error
    assert math.isfinite(achieved) and achieved > 1e-20


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lo=1.0, hi=0.0, rel_tol=1e-8),
        dict(lo=0.0, hi=0.0, rel_tol=1e-8),
        dict(lo=0.0, hi=float("inf"), rel_tol=1e-8),
        dict(lo=0.0, hi=1.0, rel_tol=0.0),
        dict(lo=0.0, hi=1.0, rel_tol=-1e-8),
    ],
)
def test_invalid_arguments(kwargs):
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, **kwargs)


def test_bit_reproducible():
    args = (lambda x: np.exp(-x * x) / (1.0 - 0.9 * np.cos(x)), -8.0, 8.0, 1e-10)
    first = adaptive_simpson(*args)
    second = adaptive_simpson(*args)
    assert first == second
