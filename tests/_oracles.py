"""Independent numerical oracles used to freeze expected values in the tests.

These deliberately avoid the package's own series and closed forms: dense
trapezoid sums, adaptive Simpson quadrature and high-precision quadrature of
the defining integrals stand in for the resonance series, and explicit
formulas computed here stand in for the library's algebra.
"""

import math
from collections.abc import Callable

import numpy as np


def dense_phi(r1, r2, rho, a, x_max=8.0, n_nodes=1_000_001):
    """Weighted resonance integral by a dense trapezoid rule."""
    x = np.linspace(-x_max, x_max, n_nodes)
    c = rho * math.sqrt(r1 * r2)
    weight = np.exp(-x * x)
    denom = 1.0 - 2.0 * c * np.cos(x / a) + c * c
    return float(np.trapezoid(weight / denom, x) / np.trapezoid(weight, x))


def dense_energy_ratios(r1, r2, rho, a, x_max=8.0, n_nodes=1_000_001):
    """Reflected and transmitted energy fractions by a dense trapezoid rule."""
    x = np.linspace(-x_max, x_max, n_nodes)
    c = rho * math.sqrt(r1 * r2)
    weight = np.exp(-x * x)
    denom = 1.0 - 2.0 * c * np.cos(x / a) + c * c
    reflect = 1.0 - (1.0 - r1) * (1.0 - rho * rho * r2) / denom
    transmit = (1.0 - r1) * (1.0 - r2) / denom
    norm = np.trapezoid(weight, x)
    return (
        float(np.trapezoid(weight * reflect, x) / norm),
        float(np.trapezoid(weight * transmit, x) / norm),
    )


def gaussian_window_integral(x_max):
    """Exact value of the integral of exp(-x^2) over [-x_max, x_max]."""
    return math.sqrt(math.pi) * math.erf(x_max)


def quadrature_phi(r1, r2, rho, a, x_max=8.0, rel_tol=1e-12):
    """Windowed resonance integral by the adaptive Simpson oracle below.

    Returns ``(phi, estimated_relative_error)``.
    """
    c = rho * math.sqrt(r1 * r2)

    def integrand(x):
        return np.exp(-x * x) / (1.0 - 2.0 * c * np.cos(x / a) + c * c)

    value, err = adaptive_simpson(integrand, -x_max, x_max, rel_tol)
    return value / gaussian_window_integral(x_max), err


def mpmath_phi(c, a, x_max=8, dps=30):
    """Windowed resonance integral by mpmath quadrature at ``dps`` digits.

    ``c`` is the feedback amplitude, taken exactly as given. The window
    changes phi by less than e^-64 relative. The quadrature is split at every
    resonance peak ``x = 2 pi k a`` in the window and at decades of the line
    width ``a (1 - c)`` around it, so narrow lines are resolved. Needs
    ``2 pi a`` not much below 1; otherwise the window holds too many peaks.
    """
    import mpmath

    with mpmath.workdps(dps):
        c, a, x_max = mpmath.mpf(c), mpmath.mpf(a), mpmath.mpf(x_max)
        period = 2 * mpmath.pi * a
        width = a * (1 - c)
        points = {-x_max, x_max}
        k_max = int(x_max / period) + 1
        for k in range(-k_max, k_max + 1):
            offset = mpmath.mpf(0)
            while offset < min(period / 2, 2 * x_max):
                for p in (k * period - offset, k * period + offset):
                    if -x_max < p < x_max:
                        points.add(p)
                offset = width if offset == 0 else 10 * offset

        def integrand(x):
            return mpmath.exp(-x * x) / ((1 - c) ** 2 + 4 * c * mpmath.sin(x / (2 * a)) ** 2)

        total = mpmath.quad(integrand, sorted(points))
        return total / (mpmath.sqrt(mpmath.pi) * mpmath.erf(x_max))


def phi_asymptote(r1, r2, rho):
    """Large-coherence limit of the resonance integral."""
    return 1.0 / (1.0 - rho * math.sqrt(r1 * r2)) ** 2


# Adaptive composite Simpson quadrature: a series-free integrator for the
# oracles above, self-tested in test_quadrature.py.

# Hard ceiling on integrand evaluations before giving up.
MAX_EVALS = 4_000_000

# Panels narrower than this fraction of the domain are accepted as-is;
# bisecting them further only churns floating-point noise.
_WIDTH_FLOOR = 1e-14


class QuadratureConvergenceError(RuntimeError):
    """Requested tolerance was not reached within the evaluation budget.

    Attributes:
        achieved_rel_error: Relative error estimate at the point of failure.
    """

    def __init__(self, message: str, achieved_rel_error: float):
        super().__init__(message)
        self.achieved_rel_error = achieved_rel_error


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float,
    initial_panels: int = 1000,
    max_evals: int = MAX_EVALS,
) -> tuple[float, float]:
    """Integrate ``f`` over [lo, hi] to a requested relative tolerance.

    Starts from a uniform composite Simpson grid and repeatedly bisects the
    panels whose Richardson error estimate exceeds their length-proportional
    share of the error budget. Accepted panels use the extrapolated value
    ``S2 + (S2 - S1)/15``.

    Args:
        f: Vectorized integrand mapping ndarray -> ndarray.
        lo: Lower integration limit.
        hi: Upper integration limit, > lo.
        rel_tol: Requested relative error of the integral.
        initial_panels: Panel count of the initial uniform grid.
        max_evals: Evaluation budget; exceeding it raises
            QuadratureConvergenceError carrying the achieved error.

    Returns:
        Tuple of (integral_value, estimated_relative_error).
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"integration limits must be finite with lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")

    n0 = max(int(initial_panels), 1)
    nodes = np.linspace(lo, hi, 2 * n0 + 1)
    vals = np.asarray(f(nodes), dtype=float)
    evals = vals.size

    a = nodes[0:-1:2]
    b = nodes[2::2]
    fa = vals[0:-1:2]
    fm = vals[1::2]
    fb = vals[2::2]

    span = hi - lo
    done_left: list[np.ndarray] = []
    done_val: list[np.ndarray] = []
    done_err: list[np.ndarray] = []

    def _finish(extra_left=None, extra_val=None, extra_err=None):
        lefts = np.concatenate(done_left + ([extra_left] if extra_left is not None else []))
        cvals = np.concatenate(done_val + ([extra_val] if extra_val is not None else []))
        cerrs = np.concatenate(done_err + ([extra_err] if extra_err is not None else []))
        order = np.argsort(lefts, kind="stable")
        value = float(np.sum(cvals[order]))
        abs_err = float(np.sum(cerrs[order]))
        return value, abs_err / max(abs(value), 1e-300)

    while True:
        h = b - a
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = np.asarray(f(lm), dtype=float)
        frm = np.asarray(f(rm), dtype=float)
        evals += lm.size + rm.size

        s1 = h / 6.0 * (fa + 4.0 * fm + fb)
        s2 = h / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
        err = np.abs(s2 - s1) / 15.0

        scale = abs(float(np.sum(s2)) + sum(float(np.sum(v)) for v in done_val))
        pending_err = float(np.sum(err)) + sum(float(np.sum(e)) for e in done_err)
        if pending_err <= rel_tol * max(scale, 1e-300):
            # aggregate estimate already meets the tolerance
            done_left.append(a)
            done_val.append(s2 + (s2 - s1) / 15.0)
            done_err.append(err)
            return _finish()

        budget = rel_tol * max(scale, 1e-300) * h / span
        accept = (err <= budget) | (h <= _WIDTH_FLOOR * span)

        extrapolated = s2 + (s2 - s1) / 15.0
        done_left.append(a[accept])
        done_val.append(extrapolated[accept])
        done_err.append(err[accept])

        rest = ~accept
        if not rest.any():
            value, rel_err = _finish()
            return value, rel_err

        if evals + 4 * int(rest.sum()) > max_evals:
            value, rel_err = _finish(a[rest], extrapolated[rest], err[rest])
            raise QuadratureConvergenceError(
                f"quadrature stalled at relative error {rel_err:.3e} "
                f"(requested {rel_tol:.3e}) after {evals} evaluations",
                achieved_rel_error=rel_err,
            )

        # Bisect the rejected panels; the half-point values are already known.
        a = np.concatenate([a[rest], m[rest]])
        b = np.concatenate([m[rest], b[rest]])
        fa_new = np.concatenate([fa[rest], fm[rest]])
        fm_new = np.concatenate([flm[rest], frm[rest]])
        fb_new = np.concatenate([fm[rest], fb[rest]])
        fa, fm, fb = fa_new, fm_new, fb_new
