"""Derivative-free 1-D maximization by golden-section search.

Used by the grayness estimator, whose likelihood is -inf wherever an
observed outcome is impossible, and by the coupling design, for the peak of
eta along the box edge r1 = lo. Only function values are compared, so it
needs neither derivatives nor finite values everywhere.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["golden_section_max"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Maximize ``f`` on [lo, hi], assuming unimodality.

    Shrinks the bracket until it is narrower than ``tol`` and returns the
    best point actually evaluated (never an unevaluated midpoint), so the
    result can only improve on any probe the caller already made. Boundary
    maxima are approached to within ``tol``. Deterministic.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)

    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        for x, fx in ((x1, f1), (x2, f2)):
            if fx > best_f:
                best_x, best_f = x, fx
    return best_x, best_f
