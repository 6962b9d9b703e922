"""Exact coupling design over the coupling box, and efficiency sweeps.

The couplings enter the efficiencies only through the prefactors
(1 - r1)(1 - rho^2 r2) and (1 - r1)(1 - r2) and through ``c = rho s``,
``s = sqrt(r1 r2)``, in phi, the average of ``1 / |1 - c e^{i theta}|^2``
over the wrapped Gaussian ``theta = x / a`` (see :mod:`ifmsim.wavepacket`).
Each claim below is shown phase by phase, so it holds for the average. The
box is [lo, hi]^2 = [0.5001, 0.9998]^2, the achievable gap reflectivities
(0.5, 0.9999) inset.

max-min (maximize min(eta, tau)) is solved by the lower corner (lo, lo) for
every (rho, a), at one :func:`efficiencies` call: ``tau <= eta`` as
``1 - r2 <= 1 - rho^2 r2``; at a fixed s, ``(1 - r1)(1 - r2) = 1 + s^2 -
(r1 + r2)`` peaks at r1 = r2 (AM-GM); and on r1 = r2 = r the log-derivative
of each term has the sign of ``-[1 - rho cos theta + rho r (rho - cos
theta)] <= -(1 - rho)(1 - rho r)``, so tau falls as r grows.

tau-floor (maximize tau subject to ``eta >= eta_floor``) returns the corner
when its eta meets the floor. Otherwise it works on the edge r1 = lo, with
r2 in [lo, top] and ``top = min(hi, lo / rho^2)``, by two lemmas:

A. At a fixed s, ``eta <= (1 - c)^2 phi(c)``, the peak of the concave
   prefactor at r1 = rho s. This falls in s: the c-derivative of
   ``(1 - c)^2 / |1 - c e^{i theta}|^2`` has the sign of
   ``-(1 + c)(1 - cos theta)``. So no point with s >= lo / rho beats the
   edge point (lo, lo / rho^2), where r1 = rho s.
B. The u-derivative of ``(1 - u^2) / |1 - k u e^{i theta}|^2`` has the sign
   of ``k (1 + u^2) cos theta - u (1 + k^2) <= -(u - k)(1 - k u)``. So on
   r2 = hi (u^2 = r1, k^2 = rho^2 hi) eta falls in r1 once r1 > rho^2 hi,
   and on r1 = lo (u^2 = r2 >= k^2 = rho^2 lo) tau falls in r2.

So the box's eta maximum lies on the edge: at its s the box clips the best
split r1 = rho s only upward (rho s <= s <= min(hi, s^2 / lo)), to lo or to
s^2 / hi on r2 = hi, where B lowers r1 at no loss to lo or to rho^2 hi =
rho s; an unclipped split has s >= lo / rho, where A applies. If eta at top
misses the floor, golden-section search finds the edge's eta peak (none at
rho = 1, where top = lo), assuming unimodality: observed, not proven. A
peak below the floor means no box point meets it. Else bisection down to
adjacent floats finds the smallest r2 that meets the floor, the best edge
point by B. That no point off the edge beats it is observed, not proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .resonator import DeviceParams, real_number
from .search import golden_section_max
from .wavepacket import EfficiencyReport, WavePacketSpec, efficiencies

__all__ = [
    "SweepGrid",
    "SweepRow",
    "Optimum",
    "InfeasibleObjectiveError",
    "MAX_MIN_ETA_TAU",
    "MAX_TAU_WITH_ETA_FLOOR",
    "sweep_efficiencies",
    "optimize_coupling",
    "brute_force_coupling",
]

MAX_MIN_ETA_TAU = "max_min_eta_tau"
MAX_TAU_WITH_ETA_FLOOR = "max_tau_st_eta_floor"

# Coupling box, inset by 1e-4 from the achievable reflectivities (0.5, 0.9999).
_LO = 0.5001
_HI = 0.9998


class InfeasibleObjectiveError(RuntimeError):
    """No point in the search box satisfies the requested efficiency floor."""


@dataclass(frozen=True)
class SweepGrid:
    """Grid of symmetric couplings and loss factors for efficiency tables."""

    r_values: tuple
    rho_values: tuple
    a: float = 500.0

    def __post_init__(self):
        for name in ("r_values", "rho_values"):
            values = tuple(real_number(name, v) for v in getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if any(x >= y for x, y in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, values)
        if not all(0.0 < v < 1.0 for v in self.r_values):
            raise ValueError(f"r values {self.r_values} must lie in (0, 1)")
        if not all(0.0 < v <= 1.0 for v in self.rho_values):
            raise ValueError(f"rho values {self.rho_values} must lie in (0, 1]")
        object.__setattr__(self, "a", real_number("a", self.a))
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be positive, got {self.a!r}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell, with the relative error bound of its ``phi``."""

    r1: float
    r2: float
    rho: float
    a: float
    eta: float
    tau: float
    phi: float
    truncation_bound: float


@dataclass(frozen=True)
class Optimum:
    """Best coupling pair found for a named objective."""

    r1_star: float
    r2_star: float
    objective_value: float
    objective_name: str


def sweep_efficiencies(grid: SweepGrid, spec: WavePacketSpec | None = None) -> list[SweepRow]:
    """Evaluate the symmetric-coupling efficiencies over a (r, rho) grid.

    Rows come back in row-major order (r outer, rho inner) and two runs over
    the same grid are bit-identical.
    """
    spec = spec if spec is not None else WavePacketSpec()
    rows = []
    for r in grid.r_values:
        for rho in grid.rho_values:
            report = efficiencies(DeviceParams(r1=r, r2=r, rho=rho, a=grid.a), spec)
            rows.append(SweepRow(r1=r, r2=r, rho=rho, a=grid.a, eta=report.eta, tau=report.tau,
                                 phi=report.phi, truncation_bound=report.truncation_bound))
    return rows


def _check_objective(rho, a, objective, eta_floor) -> tuple[float, float, float | None]:
    """``(rho, a, eta_floor)`` as floats, validated for the named objective."""
    rho, a = real_number("rho", rho), real_number("a", a)
    if not (math.isfinite(rho) and 0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho!r}")
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    if objective not in (MAX_MIN_ETA_TAU, MAX_TAU_WITH_ETA_FLOOR):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == MAX_TAU_WITH_ETA_FLOOR:
        if eta_floor is None or not (0.0 < real_number("eta_floor", eta_floor) < 1.0):
            raise ValueError(f"eta_floor must lie in (0, 1), got {eta_floor!r}")
        eta_floor = float(eta_floor)
    return rho, a, eta_floor


def _score(report: EfficiencyReport, objective: str, eta_floor: float | None) -> float:
    """Objective value of one design; -inf marks a floor violation."""
    if objective == MAX_MIN_ETA_TAU:
        return min(report.eta, report.tau)
    return report.tau if report.eta >= eta_floor else -math.inf


def optimize_coupling(
    rho: float,
    a: float,
    objective: str = MAX_MIN_ETA_TAU,
    eta_floor: float | None = None,
    spec: WavePacketSpec | None = None,
) -> Optimum:
    """Best (r1, r2) in the coupling box under the named objective.

    Solved as the module docstring describes; a binding floor takes about
    110 :func:`efficiencies` calls. The objective value is that of
    :func:`efficiencies` at the returned pair, and identical inputs give
    identical results. Raises :class:`InfeasibleObjectiveError` when no
    point of the box meets the floor, as decided on the edge ``r1 = lo``.
    """
    rho, a, eta_floor = _check_objective(rho, a, objective, eta_floor)

    def at(r1: float, r2: float) -> EfficiencyReport:
        return efficiencies(DeviceParams(r1=r1, r2=r2, rho=rho, a=a), spec)

    corner = at(_LO, _LO)
    if objective == MAX_MIN_ETA_TAU or corner.eta >= eta_floor:
        return Optimum(_LO, _LO, _score(corner, objective, eta_floor), objective)

    top = min(_HI, _LO / rho / rho)
    r2_hi, best = top, at(_LO, top)
    if best.eta < eta_floor and top > _LO:
        # A tol far above the ulp of r2 keeps the golden-section bracket shrinking.
        r2_hi = golden_section_max(lambda r2: at(_LO, r2).eta, _LO, top, tol=1e-12)[0]
        best = at(_LO, r2_hi)
    if best.eta < eta_floor:
        raise InfeasibleObjectiveError(
            f"no coupling pair reaches eta >= {eta_floor} at rho={rho}, a={a}"
        )
    r2_lo = _LO
    while (r2 := 0.5 * (r2_lo + r2_hi)) not in (r2_lo, r2_hi):
        report = at(_LO, r2)
        if report.eta >= eta_floor:
            r2_hi, best = r2, report
        else:
            r2_lo = r2
    return Optimum(_LO, r2_hi, best.tau, objective)


def brute_force_coupling(
    rho: float,
    a: float,
    objective: str = MAX_MIN_ETA_TAU,
    eta_floor: float | None = None,
    spec: WavePacketSpec | None = None,
    center: tuple | None = None,
    halfwidth: float = 0.01,
    resolution: float = 0.0005,
) -> Optimum:
    """Exhaustive grid oracle for :func:`optimize_coupling`.

    Scans a square window (the whole box by default, or ``center`` +/-
    ``halfwidth`` clipped to it) at fixed ``resolution``, scores every cell
    by :func:`efficiencies`, and returns the first best cell in (r1, r2)
    order. A grid rarely lands on the optimum, so its value may fall short
    of the optimizer's; a value above it would show a fault in the optimizer.
    Raises ValueError when the window misses the box or the resolution is
    not positive and finite.
    """
    rho, a, eta_floor = _check_objective(rho, a, objective, eta_floor)
    if not 0.0 < real_number("resolution", resolution) < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    lo, hi = _LO, _HI
    if center is not None:
        x, y = (real_number("center", v) for v in center)
        halfwidth = real_number("halfwidth", halfwidth)
        lo, hi = max(lo, min(x, y) - halfwidth), min(hi, max(x, y) + halfwidth)
        if not (math.isfinite(x + y) and halfwidth >= 0.0 and lo <= hi):
            raise ValueError(f"window {center!r} +/- {halfwidth!r} misses the box")
    n = max(2, int(round((hi - lo) / resolution)) + 1)
    step = (hi - lo) / (n - 1)
    values = [lo + k * step for k in range(n)]

    def score(r1: float, r2: float) -> float:
        report = efficiencies(DeviceParams(r1=r1, r2=r2, rho=rho, a=a), spec)
        return _score(report, objective, eta_floor)

    value, r1, r2 = max(((score(x, y), x, y) for x in values for y in values),
                        key=lambda cell: cell[0])
    if value == -math.inf:
        raise InfeasibleObjectiveError(
            f"no coupling pair reaches eta >= {eta_floor} at rho={rho}, a={a}"
        )
    return Optimum(r1_star=r1, r2_star=r2, objective_value=value, objective_name=objective)
