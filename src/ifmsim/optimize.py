"""Exact coupling design over the coupling box, and efficiency sweeps.

The couplings enter the efficiencies only through the prefactors
(1 - r1)(1 - rho^2 r2) and (1 - r1)(1 - r2) and through the feedback
amplitude ``rho s`` of the resonance integral phi, where ``s = sqrt(r1 r2)``.
Both objectives are solved from that structure over the box
[lo, hi]^2 = [0.5001, 0.9998]^2, the achievable gap reflectivities
(0.5, 0.9999) inset so that every answer lies strictly inside them.

max-min (maximize min(eta, tau)) peaks at the lower corner (lo, lo) for
every (rho, a), so its answer costs one :func:`efficiencies` call:

1. ``1 - r2 <= 1 - rho^2 r2``, so ``tau <= eta`` and the objective is tau.
2. phi is the average of ``1 / |1 - rho s e^{i theta}|^2`` over the wrapped
   Gaussian ``theta = x / a``, whose Fourier coefficients are
   ``e^{-n^2 / 4a^2}`` (see :mod:`ifmsim.wavepacket`). So tau is the average
   of ``(1 - r1)(1 - r2) / |1 - rho s e^{i theta}|^2``.
3. At a fixed product ``r1 r2 = s^2`` the denominator is fixed, and
   ``(1 - r1)(1 - r2) = 1 + s^2 - (r1 + r2)`` is largest at ``r1 = r2``
   (AM-GM).
4. On the diagonal ``r1 = r2 = r``, the log-derivative in r of each term
   has the sign of ``-[1 - rho cos theta + rho r (rho - cos theta)]``. The
   bracket is smallest at ``cos theta = 1``, where it is
   ``(1 - rho)(1 - rho r) >= 0``. Every term, and so tau, falls as r grows.

tau-floor (maximize tau subject to ``eta >= eta_floor``) returns the corner
whenever the corner's eta meets the floor, since the corner maximizes tau
over the whole box. Otherwise, at a fixed s, phi is fixed and eta is concave
in ``x = r1`` with its peak at ``x = rho s``, so the split of s that best
meets the floor is ``x*(s) = clip(rho s, max(lo, s^2/hi), min(hi, s^2/lo))``.
The search scans s upward from lo in steps of 0.005 for the first s whose
split meets the floor, then bisects down to adjacent floats, keeping the
feasible end. That the optimum lies at the smallest feasible s was seen on
random lossy settings, and the answer has beaten whole-box grids there, but
it is not proven. Nor is the feasible set of s proven to be an interval, so
a feasible stretch narrower than the scan step could be missed.
:class:`InfeasibleObjectiveError` means that at no scanned s, ``s = hi``
included, does the eta-maximizing split meet the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .resonator import DeviceParams
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
# Scan step in s = sqrt(r1 r2) for the first split that meets an eta floor.
_S_STEP = 0.005


class InfeasibleObjectiveError(RuntimeError):
    """No point in the search box satisfies the requested efficiency floor."""


@dataclass(frozen=True)
class SweepGrid:
    """Grid of symmetric couplings and loss factors for efficiency tables."""

    r_values: tuple
    rho_values: tuple
    a: float = 500.0

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(float(v) for v in self.r_values))
        object.__setattr__(self, "rho_values", tuple(float(v) for v in self.rho_values))
        if not self.r_values or not self.rho_values:
            raise ValueError("r_values and rho_values must be nonempty")
        for v in self.r_values:
            if not (math.isfinite(v) and 0.0 < v < 1.0):
                raise ValueError(f"r value {v!r} outside (0, 1)")
        for v in self.rho_values:
            if not (math.isfinite(v) and 0.0 < v <= 1.0):
                raise ValueError(f"rho value {v!r} outside (0, 1]")
        for name, vals in (("r_values", self.r_values), ("rho_values", self.rho_values)):
            if any(x >= y for x, y in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
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


def _check_objective(rho, a, objective, eta_floor) -> None:
    if not (math.isfinite(rho) and 0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho!r}")
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    if objective not in (MAX_MIN_ETA_TAU, MAX_TAU_WITH_ETA_FLOOR):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == MAX_TAU_WITH_ETA_FLOOR:
        if eta_floor is None or not (0.0 < eta_floor < 1.0):
            raise ValueError(f"eta_floor must lie in (0, 1), got {eta_floor!r}")


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

    Solved as the module docstring describes. A binding floor takes one
    :func:`efficiencies` call per scanned s (at most 100) and about 45 for
    the bisection. The objective value is that of :func:`efficiencies` at
    the returned pair, and identical inputs give identical results.

    Raises
    ------
    InfeasibleObjectiveError
        For the floor-constrained objective when no scanned product
        ``r1 r2`` has a split that meets the floor.
    """
    _check_objective(rho, a, objective, eta_floor)

    def at(r1: float, r2: float) -> EfficiencyReport:
        return efficiencies(DeviceParams(r1=r1, r2=r2, rho=rho, a=a), spec)

    corner = at(_LO, _LO)
    if objective == MAX_MIN_ETA_TAU or corner.eta >= eta_floor:
        return Optimum(_LO, _LO, _score(corner, objective, eta_floor), objective)

    def split(s: float) -> tuple[float, float, EfficiencyReport]:
        """The split of ``r1 r2 = s^2`` with the highest eta."""
        r1 = min(max(rho * s, _LO, s * s / _HI), _HI, s * s / _LO)
        r2 = min(max(s * s / r1, _LO), _HI)
        return r1, r2, at(r1, r2)

    s_lo = _LO  # infeasible: the corner is the only split of s = lo
    for k in range(1, math.ceil((_HI - _LO) / _S_STEP) + 1):
        s_hi = min(_LO + k * _S_STEP, _HI)
        best = split(s_hi)
        if best[2].eta >= eta_floor:
            break
        s_lo = s_hi
    else:
        raise InfeasibleObjectiveError(
            f"no coupling pair reaches eta >= {eta_floor} at rho={rho}, a={a}"
        )
    while (s := 0.5 * (s_lo + s_hi)) not in (s_lo, s_hi):
        cell = split(s)
        if cell[2].eta >= eta_floor:
            s_hi, best = s, cell
        else:
            s_lo = s
    r1, r2, report = best
    return Optimum(r1, r2, report.tau, objective)


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
    """
    _check_objective(rho, a, objective, eta_floor)
    lo, hi = _LO, _HI
    if center is not None:
        lo = max(lo, min(center) - halfwidth)
        hi = min(hi, max(center) + halfwidth)
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
