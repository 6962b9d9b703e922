"""Design-space search over the coupling reflectivities and sweep generation.

The two couplings enter the efficiencies only through the prefactors
(1 - r1)(1 - rho^2 r2) and (1 - r1)(1 - r2) and through the feedback
amplitude rho sqrt(r1 r2) inside the resonance integral. Each search
memoizes that integral's series by feedback value, so the coarse grid scan
is cheap. The scan is followed by coordinate-wise golden-section
refinement; the solver tracks the best point it has actually evaluated,
which guarantees monotone improvement over the grid stage and keeps the
answer strictly inside the admissible box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .resonator import DeviceParams
from .search import golden_section_max
from .wavepacket import WavePacketSpec, compute_phi, efficiencies

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

# Admissible coupling box: achievable gap reflectivities, slightly inset for
# numerical headroom. Refinement stays _BOX_INSET inside the open box.
_BOX_LO = 0.5
_BOX_HI = 0.9999
_BOX_INSET = 1e-4
_COARSE_STEP = 0.005
_REFINE_TOL = 1e-5


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


class _CouplingObjective:
    """Evaluate an objective over (r1, r2), memoizing the resonance integral."""

    def __init__(self, rho, a, objective, eta_floor, spec):
        if not (math.isfinite(rho) and 0.0 < rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {rho!r}")
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"a must be positive, got {a!r}")
        if objective not in (MAX_MIN_ETA_TAU, MAX_TAU_WITH_ETA_FLOOR):
            raise ValueError(f"unknown objective {objective!r}")
        if objective == MAX_TAU_WITH_ETA_FLOOR:
            if eta_floor is None or not (0.0 < eta_floor < 1.0):
                raise ValueError(f"eta_floor must lie in (0, 1), got {eta_floor!r}")
        self.rho = rho
        self.a = a
        self.objective = objective
        self.eta_floor = eta_floor
        self.spec = spec if spec is not None else WavePacketSpec()
        self._phi_cache: dict[float, float] = {}

    def phi(self, r1: float, r2: float) -> float:
        c = self.rho * math.sqrt(r1 * r2)
        if c not in self._phi_cache:
            params = DeviceParams(r1=r1, r2=r2, rho=self.rho, a=self.a)
            self._phi_cache[c] = compute_phi(params, self.spec)[0]
        return self._phi_cache[c]

    def eta_tau(self, r1: float, r2: float) -> tuple[float, float]:
        phi = self.phi(r1, r2)
        eta = (1.0 - r1) * (1.0 - self.rho**2 * r2) * phi
        tau = (1.0 - r1) * (1.0 - r2) * phi
        return eta, tau

    def score(self, r1: float, r2: float) -> float:
        """Objective value; -inf marks a floor violation."""
        eta, tau = self.eta_tau(r1, r2)
        if self.objective == MAX_MIN_ETA_TAU:
            return min(eta, tau)
        return tau if eta >= self.eta_floor else -math.inf


class _BestTracker:
    """Keep the best (value, point) seen, breaking ties toward smaller (r1, r2)."""

    def __init__(self):
        self.value = -math.inf
        self.point = None

    def offer(self, r1: float, r2: float, value: float) -> None:
        if value > self.value or (value == self.value and self.point is not None and (r1, r2) < self.point):
            self.value = value
            self.point = (r1, r2)


def _scan_grid(obj: _CouplingObjective, r1_values, r2_values, best: _BestTracker) -> None:
    for r1 in r1_values:
        for r2 in r2_values:
            best.offer(float(r1), float(r2), obj.score(float(r1), float(r2)))


def optimize_coupling(
    rho: float,
    a: float,
    objective: str = MAX_MIN_ETA_TAU,
    eta_floor: float | None = None,
    spec: WavePacketSpec | None = None,
) -> Optimum:
    """Search the coupling box for the best (r1, r2) under the named objective.

    A coarse scan at resolution 0.005 over (0.5, 0.9999)^2 is refined by
    alternating golden-section passes on each coordinate to tolerance 1e-5.
    Deterministic: identical inputs yield identical results, and equal-valued
    candidates resolve to the lexicographically smallest pair.

    Raises
    ------
    InfeasibleObjectiveError
        For the floor-constrained objective when no grid point is feasible.
    """
    obj = _CouplingObjective(rho, a, objective, eta_floor, spec)
    coarse = _BOX_LO + _COARSE_STEP * np.arange(1, round((_BOX_HI - _BOX_LO) / _COARSE_STEP))
    best = _BestTracker()
    _scan_grid(obj, coarse, coarse, best)
    if not math.isfinite(best.value):
        raise InfeasibleObjectiveError(
            f"no coupling pair reaches eta >= {eta_floor} at rho={rho}, a={a}"
        )

    lo_in = _BOX_LO + _BOX_INSET
    hi_in = _BOX_HI - _BOX_INSET
    for _ in range(3):
        r1, r2 = best.point
        lo, hi = max(lo_in, r1 - _COARSE_STEP), min(hi_in, r1 + _COARSE_STEP)
        golden_section_max(lambda x: _offer(best, obj, x, r2), lo, hi, _REFINE_TOL)
        r1, r2 = best.point
        lo, hi = max(lo_in, r2 - _COARSE_STEP), min(hi_in, r2 + _COARSE_STEP)
        golden_section_max(lambda y: _offer(best, obj, r1, y), lo, hi, _REFINE_TOL)

    r1, r2 = best.point
    return Optimum(r1_star=r1, r2_star=r2, objective_value=best.value, objective_name=objective)


def _offer(best: _BestTracker, obj: _CouplingObjective, r1: float, r2: float) -> float:
    value = obj.score(r1, r2)
    best.offer(r1, r2, value)
    return value


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
    ``halfwidth`` clipped to it) at fixed ``resolution`` and returns the best
    cell. Intended as an independent cross-check of the refine stage.
    """
    obj = _CouplingObjective(rho, a, objective, eta_floor, spec)
    lo, hi = _BOX_LO + _BOX_INSET, _BOX_HI - _BOX_INSET
    if center is not None:
        lo = max(lo, min(center) - halfwidth)
        hi = min(hi, max(center) + halfwidth)
    n = max(2, int(round((hi - lo) / resolution)) + 1)
    values = np.linspace(lo, hi, n)
    best = _BestTracker()
    _scan_grid(obj, values, values, best)
    if not math.isfinite(best.value):
        raise InfeasibleObjectiveError(
            f"no coupling pair reaches eta >= {eta_floor} at rho={rho}, a={a}"
        )
    r1, r2 = best.point
    return Optimum(r1_star=r1, r2_star=r2, objective_value=best.value, objective_name=objective)
