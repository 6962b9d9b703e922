"""Single-photon trial simulation and grayness estimation.

Each testing opens a gate for one photon and ends when a detector fires (or
the photon is absorbed somewhere). An object of per-pass intensity
transmittance ``g`` (grayness) sitting in the loop multiplies the round-trip
amplitude survival by ``sqrt(g)``, so the exact spectral response applies
with ``rho_eff = rho * sqrt(g)``; ``g = 1`` is the empty resonator and
``g = 0`` the opaque-object limit, where ``phi = 1`` and the outcome triple
reduces to the closed form {r1, r2 (1 - r1), (1 - r1)(1 - r2)}.

The per-round-trip intensity budget orders the loss channels object-first:
the object removes the fraction ``1 - g`` and the remaining faces remove
``g (1 - rho^2)``. The undetected probability mass is attributed to
ObjectHit and Lost in that proportion, which is what makes the opaque limit
exact for any ``rho``. Detector inefficiency is a per-trial Bernoulli
thinning into the NoDetection outcome; any retry policy is left to the
caller.

Sampling uses a counter-based generator (Philox), so the outcome of trial
``i`` is a pure function of (seed, i) and parallel execution schedules could
never change the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .resonator import MAX_COUNT, DeviceParams, real_number
from .search import golden_section_max
from .wavepacket import WavePacketSpec, efficiencies

__all__ = [
    "TrialOutcome",
    "ObjectModel",
    "TrialStatistics",
    "NonIdentifiableError",
    "outcome_distribution",
    "run_trials",
    "estimate_grayness",
]

# Two-sided 95% normal quantile.
_Z95 = 1.959963984540054

# Probe spread below which the outcome distribution is treated as flat in g.
_FLATNESS_TOL = 1e-10


class TrialOutcome(Enum):
    """Closed set of per-trial results; exactly one occurs per testing."""

    REFLECTED_DETECTOR = "reflected_detector"
    TRANSMITTED_DETECTOR = "transmitted_detector"
    OBJECT_HIT = "object_hit"
    LOST = "lost"
    NO_DETECTION = "no_detection"


_OUTCOME_ORDER = tuple(TrialOutcome)


class NonIdentifiableError(RuntimeError):
    """The outcome distribution is insensitive to grayness for these parameters."""


@dataclass(frozen=True)
class ObjectModel:
    """Object in the loop, characterized by per-pass intensity transmittance.

    ``grayness = 1`` means no object (everything passes), ``grayness = 0`` an
    opaque object. Pure attenuation; no added phase per pass.
    """

    grayness: float

    def __post_init__(self):
        g = real_number("grayness", self.grayness)
        if not (math.isfinite(g) and 0.0 <= g <= 1.0):
            raise ValueError(f"grayness must lie in [0, 1], got {g!r}")
        object.__setattr__(self, "grayness", g)

    @classmethod
    def absent(cls) -> "ObjectModel":
        return cls(grayness=1.0)

    @classmethod
    def opaque(cls) -> "ObjectModel":
        return cls(grayness=0.0)


@dataclass(frozen=True)
class TrialStatistics:
    """Outcome counts of a batch of independent testings."""

    counts: dict
    n_trials: int
    seed: int

    def __post_init__(self):
        if set(self.counts) != set(_OUTCOME_ORDER):
            raise ValueError("counts must cover every TrialOutcome exactly once")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts.values()) != self.n_trials:
            raise ValueError("counts must sum to n_trials")

    def to_dict(self) -> dict:
        return {
            "counts": {o.value: int(self.counts[o]) for o in _OUTCOME_ORDER},
            "n_trials": int(self.n_trials),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrialStatistics":
        counts = {o: int(doc["counts"][o.value]) for o in _OUTCOME_ORDER}
        return cls(counts=counts, n_trials=int(doc["n_trials"]), seed=int(doc["seed"]))


def _validate_efficiency(detector_efficiency: float) -> None:
    e = real_number("detector_efficiency", detector_efficiency)
    if not (math.isfinite(e) and 0.0 < e <= 1.0):
        raise ValueError(f"detector_efficiency must lie in (0, 1], got {e!r}")


def outcome_distribution(
    params: DeviceParams,
    spec: WavePacketSpec | None,
    target: ObjectModel,
    detector_efficiency: float = 1.0,
) -> dict:
    """Analytic probability of each :class:`TrialOutcome` for one testing.

    The wave-packet efficiencies evaluated at ``rho_eff = rho * sqrt(g)``
    give the detector-reach probabilities 1 - eta and tau. The remaining mass
    ``eta - tau = (1 - r1) r2 (1 - g rho^2) phi`` splits in the object-first
    per-round-trip proportion into ObjectHit ``(1 - r1) r2 (1 - g) phi`` and
    Lost ``(1 - r1) r2 g (1 - rho^2) phi``, each formed without subtracting
    near-equal numbers. Detector inefficiency then thins both detector
    outcomes into NoDetection. The returned probabilities sum to 1 within
    1e-12.
    """
    _validate_efficiency(detector_efficiency)
    g = target.grayness
    rho_eff = params.rho * math.sqrt(g)
    report = efficiencies(replace(params, rho=rho_eff), spec)

    reached_r = 1.0 - report.eta
    reached_t = report.tau
    leaked = (1.0 - params.r1) * params.r2 * report.phi
    hit = leaked * (1.0 - g)
    lost = leaked * g * (1.0 - params.rho) * (1.0 + params.rho)

    e = detector_efficiency
    return {
        TrialOutcome.REFLECTED_DETECTOR: e * reached_r,
        TrialOutcome.TRANSMITTED_DETECTOR: e * reached_t,
        TrialOutcome.OBJECT_HIT: hit,
        TrialOutcome.LOST: lost,
        TrialOutcome.NO_DETECTION: (1.0 - e) * (reached_r + reached_t),
    }


def run_trials(
    params: DeviceParams,
    spec: WavePacketSpec | None,
    target: ObjectModel,
    detector_efficiency: float,
    n_trials: int,
    seed: int,
) -> TrialStatistics:
    """Sample ``n_trials`` independent testings; deterministic for a fixed seed.

    NoDetection outcomes are recorded rather than retried; rerunning those
    testings merely widens the time window and is left to the caller.
    """
    if not (isinstance(n_trials, (int, np.integer)) and n_trials >= 1):
        raise ValueError(f"n_trials must be a positive integer, got {n_trials!r}")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    dist = outcome_distribution(params, spec, target, detector_efficiency)
    probs = np.array([dist[o] for o in _OUTCOME_ORDER])
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # guard against rounding shortfall at the top bin

    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.random(int(n_trials))
    idx = np.searchsorted(cum, draws, side="right")
    tallies = np.bincount(idx, minlength=len(_OUTCOME_ORDER))
    counts = {o: int(tallies[k]) for k, o in enumerate(_OUTCOME_ORDER)}
    return TrialStatistics(counts=counts, n_trials=int(n_trials), seed=int(seed))


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    ll = 0.0
    for n_k, p_k in zip(counts, probs):
        if n_k == 0:
            continue
        if p_k <= 0.0:
            return -math.inf
        ll += n_k * math.log(p_k)
    return ll


def estimate_grayness(
    stats: TrialStatistics,
    params: DeviceParams,
    spec: WavePacketSpec | None = None,
    detector_efficiency: float = 1.0,
) -> tuple[float, tuple[float, float]]:
    """Maximum-likelihood grayness from trial statistics, with a 95% interval.

    Maximizes the multinomial log-likelihood under the
    :func:`outcome_distribution` forward model by golden-section search over
    g in [0, 1]; the interval comes from the observed-information curvature
    at the estimate and is clipped to [0, 1]. When the curvature is not
    informative (flat or boundary-dominated likelihood) the interval falls
    back to the whole range.

    Raises
    ------
    NonIdentifiableError
        If the outcome probabilities do not respond to g at these parameters.
    ValueError
        If the counts include an outcome the model gives zero probability at
        every g, such as NoDetection with ``detector_efficiency = 1``, or if
        they total more than 2^53.
    """
    if stats.n_trials < 100:
        raise ValueError(f"need at least 100 trials to estimate grayness, got {stats.n_trials}")
    if stats.n_trials > MAX_COUNT:
        raise ValueError("counts must total at most 2^53 to be used exactly")
    _validate_efficiency(detector_efficiency)

    counts = np.array([stats.counts[o] for o in _OUTCOME_ORDER], dtype=float)
    prob_cache: dict[float, np.ndarray] = {}

    def probs_at(g: float) -> np.ndarray:
        if g not in prob_cache:
            dist = outcome_distribution(params, spec, ObjectModel(g), detector_efficiency)
            prob_cache[g] = np.array([dist[o] for o in _OUTCOME_ORDER])
        return prob_cache[g]

    probes = np.stack([probs_at(g) for g in (0.0, 0.5, 1.0)])
    if float(np.max(probes.max(axis=0) - probes.min(axis=0))) < _FLATNESS_TOL:
        raise NonIdentifiableError(
            "outcome probabilities are insensitive to grayness for these parameters"
        )

    def loglike(g: float) -> float:
        return _log_likelihood(counts, probs_at(g))

    g_hat, best = golden_section_max(loglike, 0.0, 1.0, tol=1e-6)
    if best == -math.inf:
        # Outcome probabilities vanish only at g = 0, at g = 1, or at every g,
        # and the search never probes the ends, so no g can explain the counts.
        impossible = [o.value for o, n_k, p_k in zip(_OUTCOME_ORDER, counts, probs_at(g_hat))
                      if n_k > 0 and p_k <= 0.0]
        raise ValueError(
            f"the counts are impossible at every grayness: {', '.join(impossible)} "
            "cannot occur at these parameters"
        )

    # Observed information by a central second difference; shift the stencil
    # inward when the estimate sits at a boundary.
    h = 1e-3
    g0 = min(max(g_hat, h), 1.0 - h)
    curvature = (loglike(g0 + h) - 2.0 * loglike(g0) + loglike(g0 - h)) / (h * h)
    info = -curvature
    if math.isfinite(info) and info > 0.0:
        half_width = _Z95 / math.sqrt(info)
        ci = (max(0.0, g_hat - half_width), min(1.0, g_hat + half_width))
    else:
        ci = (0.0, 1.0)
    return g_hat, ci
