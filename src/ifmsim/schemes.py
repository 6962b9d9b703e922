"""Closed-form models of rival interaction-free detection schemes.

Three schemes are modeled for comparison against the ring resonator: the
Mach-Zehnder scheme with an object in one arm, the coupled-cavity scheme
with a weakly transmitting splitter, and the polarization-rotation scheme
that exploits repeated small rotations (the quantum Zeno mechanism). Each
returns a :class:`SchemeResult` over the same three-way outcome split so the
schemes can be compared side by side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .resonator import MAX_COUNT, real_number

__all__ = [
    "ZenoParams",
    "SchemeResult",
    "elitzur_vaidman",
    "zeno_scheme",
    "two_cavity_scheme",
    "resonator_opaque_scheme",
]


@dataclass(frozen=True)
class ZenoParams:
    """Polarization-rotation cycle settings.

    ``alpha`` is the rotation per cycle in radians, in (0, pi/2]; ``n_cycles``
    is the number of passes. :meth:`from_alpha` derives ``n_cycles`` as
    ``round(pi / (2 alpha))``, the count that leaves the no-object exit
    polarization within ``alpha/2`` of vertical. Cycle counts above 2^53
    are refused.
    """

    alpha: float
    n_cycles: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rotation_angle(self.alpha))
        object.__setattr__(self, "n_cycles", _cycle_count(self.n_cycles))

    @classmethod
    def from_alpha(cls, alpha: float) -> "ZenoParams":
        cycles = math.pi / (2.0 * _rotation_angle(alpha))
        if cycles > MAX_COUNT:
            raise ValueError(f"alpha = {alpha!r} needs more than 2^53 rotation cycles")
        return cls(alpha=alpha, n_cycles=max(1, round(cycles)))

    @property
    def vertical_misalignment(self) -> float:
        """Absolute angle between the no-object exit polarization and vertical."""
        return abs(self.n_cycles * self.alpha - math.pi / 2)


@dataclass(frozen=True)
class SchemeResult:
    """Outcome probabilities of one scheme with the object present.

    detect_no_hit_prob: the object is identified and the photon survives.
    hit_prob: the photon is absorbed by the object.
    inconclusive_prob: the outcome identifies nothing.
    long_run_efficiency: detect_no_hit / (detect_no_hit + hit), the success
    fraction when inconclusive rounds are simply repeated.

    ``metadata`` carries model notes and companion figures; it takes no part
    in the probability bookkeeping.
    """

    detect_no_hit_prob: float
    hit_prob: float
    inconclusive_prob: float
    long_run_efficiency: float
    metadata: dict = field(default_factory=dict)


def _rotation_angle(alpha) -> float:
    value = real_number("alpha", alpha)
    if not (math.isfinite(value) and 0.0 < value <= math.pi / 2):
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha!r}")
    return value


def _cycle_count(n_cycles) -> int:
    """``n_cycles`` as an int in [1, 2^53]; any integer but a bool."""
    if isinstance(n_cycles, bool) or not isinstance(n_cycles, numbers.Integral) or n_cycles < 1:
        raise ValueError(f"n_cycles must be a positive integer, got {n_cycles!r}")
    if n_cycles > MAX_COUNT:
        raise ValueError("n_cycles must be at most 2^53")
    return int(n_cycles)


def _unit_interval(name: str, value) -> float:
    v = real_number(name, value)
    if not (math.isfinite(v) and 0.0 < v < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return v


def _result(detect: float, hit: float, inconclusive: float, **metadata) -> SchemeResult:
    return SchemeResult(
        detect_no_hit_prob=detect,
        hit_prob=hit,
        inconclusive_prob=inconclusive,
        long_run_efficiency=detect / (detect + hit),
        metadata=metadata,
    )


def _survival_after_cycles(angle: float, n_cycles: int) -> float:
    # Shared by the rotation and coupled-cavity models so the two return
    # bit-identical probabilities for matching angles.
    return (math.cos(angle) ** 2) ** n_cycles


def elitzur_vaidman(beam_splitter_reflectivity: float) -> SchemeResult:
    """Mach-Zehnder interaction-free test with matched splitters.

    The object blocks the transmitted arm of the first splitter and the
    second splitter is matched so that one output port is fully destructive
    when the object is absent. With intensity reflectivity ``R``:
    dark-port detection R(1-R), absorption 1-R, inconclusive R^2, and a
    long-run efficiency R/(1+R) that climbs toward 1/2 as R -> 1.
    """
    r = _unit_interval("beam splitter reflectivity", beam_splitter_reflectivity)
    return _result(detect=r * (1.0 - r), hit=1.0 - r, inconclusive=r * r)


def zeno_scheme(params: ZenoParams) -> SchemeResult:
    """Repeated-small-rotation scheme with a horizontally polarizing splitter.

    With an object present each cycle projects the photon back onto
    horizontal with probability cos^2(alpha), so after N cycles it exits
    horizontally polarized (identifying the object) with P = cos^{2N}(alpha)
    and is absorbed with Q = 1 - P. Without an object the rotations add
    coherently to N alpha, and the photon exits vertically polarized with
    probability sin^2(N alpha), which is 1 only when N alpha = pi/2; that
    companion probability and the residual misalignment of the exit
    polarization are reported in ``metadata``.
    """
    survive = _survival_after_cycles(params.alpha, params.n_cycles)
    return _result(
        detect=survive,
        hit=1.0 - survive,
        inconclusive=0.0,
        no_object_exit_vertical_prob=math.sin(params.n_cycles * params.alpha) ** 2,
        vertical_misalignment_rad=params.vertical_misalignment,
    )


def two_cavity_scheme(n_cycles: int) -> SchemeResult:
    """Two coupled cavities separated by a highly reflective splitter.

    Modeled as a two-level amplitude rotation of pi/(2N) per cycle: without
    an object the photon has fully transferred to the far cavity after N
    cycles; with an object the transfer is interrupted each cycle and the
    photon stays put with P = cos^{2N}(pi/(2N)). The per-cycle coupling is a
    modeling choice, flagged as such in ``metadata``, and shares its
    mathematics with :func:`zeno_scheme` at alpha = pi/(2N). Cycle counts
    above 2^53 are refused.
    """
    n_cycles = _cycle_count(n_cycles)
    theta = math.pi / (2.0 * n_cycles)
    survive = _survival_after_cycles(theta, n_cycles)
    return _result(
        detect=survive,
        hit=1.0 - survive,
        inconclusive=0.0,
        coupling_model="uniform two-level rotation of pi/(2N) per cycle",
        model_derived=True,
    )


def resonator_opaque_scheme(r1: float, r2: float | None = None) -> SchemeResult:
    """Ring-resonator outcome triple with an opaque object in the loop.

    With the loop blocked, the photon either reflects directly into the
    detection port (probability r1, identifying the object without a hit),
    tunnels in and strikes the object (r2 (1 - r1)), or tunnels straight
    through ((1 - r1)(1 - r2), indistinguishable from the no-object signature
    and therefore inconclusive). Used for side-by-side comparison with the
    rival schemes above.
    """
    r1 = _unit_interval("r1", r1)
    r2 = r1 if r2 is None else _unit_interval("r2", r2)
    return _result(detect=r1, hit=r2 * (1.0 - r1), inconclusive=(1.0 - r1) * (1.0 - r2))
