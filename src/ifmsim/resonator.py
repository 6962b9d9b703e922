"""Monochromatic response of a four-prism total-internal-reflection ring resonator.

Light enters the ring by tunnelling through a frustrated-total-reflection gap
of intensity reflectivity ``r1`` and leaves through a second gap of
reflectivity ``r2``. Everything else the field meets during one loop (two
total reflections plus absorption and scatter) is lumped into a single
amplitude survival factor ``rho``, and each loop adds a round-trip phase
``psi`` that already includes the gap phase shifts. Summing the round-trip
geometric series gives closed forms for the reflected and transmitted
intensity fractions; an explicit partial sum of the same series is provided
as an independent cross-check.

All functions accept ``psi`` either as a scalar or as a numpy array and are
pure: safe for unlimited concurrent invocation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeviceParams",
    "SpectralResponse",
    "reflected_amplitude",
    "monochromatic_reflectance",
    "monochromatic_transmittance",
    "partial_sum_reflected_amplitude",
    "spectral_response",
]


# The largest count a float holds exactly. The models compute with floats, so
# larger cycle and trial counts are refused rather than rounded or overflowed.
MAX_COUNT = 2**53


def real_number(name: str, value) -> float:
    """``value`` as a float; any real scalar (numpy ones included) but a bool.

    Raises ValueError for bools and for anything that is not a real number.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


@dataclass(frozen=True)
class DeviceParams:
    """Design point of the ring resonator.

    Attributes
    ----------
    r1 : float
        Intensity reflectivity of the input coupling gap, strictly in (0, 1).
    r2 : float
        Intensity reflectivity of the output coupling gap, strictly in (0, 1).
    rho : float
        Lumped round-trip amplitude survival factor in [0, 1]. Collects the
        two total reflections together with absorption and scatter; only
        their product is identifiable, so they are never stored separately.
        rho = 1 is the lossless case; rho = 0 means nothing survives a single
        loop (the opaque-obstruction limit).
    a : float
        Coherence ratio (coherence time over round-trip time), > 0.
    """

    r1: float
    r2: float
    rho: float
    a: float = 500.0

    def __post_init__(self):
        for name in ("r1", "r2", "rho", "a"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        for name in ("r1", "r2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {v!r}")
        if not (math.isfinite(self.rho) and 0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be a positive finite number, got {self.a!r}")

    @property
    def feedback_amplitude(self) -> float:
        """Per-loop amplitude ratio rho*sqrt(r1*r2) of the geometric series."""
        return self.rho * math.sqrt(self.r1 * self.r2)


@dataclass(frozen=True)
class SpectralResponse:
    """Resonator response at a single round-trip phase.

    ``reflect_fraction`` and ``transmit_fraction`` are the intensity
    fractions leaving through the reflected and transmitted ports;
    ``reflected_amplitude_factor`` is the complex amplitude ratio whose
    squared magnitude equals ``reflect_fraction``. Their sum is 1 exactly
    when rho = 1 and strictly below 1 otherwise.
    """

    psi: float
    reflect_fraction: float
    transmit_fraction: float
    reflected_amplitude_factor: complex


def _as_phase(psi):
    arr = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("psi must be finite")
    return arr


def _denominator(params: DeviceParams, psi):
    c = params.feedback_amplitude
    return 1.0 - 2.0 * c * np.cos(psi) + c * c


def reflected_amplitude(params: DeviceParams, psi):
    """Complex amplitude ratio of the reflected port to the incident field.

    Closed form of the round-trip geometric series: the directly reflected
    part ``-sqrt(r1)`` plus the coherent sum of all loop contributions,

        -sqrt(r1) + (1 - r1) * rho * sqrt(r2) * e^{i psi}
                    / (1 - rho * sqrt(r1 r2) * e^{i psi}).

    Parameters
    ----------
    params : DeviceParams
    psi : float or ndarray
        Round-trip phase in radians (raw value, not reduced mod 2 pi).

    Returns
    -------
    complex or ndarray
        Amplitude ratio; squared magnitude equals
        ``monochromatic_reflectance`` at the same phase.
    """
    psi_arr = _as_phase(psi)
    phase = np.exp(1j * psi_arr)
    num = (1.0 - params.r1) * params.rho * math.sqrt(params.r2) * phase
    den = 1.0 - params.feedback_amplitude * phase
    out = -math.sqrt(params.r1) + num / den
    return out.item() if out.ndim == 0 else out


def monochromatic_reflectance(params: DeviceParams, psi):
    """Fraction of incident intensity reflected back at round-trip phase psi.

        1 - (1 - r1)(1 - rho^2 r2) / (1 - 2 rho sqrt(r1 r2) cos psi + rho^2 r1 r2)

    Vanishes for a symmetric lossless device on resonance (perfect impedance
    match) and reduces to r1 when rho = 0.
    """
    psi_arr = _as_phase(psi)
    num = (1.0 - params.r1) * (1.0 - params.rho**2 * params.r2)
    out = 1.0 - num / _denominator(params, psi_arr)
    return out.item() if out.ndim == 0 else out


def monochromatic_transmittance(params: DeviceParams, psi):
    """Fraction of incident intensity leaving the transmitted port at phase psi.

        (1 - r1)(1 - r2) / (1 - 2 rho sqrt(r1 r2) cos psi + rho^2 r1 r2)

    Equals 1 for a symmetric lossless device on resonance and reduces to
    (1 - r1)(1 - r2) when rho = 0.
    """
    psi_arr = _as_phase(psi)
    num = (1.0 - params.r1) * (1.0 - params.r2)
    out = num / _denominator(params, psi_arr)
    return out.item() if out.ndim == 0 else out


def partial_sum_reflected_amplitude(params: DeviceParams, psi: float, n_terms: int) -> complex:
    """Truncated round-trip sum for the reflected amplitude ratio.

    Accumulates the first ``n_terms`` loop contributions explicitly,

        -sqrt(r1) + sum_{k=0}^{n_terms-1}
            (1 - r1) rho sqrt(r2) e^{i psi} (rho sqrt(r1 r2) e^{i psi})^k,

    serving as an independent oracle for ``reflected_amplitude``. The
    truncation error is bounded by the geometric tail
    ``pref * q^n_terms / (1 - q)`` with ``q = rho sqrt(r1 r2)`` and
    ``pref = (1 - r1) rho sqrt(r2)``. Scalar ``psi`` only.
    """
    if not (isinstance(n_terms, (int, np.integer)) and n_terms >= 1):
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    psi_val = float(_as_phase(psi))
    phase = complex(np.exp(1j * psi_val))
    first = (1.0 - params.r1) * params.rho * math.sqrt(params.r2) * phase
    ratio = params.feedback_amplitude * phase
    terms = first * ratio ** np.arange(n_terms)
    return complex(-math.sqrt(params.r1) + np.sum(terms))


def spectral_response(params: DeviceParams, psi: float) -> SpectralResponse:
    """Bundle the reflected/transmitted fractions and amplitude factor at one phase."""
    psi_val = float(_as_phase(psi))
    return SpectralResponse(
        psi=psi_val,
        reflect_fraction=monochromatic_reflectance(params, psi_val),
        transmit_fraction=monochromatic_transmittance(params, psi_val),
        reflected_amplitude_factor=reflected_amplitude(params, psi_val),
    )
