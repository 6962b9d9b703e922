"""Gaussian wave-packet energy integrals and device efficiencies.

A realistic source never sits exactly on resonance, so the device is driven
with a Gaussian amplitude packet. In the dimensionless detuning
``x = (omega - omega_res) * coherence_time`` the packet amplitude is
``exp(-x^2 / 2)``, its energy spectrum therefore carries weight
``exp(-x^2)``, and one round trip advances the phase by ``psi = x / a``
where ``a`` is the coherence ratio. Averaging the monochromatic response
against that weight yields two figures of merit:

* ``eta``  - reflection-suppression efficiency, 1 - I_r / I_i,
* ``tau``  - throughput efficiency, I_t / I_i,

both of which factor into a coupling prefactor times the same weighted
resonance integral ``phi``:

    eta = (1 - r1) (1 - rho^2 r2) phi
    tau = (1 - r1) (1 - r2) phi
    phi = <1 / (1 - 2 c cos(x/a) + c^2)>_w,   c = rho sqrt(r1 r2),
          w(x) = exp(-x^2) / sqrt(pi) over the whole real line.

Expanding the Poisson kernel, ``1 / (1 - 2c cos psi + c^2) =
(1 - c^2)^-1 sum_n c^|n| e^{i n psi}``, and averaging each harmonic against
the Gaussian gives the exact series

    phi = (1 + 2 sum_{n>=1} c^n exp(-n^2 / (4 a^2))) / (1 - c^2),

which :func:`compute_phi` sums term by term. Its terms fall below e^-37
after about ``min(37 / -ln c, 12.2 a)`` of them. When that count exceeds
:data:`TERM_CAP`, the terms from the cap onward are summed by the
Euler-Maclaurin formula, whose integral is closed-form through the scaled
complementary error function. The work and memory are therefore bounded for
every valid input, and each result carries a bound on its relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .resonator import DeviceParams, real_number

__all__ = ["WavePacketSpec", "EfficiencyReport", "TERM_CAP", "compute_phi", "efficiencies"]

# Largest number of series terms summed one by one; an Euler-Maclaurin tail
# takes the rest.
TERM_CAP = 1 << 16

# Terms whose exponent passes this are below e^-37 < 1e-16 of the first one.
_EXPONENT_CUT = 37.0
# Every term underflows to zero beyond this exponent; capping the Gaussian
# rate here keeps exponent * term finite (zero) for tiny coherence ratios.
_EXPONENT_MAX = 800.0
_UNIT_ROUNDOFF = 2.0**-53
# np.sum adds pairwise over blocks of 128 held in eight accumulators, so a
# term passes through at most 25 + log2(n) roundings; 64 covers the cap.
_SUM_ROUNDINGS = 64.0
# Relative error of _erfcx: math.erfc is within a few ulp, exp within one.
_ERFCX_ROUNDINGS = 16.0
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class WavePacketSpec:
    """Packet settings for the wave-packet averages.

    Attributes
    ----------
    coherence_ratio : float or None
        Coherence time over round-trip time. ``None`` (default) defers to
        ``DeviceParams.a`` of whatever device the spec is paired with; set a
        value for standalone use.
    """

    coherence_ratio: float | None = None

    def __post_init__(self):
        if self.coherence_ratio is not None:
            value = real_number("coherence_ratio", self.coherence_ratio)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"coherence_ratio must be positive, got {self.coherence_ratio!r}")
            object.__setattr__(self, "coherence_ratio", value)


@dataclass(frozen=True)
class EfficiencyReport:
    """Wave-packet efficiencies and the resonance integral they derive from.

    ``eta`` and ``tau`` satisfy the prefactor identities above by
    construction; ``0 <= tau <= eta``, and ``tau = eta`` exactly in the
    lossless case. ``truncation_bound`` bounds the relative error of ``phi``,
    series truncation and rounding included, against the exact integral at
    the feedback amplitude ``rho * sqrt(r1 r2)`` as rounded to double
    precision; ``eta`` and ``tau`` add the rounding of their prefactors.
    """

    eta: float
    tau: float
    phi: float
    truncation_bound: float


def _resolve_a(params: DeviceParams, spec: WavePacketSpec) -> float:
    return spec.coherence_ratio if spec.coherence_ratio is not None else params.a


def _erfcx(z: float) -> float:
    """Scaled complementary error function ``exp(z^2) erfc(z)`` for ``z >= 0``."""
    if z < 8.0:
        # Split z^2 = zh^2 + zl (2 zh + zl) with zh^2 exact, so exp(z^2)
        # carries no error from rounding z^2 itself.
        zh = math.floor(z * 4096.0) / 4096.0
        zl = z - zh
        return math.exp(zh * zh) * math.exp(zl * (2.0 * zh + zl)) * math.erfc(z)
    # Asymptotic series. At z >= 8 its terms shrink until k = 64 and fall
    # below 1e-17 well before that; the first omitted term bounds the error.
    w = 0.5 / z / z
    term = total = 1.0
    for k in range(1, 65):
        term *= -(2 * k - 1) * w
        total += term
        if abs(term) < 1e-17:
            break
    return total / (z * _SQRT_PI)


def _euler_maclaurin_tail(k: int, gamma: float, q: float, a: float) -> tuple[float, float, float]:
    """Sum over n >= k of ``f(n) = exp(-gamma n - q n^2)``, with ``q = 1 / (4 a^2)``.

    Returns the Euler-Maclaurin value (integral, f/2, and the f' and f'''
    Bernoulli terms), a bound on its remainder, and the exponent at ``k``.
    """
    x_k = k * (gamma + k * q)
    f_k = math.exp(-x_k)
    s = gamma + 2.0 * k * q  # -f'/f at k
    h = 2.0 * q  # derivative of -f'/f
    # Completing the square: int_k^inf f = f(k) a sqrt(pi) erfcx((k + 2 a^2 gamma) / (2a)).
    integral = f_k * a * (_SQRT_PI * _erfcx(0.5 * k / a + a * gamma))
    value = integral + f_k * (0.5 + s / 12.0 + s * (3.0 * h - s * s) / 720.0)
    # |remainder| <= (1/720) int_k^inf |f''''| and |f''''| <= (s^2 + 3h)^2 f.
    # The moments M_j = int_k^inf s^j f obey M_{j+1} = s(k)^j f(k) + j h M_{j-1}.
    m2 = s * f_k + h * integral
    m4 = s**3 * f_k + 3.0 * h * m2
    remainder = (m4 + 6.0 * h * m2 + 9.0 * h * h * integral) / 720.0
    return value, remainder, x_k


def compute_phi(params: DeviceParams, spec: WavePacketSpec | None = None) -> tuple[float, float]:
    """Weighted resonance integral ``phi`` and a bound on its relative error.

    ``phi`` is the Gaussian-weighted average of the intracavity buildup
    factor; it equals 1 when the ring feedback vanishes (that case is
    returned in closed form with zero error) and approaches
    ``1 / (1 - rho sqrt(r1 r2))^2`` as the coherence ratio grows. The bound
    covers truncation and rounding; see :class:`EfficiencyReport`. No more
    than :data:`TERM_CAP` terms are held in memory at once.
    """
    spec = spec if spec is not None else WavePacketSpec()
    c = params.feedback_amplitude
    if c == 0.0:
        return 1.0, 0.0
    a = _resolve_a(params, spec)
    gamma = -math.log(c)
    q = min((0.5 / a) * (0.5 / a), _EXPONENT_MAX)
    wanted = min(_EXPONENT_CUT / gamma, 2.0 * math.sqrt(_EXPONENT_CUT) * a)
    use_tail = wanted > TERM_CAP
    n_terms = TERM_CAP - 1 if use_tail else max(1, math.ceil(wanted))

    n = np.arange(1.0, n_terms + 1.0)
    x = n * (gamma + n * q)  # term n is exp(-x)
    terms = np.exp(-x)
    head = float(terms.sum())
    # The exponent carries up to 6 roundings, so term n is off by 6 u x_n + 2 u.
    head_rounding = 6.0 * float((x * terms).sum()) + (_SUM_ROUNDINGS + 2.0) * head
    if use_tail:
        rest, truncation, x_k = _euler_maclaurin_tail(TERM_CAP, gamma, q, a)
        rest_rounding = (6.0 * x_k + _ERFCX_ROUNDINGS + 9.0) * rest
    else:
        # f decreases and is log-concave: sum_{n>N} f(n) <= int_N^inf f <= f(N) / (-f'/f)(N).
        rest = rest_rounding = 0.0
        truncation = float(terms[-1]) / (gamma + 2.0 * n_terms * q)

    total = 1.0 + 2.0 * (head + rest)
    phi = total / ((1.0 - c) * (1.0 + c))  # 1 - c^2 without cancellation
    rounding = _UNIT_ROUNDOFF * (head_rounding + rest_rounding)
    bound = 2.0 * (truncation + rounding) / total + 8.0 * _UNIT_ROUNDOFF
    return phi, bound


def efficiencies(params: DeviceParams, spec: WavePacketSpec | None = None) -> EfficiencyReport:
    """Reflection-suppression and throughput efficiencies of the device.

    Parameters
    ----------
    params : DeviceParams
    spec : WavePacketSpec, optional
        Defaults to ``WavePacketSpec()``.

    Returns
    -------
    EfficiencyReport
        With ``eta = (1 - r1)(1 - rho^2 r2) phi`` and
        ``tau = (1 - r1)(1 - r2) phi``.
    """
    phi, bound = compute_phi(params, spec)
    # 1 - rho^2 r2, written so that it does not cancel when rho^2 r2 is near 1.
    suppression = (1.0 - params.r2) + params.r2 * (1.0 - params.rho) * (1.0 + params.rho)
    eta = (1.0 - params.r1) * suppression * phi
    tau = (1.0 - params.r1) * (1.0 - params.r2) * phi
    return EfficiencyReport(eta=eta, tau=tau, phi=phi, truncation_bound=bound)
