"""Interaction-free object detection with a total-internal-reflection ring resonator.

A numpy-based toolkit covering the exact monochromatic ring response, the
Gaussian wave-packet efficiencies, closed-form rivals for cross-scheme
comparison, seeded single-photon trial simulation with grayness estimation,
and coupling design search. All computations are deterministic for fixed
inputs (and fixed seeds where randomness is involved).
"""

from .montecarlo import (
    NonIdentifiableError,
    ObjectModel,
    TrialOutcome,
    TrialStatistics,
    estimate_grayness,
    outcome_distribution,
    run_trials,
)
from .optimize import (
    MAX_MIN_ETA_TAU,
    MAX_TAU_WITH_ETA_FLOOR,
    InfeasibleObjectiveError,
    Optimum,
    SweepGrid,
    SweepRow,
    brute_force_coupling,
    optimize_coupling,
    sweep_efficiencies,
)
from .resonator import (
    DeviceParams,
    SpectralResponse,
    monochromatic_reflectance,
    monochromatic_transmittance,
    partial_sum_reflected_amplitude,
    reflected_amplitude,
    spectral_response,
)
from .schemes import (
    SchemeResult,
    ZenoParams,
    elitzur_vaidman,
    resonator_opaque_scheme,
    two_cavity_scheme,
    zeno_scheme,
)
from .wavepacket import EfficiencyReport, WavePacketSpec, compute_phi, efficiencies

__version__ = "0.1.0"

__all__ = [
    "DeviceParams",
    "SpectralResponse",
    "reflected_amplitude",
    "monochromatic_reflectance",
    "monochromatic_transmittance",
    "partial_sum_reflected_amplitude",
    "spectral_response",
    "WavePacketSpec",
    "EfficiencyReport",
    "compute_phi",
    "efficiencies",
    "ZenoParams",
    "SchemeResult",
    "elitzur_vaidman",
    "zeno_scheme",
    "two_cavity_scheme",
    "resonator_opaque_scheme",
    "TrialOutcome",
    "ObjectModel",
    "TrialStatistics",
    "NonIdentifiableError",
    "outcome_distribution",
    "run_trials",
    "estimate_grayness",
    "SweepGrid",
    "SweepRow",
    "Optimum",
    "InfeasibleObjectiveError",
    "MAX_MIN_ETA_TAU",
    "MAX_TAU_WITH_ETA_FLOOR",
    "sweep_efficiencies",
    "optimize_coupling",
    "brute_force_coupling",
    "__version__",
]
