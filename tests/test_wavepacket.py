import math
import time
import tracemalloc

import numpy as np
import pytest

from ifmsim import DeviceParams, WavePacketSpec, compute_phi, efficiencies
from ifmsim.wavepacket import TERM_CAP

from _oracles import dense_energy_ratios, dense_phi, mpmath_phi, phi_asymptote, quadrature_phi

BENCH = DeviceParams(r1=0.98, r2=0.98, rho=0.9999, a=500.0)
UNIT_ROUNDOFF = 2.0**-53


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(coherence_ratio=0.0),
        dict(coherence_ratio=-2.0),
        dict(coherence_ratio=math.nan),
        dict(coherence_ratio=math.inf),
        dict(coherence_ratio=True),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        WavePacketSpec(**kwargs)


def test_phi_is_one_without_feedback():
    phi, err = compute_phi(DeviceParams(0.98, 0.98, 0.0))
    assert phi == 1.0 and err == 0.0


def test_phi_matches_dense_oracle():
    phi, _ = compute_phi(BENCH)
    np.testing.assert_allclose(phi, dense_phi(0.98, 0.98, 0.9999, 500.0), rtol=1e-7)


@pytest.mark.parametrize(
    "r,rho,a", [(0.98, 0.9999, 500.0), (0.999, 1.0, 5.0), (0.5, 0.9, 0.3), (0.99, 1.0, 50.0)]
)
def test_phi_matches_adaptive_quadrature_oracle(r, rho, a):
    """Series-free cross-check that runs without mpmath."""
    phi, _ = compute_phi(DeviceParams(r, r, rho, a))
    oracle, _ = quadrature_phi(r, r, rho, a, rel_tol=1e-10)
    assert abs(phi - oracle) <= 1e-9 * oracle


# (1 - c, a): both sides of the term cap, the narrowest lines, and the
# largest coherence ratios. min(37 / -ln c, 12.2 a) > TERM_CAP selects the
# Euler-Maclaurin tail.
MPMATH_REGIMES = [
    (0.5, 0.3, False),
    (0.1, 1.0, False),
    (1e-4, 1.0, False),  # formerly 770 ms of quadrature
    (1e-9, 500.0, False),  # formerly a 1e9-node grid, killed for memory
    (1e-4, 1e4, True),
    (1e-6, 1e5, True),
    (1e-12, 1e9, True),
    (1e-15, 1e300, True),
]


@pytest.mark.parametrize("one_minus_c,a,tail", MPMATH_REGIMES)
def test_phi_matches_mpmath_within_truncation_bound(one_minus_c, a, tail):
    pytest.importorskip("mpmath")
    params = DeviceParams(1.0 - one_minus_c, 1.0 - one_minus_c, 1.0, a)
    c = params.feedback_amplitude
    assert (min(37.0 / -math.log(c), 12.2 * a) > TERM_CAP) == tail
    start = time.perf_counter()
    phi, bound = compute_phi(params)
    elapsed = time.perf_counter() - start
    exact = mpmath_phi(c, a)
    error = float(abs((phi - exact) / exact))
    assert error <= 1e-13
    assert error <= bound <= 1e-13
    assert elapsed < 0.05  # generous for a loaded host; typically ~2 ms at the cap


def test_eta_prefactor_does_not_cancel():
    """1 - rho^2 r2 cancels at rho^2 r2 near 1; the naive form is off by 1.75e-10 here."""
    mpmath = pytest.importorskip("mpmath")
    params = DeviceParams(0.5, 1.0 - 1e-9, 1.0 - 1e-10, 500.0)
    report = efficiencies(params)
    with mpmath.workdps(30):
        r1, r2, rho = (mpmath.mpf(v) for v in (params.r1, params.r2, params.rho))
        exact = (1 - r1) * (1 - rho**2 * r2) * mpmath_phi(params.feedback_amplitude, params.a)
        error = float(abs((report.eta - exact) / exact))
    assert error <= report.truncation_bound + 4 * 2.0**-53


def test_phi_bounded_memory_at_extreme_input():
    params = DeviceParams(1.0 - 1e-15, 1.0 - 1e-15, 1.0, a=1e300)
    tracemalloc.start()
    try:
        phi, bound = compute_phi(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(phi) and math.isfinite(bound)
    assert peak < 4 * 2**20


def test_phi_tiny_coherence_ratio_is_uniform_average():
    """a -> 0 spreads the packet over many free spectral ranges."""
    for a in (1e-3, 1e-200, 5e-324):
        phi, bound = compute_phi(DeviceParams(0.9, 0.9, 1.0, a))
        assert abs(phi * (1.0 - 0.81) - 1.0) <= 4 * UNIT_ROUNDOFF
        assert bound < 1e-14


@pytest.mark.parametrize("r", [0.5, 0.9, 0.98])
@pytest.mark.parametrize("rho", [1.0, 0.9999])
def test_phi_asymptotic_limit(r, rho):
    params = DeviceParams(r, r, rho, a=1e5)
    phi, _ = compute_phi(params)
    limit = phi_asymptote(r, r, rho)
    assert abs(phi - limit) / phi <= 1e-3


def test_phi_monotone_in_coherence_ratio():
    values = []
    for a in (50.0, 200.0, 500.0, 5000.0, 1e5):
        phi, _ = compute_phi(DeviceParams(0.98, 0.98, 0.9999, a))
        oracle = dense_phi(0.98, 0.98, 0.9999, a)
        np.testing.assert_allclose(phi, oracle, rtol=1e-6)
        values.append(phi)
    assert all(x < y for x, y in zip(values, values[1:]))


def test_phi_at_least_one():
    rng = np.random.default_rng(13)
    for _ in range(50):
        params = DeviceParams(
            rng.uniform(0.05, 0.99), rng.uniform(0.05, 0.99), rng.uniform(0.1, 1.0),
            a=rng.uniform(10.0, 1e4),
        )
        phi, _ = compute_phi(params)
        assert phi >= 1.0 - 1e-9


def test_phi_bit_reproducible():
    first = compute_phi(DeviceParams(0.999, 0.998, 0.9999, a=2e4))
    assert compute_phi(DeviceParams(0.999, 0.998, 0.9999, a=2e4)) == first


def test_spec_coherence_ratio_overrides_device():
    fast = WavePacketSpec(coherence_ratio=1e5)
    phi_override, _ = compute_phi(BENCH, fast)
    phi_direct, _ = compute_phi(DeviceParams(0.98, 0.98, 0.9999, 1e5))
    assert phi_override == phi_direct


def test_benchmark_efficiencies():
    report = efficiencies(BENCH)
    assert 0.98 <= report.eta <= 1.0
    assert 0.97 <= report.tau <= 0.99
    assert abs(report.eta - 0.99) <= 0.01
    assert abs(report.tau - 0.98) <= 0.01


def test_lossless_efficiencies_coincide():
    report = efficiencies(DeviceParams(0.7, 0.4, 1.0, a=300.0))
    assert report.eta == report.tau


def test_high_coherence_lossless_is_transparent():
    report = efficiencies(DeviceParams(0.5, 0.5, 1.0, a=1e5))
    assert report.eta > 1.0 - 1e-6
    assert report.tau > 1.0 - 1e-6


def test_throughput_never_exceeds_suppression():
    rng = np.random.default_rng(14)
    for _ in range(30):
        params = DeviceParams(
            rng.uniform(0.05, 0.99), rng.uniform(0.05, 0.99), rng.uniform(0.1, 0.99999),
            a=rng.uniform(20.0, 2e3),
        )
        report = efficiencies(params)
        assert report.tau <= report.eta
        assert report.tau < report.eta  # strict for rho < 1


def test_energy_ratios_cross_check_factorized_path():
    """Direct spectral averaging of R and T agrees with the phi factorization."""
    rng = np.random.default_rng(15)
    for _ in range(20):
        r1, r2 = rng.uniform(0.2, 0.99), rng.uniform(0.2, 0.99)
        rho, a = rng.uniform(0.5, 1.0), rng.uniform(50.0, 2e3)
        report = efficiencies(DeviceParams(r1, r2, rho, a))
        i_r, i_t = dense_energy_ratios(r1, r2, rho, a, n_nodes=200_001)
        assert abs((1.0 - report.eta) - i_r) <= 1e-9 * max(i_r, 1e-6) + 1e-12
        assert abs(report.tau - i_t) <= 1e-9 * i_t + 1e-12


def test_energy_ratios_match_dense_oracle():
    report = efficiencies(BENCH)
    oracle_r, oracle_t = dense_energy_ratios(0.98, 0.98, 0.9999, 500.0)
    np.testing.assert_allclose(1.0 - report.eta, oracle_r, rtol=1e-6)
    np.testing.assert_allclose(report.tau, oracle_t, rtol=1e-6)


def test_lossless_energy_conservation_integrated():
    rng = np.random.default_rng(16)
    for _ in range(20):
        r1, r2, a = rng.uniform(0.2, 0.99), rng.uniform(0.2, 0.99), rng.uniform(50.0, 2e3)
        report = efficiencies(DeviceParams(r1, r2, 1.0, a))
        i_r, i_t = dense_energy_ratios(r1, r2, 1.0, a, n_nodes=200_001)
        assert report.eta == report.tau
        assert abs(i_r + i_t - 1.0) <= 1e-12
        assert abs(report.tau - i_t) <= 1e-9 * i_t
