import math

import numpy as np
import pytest

from ifmsim import (
    DeviceParams,
    monochromatic_reflectance,
    monochromatic_transmittance,
    partial_sum_reflected_amplitude,
    reflected_amplitude,
    spectral_response,
)


def random_params(rng, rho=None):
    r1 = rng.uniform(0.01, 0.99)
    r2 = rng.uniform(0.01, 0.99)
    rho_v = rng.uniform(0.05, 1.0) if rho is None else rho
    return DeviceParams(r1=r1, r2=r2, rho=rho_v, a=500.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r1=0.0, r2=0.5, rho=1.0),
        dict(r1=1.0, r2=0.5, rho=1.0),
        dict(r1=-0.1, r2=0.5, rho=1.0),
        dict(r1=1.2, r2=0.5, rho=1.0),
        dict(r1=0.5, r2=0.0, rho=1.0),
        dict(r1=0.5, r2=1.0, rho=1.0),
        dict(r1=0.5, r2=0.5, rho=-0.01),
        dict(r1=0.5, r2=0.5, rho=1.01),
        dict(r1=0.5, r2=0.5, rho=1.0, a=0.0),
        dict(r1=0.5, r2=0.5, rho=1.0, a=-5.0),
        dict(r1=float("nan"), r2=0.5, rho=1.0),
    ],
)
def test_device_params_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        DeviceParams(**kwargs)


def test_device_params_rejects_bool():
    with pytest.raises(ValueError, match="real number"):
        DeviceParams(0.5, 0.5, rho=True)


def test_device_params_accepts_numpy_scalars():
    params = DeviceParams(np.float32(0.9), np.float64(0.8), np.float32(1.0), a=np.int64(500))
    assert params == DeviceParams(float(np.float32(0.9)), 0.8, 1.0, a=500.0)
    assert all(type(v) is float for v in (params.r1, params.r2, params.rho, params.a))


def test_device_params_accepts_degenerate_loss():
    # rho = 0 is the opaque-object limit, rho = 1 the lossless one.
    assert DeviceParams(0.5, 0.5, 0.0).rho == 0.0
    assert DeviceParams(0.5, 0.5, 1.0).rho == 1.0


def test_reflected_amplitude_dark_on_resonance():
    """Symmetric lossless device on resonance: fully destructive reflection."""
    params = DeviceParams(0.5, 0.5, 1.0)
    assert abs(reflected_amplitude(params, 0.0)) < 1e-15


def test_reflected_amplitude_antiresonance():
    params = DeviceParams(0.5, 0.5, 1.0)
    power = abs(reflected_amplitude(params, math.pi)) ** 2
    np.testing.assert_allclose(power, 8.0 / 9.0, rtol=1e-12)


def test_reflectance_examples():
    np.testing.assert_allclose(
        monochromatic_reflectance(DeviceParams(0.5, 0.5, 1.0), 0.0), 0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        monochromatic_reflectance(DeviceParams(0.5, 0.5, 1.0), math.pi), 8.0 / 9.0, rtol=1e-12
    )
    # With no light surviving the loop, only the direct reflection remains.
    for psi in (0.0, 0.3, 2.0, -4.5):
        np.testing.assert_allclose(
            monochromatic_reflectance(DeviceParams(0.98, 0.98, 0.0), psi), 0.98, rtol=1e-12
        )


def test_transmittance_examples():
    np.testing.assert_allclose(
        monochromatic_transmittance(DeviceParams(0.5, 0.5, 1.0), 0.0), 1.0, rtol=1e-12
    )
    np.testing.assert_allclose(
        monochromatic_transmittance(DeviceParams(0.5, 0.5, 1.0), math.pi), 1.0 / 9.0, rtol=1e-12
    )
    np.testing.assert_allclose(
        monochromatic_transmittance(DeviceParams(0.98, 0.98, 0.0), 0.0), 0.0004, rtol=1e-12
    )


def test_partial_sum_single_term():
    # One loop by hand: -sqrt(0.5) + 0.5 * 1 * sqrt(0.5) = -sqrt(0.5)/2.
    value = partial_sum_reflected_amplitude(DeviceParams(0.5, 0.5, 1.0), 0.0, 1)
    np.testing.assert_allclose(value.real, -math.sqrt(0.5) / 2.0, rtol=1e-14)
    assert value.imag == 0.0


def test_partial_sum_high_feedback_converges():
    params = DeviceParams(0.98, 0.98, 0.9999)
    for psi in (0.0, 0.7, math.pi):
        closed = reflected_amplitude(params, psi)
        truncated = partial_sum_reflected_amplitude(params, psi, 2000)
        assert abs(closed - truncated) < 1e-10


def _terms_for_tail(params, target=1e-13):
    """Loop count making the geometric tail bound smaller than target."""
    q = params.feedback_amplitude
    pref = (1.0 - params.r1) * params.rho * math.sqrt(params.r2)
    if pref == 0.0 or q == 0.0:
        return 1
    n = math.log(target * (1.0 - q) / pref) / math.log(q)
    return max(1, math.ceil(n))


def test_partial_sum_matches_closed_form_randomized():
    """Geometric-series oracle: 1000 random draws agree within 1e-10."""
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        params = random_params(rng)
        psi = rng.uniform(-10.0, 10.0)
        n_terms = _terms_for_tail(params)
        closed = reflected_amplitude(params, psi)
        truncated = partial_sum_reflected_amplitude(params, psi, n_terms)
        assert abs(closed - truncated) < 1e-10


def test_energy_conservation_lossless():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        params = random_params(rng, rho=1.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        total = monochromatic_reflectance(params, psi) + monochromatic_transmittance(params, psi)
        assert abs(total - 1.0) < 1e-12


def test_subunitarity_with_loss():
    rng = np.random.default_rng(8)
    for _ in range(200):
        params = random_params(rng, rho=rng.uniform(0.05, 0.9999))
        psi = rng.uniform(0.0, 2.0 * math.pi)
        total = monochromatic_reflectance(params, psi) + monochromatic_transmittance(params, psi)
        assert total < 1.0


def test_periodicity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        params = random_params(rng)
        psi = rng.uniform(-math.pi, math.pi)
        for fn in (monochromatic_reflectance, monochromatic_transmittance):
            assert abs(fn(params, psi) - fn(params, psi + 2.0 * math.pi)) < 1e-12


def test_transmission_peaks_on_resonance():
    rng = np.random.default_rng(10)
    psi_grid = np.linspace(-math.pi, math.pi, 721)
    for _ in range(50):
        params = random_params(rng)
        if params.feedback_amplitude == 0.0:
            continue
        values = monochromatic_transmittance(params, psi_grid)
        assert monochromatic_transmittance(params, 0.0) >= values.max() - 1e-15


def test_opaque_limit_reduces_to_closed_triple():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r1 = rng.uniform(0.01, 0.99)
        r2 = rng.uniform(0.01, 0.99)
        params = DeviceParams(r1, r2, 0.0)
        psi = rng.uniform(-5.0, 5.0)
        reflect = monochromatic_reflectance(params, psi)
        transmit = monochromatic_transmittance(params, psi)
        absorbed = 1.0 - reflect - transmit
        np.testing.assert_allclose(reflect, r1, rtol=1e-12)
        np.testing.assert_allclose(absorbed, r2 * (1.0 - r1), rtol=1e-9)
        np.testing.assert_allclose(transmit, (1.0 - r1) * (1.0 - r2), rtol=1e-12)


def test_spectral_response_bundles_consistent_fields():
    rng = np.random.default_rng(12)
    for _ in range(200):
        params = random_params(rng)
        psi = rng.uniform(-7.0, 7.0)
        resp = spectral_response(params, psi)
        assert resp.psi == psi
        assert abs(resp.reflect_fraction - abs(resp.reflected_amplitude_factor) ** 2) < 1e-12
        total = resp.reflect_fraction + resp.transmit_fraction
        if params.rho == 1.0:
            assert abs(total - 1.0) < 1e-12
        else:
            assert total <= 1.0 + 1e-12


def test_vectorized_phase_matches_scalar():
    params = DeviceParams(0.9, 0.7, 0.95)
    psi = np.linspace(-2.0, 2.0, 11)
    vec = monochromatic_reflectance(params, psi)
    scalars = [monochromatic_reflectance(params, p) for p in psi]
    np.testing.assert_allclose(vec, scalars, rtol=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_phase_rejected(bad):
    params = DeviceParams(0.5, 0.5, 1.0)
    for fn in (reflected_amplitude, monochromatic_reflectance, monochromatic_transmittance):
        with pytest.raises(ValueError):
            fn(params, bad)
    with pytest.raises(ValueError):
        partial_sum_reflected_amplitude(params, bad, 10)


def test_partial_sum_requires_positive_terms():
    params = DeviceParams(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        partial_sum_reflected_amplitude(params, 0.0, 0)
