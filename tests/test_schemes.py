import math

import numpy as np
import pytest

from ifmsim import (
    ZenoParams,
    elitzur_vaidman,
    resonator_opaque_scheme,
    two_cavity_scheme,
    zeno_scheme,
)


def assert_normalized(result):
    total = result.detect_no_hit_prob + result.hit_prob + result.inconclusive_prob
    assert abs(total - 1.0) < 1e-12
    ratio = result.detect_no_hit_prob / (result.detect_no_hit_prob + result.hit_prob)
    assert abs(result.long_run_efficiency - ratio) < 1e-12


def test_mach_zehnder_symmetric_splitter():
    result = elitzur_vaidman(0.5)
    assert abs(result.detect_no_hit_prob - 0.25) < 1e-12
    assert abs(result.hit_prob - 0.5) < 1e-12
    assert abs(result.inconclusive_prob - 0.25) < 1e-12
    assert abs(result.long_run_efficiency - 1.0 / 3.0) < 1e-12
    assert_normalized(result)


def test_mach_zehnder_asymmetric_limit():
    assert elitzur_vaidman(0.999).long_run_efficiency > 0.499


def test_mach_zehnder_long_run_monotone():
    grid = np.linspace(0.005, 0.995, 100)
    values = [elitzur_vaidman(float(r)).long_run_efficiency for r in grid]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert values[-1] < 0.5


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
def test_mach_zehnder_validates_reflectivity(bad):
    with pytest.raises(ValueError):
        elitzur_vaidman(bad)


def test_zeno_params_from_alpha():
    params = ZenoParams.from_alpha(math.radians(1.0))
    assert params.n_cycles == 90
    assert params.vertical_misalignment < math.radians(1.0) / 2.0 + 1e-12


def test_zeno_params_validation():
    with pytest.raises(ValueError):
        ZenoParams(alpha=0.0, n_cycles=10)
    with pytest.raises(ValueError):
        ZenoParams(alpha=math.pi / 2 + 0.01, n_cycles=1)
    with pytest.raises(ValueError):
        ZenoParams(alpha=0.1, n_cycles=0)


@pytest.mark.parametrize(
    "make,accepted",
    [
        (lambda: ZenoParams(alpha=True, n_cycles=1), False),
        (lambda: ZenoParams(alpha=0.1, n_cycles=True), False),
        (lambda: ZenoParams(alpha=0.1, n_cycles=3.0), False),
        (lambda: ZenoParams(alpha=1e-3, n_cycles=2**53 + 1), False),
        (lambda: ZenoParams.from_alpha(1e-320), False),
        (lambda: two_cavity_scheme(True), False),
        (lambda: two_cavity_scheme(10**400), False),
        (lambda: elitzur_vaidman(True), False),
        (lambda: resonator_opaque_scheme(0.9, True), False),
        (lambda: ZenoParams(alpha=np.float64(0.1), n_cycles=np.int64(3)), True),
        (lambda: ZenoParams.from_alpha(np.float32(0.1)), True),
        (lambda: two_cavity_scheme(np.int64(5)), True),
        (lambda: two_cavity_scheme(2**53), True),
        (lambda: elitzur_vaidman(np.float32(0.5)), True),
        (lambda: resonator_opaque_scheme(np.float32(0.9), np.float64(0.8)), True),
    ],
    ids=[
        "zeno-bool-alpha", "zeno-bool-cycles", "zeno-float-cycles", "zeno-cycles-over-2^53",
        "zeno-alpha-needs-over-2^53", "two-cavity-bool", "two-cavity-10^400", "ev-bool",
        "opaque-bool", "zeno-numpy", "zeno-from-numpy-alpha", "two-cavity-numpy",
        "two-cavity-2^53", "ev-float32", "opaque-numpy",
    ],
)
def test_scheme_input_validation(make, accepted):
    if accepted:
        make()
    else:
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("alpha_deg,n_cycles,vertical", [(50.0, 2, 0.96985), (0.7, 129, 0.99997)])
def test_zeno_no_object_exit_probability(alpha_deg, n_cycles, vertical):
    params = ZenoParams.from_alpha(math.radians(alpha_deg))
    assert params.n_cycles == n_cycles
    prob = zeno_scheme(params).metadata["no_object_exit_vertical_prob"]
    assert prob == pytest.approx(vertical, abs=5e-6)
    assert prob == math.sin(n_cycles * params.alpha) ** 2


def test_zeno_one_degree_hit_probability():
    result = zeno_scheme(ZenoParams.from_alpha(math.radians(1.0)))
    assert abs(result.hit_prob - 0.03) <= 0.005
    # value frozen from an independent evaluation of 1 - cos(pi/180)^180
    np.testing.assert_allclose(result.hit_prob, 0.027044526355183507, rtol=1e-10)
    assert result.inconclusive_prob == 0.0
    assert result.metadata["no_object_exit_vertical_prob"] == 1.0
    assert_normalized(result)


def test_zeno_limits():
    # vanishing rotation: the object is almost never hit
    tiny = zeno_scheme(ZenoParams.from_alpha(1e-4))
    assert tiny.hit_prob < 1e-3
    # a single quarter-turn always hits
    full = zeno_scheme(ZenoParams(alpha=math.pi / 2, n_cycles=1))
    assert full.hit_prob == 1.0


def test_zeno_hit_decreases_with_cycles():
    previous = 1.1
    for n in (1, 3, 10, 30, 100, 1000, 10000):
        q = zeno_scheme(ZenoParams(alpha=math.pi / (2.0 * n), n_cycles=n)).hit_prob
        assert q < previous
        previous = q


def test_zeno_reports_misalignment_for_rounded_cycles():
    # pi / (2 * 0.011) is not an integer; the rounded cycle count leaves the
    # exit polarization slightly off vertical and that offset is surfaced.
    params = ZenoParams.from_alpha(0.011)
    assert params.n_cycles == round(math.pi / 0.022)
    result = zeno_scheme(params)
    assert 0.0 < result.metadata["vertical_misalignment_rad"] <= 0.011 / 2.0


def test_two_cavity_examples():
    assert two_cavity_scheme(1).hit_prob == 1.0
    assert two_cavity_scheme(10**6).hit_prob < 1e-4
    assert two_cavity_scheme(5).metadata["model_derived"] is True


def test_two_cavity_matches_rotation_model():
    """Identical hit probabilities at matching per-cycle angles."""
    for n in (1, 2, 7, 90, 500, 4096):
        cavity = two_cavity_scheme(n)
        rotation = zeno_scheme(ZenoParams(alpha=math.pi / (2.0 * n), n_cycles=n))
        assert cavity.hit_prob == rotation.hit_prob
        assert_normalized(cavity)


def test_two_cavity_validation():
    with pytest.raises(ValueError):
        two_cavity_scheme(0)


def test_resonator_opaque_triple():
    result = resonator_opaque_scheme(0.98)
    np.testing.assert_allclose(result.detect_no_hit_prob, 0.98, rtol=1e-12)
    np.testing.assert_allclose(result.hit_prob, 0.98 * 0.02, rtol=1e-12)
    np.testing.assert_allclose(result.inconclusive_prob, 0.02 * 0.02, rtol=1e-12)
    assert_normalized(result)
    asym = resonator_opaque_scheme(0.9, 0.8)
    np.testing.assert_allclose(
        [asym.detect_no_hit_prob, asym.hit_prob, asym.inconclusive_prob],
        [0.9, 0.8 * 0.1, 0.1 * 0.2],
        rtol=1e-12,
    )
