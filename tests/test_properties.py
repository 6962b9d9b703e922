"""Property-based checks of the efficiencies and the coupling design over the valid inputs."""

import math

import pytest

from ifmsim import (
    MAX_TAU_WITH_ETA_FLOOR,
    DeviceParams,
    compute_phi,
    efficiencies,
    optimize_coupling,
)

UNIT_ROUNDOFF = 2.0**-53

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_rho = st.floats(min_value=0.0, max_value=1.0)
_a = st.floats(min_value=1e-6, max_value=1e300)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(r1=_unit, r2=_unit, rho=_rho, a=_a)
def test_efficiency_order_property(r1, r2, rho, a):
    params = DeviceParams(r1, r2, rho, a)
    report = efficiencies(params)
    assert 0.0 <= report.tau <= report.eta
    # eta <= 1 holds exactly at exact inputs. Rounding c = rho sqrt(r1 r2)
    # (2.5 u relative) moves phi by up to 2c / (1 - c) times that, and
    # 1 - rho^2 r2 carries 2 u absolute; the bound covers the rest.
    c = params.feedback_amplitude
    slack = report.truncation_bound + UNIT_ROUNDOFF * (
        5.0 / (1.0 - c) + 2.0 / (1.0 - rho * rho * r2) + 8.0
    )
    assert report.eta <= 1.0 + slack


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(r1=_unit, r2=_unit, rho=_rho, a=_a)
def test_phi_symmetric_in_couplings_property(r1, r2, rho, a):
    assert compute_phi(DeviceParams(r1, r2, rho, a)) == compute_phi(DeviceParams(r2, r1, rho, a))


_rho_positive = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_box = st.floats(min_value=0.5001, max_value=0.9998)
_a_design = st.floats(min_value=0.3, max_value=1e4)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(r1=_box, r2=_box, rho=_rho_positive, a=_a_design)
@hypothesis.example(r1=0.5002, r2=0.5001, rho=1.0, a=1e4)  # tau is nearly flat here
def test_lower_corner_maximizes_tau_property(r1, r2, rho, a):
    """The theorem behind optimize_coupling's max-min answer (see ifmsim.optimize)."""
    corner = DeviceParams(0.5001, 0.5001, rho, a)
    point = DeviceParams(r1, r2, rho, a)
    best, other = efficiencies(corner), efficiencies(point)
    # Each tau carries its phi bound, the rounding of c (up to 5 u / (1 - c)
    # through phi) and a few roundings of its prefactor.
    slack = best.truncation_bound + other.truncation_bound + UNIT_ROUNDOFF * (
        5.0 / (1.0 - corner.feedback_amplitude) + 5.0 / (1.0 - point.feedback_amplitude) + 16.0
    )
    assert other.tau <= best.tau * (1.0 + slack)


_LO = 0.5001
_rho_design = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-12, max_value=1e-2).map(lambda d: 1.0 - d),
    _rho_positive,
)


def _error_bounds(params):
    """Efficiencies at ``params`` with absolute error bounds on eta and tau.

    The relative error is phi's bound, the rounding of c through phi (up to
    5 u / (1 - c)) and 16 roundings of the prefactors, as above.
    """
    report = efficiencies(params)
    rel = report.truncation_bound + UNIT_ROUNDOFF * (5.0 / (1.0 - params.feedback_amplitude) + 16.0)
    return report, report.eta * rel, report.tau * rel


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(rho=_rho_design, a=_a_design, r1=_box, r2=_box, edge=st.integers(0, 9))
@hypothesis.example(rho=0.9957912024966665, a=34.17479774624492, r1=0.5001, r2=0.5017, edge=0)
@hypothesis.example(rho=0.9, a=10.0, r1=0.52, r2=0.62, edge=9)  # off the edge, binding
def test_binding_floor_beats_box_points_property(rho, a, r1, r2, edge):
    """The tau-floor answer against a box point P, 30 % of them on the edge r1 = lo.

    The floor is eta(P) less the error bounds of eta at P and on the edge, so
    P meets it at the exact inputs, and so does the edge's eta peak: no
    raise. The bisection's last infeasible probe, one ulp (2^-53 in [0.5, 1))
    below the answer, misses the floor by more than its own error, so it lies
    below E, the first edge point with eta(E) >= eta(P). Along the edge tau
    falls by at most tau / (1 - r2) per unit r2, so tau(answer) >= tau(E) -
    tau u / (1 - r2). tau(E) >= tau(P) is the observed, unproven claim under
    test; for P on the edge it is lemma B of ifmsim.optimize. At the floor
    eta(P) itself, eta's rounding can move the bisection's end past P where
    eta is flat along the edge, which no rounding-sized slack covers.
    """
    point = DeviceParams(_LO if edge < 3 else r1, r2, rho, a)
    at_point, eta_error, tau_error = _error_bounds(point)
    top = min(0.9998, _LO / rho / rho)
    edge_error = max(_error_bounds(DeviceParams(_LO, r, rho, a))[1] for r in (_LO, top))
    floor = at_point.eta - eta_error - edge_error

    best = optimize_coupling(rho, a, MAX_TAU_WITH_ETA_FLOOR, floor)
    answer, _, answer_tau_error = _error_bounds(DeviceParams(best.r1_star, best.r2_star, rho, a))
    assert answer.eta >= floor
    if best.r2_star > _LO:
        # The bound at the edge's two ends stands for the bisection's last probe.
        probe = DeviceParams(_LO, math.nextafter(best.r2_star, 0.0), rho, a)
        hypothesis.assume(_error_bounds(probe)[1] <= edge_error)
    slack = tau_error + answer_tau_error + answer.tau * UNIT_ROUNDOFF / (1.0 - best.r2_star)
    assert answer.tau >= at_point.tau - slack
