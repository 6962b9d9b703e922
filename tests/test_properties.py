"""Property-based checks of the efficiencies over the whole valid input range."""

import pytest

from ifmsim import DeviceParams, compute_phi, efficiencies

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
