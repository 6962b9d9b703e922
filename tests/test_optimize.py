import math

import numpy as np
import pytest

from ifmsim import (
    MAX_MIN_ETA_TAU,
    MAX_TAU_WITH_ETA_FLOOR,
    InfeasibleObjectiveError,
    SweepGrid,
    WavePacketSpec,
    brute_force_coupling,
    efficiencies,
    optimize_coupling,
    sweep_efficiencies,
)
from ifmsim.resonator import DeviceParams


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r_values=(), rho_values=(0.999,)),
        dict(r_values=(0.9, 0.8), rho_values=(0.999,)),
        dict(r_values=(0.9, 0.9), rho_values=(0.999,)),
        dict(r_values=(0.0, 0.9), rho_values=(0.999,)),
        dict(r_values=(0.9,), rho_values=(0.999, 1.001)),
        dict(r_values=(0.9,), rho_values=(0.0,)),
        dict(r_values=(0.9,), rho_values=(0.999,), a=0.0),
        dict(r_values=("0.5",), rho_values=(0.999,)),
        dict(r_values=(0.5,), rho_values=(True,)),
        dict(r_values=(0.5,), rho_values=(0.999,), a=True),
    ],
)
def test_sweep_grid_validation(kwargs):
    with pytest.raises(ValueError):
        SweepGrid(**kwargs)


def test_sweep_shape_and_row_major_order():
    grid = SweepGrid(r_values=(0.9, 0.95, 0.98), rho_values=(0.999, 0.9999, 1.0), a=500.0)
    rows = sweep_efficiencies(grid)
    assert len(rows) == 9
    expected_order = [(r, rho) for r in grid.r_values for rho in grid.rho_values]
    assert [(row.r1, row.rho) for row in rows] == expected_order
    assert all(row.r1 == row.r2 and row.a == 500.0 for row in rows)


def test_sweep_deterministic():
    grid = SweepGrid(r_values=(0.9, 0.98), rho_values=(0.999, 1.0))
    assert sweep_efficiencies(grid) == sweep_efficiencies(grid)


def test_sweep_lossless_cells_have_equal_efficiencies():
    grid = SweepGrid(r_values=(0.7, 0.9), rho_values=(1.0,))
    for row in sweep_efficiencies(grid):
        assert row.eta == row.tau


def test_sweep_contains_benchmark_cell():
    grid = SweepGrid(r_values=(0.9, 0.98), rho_values=(0.999, 0.9999), a=500.0)
    row = next(r for r in sweep_efficiencies(grid) if r.r1 == 0.98 and r.rho == 0.9999)
    assert 0.98 <= row.eta <= 1.0
    assert 0.97 <= row.tau <= 0.99
    report = efficiencies(DeviceParams(0.98, 0.98, 0.9999, 500.0))
    assert row.eta == report.eta and row.tau == report.tau


def test_optimizer_prefers_symmetric_couplings():
    best = optimize_coupling(rho=0.9999, a=500.0, objective=MAX_MIN_ETA_TAU)
    assert abs(best.r1_star - best.r2_star) <= 0.005
    assert best.objective_name == MAX_MIN_ETA_TAU


def test_optimizer_symmetric_across_loss_settings():
    for rho, a in ((0.999, 500.0), (0.9995, 200.0), (0.9999, 500.0), (0.99995, 1000.0), (1.0, 1e5)):
        best = optimize_coupling(rho=rho, a=a, objective=MAX_MIN_ETA_TAU)
        assert abs(best.r1_star - best.r2_star) <= 0.005


def test_optimizer_stays_inside_box():
    best = optimize_coupling(rho=1.0, a=1e5, objective=MAX_MIN_ETA_TAU)
    for r in (best.r1_star, best.r2_star):
        assert 0.5 < r < 0.9999


def test_optimizer_improves_on_coarse_grid():
    refined = optimize_coupling(rho=0.9999, a=500.0)
    # the corner answer must beat every cell of a coarse diagonal grid
    best_diagonal = -1.0
    for k in range(99):
        r = 0.505 + 0.005 * k
        report = efficiencies(DeviceParams(r, r, 0.9999, 500.0))
        best_diagonal = max(best_diagonal, min(report.eta, report.tau))
    assert refined.objective_value >= best_diagonal - 1e-12


def test_optimizer_deterministic():
    assert optimize_coupling(0.9999, 500.0) == optimize_coupling(0.9999, 500.0)


def test_optimizer_objective_value_reproducible():
    best = optimize_coupling(0.9999, 500.0)
    report = efficiencies(DeviceParams(best.r1_star, best.r2_star, 0.9999, 500.0))
    assert abs(min(report.eta, report.tau) - best.objective_value) < 1e-9


def test_constrained_objective_feasible_floor():
    best = optimize_coupling(
        rho=0.9999, a=500.0, objective=MAX_TAU_WITH_ETA_FLOOR, eta_floor=0.995
    )
    assert best.objective_value >= 0.97
    report = efficiencies(DeviceParams(best.r1_star, best.r2_star, 0.9999, 500.0))
    assert report.eta >= 0.995
    assert abs(report.tau - best.objective_value) < 1e-9
    # the corner meets this floor, and it maximizes tau over the whole box
    assert (best.r1_star, best.r2_star) == (0.5001, 0.5001)


def test_max_min_optimum_is_the_lower_corner():
    """The coordinate search of earlier versions stalled at (0.50448, 0.50437)."""
    best = optimize_coupling(0.9999, 500.0)
    assert (best.r1_star, best.r2_star) == (0.5001, 0.5001)
    assert best.objective_value == 0.9997959496545001
    assert best.objective_value == efficiencies(DeviceParams(0.5001, 0.5001, 0.9999, 500.0)).tau


@pytest.mark.parametrize("rho,a,eta_floor", [(0.5, 100.0, 0.8135), (0.9, 10.0, 0.988983)])
def test_binding_floor_beats_every_grid_cell(rho, a, eta_floor):
    corner = efficiencies(DeviceParams(0.5001, 0.5001, rho, a))
    assert corner.eta < eta_floor  # the floor binds
    best = optimize_coupling(rho, a, MAX_TAU_WITH_ETA_FLOOR, eta_floor)
    report = efficiencies(DeviceParams(best.r1_star, best.r2_star, rho, a))
    assert report.eta >= eta_floor
    assert best.objective_value == report.tau
    assert 0.5 < best.r1_star < 0.9999 and 0.5 < best.r2_star < 0.9999
    near = brute_force_coupling(rho, a, MAX_TAU_WITH_ETA_FLOOR, eta_floor,
                                center=(best.r1_star, best.r2_star))
    whole_box = brute_force_coupling(rho, a, MAX_TAU_WITH_ETA_FLOOR, eta_floor, resolution=0.005)
    assert best.objective_value >= near.objective_value - 1e-12
    assert best.objective_value >= whole_box.objective_value - 1e-12


def test_constrained_objective_infeasible_floor():
    with pytest.raises(InfeasibleObjectiveError):
        optimize_coupling(
            rho=0.9999, a=500.0, objective=MAX_TAU_WITH_ETA_FLOOR, eta_floor=1.0 - 1e-7
        )


def test_constrained_objective_requires_floor():
    with pytest.raises(ValueError):
        optimize_coupling(rho=0.9999, a=500.0, objective=MAX_TAU_WITH_ETA_FLOOR)


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        optimize_coupling(rho=0.9999, a=500.0, objective="maximize_vibes")


def test_brute_force_agrees_with_refined_search():
    refined = optimize_coupling(rho=0.9999, a=500.0)
    oracle = brute_force_coupling(
        rho=0.9999, a=500.0, center=(refined.r1_star, refined.r2_star),
        halfwidth=0.01, resolution=0.0005,
    )
    assert abs(refined.objective_value - oracle.objective_value) <= 1e-4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho="0.9", a=500.0),
        dict(rho=0.9, a=500.0, objective=MAX_TAU_WITH_ETA_FLOOR, eta_floor="0.5"),
    ],
)
def test_optimizer_input_validation(kwargs):
    with pytest.raises(ValueError):
        optimize_coupling(**kwargs)


@pytest.mark.parametrize(
    "window",
    [
        dict(center=(0.2, 0.2)),  # used to scan (0.21, 0.21), outside the box
        dict(center=(0.6, 0.9), halfwidth=-0.1),  # used to scan [0.7, 0.8]
        dict(center=(0.9, math.nan)),
        dict(center=(0.9, 0.9), halfwidth=math.nan),
        dict(resolution=0.0),  # used to raise ZeroDivisionError
        dict(resolution=math.nan),
        dict(resolution=-0.01),
    ],
)
def test_brute_force_rejects_bad_window(window):
    with pytest.raises(ValueError):
        brute_force_coupling(0.9999, 500.0, **window)


# A feasible stretch of r2 narrower than the former s-scan step: that scan
# raised InfeasibleObjectiveError here.
NARROW = (0.9957912024966665, 34.17479774624492, MAX_TAU_WITH_ETA_FLOOR, 0.9991379777978913)


def test_narrow_feasible_stretch_is_found():
    rho, a, _, eta_floor = NARROW
    best = optimize_coupling(*NARROW)
    assert best.r1_star == 0.5001
    assert abs(best.r2_star - 0.50162366) < 1e-8
    report = efficiencies(DeviceParams(best.r1_star, best.r2_star, rho, a))
    assert report.eta >= eta_floor and best.objective_value == report.tau
    near = brute_force_coupling(*NARROW, center=(best.r1_star, best.r2_star))
    whole_box = brute_force_coupling(*NARROW, resolution=0.005)
    assert best.objective_value >= near.objective_value - 1e-12
    assert best.objective_value >= whole_box.objective_value - 1e-12


def test_binding_floor_call_count(monkeypatch):
    """The golden-section tol (1e-12) sits far above the ulp of r2, so both loops end.

    At most: the corner and the edge's top; 2 + 56 golden-section probes
    (0.618^56 * 0.5 < 1e-12); the peak again; 53 bisection steps to adjacent
    floats in [0.5, 1).
    """
    import ifmsim.optimize as optimize

    calls = []
    monkeypatch.setattr(optimize, "efficiencies",
                        lambda *args: calls.append(args) or efficiencies(*args))
    optimize_coupling(*NARROW)
    assert len(calls) <= 2 + 58 + 1 + 53


def test_floor_above_corner_raises_when_edge_is_corner(monkeypatch):
    """At rho = 1, top = lo / rho^2 = lo: the corner is the box's eta maximum."""
    import ifmsim.optimize as optimize

    monkeypatch.setattr(optimize, "golden_section_max", None)  # must not be called
    corner = efficiencies(DeviceParams(0.5001, 0.5001, 1.0, 500.0))
    with pytest.raises(InfeasibleObjectiveError):
        optimize_coupling(1.0, 500.0, MAX_TAU_WITH_ETA_FLOOR, math.nextafter(corner.eta, 1.0))


def test_edge_two_ulps_long():
    """Just below rho = 1 the edge [lo, top] spans two ulps, under the golden-section tol."""
    rho = math.nextafter(1.0, 0.0)
    with pytest.raises(InfeasibleObjectiveError):
        optimize_coupling(rho, 500.0, MAX_TAU_WITH_ETA_FLOOR, 1.0 - 1e-7)
