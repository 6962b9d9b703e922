"""Choosing the coupling reflectivities.

Both efficiencies should sit as close to 1 as possible. The search below
scans the achievable coupling box, refines the best cell, and confirms two
things: the optimum wants symmetric couplings (r1 = r2), and constraining
the reflected-port suppression barely costs any throughput.
"""

from ifmsim import (
    MAX_MIN_ETA_TAU,
    MAX_TAU_WITH_ETA_FLOOR,
    DeviceParams,
    SweepGrid,
    brute_force_coupling,
    efficiencies,
    optimize_coupling,
    sweep_efficiencies,
)

RHO, A = 0.9999, 500.0

print(f"=== Unconstrained search (maximize min(eta, tau)) at rho={RHO}, a={A:g} ===")
best = optimize_coupling(rho=RHO, a=A, objective=MAX_MIN_ETA_TAU)
print(f"r1* = {best.r1_star:.5f}, r2* = {best.r2_star:.5f}")
print(f"objective = {best.objective_value:.6f}")
print(f"coupling asymmetry |r1* - r2*| = {abs(best.r1_star - best.r2_star):.2e}")

oracle = brute_force_coupling(rho=RHO, a=A, center=(best.r1_star, best.r2_star))
print(f"fine-grid oracle agrees within {abs(best.objective_value - oracle.objective_value):.2e}\n")

print("=== Constrained: maximize tau subject to eta >= 0.995 ===")
floored = optimize_coupling(
    rho=RHO, a=A, objective=MAX_TAU_WITH_ETA_FLOOR, eta_floor=0.995
)
at_floor = efficiencies(DeviceParams(floored.r1_star, floored.r2_star, RHO, A))
print(f"r1* = {floored.r1_star:.5f}, r2* = {floored.r2_star:.5f}")
print(f"tau = {at_floor.tau:.6f} with eta = {at_floor.eta:.6f} (floor honored)\n")

print("=== Efficiency landscape around the headline design point ===")
grid = SweepGrid(
    r_values=(0.9, 0.95, 0.98, 0.99), rho_values=(0.999, 0.9999, 1.0), a=A
)
print("r1,r2,rho,a,eta,tau,phi,truncation_bound")
for row in sweep_efficiencies(grid):
    print(f"{row.r1:g},{row.r2:g},{row.rho:g},{row.a:g},"
          f"{row.eta:.6g},{row.tau:.6g},{row.phi:.6g},{row.truncation_bound:.3g}")
print()
print("Symmetric coupling wins because tau depends on the couplings only")
print("through (1 - r1)(1 - r2) once the loop feedback rho sqrt(r1 r2) is")
print("fixed, and that product is largest when the two gaps match.")
