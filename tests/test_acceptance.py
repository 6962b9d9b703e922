"""Headline numerical claims, one test per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion alongside the pytest verdicts. Tolerances are pinned here and
nowhere else.
"""

import json
import math
import time

import numpy as np

import ifmsim.cli as cli
from ifmsim import (
    DeviceParams,
    ObjectModel,
    TrialOutcome,
    brute_force_coupling,
    compute_phi,
    efficiencies,
    elitzur_vaidman,
    estimate_grayness,
    monochromatic_reflectance,
    monochromatic_transmittance,
    optimize_coupling,
    outcome_distribution,
    partial_sum_reflected_amplitude,
    reflected_amplitude,
    run_trials,
    zeno_scheme,
)
from ifmsim.schemes import ZenoParams

from _oracles import dense_energy_ratios

BENCH = DeviceParams(r1=0.98, r2=0.98, rho=0.9999, a=500.0)


def _report(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_paper_efficiency_benchmark():
    start = time.perf_counter()
    rep = efficiencies(BENCH)
    elapsed = time.perf_counter() - start
    ok = 0.98 <= rep.eta <= 1.00 and 0.97 <= rep.tau <= 0.99 and elapsed < 1.0
    _report(1, f"benchmark eta={rep.eta:.4f} in [0.98,1.00], tau={rep.tau:.4f} "
               f"in [0.97,0.99], {elapsed:.3f}s < 1s", ok)


def test_criterion_02_zeno_hit_probability():
    q = zeno_scheme(ZenoParams.from_alpha(math.radians(1.0))).hit_prob
    _report(2, f"rotation-scheme hit Q={q:.4f} within 0.005 of 0.03", abs(q - 0.03) <= 0.005)


def test_criterion_03_mach_zehnder_benchmarks():
    half = elitzur_vaidman(0.5)
    near_one = elitzur_vaidman(0.999)
    ok = (
        abs(half.detect_no_hit_prob - 0.25) <= 1e-12
        and abs(half.long_run_efficiency - 1.0 / 3.0) <= 1e-12
        and near_one.long_run_efficiency > 0.499
    )
    _report(3, "Mach-Zehnder single-shot 0.25, long-run 1/3, asymmetric limit > 0.499", ok)


def test_criterion_04_opaque_object_triple():
    dist = outcome_distribution(BENCH, None, ObjectModel.opaque(), 1.0)
    ok = (
        abs(dist[TrialOutcome.REFLECTED_DETECTOR] - 0.98) <= 1e-12
        and abs(dist[TrialOutcome.OBJECT_HIT] - 0.0196) <= 1e-12
        and abs(dist[TrialOutcome.TRANSMITTED_DETECTOR] - 0.0004) <= 1e-12
        and dist[TrialOutcome.LOST] == 0.0
        and dist[TrialOutcome.NO_DETECTION] == 0.0
    )
    _report(4, "opaque-object triple {0.98, 0.0196, 0.0004} exact to 1e-12", ok)


def test_criterion_05_energy_conservation():
    rng = np.random.default_rng(20240805)
    worst_mono = 0.0
    for _ in range(1000):
        params = DeviceParams(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99), 1.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        total = monochromatic_reflectance(params, psi) + monochromatic_transmittance(params, psi)
        worst_mono = max(worst_mono, abs(total - 1.0))

    worst_packet = 0.0
    for _ in range(20):
        r1, r2, a = rng.uniform(0.2, 0.99), rng.uniform(0.2, 0.99), rng.uniform(50.0, 2e3)
        rep = efficiencies(DeviceParams(r1, r2, 1.0, a=a))
        # Direct spectral averages of R and T, independent of the phi series.
        i_r, i_t = dense_energy_ratios(r1, r2, 1.0, a, n_nodes=200_001)
        worst_packet = max(worst_packet, abs(i_r + i_t - 1.0),
                           abs((1.0 - rep.eta) - i_r), abs(rep.tau - i_t))
    ok = worst_mono <= 1e-12 and worst_packet <= 2e-8
    _report(5, f"energy conservation: monochromatic worst {worst_mono:.2e} <= 1e-12, "
               f"integrated worst {worst_packet:.2e} <= 2e-08", ok)


def test_criterion_06_geometric_series_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240806)
    worst = 0.0
    for _ in range(1000):
        params = DeviceParams(
            rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99), rng.uniform(0.05, 1.0)
        )
        psi = rng.uniform(-10.0, 10.0)
        q = params.feedback_amplitude
        pref = (1.0 - params.r1) * params.rho * math.sqrt(params.r2)
        if q > 0.0 and pref > 0.0:
            n_terms = max(1, math.ceil(math.log(1e-13 * (1.0 - q) / pref) / math.log(q)))
        else:
            n_terms = 1
        gap = abs(
            reflected_amplitude(params, psi)
            - partial_sum_reflected_amplitude(params, psi, n_terms)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(6, f"closed form vs partial sum: worst gap {worst:.2e} <= 1e-10 over 1000 draws, "
               f"{elapsed:.2f}s < 10s", ok)


def test_criterion_07_phi_asymptote():
    cases = [(0.5, 1.0), (0.9, 0.9999), (0.98, 0.9999)]
    ok = True
    details = []
    for r, rho in cases:
        phi, _ = compute_phi(DeviceParams(r, r, rho, a=1e5))
        limit = 1.0 / (1.0 - rho * math.sqrt(r * r)) ** 2
        rel = abs(phi - limit) / phi
        details.append(f"(r={r}, rho={rho}): {rel:.2e}")
        ok = ok and rel <= 1e-3
    benchmark_limit = 1.0 / (1.0 - 0.9999 * 0.98) ** 2
    ok = ok and abs(benchmark_limit - 2475.6) < 0.2
    _report(7, "phi large-coherence limit within 0.1%: " + ", ".join(details), ok)


def test_criterion_08_monte_carlo_convergence(tmp_path):
    start = time.perf_counter()
    n = 1_000_000
    stats = run_trials(BENCH, None, ObjectModel.absent(), 1.0, n, seed=2024)
    dist = outcome_distribution(BENCH, None, ObjectModel.absent(), 1.0)
    within = True
    for outcome in TrialOutcome:
        p = dist[outcome]
        sigma = math.sqrt(n * p * (1.0 - p))
        if sigma > 0.0:
            within = within and abs(stats.counts[outcome] - n * p) <= 4.0 * sigma
        else:
            within = within and stats.counts[outcome] == 0

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["simulate", "--object", "none", "--trials", str(n), "--seed", "2024",
            "--format", "json"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    ok = within and identical and elapsed < 30.0
    _report(8, f"1e6 trials within 4 sigma of analytic, byte-identical reports, "
               f"{elapsed:.1f}s < 30s", ok)


def test_criterion_09_grayness_recovery_coverage():
    start = time.perf_counter()
    n = 100_000
    replications = 100
    coverage = {}
    for true_g in (0.0, 0.5, 1.0):
        covered = 0
        for rep in range(replications):
            stats = run_trials(
                BENCH, None, ObjectModel(true_g), 1.0, n, seed=50_000 + rep
            )
            _, (lo, hi) = estimate_grayness(stats, BENCH)
            if lo <= true_g <= hi:
                covered += 1
        coverage[true_g] = covered
    elapsed = time.perf_counter() - start
    ok = all(v >= 90 for v in coverage.values()) and elapsed < 300.0
    _report(9, f"95% interval coverage over 100 replications: {coverage} "
               f"(all >= 90), {elapsed:.0f}s < 300s", ok)


def test_criterion_10_symmetric_coupling_claim():
    start = time.perf_counter()
    best = optimize_coupling(rho=0.9999, a=500.0)
    oracle = brute_force_coupling(
        rho=0.9999, a=500.0, center=(best.r1_star, best.r2_star),
        halfwidth=0.01, resolution=0.0005,
    )
    gap = abs(best.objective_value - oracle.objective_value)
    elapsed = time.perf_counter() - start
    ok = abs(best.r1_star - best.r2_star) <= 0.005 and gap <= 1e-4 and elapsed < 300.0
    _report(10, f"optimal couplings |r1-r2|={abs(best.r1_star - best.r2_star):.2e} <= 0.005, "
                f"oracle gap {gap:.2e} <= 1e-4, {elapsed:.0f}s < 300s", ok)
