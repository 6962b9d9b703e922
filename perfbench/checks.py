"""Correctness checks for benchmark outputs, against an independent oracle.

The checker never imports the package under test. Its reference for the
resonance integral is the closed Gaussian transform of the Poisson-kernel
expansion of the buildup factor,

    phi = (1 + 2 sum_{n>=1} c^n exp(-n^2 / (4 a^2))) / (1 - c^2),

which is the x_max -> infinity limit of the package's windowed average (the
window at x_max = 8 changes it by less than 1e-19 relative). eta, tau and the
five-way outcome split follow from phi by the formulas in the package's
module docs. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

OUTCOMES = ("reflected_detector", "transmitted_detector", "object_hit", "lost", "no_detection")
REPORT_KEYS = ("schema_version", "command", "config", "results", "seed")

PHI_RTOL = 1e-6  # the package integrates to rel_tol 1e-8
PRINTED_RTOL = 2e-5  # CLI numbers carry 6 significant digits
GAP_TOL = 1e-4  # optimizer versus brute-force grid, as in the package tests
BOX = (0.5, 0.9999)  # admissible coupling box of the optimizer
COUNT_SIGMAS = 6.0


def phi_series(c: float, a: float) -> float:
    """Gaussian-weighted resonance integral by its exact series."""
    if c == 0.0:
        return 1.0
    by_c = 40.0 / -math.log(c)  # c^n < e^-40 beyond this
    by_a = 2.0 * a * math.sqrt(40.0)  # exp(-n^2/4a^2) < e^-40 beyond this
    n = np.arange(1, int(min(by_c, by_a)) + 2, dtype=float)
    terms = np.exp(n * math.log(c) - n * n / (4.0 * a * a))
    return (1.0 + 2.0 * float(np.sum(terms[::-1]))) / ((1.0 - c) * (1.0 + c))


def eta_tau(r1: float, r2: float, rho: float, a: float) -> tuple[float, float, float]:
    phi = phi_series(rho * math.sqrt(r1 * r2), a)
    return (1.0 - r1) * (1.0 - rho * rho * r2) * phi, (1.0 - r1) * (1.0 - r2) * phi, phi


def outcome_probs(device: dict, g: float, det_eff: float) -> list[float]:
    """Analytic outcome split in OUTCOMES order (object-first loss ordering)."""
    rho = device["rho"]
    eta, tau, _ = eta_tau(device["r1"], device["r2"], rho * math.sqrt(g), device["a"])
    w_hit, w_lost = 1.0 - g, g * (1.0 - rho * rho)
    undetected = eta - tau
    hit = undetected * w_hit / (w_hit + w_lost) if w_hit + w_lost > 0.0 else 0.0
    return [det_eff * (1.0 - eta), det_eff * tau, hit, undetected - hit,
            (1.0 - det_eff) * (1.0 - eta + tau)]


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def _counts_problems(counts: list[int], n: int, probs: list[float]) -> list[str]:
    problems = []
    if sum(counts) != n or min(counts) < 0:
        problems.append(f"counts {counts} do not sum to n={n}")
    for name, k, p in zip(OUTCOMES, counts, probs):
        sigma = math.sqrt(n * p * (1.0 - p)) if 0.0 < p < 1.0 else 0.0
        if abs(k - n * p) > COUNT_SIGMAS * sigma + 3.0:
            problems.append(f"{name}: count {k}, expected {n * p:.1f} +- {sigma:.1f}")
    return problems


def _grayness_problems(g_hat: float, ci: list[float], g: float) -> list[str]:
    lo, hi = ci
    if not (0.0 <= lo <= g_hat <= hi <= 1.0):
        return [f"interval {ci} does not bracket g_hat={g_hat}"]
    # 1.5 interval widths is about six standard errors.
    if abs(g_hat - g) > 1.5 * (hi - lo):
        return [f"g_hat={g_hat} is far from the true g={g} (interval {ci})"]
    return []


def check_design_point(inp: dict, out: dict) -> list[str]:
    r1, r2, rho, a = inp["r1"], inp["r2"], inp["rho"], inp["a"]
    eta, tau, phi = out["eta"], out["tau"], out["phi"]
    problems = []
    if not (0.0 <= tau <= eta <= 1.0 + PHI_RTOL):
        problems.append(f"0 <= tau <= eta <= 1 fails: eta={eta}, tau={tau}")
    if rho == 1.0 and tau != eta:
        problems.append(f"lossless point has tau={tau} != eta={eta}")
    ref = phi_series(rho * math.sqrt(r1 * r2), a)
    if not _close(phi, ref, PHI_RTOL):
        problems.append(f"phi={phi} differs from the series value {ref} by {abs(phi / ref - 1):.2e}")
    if out["R_min"] < -1e-12 or out["T_min"] < 0.0 or out["RT_max"] > 1.0 + 1e-12:
        problems.append(f"lineshape leaves [0, 1]: {out}")
    if rho == 1.0 and out["RT_min"] < 1.0 - 1e-9:
        problems.append(f"lossless lineshape loses energy: min R+T = {out['RT_min']}")
    c = rho * math.sqrt(r1 * r2)
    peak = (1.0 - r1) * (1.0 - r2) / (1.0 - c) ** 2
    if not _close(out["T0"], peak, PHI_RTOL):
        problems.append(f"on-resonance transmittance {out['T0']} != closed form {peak}")
    return problems


def _objective(inp: dict, r1: float, r2: float) -> float:
    eta, tau, _ = eta_tau(r1, r2, inp["rho"], inp["a"])
    if inp["objective"] == "max_min_eta_tau":
        return min(eta, tau)
    return tau if eta >= inp["eta_floor"] else -math.inf


def _optimum_problems(inp: dict, r1: float, r2: float, value: float, rtol: float) -> list[str]:
    problems = []
    if not (BOX[0] < r1 < BOX[1] and BOX[0] < r2 < BOX[1]):
        problems.append(f"optimum ({r1}, {r2}) lies outside the box {BOX}")
    ref = _objective(inp, r1, r2)
    if not _close(value, ref, rtol):
        problems.append(f"objective {value} at ({r1}, {r2}) differs from the series value {ref}")
    return problems


def check_coupling(inp: dict, out: dict) -> list[str]:
    problems = _optimum_problems(inp, out["r1"], out["r2"], out["value"], PHI_RTOL)
    if out["name"] != inp["objective"] or out["oracle_name"] != inp["objective"]:
        problems.append(f"objective names {out['name']}, {out['oracle_name']} != {inp['objective']}")
    gap = abs(out["oracle_value"] - out["value"])
    if gap > GAP_TOL:
        problems.append(f"objective gap to the brute-force oracle {gap:.3e} > {GAP_TOL}")
    return problems


def check_trials(inp: dict, out: dict) -> list[str]:
    n = inp["n_trials"]
    if out["n"] != n:
        return [f"n_trials {out['n']} != {n}"]
    probs = outcome_probs(inp["device"], inp["grayness"], inp["det_eff"])
    counts = [out["counts"][k] for k in OUTCOMES]
    return _counts_problems(counts, n, probs) + _grayness_problems(
        out["g_hat"], out["ci"], inp["grayness"])


def _report(stdout: str, command: str) -> dict:
    doc = json.loads(stdout)
    missing = [k for k in REPORT_KEYS if k not in doc]
    if missing:
        raise ValueError(f"report lacks keys {missing}")
    if doc["command"] != command.replace("-", "_"):
        raise ValueError(f"report names command {doc['command']!r}")
    return doc["results"]


def _check_efficiency(inp, stdout):
    res = _report(stdout, inp["command"])
    d = inp["expect"]["device"]
    eta, tau, phi = eta_tau(d["r1"], d["r2"], d["rho"], d["a"])
    return [f"{k}={res[k]} differs from the series value {ref}"
            for k, ref in (("eta", eta), ("tau", tau), ("phi", phi))
            if not _close(res[k], ref, PRINTED_RTOL)]


def _check_simulate(inp, stdout):
    res = _report(stdout, inp["command"])
    e = inp["expect"]
    counts = [res["counts"][k] for k in OUTCOMES]
    if res["n_trials"] != e["n_trials"]:
        return [f"n_trials {res['n_trials']} != {e['n_trials']}"]
    return _counts_problems(counts, e["n_trials"], outcome_probs(e["device"], e["grayness"], e["det_eff"]))


def _check_estimate(inp, stdout):
    res = _report(stdout, inp["command"])
    e = inp["expect"]
    if res["n_trials"] != e["n_trials"]:
        return [f"n_trials {res['n_trials']} != {e['n_trials']}"]
    return _grayness_problems(res["g_hat"], res["ci95"], e["grayness"])


def _check_sweep(inp, stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    head = ["r1", "r2", "rho", "a", "eta", "tau", "phi"]
    if rows[0][: len(head)] != head:
        return [f"CSV header {rows[0]}"]
    if len(rows) - 1 != inp["expect"]["rows"]:
        return [f"{len(rows) - 1} rows, expected {inp['expect']['rows']}"]
    problems = []
    for row in rows[1:]:
        r1, r2, rho, a, eta, tau, phi = (float(v) for v in row[:7])
        ref = eta_tau(r1, r2, rho, a)
        if not (0.0 <= tau <= eta <= 1.0 + PRINTED_RTOL):
            problems.append(f"0 <= tau <= eta <= 1 fails in row {row}")
        # r and rho are printed to 6 digits too, so compare at printed precision.
        if not all(_close(x, y, 10 * PRINTED_RTOL) for x, y in zip((eta, tau, phi), ref)):
            problems.append(f"row {row} differs from the series values {ref}")
    return problems


def _check_schemes(inp, stdout):
    rows = _report(stdout, inp["command"])["schemes"]
    if len(rows) != inp["expect"]["rows"]:
        return [f"{len(rows)} scheme rows, expected {inp['expect']['rows']}"]
    return [f"scheme {r['name']} probabilities do not sum to 1" for r in rows
            if abs(r["detect_no_hit_prob"] + r["hit_prob"] + r["inconclusive_prob"] - 1.0) > 1e-5]


def _check_optimize(inp, stdout):
    res = _report(stdout, inp["command"])
    problems = _optimum_problems(inp["expect"], res["r1_star"], res["r2_star"],
                                 res["objective_value"], 10 * PRINTED_RTOL)
    if res["objective_gap"] > GAP_TOL:
        problems.append(f"objective gap {res['objective_gap']} > {GAP_TOL}")
    return problems


_CLI_CHECKS = {
    "efficiency": _check_efficiency,
    "simulate": _check_simulate,
    "estimate-gray": _check_estimate,
    "sweep": _check_sweep,
    "schemes": _check_schemes,
    "optimize": _check_optimize,
}


def check_cli(inp: dict, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'][-300:]}"]
    try:
        return _CLI_CHECKS[inp["command"]](inp, out["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {inp['command']} output: {exc!r}"]


CHECKS = {
    "design_points": check_design_point,
    "coupling_design": check_coupling,
    "trials_estimate": check_trials,
    "cli_mix": check_cli,
}


def check_records(workload: str, ops: list[dict], records: list[dict]) -> list[str]:
    """Problems of every attempted op; repeats of an op must match its first output.

    Returns one entry per failed op attempt.
    """
    check = CHECKS[workload]
    first: dict[int, dict] = {}
    verdict: dict[int, list[str]] = {}
    failures = []
    for rec in records:
        i = rec["i"]
        if rec["error"] is not None:
            failures.append(f"op {i} raised {rec['error']}")
            continue
        out = rec["out"]
        if i not in verdict:
            first[i] = out
            verdict[i] = check(ops[i], out)
        problems = list(verdict[i])
        if out != first[i]:
            problems.append("output differs from an identical earlier invocation")
        if problems:
            failures.append(f"op {i} (pass {rec['pass']}): " + "; ".join(problems))
    return failures


def perturb(workload: str, records: list[dict]) -> None:
    """Corrupt the first successful record, for the harness's negative check.

    The first cli_mix op is ``efficiency``, whose printed eta is made > 1.
    """
    rec = next(r for r in records if r["error"] is None)
    out = rec["out"]
    if workload == "design_points":
        out["phi"] *= 1.0 + 1e-3
    elif workload == "coupling_design":
        out["value"] += 1e-3
    elif workload == "trials_estimate":
        out["g_hat"] = min(1.0, out["g_hat"] + 0.2)
    else:
        out["stdout"] = out["stdout"].replace('"eta": ', '"eta": 2', 1)
