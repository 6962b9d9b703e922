"""Seeded inputs for the benchmark workloads.

Standard library only, so that the worker (which runs the program) and the
checker (which must not import it) derive identical inputs from one seed.
Each generator returns the list of op inputs for one pass; a run repeats
whole passes. The cost of an op depends on a few input properties (the
line-width product ``a*(1-c)``, the trial count), so those follow a fixed
ladder and the seed draws every other field. That keeps the cost profile of
a pass the same from seed to seed while the inputs themselves differ.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("design_points", "coupling_design", "trials_estimate", "cli_mix")

# Design points with a*(1-c) below this are left out: at the parent commit
# ``_initial_panels`` sizes its grid before checking ``MAX_EVALS``, so such
# points exhaust memory instead of failing (ROADMAP item 2).
LINE_WIDTH_FLOOR = 1e-4

# Lineshape sample count; odd, so psi = 0 (the resonance peak) is a node.
LINESHAPE_POINTS = 1001

OBJECTIVES = ("max_min_eta_tau", "max_tau_st_eta_floor")
CLI_OBJECTIVES = {"max-min": OBJECTIVES[0], "tau-floor": OBJECTIVES[1]}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _split_device(rng: random.Random, one_minus_c: float, a: float, lossless: bool) -> dict:
    """Pick rho, r1, r2 with rho*sqrt(r1*r2) = 1 - one_minus_c."""
    c = 1.0 - one_minus_c
    # The loss 1-rho stays below the line's own width, so sqrt(r1 r2) < 1.
    rho = 1.0 if lossless else 1.0 - one_minus_c * _log_uniform(rng, 0.02, 0.5)
    q = c / rho
    e = rng.uniform(-0.5, 0.5)
    return {"r1": q ** (1.0 + e), "r2": q ** (1.0 - e), "rho": rho, "a": a}


def design_points(seed: int, smoke: bool = False) -> list[dict]:
    """Device parameters over 1-c in [1e-4, 1e-1] and a in [0.3, 1e3].

    The cost of one point grows as 1/(a*(1-c)), so log10(a*(1-c)) follows a
    fixed ladder: 216 cheap points in [-2, 2] (about 0.3 ms each), 12 in
    (-4, -2] and 3 at the floor -4 (resonance-line corners, about 0.6 s
    each). With three floor points the 11th-slowest op of a run of four or
    more passes is a floor point, so the tail does not jump between ladder
    rungs as the pass count changes. The seed places each point along its
    iso-cost line (the floor's two ends are always taken) and draws rho
    (every fourth point lossless) and the r1/r2 split.
    """
    rng = random.Random(f"design_points/{seed}")
    floor = math.log10(LINE_WIDTH_FLOOR)
    if smoke:
        ladder = [-2.0 + 4.0 * (k + 0.5) / 7 for k in range(7)]
        ends = [None] * 7
    else:
        ladder = [-2.0 + 4.0 * (k + 0.5) / 216 for k in range(216)]
        ladder += [floor + (-2.0 - floor) * k / 12 for k in range(1, 13)]
        ends = [None] * len(ladder) + [0.0, 1.0, None]
        ladder += [floor] * 3
    lo_a, hi_a = math.log10(0.3), 3.0
    points = []
    for k, (log_p, end) in enumerate(zip(ladder, ends)):
        lo = max(-4.0, log_p - hi_a)  # 1-c in [1e-4, 1e-1], a in [0.3, 1e3]
        hi = min(-1.0, log_p - lo_a)
        log_omc = lo + (rng.random() if end is None else end) * (hi - lo)
        one_minus_c = 10.0**log_omc
        a = 10.0 ** (log_p - log_omc)
        points.append(_split_device(rng, one_minus_c, a, lossless=k % 4 == 0))
    rng.shuffle(points)
    return points


def coupling_design(seed: int, smoke: bool = False) -> list[dict]:
    """Coupling searches: both objectives, each in two loss strata.

    1-rho is drawn log-uniformly in [1e-5, 1e-4) or [1e-4, 1e-3) and a
    log-uniformly in [200, 1000]; the eta floor in [0.9, 0.99] is always
    feasible there. Every op then costs about 4600 phi evaluations.
    """
    rng = random.Random(f"coupling_design/{seed}")
    ops = []
    strata = [(-5.0, -4.0)] if smoke else [(-5.0, -4.0), (-4.0, -3.0)]
    objectives = OBJECTIVES[:1] if smoke else OBJECTIVES
    for objective in objectives:
        for lo, hi in strata:
            ops.append({
                "rho": 1.0 - 10.0 ** rng.uniform(lo, hi),
                "a": _log_uniform(rng, 200.0, 1000.0),
                "objective": objective,
                "eta_floor": rng.uniform(0.9, 0.99) if objective == OBJECTIVES[1] else None,
            })
    rng.shuffle(ops)
    return ops


def trials_estimate(seed: int, smoke: bool = False) -> list[dict]:
    """Trial runs plus grayness estimates, 1e6 to 1e7 trials each.

    Trial counts follow a fixed log ladder from 1e6 to 1e7, run in ladder
    order. Peak RSS depends on the sizes and order of the freed arrays
    (glibc raises its mmap threshold as they are freed and keeps part of the
    heap), so both stay fixed. The seed assigns to each rung a grayness
    (stratified over [0.05, 0.95]), a detector efficiency in [0.7, 1], a
    device near the paper's design point and a sampler seed.
    """
    rng = random.Random(f"trials_estimate/{seed}")
    k_ops = 2 if smoke else 8
    log_lo, log_hi = (5.0, 5.3) if smoke else (6.0, 7.0)
    strata = list(range(k_ops))
    rng.shuffle(strata)
    ops = []
    for k in range(k_ops):
        r = rng.uniform(0.95, 0.99)
        ops.append({
            "device": {"r1": r, "r2": r, "rho": 1.0 - _log_uniform(rng, 1e-5, 1e-3),
                       "a": _log_uniform(rng, 200.0, 1000.0)},
            "grayness": 0.05 + 0.9 * (strata[k] + rng.random()) / k_ops,
            "det_eff": rng.uniform(0.7, 1.0),
            "n_trials": int(round(10.0 ** (log_lo + (log_hi - log_lo) * k / (k_ops - 1)))),
            "seed": rng.getrandbits(32),
        })
    return ops


def _flag(value) -> str:
    return repr(float(value))


def cli_mix(seed: int, smoke: bool = False) -> list[dict]:
    """One pass of ``python -m ifmsim`` invocations: every subcommand, optimize twice.

    ``optimize --verify`` (about 1.3 s, the rest about 0.25 s) runs once per
    objective, so a run of six or more passes has at least eleven of them and
    its tail is an optimize call whatever the pass count.

    ``estimate-gray`` reads the report the preceding ``simulate`` wrote; the
    harness saves it to ``stats_file`` between the two ops. ``expect``
    carries the generated values the checker compares the output with.
    """
    rng = random.Random(f"cli_mix/{seed}")
    r = rng.uniform(0.95, 0.99)
    device = {"r1": r, "r2": r, "rho": 1.0 - _log_uniform(rng, 1e-5, 1e-3),
              "a": _log_uniform(rng, 200.0, 1000.0)}
    device_args = []
    for key in ("r1", "r2", "rho", "a"):
        device_args += [f"--{key}", _flag(device[key])]
    g = rng.uniform(0.2, 0.8)
    det_eff = rng.uniform(0.7, 1.0)
    n_trials = 100_000 if smoke else 1_000_000  # fixed, so the largest child's RSS is too
    r_lo = rng.uniform(0.9, 0.95)
    rho_lo = 1.0 - _log_uniform(rng, 1e-4, 1e-3)
    steps = 2 if smoke else 5
    searches = [(objective, 1.0 - _log_uniform(rng, 1e-5, 1e-3), _log_uniform(rng, 200.0, 1000.0),
                 rng.uniform(0.9, 0.99)) for objective in CLI_OBJECTIVES]
    opt_a = searches[0][2]
    ev = rng.uniform(0.5, 0.99)
    alpha_deg = rng.uniform(0.5, 5.0)
    cycles = rng.randint(10, 200)
    ops = [
        {"command": "efficiency", "argv": ["efficiency", *device_args, "--format", "json"],
         "expect": {"device": device}},
        {"command": "simulate", "argv": [
            "simulate", *device_args, "--object", _flag(g), "--trials", str(n_trials),
            "--seed", str(rng.getrandbits(32)), "--det-eff", _flag(det_eff), "--format", "json"],
         "expect": {"device": device, "grayness": g, "det_eff": det_eff, "n_trials": n_trials},
         "save_as": "stats_file"},
        {"command": "estimate-gray", "argv": [
            "estimate-gray", "--stats", "{stats_file}", *device_args,
            "--det-eff", _flag(det_eff), "--format", "json"],
         "expect": {"grayness": g, "n_trials": n_trials}},
        {"command": "sweep", "argv": [
            "sweep", "--r-range", _flag(r_lo), _flag(r_lo + 0.04),
            "--rho-range", _flag(rho_lo), "1.0", "--steps", str(steps), "--a", _flag(opt_a)],
         "expect": {"rows": steps * steps}},
        {"command": "schemes", "argv": [
            "schemes", "--ev", _flag(ev), "--zeno-alpha-deg", _flag(alpha_deg),
            "--two-cavity", str(cycles), "--format", "json"],
         "expect": {"rows": 4}},
    ]
    for objective, rho, a, eta_floor in searches:
        floor_args = ["--eta-floor", _flag(eta_floor)] if objective == "tau-floor" else []
        ops.append({"command": "optimize", "argv": [
            "optimize", "--rho", _flag(rho), "--a", _flag(a), "--objective", objective,
            *floor_args, "--verify", "--format", "json"],
            "expect": {"rho": rho, "a": a, "objective": CLI_OBJECTIVES[objective],
                       "eta_floor": eta_floor}})
    return ops[:-2] if smoke else ops  # a coupling search takes about a second


GENERATORS = {
    "design_points": design_points,
    "coupling_design": coupling_design,
    "trials_estimate": trials_estimate,
    "cli_mix": cli_mix,
}


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Op inputs of one pass of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed, smoke)
