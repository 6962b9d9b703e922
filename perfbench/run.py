"""Benchmark of the ifmsim package: seeded, closed-loop, one-client workloads.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload design_points --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

An untraced run (``--trace 0``) times set-up in several fresh worker
processes, then runs the workload's op list in whole passes for about
``--seconds`` in one more, and reports the end-to-end metrics. A traced run
(``--trace 1``) runs untraced passes for half the time, runs the same passes
again with spans around every layer's public functions, and reports the
per-layer metrics plus the tracing overhead. Every output is checked against
an independent oracle (checks.py) outside the timed region. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--self-check`` runs a smoke size of every workload and shows that a
perturbed output is counted as failed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6  # set-up-only processes per run, besides the measuring one
WORKER_TIMEOUT_S = 150
LAYERS = ("resonator", "wavepacket", "quadrature", "search", "optimize", "montecarlo", "schemes", "cli")
CLI_COMMANDS = ("efficiency", "simulate", "estimate-gray", "sweep", "schemes", "optimize")

END_TO_END = {  # name: unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

OP_NAMES = {
    "design_points": "design points (efficiencies + 1001-point lineshape)",
    "coupling_design": "coupling searches (optimize_coupling + brute-force verify)",
    "trials_estimate": "trial runs (run_trials 1e6..1e7 + estimate_grayness)",
    "cli_mix": "ifmsim CLI subprocesses",
}


class HarnessError(RuntimeError):
    """A worker process failed; the run prints no result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def spawn(workload: str, seed: int, *, seconds=None, passes=None, smoke=False,
          trace=False, setup_only=False) -> dict:
    """Run one worker process to completion; add its set-up time to its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(float(seconds))]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    t_spawn = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest-percentile latency with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def check(workload: str, ops: list[dict], result: dict, perturbed: bool = False) -> list[str]:
    records = result["records"]
    if perturbed:
        records = copy.deepcopy(records)
        checks.perturb(workload, records)
    return checks.check_records(workload, ops, records)


def measure(workload: str, seed: int, seconds: float, smoke: bool = False):
    """Untraced run: returns (metrics, notes, attempted, failures, worker result)."""
    probes = 0 if smoke else SETUP_PROBES
    setups = [spawn(workload, seed, smoke=smoke, setup_only=True)["setup_s"] for _ in range(probes)]
    res = spawn(workload, seed, seconds=None if smoke else seconds, passes=1 if smoke else None,
                smoke=smoke)
    setups.append(res["setup_s"])
    ops = inputs.generate(workload, seed, smoke)
    failures = check(workload, ops, res)
    lat = res["latencies"]
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": res["rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{len(lat)} ops in {sum(lat):.2f} s; {res['passes']} passes of "
                     f"{res['ops_per_pass']} {OP_NAMES[workload]}",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(lat)} samples, {beyond} beyond",
        "peak_rss_mb": "max RSS of the worker process or its largest child",
    }
    return metrics, notes, len(lat), failures, res


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(workload: str, untraced: dict, traced: dict, ops: list[dict]) -> dict:
    """Per-layer metrics of a traced run. Sums are per pass over the op list."""
    s = traced["trace"]
    per_pass = 1.0 / traced["passes"]
    ms = 1e3 * per_pass
    self_ms = {k: v * ms for k, v in s["self_s"].items()}
    phi = s["phi_s"]
    traced_s = sum(traced["latencies"])
    untraced_ms = sum(untraced["latencies"]) * 1e3 / untraced["passes"]
    self_sum = sum(self_ms[layer] for layer in LAYERS)
    covered = [
        rec["out"]["ci"][0] <= ops[rec["i"]]["grayness"] <= rec["out"]["ci"][1]
        for rec in traced["records"] if rec["pass"] == 0 and rec["error"] is None
    ] if workload == "trials_estimate" else []
    mains = s["cli_main_s"]
    metrics = {
        "resonator.calls": s["resonator_calls"] * per_pass,
        "resonator.points": s["resonator_points"] * per_pass,
        "resonator.ms": self_ms["resonator"],
        "wavepacket.phi_calls": len(phi) * per_pass,
        "wavepacket.phi_ms": sum(phi) * ms,
        "wavepacket.phi_p50_us": _median(phi) * 1e6,
        "wavepacket.phi_max_ms": max(phi, default=0.0) * 1e3,
        "wavepacket.phi_share": sum(phi) / traced_s,
        "wavepacket.self_ms": self_ms["wavepacket"],
        "quadrature.calls": s["quadrature_calls"] * per_pass,
        "quadrature.integrand_evals": s["quadrature_evals"] * per_pass,
        "quadrature.peak_nodes": s["quadrature_peak_nodes"],
        "quadrature.peak_mb": s["quadrature_peak_mb"],
        "quadrature.ms": self_ms["quadrature"],
        "search.calls": s["search_calls"] * per_pass,
        "search.evals": s["search_evals"] * per_pass,
        "search.self_ms": self_ms["search"],
        "optimize.calls": s["optimize_calls"] * per_pass,
        "optimize.self_ms": self_ms["optimize"],
        "optimize.phi_calls_per_call": s["optimize_phi_calls"] / max(s["optimize_calls"], 1),
        "optimize.verify_ms": s["verify_s"] * ms,
        "montecarlo.run_trials_ms": s["run_trials_s"] * ms,
        "montecarlo.trials_per_s": s["trials"] / s["run_trials_s"] if s["run_trials_s"] else 0.0,
        "montecarlo.run_trials_peak_mb": s["run_trials_peak_mb"],
        "montecarlo.estimate_ms": s["estimate_s"] * ms,
        "montecarlo.estimate_fwd_calls": s["estimate_fwd_calls"] / max(s["estimate_calls"], 1),
        "montecarlo.ci_coverage": sum(covered) / len(covered) if covered else 0.0,
        "montecarlo.self_ms": self_ms["montecarlo"],
        "schemes.calls": s["schemes_calls"] * per_pass,
        "schemes.ms": self_ms["schemes"],
        "cli.import_ms": _median(s["cli_import_s"] or [traced["import_s"]]) * 1e3,
        "cli.startup_ms": _median(s["cli_startup_s"]) * 1e3,
        **{f"cli.{c}.main_ms": _median(mains.get(c, [])) * 1e3 for c in CLI_COMMANDS},
        "cli.self_ms": self_ms["cli"],
        "bench.self_ms": self_ms["bench"],
        "trace.untraced_wall_ms": untraced_ms,
        "trace.traced_wall_ms": traced_s * ms,
        "trace.overhead_ms": traced_s * ms - untraced_ms,
        "trace.self_sum_ms": self_sum,
        "trace.unaccounted_ms": abs(untraced_ms - self_sum),
    }
    return metrics


LAYER_UNITS = {  # by name suffix
    "calls": "count", "per_call": "count", "points": "count", "evals": "count", "nodes": "count",
    "ms": "ms", "us": "us", "mb": "MB", "per_s": "1/s", "share": "1", "coverage": "1",
}


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


def trace_run(workload: str, seed: int, seconds: float):
    untraced = spawn(workload, seed, seconds=seconds / 2)
    traced = spawn(workload, seed, passes=untraced["passes"], trace=True)
    ops = inputs.generate(workload, seed)
    failures = check(workload, ops, untraced) + check(workload, ops, traced)
    attempted = len(untraced["latencies"]) + len(traced["latencies"])
    metrics = layer_metrics(workload, untraced, traced, ops)
    note = (f"per pass of {traced['ops_per_pass']} {OP_NAMES[workload]}, "
            f"{traced['passes']} traced passes")
    return metrics, note, attempted, failures


def emit(workload: str, seed: int, metrics: dict, units: dict, notes: dict, attempted: int,
         failures: list[str]) -> dict:
    print(f"{workload} (seed {seed}): closed loop, one client")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} = {value:.6g} {units[name]}{note}")
    print(f"  {'failed_frac':34s} = {len(failures) / max(attempted, 1):.6g} 1  "
          f"({len(failures)} of {attempted} ops raised or failed a check)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, note, attempted, failures = trace_run(workload, seed, seconds)
        units = {k: layer_unit(k) for k in metrics}
        print(f"per-layer metrics {note}")
        return emit(workload, seed, metrics, units, {}, attempted, failures)
    metrics, notes, attempted, failures, _ = measure(workload, seed, seconds)
    return emit(workload, seed, metrics, END_TO_END, notes, attempted, failures)


def self_check() -> int:
    """Smoke size of each workload, then the same outputs perturbed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    print(f"{'ok' if ok else 'FAIL'}: BENCHMARK.json end_to_end names match the emitted metrics")
    for workload in inputs.WORKLOADS:
        ops = inputs.generate(workload, 0, smoke=True)
        _, _, attempted, failures, res = measure(workload, 0, 0, smoke=True)
        perturbed = check(workload, ops, res, perturbed=True)
        good = not failures and len(perturbed) >= 1
        ok &= good
        print(f"{'ok' if good else 'FAIL'}: {workload} smoke: {attempted} ops, {len(failures)} "
              f"failed; with one output perturbed, {len(perturbed)} failed")
        for line in (failures + perturbed)[:5]:
            print(f"    {line}")
    traced = spawn("design_points", 0, passes=1, smoke=True, trace=True)
    names = {m["name"] for m in spec["per_layer"]}
    metrics = layer_metrics("design_points", traced, traced, inputs.generate("design_points", 0, True))
    good = set(metrics) == names and all(
        layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    ok &= good
    print(f"{'ok' if good else 'FAIL'}: BENCHMARK.json per_layer names and units match the traced run")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="smoke-size every workload and show that the checks can fail")
    args = parser.parse_args()
    if not (ROOT / "src" / "ifmsim" / "__init__.py").is_file():
        print(f"error: no ifmsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.self_check:
            return self_check()
        workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
