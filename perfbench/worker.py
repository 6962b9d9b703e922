"""Fresh-process side of the benchmark; run.py starts one per measurement.

The worker imports ``ifmsim`` from the checkout, derives one pass of inputs
from the seed, warms up and stamps the time (CLOCK_MONOTONIC, shared with the
parent, so the parent can measure set-up from its own spawn stamp). It then
runs whole passes in a closed loop with one client: each op is timed on its
own, and its output is converted for checking only after its timer stops.
The last line of standard output is one JSON object with the latencies, the
outputs, the peak RSS and, in a traced run, the span totals.

With ``--cli-child`` it instead runs one traced ``ifmsim.cli.main`` call in
this fresh process and prints the CLI's output together with its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_package():
    t0 = now()
    import ifmsim

    import_s = now() - t0
    expected = (ROOT / "src" / "ifmsim").resolve()
    if Path(ifmsim.__file__).resolve().parent != expected:
        raise SystemExit(f"imported ifmsim from {ifmsim.__file__}, not from {expected}")
    return ifmsim, import_s


class DesignPoints:
    """Efficiencies plus the monochromatic lineshape of one device."""

    def __init__(self, pkg):
        import numpy as np

        self.pkg = pkg
        self.psi = np.linspace(-math.pi, math.pi, inputs.LINESHAPE_POINTS)

    def warm_up(self):
        self.run({"r1": 0.98, "r2": 0.98, "rho": 0.9999, "a": 500.0})  # fills the weight-norm cache

    def run(self, inp):
        params = self.pkg.DeviceParams(**inp)
        report = self.pkg.efficiencies(params)
        reflect = self.pkg.monochromatic_reflectance(params, self.psi)
        transmit = self.pkg.monochromatic_transmittance(params, self.psi)
        return report, reflect, transmit

    def record(self, inp, raw):
        report, reflect, transmit = raw
        total = reflect + transmit
        return {
            "eta": report.eta, "tau": report.tau, "phi": report.phi,
            "R_min": float(reflect.min()), "T_min": float(transmit.min()),
            "RT_min": float(total.min()), "RT_max": float(total.max()),
            "T0": float(transmit[len(transmit) // 2]),
        }


class CouplingDesign:
    """A coupling search followed by the brute-force grid verify around its optimum."""

    def __init__(self, pkg):
        self.pkg = pkg

    def warm_up(self):
        self.pkg.compute_phi(self.pkg.DeviceParams(r1=0.98, r2=0.98, rho=0.9999, a=500.0))

    def run(self, inp):
        args = (inp["rho"], inp["a"], inp["objective"], inp["eta_floor"])
        found = self.pkg.optimize_coupling(*args)
        oracle = self.pkg.brute_force_coupling(*args, center=(found.r1_star, found.r2_star))
        return found, oracle

    def record(self, inp, raw):
        found, oracle = raw
        return {
            "r1": found.r1_star, "r2": found.r2_star, "value": found.objective_value,
            "name": found.objective_name, "oracle_r1": oracle.r1_star, "oracle_r2": oracle.r2_star,
            "oracle_value": oracle.objective_value, "oracle_name": oracle.objective_name,
        }


class TrialsEstimate:
    """Sample trials, then recover the grayness from their counts."""

    def __init__(self, pkg):
        self.pkg = pkg

    def warm_up(self):
        self.run({"device": {"r1": 0.98, "r2": 0.98, "rho": 0.9999, "a": 500.0},
                  "grayness": 0.5, "det_eff": 0.9, "n_trials": 1000, "seed": 1})

    def run(self, inp):
        params = self.pkg.DeviceParams(**inp["device"])
        target = self.pkg.ObjectModel(inp["grayness"])
        stats = self.pkg.run_trials(params, None, target, inp["det_eff"], inp["n_trials"], inp["seed"])
        g_hat, ci = self.pkg.estimate_grayness(stats, params, None, inp["det_eff"])
        return stats, g_hat, ci

    def record(self, inp, raw):
        stats, g_hat, ci = raw
        doc = stats.to_dict()
        return {"counts": doc["counts"], "n": doc["n_trials"], "g_hat": g_hat, "ci": list(ci)}


class CliMix:
    """One ``python -m ifmsim`` subprocess per op; traced runs use a traced child instead."""

    tracer = None  # set after warm-up in a traced run

    def __init__(self, pkg):
        self.saved = {}
        self.workdir = OUT_DIR / "cli"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warm_up(self):
        self.run({"argv": ["schemes", "--ev", "0.9"]})

    def _argv(self, inp):
        return [self.saved.get(a[1:-1], a) if a.startswith("{") else a for a in inp["argv"]]

    def run(self, inp):
        argv = self._argv(inp)
        if self.tracer is None:
            return subprocess.run([sys.executable, "-m", "ifmsim", *argv], cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
        index = len(self.tracer.spans)
        span = self.tracer.open("cli", "process")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--cli-child",
                                   json.dumps(argv)], cwd=ROOT, capture_output=True, text=True,
                                  timeout=120)
        finally:
            self.tracer.close(span)
        return proc, index

    def record(self, inp, raw):
        if self.tracer is None:
            out = {"code": raw.returncode, "stdout": raw.stdout, "stderr": raw.stderr[-2000:]}
        else:
            proc, span_index = raw
            child = json.loads(proc.stdout.strip().splitlines()[-1])
            self.tracer.adopt(child.pop("spans"), span_index)
            out = child
        if "save_as" in inp:
            path = self.workdir / f"{inp['save_as']}.json"
            path.write_text(out["stdout"], encoding="utf-8")
            self.saved[inp["save_as"]] = str(path)
        return out


RUNNERS = {
    "design_points": DesignPoints,
    "coupling_design": CouplingDesign,
    "trials_estimate": TrialsEstimate,
    "cli_mix": CliMix,
}


def run_passes(runner, ops, seconds, passes):
    """Closed loop over whole passes: a fixed count, or as many as fit in ``seconds``."""
    latencies, records = [], []
    start = now()
    done = 0
    while True:
        pass_start = now()
        for i, inp in enumerate(ops):
            t0 = now()
            try:
                raw, error = runner.run(inp), None
            except Exception as exc:  # a failed op is counted, and the loop goes on
                raw, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(now() - t0)
            out = None
            if error is None:
                try:
                    out = runner.record(inp, raw)
                except Exception as exc:  # e.g. a traced CLI child that printed no report
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append({"i": i, "pass": done, "error": error, "out": out})
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif now() - start + (now() - pass_start) > seconds:
            break  # another pass of the same length would overrun
    return latencies, records, done


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cli_child(argv: list[str]) -> None:
    t0 = now()
    import ifmsim  # interpreter start-up and this import count under the cli layer

    t1 = now()
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans.append([-1, "cli", "import", t0, t1, None])
    tracer.install(ifmsim)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = ifmsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    print(json.dumps({"code": code, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue()[-2000:], "spans": tracer.spans}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cli-child", default=None, help="JSON argv of one traced CLI call")
    args = parser.parse_args()
    if args.cli_child is not None:
        cli_child(json.loads(args.cli_child))
        return

    pkg, import_s = import_package()
    ops = inputs.generate(args.workload, args.seed, args.smoke)
    runner = RUNNERS[args.workload](pkg)
    runner.warm_up()
    result = {"t_ready": now(), "import_s": import_s, "ops_per_pass": len(ops)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(pkg)
            runner.tracer = tracer
        latencies, records, done = run_passes(runner, ops, args.seconds, args.passes)
        result.update(latencies=latencies, records=records, passes=done, rss_mb=peak_rss_mb())
        if tracer is not None:
            result["trace"] = tracer.summary(sum(latencies))
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
