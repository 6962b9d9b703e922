"""Command-line surface for the resonator toolkit.

Every command is deterministic given its full flag set (including the seed),
numeric output is locale-independent with a controllable number of
significant digits, and single-run reports are JSON while sweeps are CSV.
Exit codes: 0 success, 2 validation, 4 I/O, 5 non-identifiability,
6 infeasible objective.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .montecarlo import (
    NonIdentifiableError,
    ObjectModel,
    TrialOutcome,
    TrialStatistics,
    estimate_grayness,
    outcome_distribution,
    run_trials,
)
from .optimize import (
    MAX_MIN_ETA_TAU,
    MAX_TAU_WITH_ETA_FLOOR,
    InfeasibleObjectiveError,
    Optimum,
    SweepGrid,
    brute_force_coupling,
    optimize_coupling,
    sweep_efficiencies,
)
from .resonator import DeviceParams
from .schemes import ZenoParams, elitzur_vaidman, resonator_opaque_scheme, two_cavity_scheme, zeno_scheme
from .wavepacket import efficiencies

SCHEMA_VERSION = "1"
CSV_HEADER = "r1,r2,rho,a,eta,tau,phi,truncation_bound"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 4
EXIT_NON_IDENTIFIABLE = 5
EXIT_INFEASIBLE = 6

_OBJECTIVES = {"max-min": MAX_MIN_ETA_TAU, "tau-floor": MAX_TAU_WITH_ETA_FLOOR}


def _conv_format(value: str) -> str:
    if value not in ("text", "json"):
        raise ValueError(f"format must be 'text' or 'json', got {value!r}")
    return value


def _conv_objective(value: str) -> str:
    if value not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {sorted(_OBJECTIVES)}, got {value!r}")
    return value


def _conv_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _conv_pair(value) -> list:
    if isinstance(value, (list, tuple)):
        parts = [str(v) for v in value]
    else:
        parts = str(value).replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {value!r}")
    return [float(parts[0]), float(parts[1])]


# Per-command option tables: flag, config converter, default, help.
# argparse settings are derived from these so the --config file and the
# command line always accept the same option set.
_DEVICE_OPTS = [
    ("--r1", float, 0.98, "input coupling reflectivity (default 0.98)"),
    ("--r2", float, 0.98, "output coupling reflectivity (default 0.98)"),
    ("--rho", float, 0.9999, "round-trip amplitude survival factor (default 0.9999)"),
    ("--a", float, 500.0, "coherence ratio (default 500)"),
]
_OUTPUT_OPTS = [
    ("--format", _conv_format, "text", "output format: text or json (default text)"),
    ("--precision", int, 6, "significant digits in numeric output (default 6)"),
    ("--out", str, None, "write output to this path instead of stdout"),
]

_OPTIONS = {
    "efficiency": _DEVICE_OPTS + _OUTPUT_OPTS,
    "sweep": [
        ("--r-range", _conv_pair, [0.9, 0.999], "coupling range LO HI (default 0.9 0.999)"),
        ("--rho-range", _conv_pair, [0.999, 1.0], "loss-factor range LO HI (default 0.999 1.0)"),
        ("--steps", int, 3, "grid points per axis (default 3)"),
        ("--a", float, 500.0, "coherence ratio (default 500)"),
        ("--precision", int, 6, "significant digits in numeric output (default 6)"),
        ("--out", str, None, "write the CSV to this path instead of stdout"),
    ],
    "schemes": [
        ("--ev", float, None, "Mach-Zehnder scheme with this beam splitter reflectivity"),
        ("--zeno-alpha-deg", float, None, "rotation scheme with this per-cycle angle in degrees"),
        ("--two-cavity", int, None, "coupled-cavity scheme with this cycle count"),
        ("--resonator-r", float, None,
         "coupling used for the resonator comparison row (default: --ev value, else 0.98)"),
    ]
    + _OUTPUT_OPTS,
    "simulate": _DEVICE_OPTS
    + [
        ("--object", str, "none", "object grayness in [0, 1], or 'none' (default none)"),
        ("--trials", int, 100000, "number of single-photon testings (default 100000)"),
        ("--seed", int, 1, "random seed (default 1)"),
        ("--det-eff", float, 1.0, "detector efficiency in (0, 1] (default 1)"),
    ]
    + _OUTPUT_OPTS,
    "estimate-gray": [
        ("--stats", str, None, "JSON file with trial counts (e.g. a simulate report)"),
        ("--counts", str, None,
         "inline counts 'REFLECTED,TRANSMITTED,HIT,LOST,NODETECT' instead of --stats"),
    ]
    + _DEVICE_OPTS
    + [("--det-eff", float, 1.0, "detector efficiency in (0, 1] (default 1)")]
    + _OUTPUT_OPTS,
    "optimize": [
        ("--rho", float, 0.9999, "round-trip amplitude survival factor (default 0.9999)"),
        ("--a", float, 500.0, "coherence ratio (default 500)"),
        ("--objective", _conv_objective, "max-min",
         "objective: max-min (maximize min(eta, tau)) or tau-floor (default max-min)"),
        ("--eta-floor", float, None, "eta floor for the tau-floor objective"),
        ("--verify", _conv_bool, False, "cross-check against a fine brute-force grid"),
    ]
    + _OUTPUT_OPTS,
}

_COMMAND_HELP = {
    "efficiency": "wave-packet efficiencies eta, tau and the resonance integral",
    "sweep": "CSV table of efficiencies over a (r, rho) grid",
    "schemes": "compare rival interaction-free schemes at matched parameters",
    "simulate": "sample single-photon testings and report outcome counts",
    "estimate-gray": "maximum-likelihood object grayness from trial counts",
    "optimize": "search the coupling box for the best (r1, r2)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description="Interaction-free object detection with a lossy ring resonator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", default=None,
                       help="flat key=value file; command-line flags override it")
        for flag, conv, default, helptext in options:
            if conv is _conv_pair:
                p.add_argument(flag, nargs=2, type=float, default=None, help=helptext)
            elif conv is _conv_bool:
                p.add_argument(flag, action="store_const", const=True, default=None,
                               help=helptext)
            else:
                p.add_argument(flag, type=conv, default=None, help=helptext)
    return parser


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults < config file < explicit flags into one option dict."""
    table = {flag.lstrip("-").replace("-", "_"): (conv, default)
             for flag, conv, default, _ in _OPTIONS[command]}
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(table)
    if unknown:
        raise ValueError(f"unknown config keys for '{command}': {sorted(unknown)}")
    resolved = {}
    for dest, (conv, default) in table.items():
        value = getattr(args, dest)
        if value is None and dest in config:
            value = conv(config[dest])
        if value is None:
            value = default
        resolved[dest] = value
    return resolved


def _round_sig(x, precision: int):
    if isinstance(x, float) and math.isfinite(x) and x != 0.0:
        return float(f"{x:.{precision}g}")
    return x


def _round_tree(obj, precision: int):
    if isinstance(obj, dict):
        return {k: _round_tree(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v, precision) for v in obj]
    return _round_sig(obj, precision)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_report(command, opt, results, seed=None) -> None:
    config = {k: v for k, v in opt.items() if k not in ("format", "precision", "out")}
    precision = opt["precision"]
    if opt["format"] == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": _round_tree(config, precision),
            "results": _round_tree(results, precision),
            "seed": seed,
        }
        _emit(json.dumps(doc, indent=2) + "\n", opt["out"])
    else:
        lines = [_format_text_line(k, v, precision) for k, v in _flatten(results)]
        _emit("\n".join(lines) + "\n", opt["out"])


def _flatten(tree, prefix=""):
    items = []
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, prefix=f"{name}."))
        else:
            items.append((name, value))
    return items


def _format_text_line(key, value, precision: int) -> str:
    if isinstance(value, float):
        return f"{key} = {value:.{precision}g}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(
            f"{v:.{precision}g}" if isinstance(v, float) else str(v) for v in value
        )
        return f"{key} = [{inner}]"
    return f"{key} = {value}"


def _device(opt) -> DeviceParams:
    return DeviceParams(r1=opt["r1"], r2=opt["r2"], rho=opt["rho"], a=opt["a"])


def cmd_efficiency(opt) -> int:
    report = efficiencies(_device(opt))
    results = {
        "eta": report.eta,
        "tau": report.tau,
        "phi": report.phi,
        "truncation_bound": report.truncation_bound,
    }
    _emit_report("efficiency", opt, results)
    return EXIT_OK


def cmd_sweep(opt) -> int:
    r_lo, r_hi = opt["r_range"]
    rho_lo, rho_hi = opt["rho_range"]
    steps = opt["steps"]
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    grid = SweepGrid(
        r_values=tuple(np.linspace(r_lo, r_hi, steps)),
        rho_values=tuple(np.linspace(rho_lo, rho_hi, steps)),
        a=opt["a"],
    )
    rows = sweep_efficiencies(grid)
    p = opt["precision"]
    lines = [CSV_HEADER]
    for row in rows:
        cells = (row.r1, row.r2, row.rho, row.a, row.eta, row.tau, row.phi, row.truncation_bound)
        lines.append(",".join(f"{c:.{p}g}" for c in cells))
    _emit("\n".join(lines) + "\n", opt["out"])
    return EXIT_OK


def _scheme_row(name, result) -> dict:
    return {
        "name": name,
        "detect_no_hit_prob": result.detect_no_hit_prob,
        "hit_prob": result.hit_prob,
        "inconclusive_prob": result.inconclusive_prob,
        "long_run_efficiency": result.long_run_efficiency,
        "metadata": dict(result.metadata),
    }


def cmd_schemes(opt) -> int:
    rows = []
    if opt["ev"] is not None:
        rows.append(_scheme_row("mach_zehnder", elitzur_vaidman(opt["ev"])))
    if opt["zeno_alpha_deg"] is not None:
        params = ZenoParams.from_alpha(math.radians(opt["zeno_alpha_deg"]))
        row = _scheme_row("zeno_rotation", zeno_scheme(params))
        row["metadata"]["n_cycles"] = params.n_cycles
        rows.append(row)
    if opt["two_cavity"] is not None:
        rows.append(_scheme_row("two_cavity", two_cavity_scheme(opt["two_cavity"])))
    if not rows:
        raise ValueError("select at least one of --ev, --zeno-alpha-deg, --two-cavity")
    r_match = opt["resonator_r"]
    if r_match is None:
        r_match = opt["ev"] if opt["ev"] is not None else 0.98
    resonator_row = _scheme_row("ring_resonator_opaque", resonator_opaque_scheme(r_match))
    resonator_row["metadata"]["r"] = r_match
    rows.append(resonator_row)
    if opt["format"] == "text":
        _emit(_schemes_table(rows, opt["precision"]), opt["out"])
        return EXIT_OK
    _emit_report("schemes", opt, {"schemes": rows})
    return EXIT_OK


def _schemes_table(rows, precision: int) -> str:
    columns = ["detect_no_hit_prob", "hit_prob", "inconclusive_prob", "long_run_efficiency"]
    width = max(len(r["name"]) for r in rows) + 2
    header = "scheme".ljust(width) + "  ".join(c.ljust(precision + 8) for c in columns)
    lines = [header.rstrip()]
    for r in rows:
        cells = "  ".join(f"{r[c]:.{precision}g}".ljust(precision + 8) for c in columns)
        lines.append((r["name"].ljust(width) + cells).rstrip())
    return "\n".join(lines) + "\n"


def _parse_object(value: str) -> ObjectModel:
    if str(value).strip().lower() == "none":
        return ObjectModel.absent()
    try:
        g = float(value)
    except ValueError as exc:
        raise ValueError(f"--object must be a grayness in [0, 1] or 'none', got {value!r}") from exc
    return ObjectModel(g)


def cmd_simulate(opt) -> int:
    params = _device(opt)
    target = _parse_object(opt["object"])
    dist = outcome_distribution(params, None, target, opt["det_eff"])
    stats = run_trials(params, None, target, opt["det_eff"], opt["trials"], opt["seed"])
    counts = stats.to_dict()["counts"]
    n = stats.n_trials
    results = {
        "counts": counts,
        "n_trials": n,
        "empirical_frequencies": {o.value: counts[o.value] / n for o in TrialOutcome},
        "analytic_probabilities": {o.value: dist[o] for o in TrialOutcome},
    }
    _emit_report("simulate", opt, results, seed=stats.seed)
    return EXIT_OK


def _counts_from_inline(text: str) -> dict:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(TrialOutcome):
        raise ValueError(
            f"--counts needs {len(TrialOutcome)} comma-separated integers in the order "
            + ",".join(o.value for o in TrialOutcome)
        )
    values = []
    for p in parts:
        n = int(p)
        if n < 0:
            raise ValueError(f"counts must be nonnegative, got {n}")
        values.append(n)
    return {o: v for o, v in zip(TrialOutcome, values)}


def _counts_from_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read stats file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"stats file {path} is not valid JSON: {exc}") from exc
    node = doc
    if isinstance(node, dict) and "results" in node:
        node = node["results"]
    if isinstance(node, dict) and "counts" in node:
        node = node["counts"]
    if not isinstance(node, dict):
        raise ValueError(f"stats file {path} has no counts mapping")
    try:
        return {o: int(node[o.value]) for o in TrialOutcome}
    except KeyError as exc:
        raise ValueError(f"stats file {path} is missing outcome {exc}") from exc


def cmd_estimate_gray(opt) -> int:
    if (opt["stats"] is None) == (opt["counts"] is None):
        raise ValueError("provide exactly one of --stats or --counts")
    counts = (
        _counts_from_inline(opt["counts"]) if opt["counts"] is not None
        else _counts_from_file(opt["stats"])
    )
    stats = TrialStatistics(counts=counts, n_trials=sum(counts.values()), seed=0)
    g_hat, ci = estimate_grayness(stats, _device(opt), None, opt["det_eff"])
    results = {"g_hat": g_hat, "ci95": [ci[0], ci[1]], "n_trials": stats.n_trials}
    _emit_report("estimate_gray", opt, results)
    return EXIT_OK


def _optimum_dict(optimum: Optimum) -> dict:
    return {
        "r1_star": optimum.r1_star,
        "r2_star": optimum.r2_star,
        "objective_value": optimum.objective_value,
        "objective_name": optimum.objective_name,
    }


def cmd_optimize(opt) -> int:
    objective = _OBJECTIVES[_conv_objective(opt["objective"])]
    found = optimize_coupling(opt["rho"], opt["a"], objective, opt["eta_floor"])
    results = _optimum_dict(found)
    if opt["verify"]:
        oracle = brute_force_coupling(
            opt["rho"], opt["a"], objective, opt["eta_floor"],
            center=(found.r1_star, found.r2_star),
        )
        results["oracle"] = _optimum_dict(oracle)
        # Grid cells fall short of the exact optimum; only a cell above it is a gap.
        results["objective_gap"] = max(0.0, oracle.objective_value - found.objective_value)
    _emit_report("optimize", opt, results)
    return EXIT_OK


_DISPATCH = {
    "efficiency": cmd_efficiency,
    "sweep": cmd_sweep,
    "schemes": cmd_schemes,
    "simulate": cmd_simulate,
    "estimate-gray": cmd_estimate_gray,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opt = _resolve(args, args.command)
        return _DISPATCH[args.command](opt)
    except NonIdentifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_IDENTIFIABLE
    except InfeasibleObjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())
