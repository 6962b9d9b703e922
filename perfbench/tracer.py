"""Span recorder around the package's public functions, for traced runs only.

``Tracer.install`` wraps each layer's public functions and rebinds every name
under which any ``ifmsim`` module holds them (``ifmsim.optimize.compute_phi``,
``ifmsim.montecarlo.efficiencies``, ...), so calls between layers are seen
too. A span is ``[parent, layer, name, start, end, extra]``; spans stay in
memory until the run ends. Callables handed into a layer (the integrand of
``adaptive_simpson``, the objective of ``golden_section_max``) run on behalf
of the caller, so their time is booked to the calling layer. Clock stamps use
CLOCK_MONOTONIC, which all processes on a host share, so spans recorded in a
child process line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("resonator", "wavepacket", "quadrature", "search", "optimize", "montecarlo", "schemes", "cli")
HARNESS = "bench"  # time inside an op that no layer span covers
MB = float(1 << 20)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mem_frames: list[list] = []  # open tracemalloc frames: [base, peak before a reset]

    # -- recording -------------------------------------------------------
    def open(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [parent, layer, name, now(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = now()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for p, *rest in spans:
            self.spans.append([parent if p < 0 else p + offset, *rest])

    def _caller(self, span: list) -> str:
        return self.spans[span[0]][1] if span[0] >= 0 else HARNESS

    def _traced_memory(self, call):
        """Run ``call``; return its result and its tracemalloc peak in MB."""
        outermost = not tracemalloc.is_tracing()
        if outermost:
            tracemalloc.start()
        base, peak = tracemalloc.get_traced_memory()
        for frame in self._mem_frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [base, 0]
        self._mem_frames.append(frame)
        try:
            out = call()
        finally:
            self._mem_frames.pop()
            peak = max(tracemalloc.get_traced_memory()[1], frame[1]) - base
            if outermost:
                tracemalloc.stop()
        return out, peak / MB

    # -- wrapping --------------------------------------------------------
    def wrap(self, layer: str, fn):
        hook = _HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, fn.__name__)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, span, fn, args, kwargs)
            finally:
                self.close(span)

        return traced

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package.__name__}.{layer}")
            except ModuleNotFoundError:
                continue  # a layer a later version removed reads as zero
            names = ("main",) if layer == "cli" else getattr(mod, "__all__", ())
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package.__name__ or mod_name.startswith(package.__name__ + "."):
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])

    # -- aggregation -----------------------------------------------------
    def _ancestor(self, i: int, name: str) -> int:
        p = self.spans[i][0]
        while p >= 0 and self.spans[p][2] != name:
            p = self.spans[p][0]
        return p

    def summary(self, wall: float) -> dict:
        """Totals over all spans of ops that took ``wall`` seconds in all.

        Self seconds per layer, with the harness's share being the part of
        ``wall`` that no top-level span covers, plus per-layer counters.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for parent, _, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                top += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s[HARNESS] = wall - top
        by_name: dict[str, list[int]] = {}
        for i, (_, layer, name, t0, t1, extra) in enumerate(spans):
            own = t1 - t0 - child[i]
            if name == "adaptive_simpson":
                own -= extra["integrand_s"]
                self_s[extra["caller"]] += extra["integrand_s"]
            self_s[layer] += own
            by_name.setdefault(name, []).append(i)

        def spans_of(name):
            return [spans[i] for i in by_name.get(name, [])]

        def durations(name):
            return [s[4] - s[3] for s in spans_of(name)]

        def extras(name, key):
            return [s[5][key] for s in spans_of(name)]

        def under(name, ancestor):
            return sum(1 for i in by_name.get(name, []) if self._ancestor(i, ancestor) >= 0)

        resonator = [s for s in spans if s[1] == "resonator"]
        mains = {}
        startup = []
        for i in by_name.get("main", []):
            mains.setdefault(spans[i][5]["command"], []).append(spans[i][4] - spans[i][3])
            proc = self._ancestor(i, "process")
            if proc >= 0:
                startup.append((spans[proc][4] - spans[proc][3]) - (spans[i][4] - spans[i][3]))
        return {
            "self_s": self_s,
            "resonator_calls": len(resonator),
            "resonator_points": sum(s[5]["points"] for s in resonator if s[5]),
            "phi_s": durations("compute_phi"),
            "quadrature_calls": len(by_name.get("adaptive_simpson", [])),
            "quadrature_evals": sum(extras("adaptive_simpson", "evals")),
            "quadrature_peak_nodes": max(extras("adaptive_simpson", "peak_nodes"), default=0),
            "quadrature_peak_mb": max(extras("adaptive_simpson", "peak_mb"), default=0.0),
            "search_calls": len(by_name.get("golden_section_max", [])),
            "search_evals": sum(extras("golden_section_max", "evals")),
            "optimize_calls": len(by_name.get("optimize_coupling", [])),
            "optimize_phi_calls": under("compute_phi", "optimize_coupling"),
            "verify_s": sum(durations("brute_force_coupling")),
            "run_trials_s": sum(durations("run_trials")),
            "trials": sum(extras("run_trials", "n")),
            "run_trials_peak_mb": max(extras("run_trials", "peak_mb"), default=0.0),
            "estimate_s": sum(durations("estimate_grayness")),
            "estimate_calls": len(by_name.get("estimate_grayness", [])),
            "estimate_fwd_calls": under("outcome_distribution", "estimate_grayness"),
            "schemes_calls": sum(1 for s in spans if s[1] == "schemes"),
            "cli_main_s": mains,
            "cli_import_s": durations("import"),
            "cli_startup_s": startup,
        }


# Quadratures that start from fewer panels allocate well under a megabyte;
# tracemalloc costs more than such a call, so only larger ones are measured.
TRACEMALLOC_MIN_PANELS = 10_000

_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _argument(fn, args, kwargs, name):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hook_quadrature(tracer, span, fn, args, kwargs):
    stats = {"evals": 0, "peak_nodes": 0, "integrand_s": 0.0, "caller": tracer._caller(span)}
    span[5] = stats
    f, *rest = args

    def counted(x):
        t0 = now()
        try:
            return f(x)
        finally:
            stats["integrand_s"] += now() - t0
            stats["evals"] += int(np.size(x))
            stats["peak_nodes"] = max(stats["peak_nodes"], int(np.size(x)))

    if _argument(fn, args, kwargs, "initial_panels") < TRACEMALLOC_MIN_PANELS:
        stats["peak_mb"] = 0.0
        return fn(counted, *rest, **kwargs)
    out, stats["peak_mb"] = tracer._traced_memory(lambda: fn(counted, *rest, **kwargs))
    return out


def _hook_search(tracer, span, fn, args, kwargs):
    stats = {"evals": 0}
    span[5] = stats
    caller = tracer._caller(span)
    f, *rest = args

    def counted(x):
        stats["evals"] += 1
        s = tracer.open(caller, "objective")
        try:
            return f(x)
        finally:
            tracer.close(s)

    return fn(counted, *rest, **kwargs)


def _hook_trials(tracer, span, fn, args, kwargs):
    span[5] = {"n": int(_argument(fn, args, kwargs, "n_trials"))}
    out, span[5]["peak_mb"] = tracer._traced_memory(lambda: fn(*args, **kwargs))
    return out


def _hook_resonator(tracer, span, fn, args, kwargs):
    if "psi" in _signature(fn).parameters:
        span[5] = {"points": int(np.size(_argument(fn, args, kwargs, "psi")))}
    return fn(*args, **kwargs)


def _hook_cli(tracer, span, fn, args, kwargs):
    argv = _argument(fn, args, kwargs, "argv")
    span[5] = {"command": argv[0] if argv else ""}
    return fn(*args, **kwargs)


_HOOKS = {
    "adaptive_simpson": _hook_quadrature,
    "golden_section_max": _hook_search,
    "run_trials": _hook_trials,
    "reflected_amplitude": _hook_resonator,
    "monochromatic_reflectance": _hook_resonator,
    "monochromatic_transmittance": _hook_resonator,
    "partial_sum_reflected_amplitude": _hook_resonator,
    "spectral_response": _hook_resonator,
    "main": _hook_cli,
}
