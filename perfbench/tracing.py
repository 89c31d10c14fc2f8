"""Span recorder that times homoglab's layers from outside the package.

``Recorder.install`` replaces the public functions listed in ``TARGETS``
with wrappers that record one span per call: name, start, end, the index of
the enclosing span, and a few attributes read off the arguments or result.
Every alias a homoglab module made with ``from ... import`` is replaced as
well, so calls through ``laminate.sym_eig`` are not missed.  ``uninstall``
puts every original back.  Spans stay in memory until the run ends.

With ``memory=True`` the spans in ``PEAK_SPANS`` also record the
``tracemalloc`` peak of the memory newly allocated inside them.  tracemalloc
slows every allocation (``cell.load_coefficient`` runs about four times
slower under it), so the benchmark takes span times from runs without it
and peaks from a separate run with it.

Only the standard library is imported here, so the worker can load this
module before its timed ``import homoglab`` without pulling numpy in early.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

# layer (a homoglab module) -> public names wrapped; "Class.method" wraps a
# method on the class.
TARGETS = {
    "cli": ("main", "run"),
    "cell": ("load_coefficient", "homogenize_general", "solve_cell_problem",
             "PeriodicCoefficient.__post_init__"),
    "anomalous": ("h_kernel", "gamma_limit_fourier", "gamma_limit_convolution",
                  "solve_sturm_liouville", "two_scale_profile", "recovery_energy"),
    "laminate": ("homogenize_laminate", "check_conditions_2d", "check_conditions_3d",
                 "verify_kernel_identity", "LaminateSpec.__post_init__"),
    "linalg": ("sym_eig", "kernel_basis", "is_positive_definite", "spectral_radius",
               "span_equals_orthocomplement"),
}

LAYERS = tuple(TARGETS)

# Spans whose peak of newly allocated memory is measured when memory=True.
PEAK_SPANS = frozenset({"cell.load_coefficient", "anomalous.solve_sturm_liouville",
                        "anomalous.recovery_energy"})

MB = 1024.0 * 1024.0


def _solve_attrs(sig, args, kwargs, result) -> dict:
    """CG iterations, exit residual and delta-schedule stage of one cell solve."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    attrs = {"iterations": getattr(result, "iterations", None),
             "residual": getattr(result, "residual", None)}
    delta, cfg = bound.arguments.get("delta"), bound.arguments.get("cfg")
    if delta is not None and hasattr(cfg, "deltas"):
        schedule = [float(d) for d in cfg.deltas()]
        attrs["stage"] = min(range(len(schedule)),
                             key=lambda k: abs(schedule[k] - float(delta)))
    return attrs


ATTRS = {"cell.solve_cell_problem": _solve_attrs}


class Recorder:
    """Collects spans from wrapped homoglab functions between install/uninstall."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []  # name, start, end, parent index (-1: none)
        self._stack: list[int] = []
        self._peak_open: list[list] = []  # [span, memory at start, highest seen]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else -1}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory and name in PEAK_SPANS:
            if not self._peak_open:
                tracemalloc.start()
            self._fold_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._peak_open.append([span, current, current])
        return span

    def _close(self, span: dict) -> None:
        if self._peak_open and self._peak_open[-1][0] is span:
            self._fold_peak()
            _, start, highest = self._peak_open.pop()
            span["peak_mb"] = (highest - start) / MB
            if not self._peak_open:
                tracemalloc.stop()
        self._stack.pop()
        span["end"] = time.perf_counter()

    def _fold_peak(self) -> None:
        """Credit the peak since the last reset to every open peak span."""
        if not self._peak_open:
            return
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._peak_open:
            entry[2] = max(entry[2], peak)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs:
                span.update(attrs(sig, args, kwargs, result))
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every target of ``package`` (the imported homoglab) and its aliases.

        A target the package no longer has is skipped, so the metrics that
        depend on it read zero instead of the run failing.
        """
        originals = {}
        for layer, names in TARGETS.items():
            module = getattr(package, layer)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = vars(owner).get(attr) if owner is not None else None
                if fn is None:
                    continue
                wrapper = self.wrap(f"{layer}.{qual.replace('.__post_init__', '')}", fn)
                self._patch(owner, attr, wrapper)
                if not owner_name:
                    originals[id(fn)] = wrapper
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        self._peak_open.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


STAGES = 6  # default delta schedule length of homoglab.cell

# name -> unit, in the order BENCHMARK.json lists them.  trace.overhead_s is
# added by run.py, which alone sees both the traced and the untraced runs.
PER_LAYER_UNITS = {
    "cell.cg_iterations": "count",
    **{f"cell.cg_iterations.stage{k}": "count" for k in range(STAGES)},
    "cell.s_per_iteration": "s",
    "cell.solve_calls": "count",
    "cell.s_per_solve": "s",
    "cell.solve_s": "s",
    "cell.homogenize_self_s": "s",
    "cell.load_coefficient_s": "s",
    "cell.load_coefficient_peak_mb": "MB",
    "cell.validate_s": "s",
    "cell.max_residual": "1",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "anomalous.sturm_liouville_s": "s",
    "anomalous.sturm_liouville_peak_mb": "MB",
    "anomalous.recovery_energy_self_s": "s",
    "anomalous.recovery_energy_peak_mb": "MB",
    "anomalous.recovery_calls": "count",
    "anomalous.h_kernel_s": "s",
    "anomalous.gamma_fourier_s": "s",
    "anomalous.gamma_convolution_s": "s",
    "anomalous.two_scale_profile_self_s": "s",
    "laminate.specs": "count",
    "laminate.homogenize_s": "s",
    "laminate.conditions_s": "s",
    "laminate.kernel_identity_s": "s",
    "linalg.sym_eig_calls": "count",
    "linalg.sym_eig_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict], artifact_bytes: int = 0) -> dict[str, float]:
    """Per-layer numbers of one traced workload run (all but trace.overhead_s)."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, float] = {}
    for s, self_s in zip(spans, own):
        n = s["name"]
        dur[n] = dur.get(n, 0.0) + s["end"] - s["start"]
        selft[n] = selft.get(n, 0.0) + self_s
        calls[n] = calls.get(n, 0) + 1
        if "peak_mb" in s:
            peak[n] = max(peak.get(n, 0.0), s["peak_mb"])
    solves = [s for s in spans if s["name"] == "cell.solve_cell_problem"]
    iters = sum(s.get("iterations") or 0 for s in solves)
    solve_s = dur.get("cell.solve_cell_problem", 0.0)
    return {
        "cell.cg_iterations": iters,
        **{f"cell.cg_iterations.stage{k}": sum(s.get("iterations") or 0 for s in solves
                                               if s.get("stage") == k)
           for k in range(STAGES)},
        "cell.s_per_iteration": solve_s / iters if iters else 0.0,
        "cell.solve_calls": len(solves),
        "cell.s_per_solve": solve_s / len(solves) if solves else 0.0,
        "cell.solve_s": solve_s,
        "cell.homogenize_self_s": selft.get("cell.homogenize_general", 0.0),
        "cell.load_coefficient_s": dur.get("cell.load_coefficient", 0.0),
        "cell.load_coefficient_peak_mb": peak.get("cell.load_coefficient", 0.0),
        "cell.validate_s": dur.get("cell.PeriodicCoefficient", 0.0),
        "cell.max_residual": max((s.get("residual") or 0.0 for s in solves), default=0.0),
        "cli.run_s": dur.get("cli.run", 0.0),
        "cli.self_s": selft.get("cli.main", 0.0) + selft.get("cli.run", 0.0),
        "cli.artifact_bytes": artifact_bytes,
        "anomalous.sturm_liouville_s": dur.get("anomalous.solve_sturm_liouville", 0.0),
        "anomalous.sturm_liouville_peak_mb": peak.get("anomalous.solve_sturm_liouville", 0.0),
        "anomalous.recovery_energy_self_s": selft.get("anomalous.recovery_energy", 0.0),
        "anomalous.recovery_energy_peak_mb": peak.get("anomalous.recovery_energy", 0.0),
        "anomalous.recovery_calls": calls.get("anomalous.recovery_energy", 0),
        "anomalous.h_kernel_s": dur.get("anomalous.h_kernel", 0.0),
        "anomalous.gamma_fourier_s": dur.get("anomalous.gamma_limit_fourier", 0.0),
        "anomalous.gamma_convolution_s": dur.get("anomalous.gamma_limit_convolution", 0.0),
        "anomalous.two_scale_profile_self_s": selft.get("anomalous.two_scale_profile", 0.0),
        "laminate.specs": calls.get("laminate.LaminateSpec", 0),
        "laminate.homogenize_s": dur.get("laminate.homogenize_laminate", 0.0),
        "laminate.conditions_s": dur.get("laminate.check_conditions_2d", 0.0)
        + dur.get("laminate.check_conditions_3d", 0.0),
        "laminate.kernel_identity_s": dur.get("laminate.verify_kernel_identity", 0.0),
        "linalg.sym_eig_calls": calls.get("linalg.sym_eig", 0),
        "linalg.sym_eig_s": dur.get("linalg.sym_eig", 0.0),
    }
