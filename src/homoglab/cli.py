"""Command-line front end.

Usage:  homoglab <command> --config <file> [--out <dir>] [--seed <int>]

Commands and their JSON config sections:

  homogenize_laminate   phase1, phase2 (row-major nested arrays), theta,
                        direction; optional a_tol
  verify_conditions     same laminate keys; optional xi (2D)
  homogenize_grid       coefficient (path to a grid file), optional delta0,
                        n_delta, tol, max_iter
  counterexample        c, theta; optional u (name or CSV path), n,
                        lambda_max (cut-off of the kernel transform; the
                        kernel window is sized from h's decay)
  recovery_sweep        c, theta, u (test-function name), eps_list
                        (reciprocals of integers), optional points_per_period,
                        n_min

A config file is a single JSON document: {"command": ..., "output_dir": ...,
"parameters": {...}}.  ``--out`` overrides output_dir.

Grid coefficient file format: a text header line ``dim n_grid channels``
followed by whitespace-separated row-major floats, one cell per line, the
channels being the upper triangle of the symmetric matrix in row-major
order (2D: a11 a12 a22; 3D: a11 a12 a13 a22 a23 a33).

CSV artifacts are comma-separated with a header row, '.' decimal, UTF-8,
LF line endings.  Each run also writes report.json and a gnuplot script
plot.gp.  Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import anomalous, cell, laminate
from .errors import NumericalError, ValidationError

COMMANDS = ("homogenize_laminate", "homogenize_grid", "verify_conditions",
            "counterexample", "recovery_sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: str = "."
    seed: int = 0

    def to_document(self) -> str:
        return json.dumps(
            {"command": self.command, "output_dir": self.output_dir,
             "seed": self.seed, "parameters": self.parameters},
            indent=2, sort_keys=True)


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "inputs": self.inputs,
             "results": self.results, "diagnostics": self.diagnostics,
             "artifacts": self.artifacts, "wall_seconds": self.wall_seconds},
            indent=2, sort_keys=True)


def _fail(errors: list[str]):
    raise ValidationError("; ".join(errors))


def _check_matrix(params, key, errors):
    try:
        m = np.asarray(params[key], dtype=float)
    except (TypeError, ValueError):
        errors.append(f"parameters.{key}: not a numeric matrix")
        return
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
        errors.append(f"parameters.{key}: must be a 2x2 or 3x3 row-major array")


def _number(section: dict, key: str, default, kind=float, where: str = "parameters."):
    """section[key] as kind (int or float), default when absent or null."""
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{where}{key}: must be a number, got {value!r}")


def _file(params: dict, key: str, what: str) -> Path:
    """params[key] as the path of an existing regular file."""
    value = params.get(key)
    if isinstance(value, str) and Path(value).is_file():
        return Path(value)
    raise ValidationError(f"parameters.{key}: {what}, got {value!r}")


def _require(params, keys, errors):
    errors += [f"parameters.{k}: missing required key" for k in keys if k not in params]


def _validate_laminate_params(params, errors):
    _require(params, ("phase1", "phase2", "theta", "direction"), errors)
    for key in ("phase1", "phase2"):
        if key in params:
            _check_matrix(params, key, errors)
    if "theta" in params:
        theta = params["theta"]
        if not isinstance(theta, (int, float)) or not 0.0 < float(theta) < 1.0:
            errors.append(f"parameters.theta: must lie in (0, 1), got {theta!r}")
    if "direction" in params:
        try:
            d = np.asarray(params["direction"], dtype=float)
            if d.ndim != 1 or d.shape[0] not in (2, 3):
                raise ValueError
        except (TypeError, ValueError):
            errors.append("parameters.direction: must be a 2- or 3-vector")


def _validate_counterexample_params(params, errors, need_eps: bool):
    _require(params, ("c", "theta") + (("eps_list",) if need_eps else ()), errors)
    if "c" in params:
        c = params["c"]
        if not isinstance(c, (int, float)) or float(c) <= 1.0:
            errors.append(f"parameters.c: must be > 1, got {c!r}")
    if "theta" in params:
        theta = params["theta"]
        if not isinstance(theta, (int, float)) or not 0.0 < float(theta) < 1.0:
            errors.append(f"parameters.theta: must lie in (0, 1), got {theta!r}")
    if need_eps and "eps_list" in params:
        eps_list = params["eps_list"]
        if not isinstance(eps_list, list) or not eps_list:
            errors.append("parameters.eps_list: must be a non-empty list")
        else:
            for e in eps_list:
                if isinstance(e, bool) or not isinstance(e, (int, float)) or \
                        e <= 0 or abs(1.0 / e - round(1.0 / e)) > 1e-9:
                    errors.append(
                        f"parameters.eps_list: eps must be reciprocal of an "
                        f"integer, got {e!r}")


def parse_config(document: str) -> ExperimentConfig:
    """Parse and validate a JSON config document, aggregating all failures."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    errors: list[str] = []
    command = doc.get("command")
    if command not in COMMANDS:
        _fail([f"command: unknown command {command!r}, expected one of {COMMANDS}"])
    params = doc.get("parameters")
    if not isinstance(params, dict):
        errors.append("parameters: missing or not an object")
        params = {}
    if command in ("homogenize_laminate", "verify_conditions"):
        _validate_laminate_params(params, errors)
    elif command == "homogenize_grid":
        _require(params, ("coefficient",), errors)
    elif command == "counterexample":
        _validate_counterexample_params(params, errors, need_eps=False)
    elif command == "recovery_sweep":
        _validate_counterexample_params(params, errors, need_eps=True)
    if errors:
        _fail(errors)
    out = doc.get("output_dir", ".")
    seed = _number(doc, "seed", 0, int, where="")
    return ExperimentConfig(command=command, parameters=params,
                            output_dir=str(out), seed=seed)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _tensor_rows(t: np.ndarray):
    d = t.shape[0]
    return [(i, j, t[i, j]) for i in range(d) for j in range(d)]


def _check_report_tensor(t: np.ndarray, name: str):
    if np.abs(t - t.T).max() > 1e-10 * max(1.0, np.abs(t).max()):
        raise NumericalError(f"{name} lost symmetry beyond 1e-10")


def _plot_script(out: Path, lines: list[str]) -> str:
    path = out / "plot.gp"
    body = "\n".join(['set datafile separator ","', "set key autotitle columnhead"]
                     + lines) + "\n"
    path.write_text(body, encoding="utf-8", newline="\n")
    return path.name


def _run_homogenize_laminate(cfg, out: Path, report: RunReport):
    spec = laminate.LaminateSpec.from_dict(cfg.parameters)
    a_tol = _number(cfg.parameters, "a_tol", None)
    hom = laminate.homogenize_laminate(spec, a_tol)
    _check_report_tensor(hom.tensor, "effective tensor")
    _write_csv(out / "tensor.csv", ["i", "j", "value"], _tensor_rows(hom.tensor))
    _write_csv(out / "summary.csv",
               ["a_value", "branch", "pd", "kernel_dim"],
               [(hom.a_value, hom.branch, hom.pd, len(hom.kernel))])
    report.results.update({
        "a_value": hom.a_value,
        "tensor": hom.tensor.tolist(),
        "branch": hom.branch,
        "pd": hom.pd,
        "kernel": [v.tolist() for v in hom.kernel],
    })
    report.artifacts += [("tensor.csv", spec.dim ** 2), ("summary.csv", 1)]
    report.artifacts.append((_plot_script(out, [
        'plot "tensor.csv" using 1:3 with points pt 7 title "entries"']), None))


def _run_verify_conditions(cfg, out: Path, report: RunReport):
    spec = laminate.LaminateSpec.from_dict(cfg.parameters)
    xi = cfg.parameters.get("xi")
    if spec.dim == 2:
        rep = laminate.check_conditions_2d(spec, xi=xi)
    else:
        rep = laminate.check_conditions_3d(spec)
    hom = laminate.homogenize_laminate(spec)
    identity = laminate.verify_kernel_identity(spec)
    rows = [(d.name, d.passed, d.value, d.threshold) for d in rep.details]
    _write_csv(out / "conditions.csv", ["condition", "passed", "value", "threshold"],
               rows)
    report.results.update({
        "h2_holds": rep.h2_holds,
        "pd": hom.pd,
        "kernel_identity": identity,
        "tensor": hom.tensor.tolist(),
    })
    report.artifacts.append(("conditions.csv", len(rows)))


def _run_homogenize_grid(cfg, out: Path, report: RunReport):
    coeff = cell.load_coefficient(
        _file(cfg.parameters, "coefficient", "not the path of a grid file"))
    solver = cell.SolverConfig(
        tol=_number(cfg.parameters, "tol", cell.SolverConfig.tol),
        max_iter=_number(cfg.parameters, "max_iter", cell.SolverConfig.max_iter, int),
        delta0=_number(cfg.parameters, "delta0", cell.DELTA0_DEFAULT),
        n_delta=_number(cfg.parameters, "n_delta", cell.N_DELTA_DEFAULT, int),
    )
    res = cell.homogenize_general(coeff, solver)
    rows = []
    for delta, tensor in zip(res.deltas, res.tensors):
        for i, j, v in _tensor_rows(tensor):
            rows.append((delta, i, j, v))
    _write_csv(out / "tensors_by_delta.csv", ["delta", "i", "j", "value"], rows)
    if res.estimate is not None:
        _check_report_tensor(res.estimate, "extrapolated tensor")
        _write_csv(out / "estimate.csv", ["i", "j", "value"],
                   _tensor_rows(res.estimate))
        report.artifacts.append(("estimate.csv", coeff.dim ** 2))
        report.results["estimate"] = res.estimate.tolist()
    report.results["deltas"] = res.deltas.tolist()
    report.diagnostics.update({
        "fit_residual": res.fit_residual,
        "monotone": res.monotone,
        "stalled": res.stalled,
        "cg_iterations": res.iterations.tolist(),
        "cg_residuals": res.residuals.tolist(),
    })
    report.artifacts.append(("tensors_by_delta.csv", len(rows)))
    report.artifacts.append((_plot_script(out, [
        "set logscale x",
        'plot "tensors_by_delta.csv" using 1:($2==$3 ? $4 : 1/0) with points title "diagonal entries"',
    ]), None))


def _resolve_u(params) -> tuple[str, np.ndarray | None]:
    name = params.get("u", "sin_1")
    if isinstance(name, str) and (name.startswith("sin_") or name == "bump"):
        return name, None
    path = _file(params, "u", "neither a known test function nor a CSV file")
    try:
        vals = np.loadtxt(path, delimiter=",", dtype=float)
    except ValueError as exc:
        raise ValidationError(f"parameters.u: {path} is not numeric: {exc}") from None
    return name, vals


def _run_counterexample(cfg, out: Path, report: RunReport):
    p = anomalous.SpectralParams(c=float(cfg.parameters["c"]),
                                 theta=float(cfg.parameters["theta"]))
    n = _number(cfg.parameters, "n", 1024, int)
    lambda_max = _number(cfg.parameters, "lambda_max", anomalous.LAMBDA_MAX_DEFAULT)
    if not 0.0 < lambda_max < math.inf:
        raise ValidationError(f"parameters.lambda_max: must be finite and > 0, "
                              f"got {lambda_max!r}")
    name, vals = _resolve_u(cfg.parameters)
    if vals is None:
        u = anomalous.SampledField.from_function(anomalous.test_function(name), n)
    else:
        u = anomalous.SampledField.on_unit_interval(vals)
    lam = np.linspace(-lambda_max, lambda_max, 2049)
    k0 = anomalous.k0_hat(p, lam)
    alpha, f = anomalous.alpha_f(p, lam)
    _write_csv(out / "kernel.csv",
               ["lambda", "k0_hat", "inv_k0", "alpha_plus_f"],
               zip(lam, k0, 1.0 / k0, alpha + f))
    h = anomalous.h_kernel(p, 0.5 / lambda_max, lambda_max, half_width=4.0)
    _write_csv(out / "h.csv", ["x", "h"], zip(h.x, h.values))
    ff = anomalous.gamma_limit_fourier(p, u)
    fc = anomalous.gamma_limit_convolution(p, u, lambda_max)
    _write_csv(out / "energies.csv",
               ["form", "value"],
               [("fourier", ff), ("convolution", fc),
                ("relative_difference", abs(ff - fc) / ff if ff else 0.0)])
    u0_1, u0_c = anomalous.build_u0(p, u)
    mean_gap = float(np.abs(p.theta * u0_1.values + (1 - p.theta) * u0_c.values
                            - u.values).max())
    branch_gap = float(np.abs(u0_1.values - u0_c.values).max())
    _write_csv(out / "u0_branches.csv", ["x1", "u", "u0_phase1", "u0_phasec"],
               zip(u.x, u.values, u0_1.values, u0_c.values))
    report.results.update({
        "fourier_energy": ff,
        "convolution_energy": fc,
        "alpha": p.alpha,
        "c_theta": p.c_theta,
        "u": name,
    })
    report.diagnostics.update({
        "form_relative_difference": abs(ff - fc) / ff if ff else 0.0,
        "mean_identity_sup": mean_gap,
        "branch_difference_sup": branch_gap,
    })
    report.artifacts += [("kernel.csv", len(lam)), ("h.csv", h.n),
                         ("energies.csv", 3), ("u0_branches.csv", u.n)]
    report.artifacts.append((_plot_script(out, [
        'plot "u0_branches.csv" using 1:2 with lines, "" using 1:3 with lines, '
        '"" using 1:4 with lines',
    ]), None))


def _run_recovery_sweep(cfg, out: Path, report: RunReport):
    p = anomalous.SpectralParams(c=float(cfg.parameters["c"]),
                                 theta=float(cfg.parameters["theta"]))
    name, vals = _resolve_u(cfg.parameters)
    if vals is not None:
        raise ValidationError("recovery_sweep requires a named test function")
    fn = anomalous.test_function(name)
    ppp = _number(cfg.parameters, "points_per_period", 16, int)
    n_min = _number(cfg.parameters, "n_min", 128, int)
    rows = []
    for eps in cfg.parameters["eps_list"]:
        periods = int(round(1.0 / eps))
        n_fine = max(n_min, ppp * periods)
        res = anomalous.recovery_energy(p, fn, 1.0 / periods, n_fine)
        rows.append((res.eps, res.energy_eps, res.limit_energy, res.gap))
    _write_csv(out / "recovery.csv", ["eps", "energy_eps", "limit_energy", "gap"],
               rows)
    report.results["sweep"] = [
        {"eps": r[0], "energy_eps": r[1], "limit_energy": r[2], "gap": r[3]}
        for r in rows]
    report.diagnostics["final_gap"] = rows[-1][3]
    report.artifacts.append(("recovery.csv", len(rows)))
    report.artifacts.append((_plot_script(out, [
        "set logscale x",
        'plot "recovery.csv" using 1:4 with linespoints title "gap"',
    ]), None))


_RUNNERS = {
    "homogenize_laminate": _run_homogenize_laminate,
    "verify_conditions": _run_verify_conditions,
    "homogenize_grid": _run_homogenize_grid,
    "counterexample": _run_counterexample,
    "recovery_sweep": _run_recovery_sweep,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute a validated config; writes artifacts into its output_dir."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(command=config.command,
                       inputs={"parameters": config.parameters,
                               "seed": config.seed})
    start = time.perf_counter()
    _RUNNERS[config.command](config, out, report)
    report.wall_seconds = time.perf_counter() - start
    for name, rows in report.artifacts:
        path = out / name
        if not path.exists():
            raise NumericalError(f"declared artifact {name} was not written")
        if rows is not None:
            with open(path, encoding="utf-8") as fh:
                count = sum(1 for _ in fh) - 1
            if count != rows:
                raise NumericalError(
                    f"artifact {name} has {count} rows, declared {rows}")
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homoglab",
        description="effective tensors for degenerate periodic conductivities")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report as metadata only; "
                             "no command draws random numbers")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if config.command != args.command:
            raise ValidationError(
                f"config command {config.command!r} does not match CLI "
                f"command {args.command!r}")
        if args.out is not None:
            config = replace(config, output_dir=args.out)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        report = run(config)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
