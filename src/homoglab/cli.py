"""Command-line front end.

Usage:  homoglab <command> --config <file> [--out <dir>] [--seed <int>]

A config file is a single JSON document: {"command": ..., "output_dir": ...,
"parameters": {...}}.  ``--out`` overrides output_dir.  ``PARAMETERS`` lists
each command's keys with their checks and defaults (the README's command
table names the same keys): laminate matrices are row-major nested arrays,
``u`` is a test-function name (``sin_1`` by default) or, for counterexample,
a CSV path, ``eps_list`` holds reciprocals of integers, and ``lambda_max`` is
the kernel transform's cut-off.  Every key is checked before any output is
written and all failures are reported together; a key the table does not
list is an error.  report.json's inputs.parameters holds the effective
values, defaults filled in.

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

from . import anomalous, cell, laminate, linalg
from .errors import NumericalError, ValidationError

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


REQUIRED = object()  # the default of a key the config must give


def _finite(value) -> float:
    """value as a float: a finite JSON number, not a bool or a string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"must be a finite number, got {value!r}")


def _real(lo: float, hi: float = math.inf):
    """Check: a finite number strictly between lo and hi."""
    def check(value) -> float:
        x = _finite(value)
        if not lo < x < hi:
            raise ValidationError(f"must lie in ({lo:g}, {hi:g}), got {value!r}")
        return x
    return check


def _integer(lo: float, hi: float = math.inf):
    """Check: a whole number in [lo, hi]."""
    def check(value) -> int:
        x = _finite(value)
        if not (x.is_integer() and lo <= x <= hi):
            raise ValidationError(f"must be an integer in [{lo:g}, {hi:g}], got {value!r}")
        return int(value)
    return check


def _file(value) -> str:
    if isinstance(value, str) and Path(value).is_file():
        return value
    raise ValidationError(f"not the path of a file, got {value!r}")


def _u_field(value, n: int = 16) -> anomalous.SampledField:
    """The test function named value at n points, or the CSV file at value."""
    if isinstance(value, str) and (value.startswith("sin_") or value == "bump"):
        return anomalous.SampledField.from_function(anomalous.test_function(value), n)
    path = _file(value)
    lines = Path(path).read_bytes().splitlines()
    if not any(line.partition(b"#")[0].strip() for line in lines):
        raise ValidationError(f"{path} holds no samples")
    try:
        samples = np.loadtxt(path, delimiter=",", dtype=float, ndmin=1)
    except ValueError as exc:
        raise ValidationError(f"{path} is not numeric: {exc}") from None
    return anomalous.SampledField.on_unit_interval(samples)


def _kept(validate):
    """Check: the value as given, once validate(value) has passed."""
    def check(value):
        validate(value)
        return value
    return check


def _eps_list(value) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"must be a non-empty list, got {value!r}")
    eps_list = [_finite(eps) for eps in value]
    for eps in eps_list:
        anomalous.eps_periods(eps)
    return eps_list


_LAMINATE = {
    "phase1": (lambda v: linalg.as_sym_matrix(v).tolist(), REQUIRED),
    "phase2": (lambda v: linalg.as_sym_matrix(v).tolist(), REQUIRED),
    "theta": (_real(0.0, 1.0), REQUIRED),
    "direction": (lambda v: linalg.as_vector(v).tolist(), REQUIRED),
}
_CONTRAST = {"c": (_real(1.0), REQUIRED), "theta": (_real(0.0, 1.0), REQUIRED)}

# command -> key -> (check, default or REQUIRED).  A check takes the JSON
# value and returns the effective JSON value or raises ValidationError.
PARAMETERS = {
    "homogenize_laminate": _LAMINATE,
    "homogenize_grid": {
        "coefficient": (_file, REQUIRED),
        "delta0": (_real(0.0), cell.DELTA0_DEFAULT),
        "n_delta": (_integer(1), cell.N_DELTA_DEFAULT),
        "tol": (_real(0.0), cell.SolverConfig.tol),
        "max_iter": (_integer(1), cell.SolverConfig.max_iter),
    },
    "verify_conditions": _LAMINATE,
    "counterexample": {
        **_CONTRAST,
        "u": (_kept(_u_field), "sin_1"),
        "n": (_integer(16, anomalous.N_MAX), 1024),
        "lambda_max": (_real(0.0), anomalous.LAMBDA_MAX_DEFAULT),
    },
    "recovery_sweep": {
        **_CONTRAST,
        "u": (_kept(anomalous.test_function), "sin_1"),
        "eps_list": (_eps_list, REQUIRED),
        "points_per_period": (_integer(1), 16),
        "n_min": (_integer(1), 128),
    },
}
COMMANDS = tuple(PARAMETERS)


def parse_config(document: str) -> ExperimentConfig:
    """Parse a JSON config document and check it against PARAMETERS.

    Every key of the command is checked in one pass and all failures are
    reported together; a key the table does not list is a failure.  The
    returned parameters are the effective JSON values, defaults filled in.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(
            f"command: unknown command {command!r}, expected one of {COMMANDS}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ValidationError("parameters: not an object")
    table = PARAMETERS[command]
    errors = [f"parameters.{key}: unknown key" for key in params if key not in table]
    effective = {}
    for key, (check, default) in table.items():
        value = params.get(key)
        try:
            if value is None and default is REQUIRED:
                raise ValidationError("missing required key")
            effective[key] = default if value is None else check(value)
        except ValidationError as exc:
            errors.append(f"parameters.{key}: {exc}")
    seed = doc.get("seed")
    try:
        seed = 0 if seed is None else _integer(-math.inf)(seed)
    except ValidationError as exc:
        errors.append(f"seed: {exc}")
    if errors:
        raise ValidationError("; ".join(errors))
    return ExperimentConfig(command=command, parameters=effective,
                            output_dir=str(doc.get("output_dir", ".")), seed=seed)


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
    hom = laminate.homogenize_laminate(spec)
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
    if spec.dim == 2:
        rep = laminate.check_conditions_2d(spec)
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
    params = cfg.parameters
    coeff = cell.load_coefficient(params["coefficient"])
    solver = cell.SolverConfig(tol=params["tol"], max_iter=params["max_iter"],
                               delta0=params["delta0"], n_delta=params["n_delta"])
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


def _run_counterexample(cfg, out: Path, report: RunReport):
    params = cfg.parameters
    p = anomalous.SpectralParams(c=params["c"], theta=params["theta"])
    lambda_max = params["lambda_max"]
    u = _u_field(params["u"], params["n"])
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
    u0_1, u0_c, _ = anomalous.two_scale_profile(p, u)
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
        "u": params["u"],
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
    params = cfg.parameters
    p = anomalous.SpectralParams(c=params["c"], theta=params["theta"])
    fn = anomalous.test_function(params["u"])
    rows = []
    for eps in params["eps_list"]:
        periods = anomalous.eps_periods(eps)
        n_fine = max(params["n_min"], params["points_per_period"] * periods)
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
