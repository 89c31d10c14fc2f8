"""Command-line front end.

Usage:  homoglab <command> --config <file> [--out <dir>]

A config file is a single JSON document: {"command": ..., "output_dir": ...,
"parameters": {...}}.  ``--out`` replaces output_dir before the document is
checked, so it obeys the same rule: a non-empty string.  ``PARAMETERS``
lists each command's keys with their checks and defaults (the README's
command table names the same keys): laminate matrices are row-major nested
arrays, ``eps_list`` holds reciprocals of integers, and ``lambda_max`` sets
the lambda range of kernel.csv and h.csv's spacing 0.5/lambda_max (the
limit forms do not depend on it); it lies below 32767.9375, where h.csv
would exceed N_MAX samples.  ``u`` names a test function, exactly one of
``sin_1`` ... ``sin_9`` or ``bump`` (``sin_1`` by default, see
``anomalous.PROFILES``); for counterexample anything else is the path of a
CSV of 16 to 524,288 (N_MAX) samples, one a line, and ``n`` is then its
sample count.  ``parse_config`` reads such a CSV once, and no more than
N_MAX + 1 of its data lines; a line with a comma is refused unparsed.
Every key is checked before any output is written and all failures are
reported together; a key the table does not list is an error.
``parse_config`` returns the effective document, defaults filled in, and
report.json's inputs.parameters holds its parameters.

Grid coefficient file format: a text header line ``dim n_grid channels``
followed by whitespace-separated row-major floats, one cell per line, the
channels being the upper triangle of the symmetric matrix in row-major
order (2D: a11 a12 a22; 3D: a11 a12 a13 a22 a23 a33).  A path ending in
``.npy`` holds the channel array itself instead, shape
(channels,) + (n_grid,)*dim, channel k being the k-th entry of that order.
A text header is checked (dim, n_grid, channels) before its table is read.

CSV artifacts are comma-separated with a header row, '.' decimal, UTF-8,
LF line endings.  A successful run also writes report.json and, for every
command but verify_conditions, a gnuplot script plot.gp; report.json's
wall_seconds times the computation, not the writing.  Exit codes: 0
success, 1 validation error or an output_dir that cannot be a directory
(it names a file or lies under one), 2 numerical failure, a breakdown of
the cell solver's CG included.  Such a run creates and writes nothing:
files already in output_dir are left alone.  A write that fails partway,
for example on a full disk, also exits 1 but can leave the artifacts
written before it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import anomalous, cell, laminate, linalg
from .errors import NumericalError, ValidationError

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
            raise ValidationError(f"must lie in ({lo!r}, {hi!r}), got {value!r}")
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


def _read_u_csv(path: str) -> np.ndarray:
    """The samples of a u CSV, one per data line (a line with something
    besides a comment).  A data line that holds a comma is refused before
    any line is parsed, and at most N_MAX + 1 data lines are read, so a
    longer file is refused with memory bounded by N_MAX, not by the file."""
    def data_lines(fh):
        for number, line in enumerate(fh, 1):
            value = line.partition("#")[0]
            if "," in value:
                raise ValidationError(
                    f"{path} holds more than one value on line {number}: one sample a line")
            if value.strip():
                yield line

    with open(path, encoding="utf-8") as fh:
        lines = data_lines(fh)
        try:
            first = next(lines, None)
            if first is not None:
                samples = np.loadtxt(
                    itertools.chain([first], itertools.islice(lines, anomalous.N_MAX)),
                    delimiter=",", dtype=float, ndmin=1)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"{path} is not numeric: {exc}") from None
    if first is None:
        raise ValidationError(f"{path} holds no samples")
    if len(samples) > anomalous.N_MAX:
        raise ValidationError(f"{path} holds more than {anomalous.N_MAX} samples")
    return samples


def _u_field(value, n: int) -> anomalous.SampledField:
    """The test function named value at n points, or the u CSV at value."""
    if value in anomalous.PROFILES:
        return anomalous.SampledField.from_function(anomalous.test_function(value), n)
    return anomalous.SampledField(_read_u_csv(value))


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

# h.csv samples h on [-H_HALF_WIDTH, H_HALF_WIDTH] at spacing
# H_SPACING / lambda_max: 2 round(H_HALF_WIDTH lambda_max / H_SPACING) + 1
# samples, at most N_MAX while lambda_max stays below
# (N_MAX - 1) H_SPACING / (2 H_HALF_WIDTH)
H_HALF_WIDTH = 4.0
H_SPACING = 0.5

# command -> key -> (check, default or REQUIRED).  A check takes the JSON
# value and returns the effective JSON value or raises ValidationError.
PARAMETERS = {
    "homogenize_laminate": _LAMINATE,
    "homogenize_grid": {
        "coefficient": (_file, REQUIRED),
        "delta0": (_real(0.0), cell.SolverConfig.delta0),
        "n_delta": (_integer(1), cell.SolverConfig.n_delta),
        "tol": (_real(0.0), cell.SolverConfig.tol),
        "max_iter": (_integer(1), cell.SolverConfig.max_iter),
    },
    "verify_conditions": _LAMINATE,
    "counterexample": {
        **_CONTRAST,
        # a profile name, or a file that parse_config reads as a u CSV
        "u": (lambda v: v if v in anomalous.PROFILES else _file(v), "sin_1"),
        "n": (_integer(16, anomalous.N_MAX), 1024),
        "lambda_max": (_real(0.0, (anomalous.N_MAX - 1) * H_SPACING / (2 * H_HALF_WIDTH)),
                       64.0),
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
TOP_LEVEL_KEYS = ("command", "output_dir", "parameters")


def _decoded(document: str) -> dict:
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    return doc


def parse_config(document: str) -> dict:
    """Parse a JSON config document and check it against PARAMETERS.

    Every key of the command is checked in one pass and all failures are
    reported together; a key the table does not list is a failure, and so
    is a top-level key other than those of TOP_LEVEL_KEYS.  Returns the
    effective document, defaults filled in, so that
    parse_config(json.dumps(config)) == config.
    """
    doc = _decoded(document)
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(
            f"command: unknown command {command!r}, expected one of {COMMANDS}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ValidationError("parameters: not an object")
    table = PARAMETERS[command]
    errors = [f"{key}: unknown key" for key in doc if key not in TOP_LEVEL_KEYS]
    errors += [f"parameters.{key}: unknown key" for key in params if key not in table]
    effective = {}
    for key, (check, default) in table.items():
        value = params.get(key)
        try:
            if value is None and default is REQUIRED:
                raise ValidationError("missing required key")
            effective[key] = default if value is None else check(value)
        except ValidationError as exc:
            errors.append(f"parameters.{key}: {exc}")
    output_dir = doc.get("output_dir", ".")
    if not (isinstance(output_dir, str) and output_dir):
        errors.append(f"output_dir: must be a non-empty string, got {output_dir!r}")
    if command == "counterexample" and "u" in effective \
            and effective["u"] not in anomalous.PROFILES:
        # a u CSV, read here once, sets the sample count; n, if given, must
        # agree with it
        try:
            size = anomalous.SampledField(_read_u_csv(effective["u"])).n
        except ValidationError as exc:
            errors.append(f"parameters.u: {exc}")
        else:
            if params.get("n") is not None and effective.get("n", size) != size:
                errors.append(f"parameters.n: u holds {size} samples, not {effective['n']}")
            effective["n"] = size
    if errors:
        raise ValidationError("; ".join(errors))
    return {"command": command, "output_dir": output_dir, "parameters": effective}


CSV_BLOCK_ROWS = 1024  # rows formatted and written at a time


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under header, a block of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = [_fmt_column(col[start:start + CSV_BLOCK_ROWS]) for col in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _fmt_column(col) -> list[str]:
    """_fmt of each value; a float array takes one tolist() and float.__repr__."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return list(map(float.__repr__, col.tolist()))
    return [_fmt(v) for v in col]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _tensor_columns(tensors: np.ndarray) -> list:
    """Columns i, j, value of one d x d tensor or of a stack of them."""
    d = tensors.shape[-1]
    i, j = np.divmod(np.arange(tensors.size) % (d * d), d)
    return [i, j, tensors.reshape(-1)]


# A runner takes the effective parameters and writes no file.  It returns
# (tables, plot, results, diagnostics): tables maps each CSV name, in artifact
# order, to (header, columns), one equal-length sequence per header entry;
# plot is plot.gp's lines or None.

def _run_homogenize_laminate(params):
    hom = laminate.homogenize_laminate(laminate.LaminateSpec(**params))
    tables = {
        "tensor.csv": (["i", "j", "value"], _tensor_columns(hom.tensor)),
        "summary.csv": (["a_value", "branch", "pd", "kernel_dim"],
                        [[hom.a_value], [hom.branch], [hom.pd], [len(hom.kernel)]]),
    }
    results = {
        "a_value": hom.a_value,
        "tensor": hom.tensor.tolist(),
        "branch": hom.branch,
        "pd": hom.pd,
        "kernel": hom.kernel.tolist(),
    }
    plot = ['plot "tensor.csv" using 1:3 with points pt 7 title "entries"']
    return tables, plot, results, {}


def _run_verify_conditions(params):
    spec = laminate.LaminateSpec(**params)
    check = laminate.check_conditions_2d if spec.dim == 2 else laminate.check_conditions_3d
    rep = check(spec)
    hom = laminate.homogenize_laminate(spec)
    identity = laminate.verify_kernel_identity(spec)
    columns = [[getattr(d, key) for d in rep.details]
               for key in ("name", "passed", "value", "threshold")]
    tables = {"conditions.csv": (["condition", "passed", "value", "threshold"], columns)}
    results = {
        "h2_holds": rep.h2_holds,
        "pd": hom.pd,
        "kernel_identity": identity,
        "tensor": hom.tensor.tolist(),
    }
    return tables, None, results, {}


def _run_homogenize_grid(params):
    coeff = cell.load_coefficient(params["coefficient"])
    solver = cell.SolverConfig(tol=params["tol"], max_iter=params["max_iter"],
                               delta0=params["delta0"], n_delta=params["n_delta"])
    res = cell.homogenize_general(coeff, solver)
    tables, results = {}, {}
    if res.estimate is not None:
        tables["estimate.csv"] = (["i", "j", "value"], _tensor_columns(res.estimate))
        results["estimate"] = res.estimate.tolist()
    stack = np.stack(res.tensors)
    tables["tensors_by_delta.csv"] = (["delta", "i", "j", "value"], [
        np.repeat(res.deltas, stack[0].size), *_tensor_columns(stack)])
    results["deltas"] = res.deltas.tolist()
    diagnostics = {
        "fit_residual": res.fit_residual,
        "monotone": res.monotone,
        "stalled": res.stalled,
        "cg_iterations": res.iterations.tolist(),
        "cg_residuals": res.residuals.tolist(),
        "cg_widths": res.widths.tolist(),
    }
    plot = [
        "set logscale x",
        'plot "tensors_by_delta.csv" using 1:($2==$3 ? $4 : 1/0) with points title "diagonal entries"',
    ]
    return tables, plot, results, diagnostics


def _run_counterexample(params):
    p = anomalous.SpectralParams(c=params["c"], theta=params["theta"])
    lambda_max = params["lambda_max"]
    u = _u_field(params["u"], params["n"])
    lam = np.linspace(-lambda_max, lambda_max, 2049)
    k0 = anomalous.k0_hat(p, lam)
    alpha, f = anomalous.alpha_f(p, lam)
    h_x, h = anomalous.h_kernel(p, H_SPACING / lambda_max, half_width=H_HALF_WIDTH)
    ff = anomalous.gamma_limit_fourier(p, u)
    fc = anomalous.gamma_limit_convolution(p, u)
    rel = abs(ff - fc) / ff if ff else 0.0
    u0_1, u0_c = anomalous.two_scale_profile(p, u)
    tables = {
        "kernel.csv": (["lambda", "k0_hat", "inv_k0", "alpha_plus_f"],
                       [lam, k0, 1.0 / k0, alpha + f]),
        "h.csv": (["x", "h"], [h_x, h]),
        "energies.csv": (["form", "value"], [["fourier", "convolution",
                                              "relative_difference"], [ff, fc, rel]]),
        "u0_branches.csv": (["x1", "u", "u0_phase1", "u0_phasec"],
                            [u.x, u.values, u0_1.values, u0_c.values]),
    }
    results = {
        "fourier_energy": ff,
        "convolution_energy": fc,
        "alpha": p.alpha,
        "c_theta": p.c_theta,
        "u": params["u"],
    }
    diagnostics = {
        "form_relative_difference": rel,
        "mean_identity_sup": float(np.abs(p.theta * u0_1.values
                                          + (1 - p.theta) * u0_c.values
                                          - u.values).max()),
        "branch_difference_sup": float(np.abs(u0_1.values - u0_c.values).max()),
    }
    plot = ['plot "u0_branches.csv" using 1:2 with lines, "" using 1:3 with lines, '
            '"" using 1:4 with lines']
    return tables, plot, results, diagnostics


def _run_recovery_sweep(params):
    p = anomalous.SpectralParams(c=params["c"], theta=params["theta"])
    fn = anomalous.test_function(params["u"])
    rows = []
    for eps in params["eps_list"]:
        periods = anomalous.eps_periods(eps)
        n_fine = max(params["n_min"], params["points_per_period"] * periods)
        res = anomalous.recovery_energy(p, fn, 1.0 / periods, n_fine)
        rows.append((res.eps, res.energy_eps, res.limit_energy, res.gap))
    header = ["eps", "energy_eps", "limit_energy", "gap"]
    tables = {"recovery.csv": (header, list(zip(*rows)))}
    results = {"sweep": [dict(zip(header, row)) for row in rows]}
    plot = ["set logscale x",
            'plot "recovery.csv" using 1:4 with linespoints title "gap"']
    return tables, plot, results, {"final_gap": rows[-1][3]}


_RUNNERS = {
    "homogenize_laminate": _run_homogenize_laminate,
    "verify_conditions": _run_verify_conditions,
    "homogenize_grid": _run_homogenize_grid,
    "counterexample": _run_counterexample,
    "recovery_sweep": _run_recovery_sweep,
}


def _to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def run(config: dict) -> dict:
    """Execute a checked config (``parse_config``), then write its artifacts
    into output_dir; returns the report that report.json holds.

    output_dir is created only once the runner has returned, so a run that
    raises writes nothing; wall_seconds times the runner, not the writing.
    """
    start = time.perf_counter()
    tables, plot, results, diagnostics = _RUNNERS[config["command"]](config["parameters"])
    report = {"command": config["command"], "inputs": {"parameters": config["parameters"]},
              "results": results, "diagnostics": diagnostics,
              "wall_seconds": time.perf_counter() - start, "artifacts": []}
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(out / name, header, columns)
        report["artifacts"].append([name, len(columns[0])])
    if plot is not None:
        (out / "plot.gp").write_text(
            "\n".join(['set datafile separator ","', "set key autotitle columnhead",
                       *plot]) + "\n", encoding="utf-8", newline="\n")
        report["artifacts"].append(["plot.gp", None])
    (out / "report.json").write_text(_to_json(report) + "\n", encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homoglab",
        description="effective tensors for degenerate periodic conductivities")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        if args.out is not None:  # replaced before the one check of output_dir
            text = json.dumps(dict(_decoded(text), output_dir=args.out))
        config = parse_config(text)
        if config["command"] != args.command:
            raise ValidationError(
                f"config command {config['command']!r} does not match CLI "
                f"command {args.command!r}")
        report = run(config)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_to_json(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
