"""End-to-end tests of the command-line front end."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import homoglab
from homoglab import anomalous, cell, cli
from homoglab.errors import ValidationError

LAMINATE_DOC = {
    "command": "homogenize_laminate",
    "parameters": {
        "phase1": [[0, 0], [0, 1]],
        "phase2": [[1, 0], [0, 1]],
        "theta": 0.5,
        "direction": [1, 0],
    },
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_config_valid():
    cfg = cli.parse_config(json.dumps(LAMINATE_DOC))
    assert cfg["command"] == "homogenize_laminate"
    assert cfg["parameters"]["theta"] == 0.5


def test_parse_config_round_trip():
    # the effective document: output_dir filled in, the matrices as floats
    cfg = cli.parse_config(json.dumps(LAMINATE_DOC))
    assert cfg == dict(LAMINATE_DOC, output_dir=".")
    assert cli.parse_config(json.dumps(cfg)) == cfg


def test_parse_config_reports_paths():
    doc = dict(LAMINATE_DOC, parameters=dict(LAMINATE_DOC["parameters"], theta=1.5))
    with pytest.raises(ValidationError, match="parameters.theta"):
        cli.parse_config(json.dumps(doc))
    with pytest.raises(ValidationError, match="unknown command"):
        cli.parse_config(json.dumps({"command": "frobnicate", "parameters": {}}))
    doc = {"command": "recovery_sweep",
           "parameters": {"c": 2.0, "theta": 0.5, "eps_list": [0.3]}}
    with pytest.raises(ValidationError, match="reciprocal of an integer"):
        cli.parse_config(json.dumps(doc))


def test_parse_config_aggregates_errors():
    doc = {"command": "homogenize_laminate", "parameters": {"theta": 2.0}}
    with pytest.raises(ValidationError) as err:
        cli.parse_config(json.dumps(doc))
    msg = str(err.value)
    assert "parameters.phase1" in msg and "parameters.direction" in msg
    assert "parameters.theta" in msg


def test_parse_config_names_every_failure_in_one_message():
    doc = {"command": "counterexample",
           "parameters": {"lamda_max": 1, "theta": 2, "n": "x", "lambda_max": -1}}
    with pytest.raises(ValidationError) as err:
        cli.parse_config(json.dumps(doc))
    msg = str(err.value)
    for part in ("parameters.lamda_max: unknown key", "parameters.c: missing",
                 "parameters.theta:", "parameters.n:", "parameters.lambda_max:"):
        assert part in msg


def test_parse_config_fills_in_defaults():
    cfg = cli.parse_config(json.dumps(COUNTER_DOC))
    assert cfg["parameters"] == {"c": 2.0, "theta": 0.5, "u": "sin_1", "n": 1024,
                                 "lambda_max": 64.0}
    assert cli.parse_config(json.dumps(cfg)) == cfg


def test_readme_command_table_names_the_parameter_table():
    # a row's parameter column lists the required keys, then the optional
    # ones in brackets
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        m = re.match(r"\| `(\w+)` \| (.*?) \|", line)
        if m and m.group(1) in cli.PARAMETERS:
            required, _, optional = m.group(2).partition("[")
            rows[m.group(1)] = (set(re.findall(r"`(\w+)`", required)),
                                set(re.findall(r"`(\w+)`", optional)))
    assert set(rows) == set(cli.PARAMETERS)
    for command, table in cli.PARAMETERS.items():
        required = {k for k, (_, default) in table.items() if default is cli.REQUIRED}
        assert rows[command] == (required, set(table) - required), command


def test_main_homogenize_laminate(tmp_path, capsys):
    doc = dict(LAMINATE_DOC, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, doc)
    assert cli.main(["homogenize_laminate", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    tensor = np.array(report["results"]["tensor"])
    np.testing.assert_allclose(tensor, np.diag([0.0, 1.0]), atol=1e-14)
    assert report["results"]["pd"] is False
    rows = (tmp_path / "out" / "tensor.csv").read_text().splitlines()
    assert rows[0] == "i,j,value"
    assert len(rows) == 5


def run_python(*args, cwd=None):
    """Run ``python *args`` in cwd with this homoglab first on the import path."""
    src = str(Path(homoglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, cwd=cwd)


def test_python_dash_m_runs_the_cli(tmp_path):
    doc = dict(LAMINATE_DOC, output_dir=str(tmp_path / "out"))
    cfg = write_config(tmp_path, doc)
    proc = run_python("-m", "homoglab", "homogenize_laminate", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["pd"] is False


def test_python_dash_m_homoglab_cli_without_runpy_warning():
    # the package imports cli lazily, so runpy does not find it preloaded
    proc = run_python("-W", "error::RuntimeWarning", "-m", "homoglab.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert getattr(homoglab, "cli") is cli


def test_main_command_mismatch(tmp_path):
    cfg = write_config(tmp_path, dict(LAMINATE_DOC, output_dir=str(tmp_path)))
    assert cli.main(["verify_conditions", "--config", str(cfg)]) == 1


def test_main_validation_exit_code(tmp_path):
    doc = dict(LAMINATE_DOC,
               parameters=dict(LAMINATE_DOC["parameters"], theta=1.5))
    cfg = write_config(tmp_path, doc)
    assert cli.main(["homogenize_laminate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("where", ["output_dir-is-a-file", "out-under-a-file", "out-empty"])
def test_output_dir_that_cannot_be_a_directory(tmp_path, where):
    # the run computes, then cannot create its output_dir: one error line on
    # stderr and exit 1, the file in the way left as it was.  An empty --out
    # is refused before the run, as an empty output_dir is, and not taken
    # for the current directory (the run's cwd is tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    output_dir = blocker if where == "output_dir-is-a-file" else tmp_path / "out"
    cfg = write_config(tmp_path, dict(LAMINATE_DOC, output_dir=str(output_dir)))
    override = {"out-under-a-file": ["--out", str(blocker / "out")],
                "out-empty": ["--out", ""]}.get(where, [])
    before = sorted(tmp_path.iterdir())
    proc = run_python("-m", "homoglab", "homogenize_laminate", "--config", str(cfg), *override,
                      cwd=tmp_path)
    assert proc.returncode == 1
    prefix = "validation error: output_dir: " if where == "out-empty" else "error: "
    assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr, proc.stderr
    assert blocker.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == before


def test_verify_conditions_run(tmp_path):
    doc = {
        "command": "verify_conditions",
        "output_dir": str(tmp_path / "out"),
        "parameters": {
            "phase1": [[1, 1], [1, 1]],
            "phase2": [[1, 0], [0, 1]],
            "theta": 0.5,
            "direction": [1, 0],
        },
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify_conditions", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["h2_holds"] is True
    assert report["results"]["pd"] is True
    assert report["results"]["kernel_identity"] is True


def test_homogenize_grid_constant(tmp_path):
    doc = {"command": "homogenize_grid", "output_dir": str(tmp_path / "out"),
           "parameters": {"coefficient": grid_coefficient(tmp_path)}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["homogenize_grid", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    np.testing.assert_allclose(np.array(report["results"]["estimate"]),
                               np.eye(2), atol=1e-8)
    n_delta = len(report["results"]["deltas"])
    iterations = np.array(report["diagnostics"]["cg_iterations"])
    residuals = np.array(report["diagnostics"]["cg_residuals"])
    widths = np.array(report["diagnostics"]["cg_widths"])
    assert iterations.shape == residuals.shape == widths.shape == (n_delta, 2)
    # tau = tol max(1, |mean A|), and mean A = I
    assert widths.max() <= cell.SolverConfig.tol
    assert (tmp_path / "out" / "tensors_by_delta.csv").exists()
    assert (tmp_path / "out" / "plot.gp").exists()


def test_recovery_sweep_gap_column(tmp_path):
    doc = {"command": "recovery_sweep", "output_dir": str(tmp_path / "out"),
           "parameters": {"c": 2.0, "theta": 0.5, "u": "sin_1",
                          "eps_list": [0.125, 0.0625, 0.03125, 0.015625]}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["recovery_sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "recovery.csv").read_text().splitlines()
    assert rows[0] == "eps,energy_eps,limit_energy,gap"
    assert len(rows) == 5
    gaps = [float(r.split(",")[3]) for r in rows[1:]]
    # the gaps converge to the boundary-layer cost at second order in eps
    steps = np.abs(np.diff(gaps))
    assert np.all(steps[:-1] >= 3.0 * steps[1:]), gaps
    assert gaps[-1] < 0.05


def test_counterexample_run(tmp_path):
    doc = {"command": "counterexample", "output_dir": str(tmp_path / "out"),
           "parameters": {"c": 2.0, "theta": 0.5, "u": "sin_1", "n": 512}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["counterexample", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    diff = report["diagnostics"]["form_relative_difference"]
    assert diff <= 2e-3
    assert report["inputs"]["parameters"] == {"c": 2.0, "theta": 0.5, "u": "sin_1",
                                              "n": 512, "lambda_max": 64.0}
    for name in ("kernel.csv", "h.csv", "energies.csv", "u0_branches.csv"):
        assert (tmp_path / "out" / name).exists()


def test_csv_determinism(tmp_path):
    runs = {
        "recovery_sweep": ({"c": 2.0, "theta": 0.5, "u": "sin_1",
                            "eps_list": [0.125, 0.0625]}, ["recovery.csv"]),
        "counterexample": ({"c": 2.0, "theta": 0.5, "u": "sin_1", "n": 512},
                           ["h.csv", "energies.csv", "u0_branches.csv"]),
    }
    for command, (params, names) in runs.items():
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            doc = {"command": command, "output_dir": str(out), "parameters": params}
            cfg = write_config(tmp_path, doc, name=f"{command}_{tag}.json")
            assert cli.main([command, "--config", str(cfg)]) == 0
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1], command


GRID_DOC = {"command": "homogenize_grid", "parameters": {}}
COUNTER_DOC = {"command": "counterexample", "parameters": {"c": 2.0, "theta": 0.5}}
SWEEP_DOC = {"command": "recovery_sweep",
             "parameters": {"c": 2.0, "theta": 0.5, "eps_list": [0.5]}}
VERIFY_DOC = dict(LAMINATE_DOC, command="verify_conditions")


def grid_coefficient(tmp_path, kind="constant", suffix=".txt"):
    """Path of a 2D grid file: the identity on 16^2, the random PSD 8^2
    field that CG cannot solve to 1e-14 in one iteration, the 16^2 "board"
    of I and 0 cells, the 4^2 text file "not-psd" with a11 = -1 in every
    cell, "negative-n", 16 cells under the header '2 -4 3', or a file
    whose header claims a 65536^3 field (12 PiB of channels) above one
    cell: "short-text" as text and "short-npy" as a .npy header followed
    by 64 bytes."""
    path = tmp_path / f"{kind}{suffix}"
    texts = {"not-psd": "2 4 3\n" + "-1 0 1\n" * 16, "negative-n": "2 -4 3\n" + "1 0 1\n" * 16,
             "short-text": "3 65536 6\n" + "1 0 0 1 0 1\n"}
    if kind in texts:
        path.write_text(texts[kind])
        return str(path)
    if kind == "short-npy":
        path = path.with_suffix(".npy")
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False,
                                                      "shape": (6,) + (65536,) * 3})
            fh.write(bytes(64))
        return str(path)
    if kind == "constant":
        co = cell.constant_coefficient(np.eye(2), 2, 16)
    elif kind == "board":
        co = cell.checkerboard_coefficient(1.0, 0.0, 16)
    else:
        b = np.random.default_rng(6).normal(size=(8, 8, 2, 2))
        co = cell.PeriodicCoefficient(dim=2, n_grid=8,
                                      samples=np.einsum("...ki,...kj->...ij", b, b))
    cell.save_coefficient(co, path)
    return str(path)


def test_homogenize_grid_npy_matches_text(tmp_path):
    # the same field as text and as a .npy channel array gives the same CSVs
    outputs = []
    for suffix in (".txt", ".npy"):
        out = tmp_path / f"out{suffix}"
        doc = {"command": "homogenize_grid", "output_dir": str(out),
               "parameters": {"coefficient": grid_coefficient(tmp_path, "random", suffix)}}
        cfg = write_config(tmp_path, doc, name=f"grid{suffix}.json")
        assert cli.main(["homogenize_grid", "--config", str(cfg)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("estimate.csv", "tensors_by_delta.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("doc", [LAMINATE_DOC, VERIFY_DOC, GRID_DOC, COUNTER_DOC,
                                 SWEEP_DOC], ids=lambda doc: doc["command"])
def test_declared_artifacts_exist_with_row_counts(tmp_path, doc):
    out = tmp_path / "out"
    params = dict(doc["parameters"])
    if doc["command"] == "homogenize_grid":
        params["coefficient"] = grid_coefficient(tmp_path)
    report = cli.run(cli.parse_config(json.dumps(
        dict(doc, parameters=params, output_dir=str(out)))))
    names = [name for name, _ in report["artifacts"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["report.json"])
    assert ("plot.gp" in names) == (doc["command"] != "verify_conditions")
    for name, rows in report["artifacts"]:
        if rows is not None:
            assert len((out / name).read_text().splitlines()) == rows + 1
    written = json.loads((out / "report.json").read_text())
    assert written == dict(report, wall_seconds=written["wall_seconds"])


# probe -> (command, parameters, exit code, part of the message); each check
# but "u-several-rows" and "u-above-N_MAX" is made by the library after every
# key has passed PARAMETERS; "ones" stands for a u CSV of 32 ones, which does
# not vanish at the ends of [0, 1], "rows" for one of 20 rows of 64 samples
# that do, and "long" for one of N_MAX + 1 zeros; "kernel-window" is the cap
# on h's nodes times samples, which took over from the cap on the FFT window
# of the kernel; "cg-breakdown" is the 16^2 I/0 checkerboard down to
# delta = 1e-1 / 4^39, where p^T K p reaches 0 (on numpy 2.0 the run may
# stop on a non-finite width instead, so only the solver is named)
FAILING_RUNS = {
    "phase1-not-psd": ("homogenize_laminate",
                       dict(LAMINATE_DOC["parameters"], phase1=[[1, 0], [0, -1]]),
                       1, "phase1 is not PSD"),
    "direction-dimension": ("homogenize_laminate",
                            dict(LAMINATE_DOC["parameters"], direction=[1, 0, 0]),
                            1, "direction has dimension 3"),
    "eps-grid-cap": ("recovery_sweep", dict(SWEEP_DOC["parameters"], eps_list=[1e-300]),
                     1, "at most 524288 samples"),
    "n_delta-cap": ("homogenize_grid", {"coefficient": "constant", "n_delta": 10 ** 9},
                    1, "the delta schedule needs"),
    "kernel-window": ("counterexample", {"c": 1e12, "theta": 1e-12},
                      1, "h's exponential sum needs"),
    "u-not-zero-at-ends": ("counterexample", {"c": 2.0, "theta": 0.5, "u": "ones"},
                           1, "must vanish at x1 = 0 and 1"),
    "u-several-rows": ("counterexample", {"c": 2.0, "theta": 0.5, "u": "rows"},
                       1, "parameters.u: "),
    "u-above-N_MAX": ("counterexample", {"c": 2.0, "theta": 0.5, "u": "long"},
                      1, "parameters.u: "),
    "coefficient-not-psd": ("homogenize_grid", {"coefficient": "not-psd"},
                            1, "samples are not PSD"),
    "coefficient-negative-n": ("homogenize_grid", {"coefficient": "negative-n"},
                               1, "n_grid must be a power of two >= 4, got -4"),
    # refused before the channels are allocated, not as a MemoryError
    "coefficient-short-text": ("homogenize_grid", {"coefficient": "short-text"},
                               1, "expected 281474976710656 rows of 6 floats, got shape (1, 6)"),
    "coefficient-short-npy": ("homogenize_grid", {"coefficient": "short-npy"},
                              1, "(6, 65536, 65536, 65536) with 64 bytes of data"),
    "cg-max_iter": ("homogenize_grid", {"coefficient": "random", "max_iter": 1,
                                        "tol": 1e-14}, 2, "CG stopped after 1"),
    "cg-breakdown": ("homogenize_grid", {"coefficient": "board", "n_delta": 40},
                     2, "cell problem CG "),
    # (c - 1)^2 overflows a double above c = 1.34e154
    "contrast-overflow": ("counterexample", {"c": 1e200, "theta": 0.5},
                          1, "(c - 1)^2 finite"),
    "contrast-overflow-sweep": ("recovery_sweep", dict(SWEEP_DOC["parameters"], c=1e200),
                                1, "(c - 1)^2 finite"),
}


@pytest.mark.parametrize("probe", list(FAILING_RUNS))
def test_failed_run_writes_nothing(tmp_path, capsys, probe):
    command, params, code, message = FAILING_RUNS[probe]
    if command == "homogenize_grid":
        params = dict(params, coefficient=grid_coefficient(tmp_path, params["coefficient"]))
    if params.get("u") == "ones":
        (tmp_path / "u.csv").write_text("1.0\n" * 32)
        params = dict(params, u=str(tmp_path / "u.csv"))
    if params.get("u") == "rows":
        rows = np.outer(np.ones(20), np.sin(np.pi * np.linspace(0.0, 1.0, 64)))
        np.savetxt(tmp_path / "u.csv", rows, delimiter=",")
        params = dict(params, u=str(tmp_path / "u.csv"))
    if params.get("u") == "long":
        (tmp_path / "u.csv").write_text("0\n" * (anomalous.N_MAX + 1))
        params = dict(params, u=str(tmp_path / "u.csv"))
    cfg = write_config(tmp_path, {"command": command, "output_dir": str(tmp_path / "out"),
                                  "parameters": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err.strip().splitlines()[-1]
    prefix = "validation error: " if code == 1 else "numerical failure: "
    assert err.startswith(prefix) and message in err
    assert not (tmp_path / "out").exists()


# probe -> (key, config document, bad value); the keys of TOP_LEVEL are set
# on the document itself, the others under "parameters"; the value
# "csv" stands for a CSV file holding a non-number, "short" for one holding a
# single sample, "empty" for an empty one, "comments" for one holding only
# comments and blank lines, and "dir" for a directory
BAD_VALUES = {
    "n": ("n", COUNTER_DOC, "abc"),
    "n-fractional": ("n", COUNTER_DOC, 100.5),
    "lambda_max": ("lambda_max", COUNTER_DOC, "x"),
    "lambda_max-string": ("lambda_max", COUNTER_DOC, "64"),
    "n_freq": ("n_freq", COUNTER_DOC, 8192),
    "lamda_max": ("lamda_max", COUNTER_DOC, 1),
    "n_min": ("n_min", SWEEP_DOC, "x"),
    "eps_list": ("eps_list", SWEEP_DOC, [True]),
    "seed": ("seed", LAMINATE_DOC, 7),
    "output_dir-null": ("output_dir", LAMINATE_DOC, None),
    "output_dir-list": ("output_dir", LAMINATE_DOC, ["a", "b"]),
    "output_dir-empty": ("output_dir", LAMINATE_DOC, ""),
    "outptu_dir": ("outptu_dir", LAMINATE_DOC, "elsewhere"),
    "xi": ("xi", VERIFY_DOC, [0, 1]),
    "a_tol": ("a_tol", LAMINATE_DOC, float("nan")),
    "u": ("u", COUNTER_DOC, "csv"),
    "u-dir": ("u", COUNTER_DOC, "dir"),
    "u-short": ("u", COUNTER_DOC, "short"),
    "u-empty": ("u", COUNTER_DOC, "empty"),
    "u-comments": ("u", COUNTER_DOC, "comments"),
    "u-number": ("u", SWEEP_DOC, 5),
    "u-sin_12": ("u", COUNTER_DOC, "sin_12"),
    "u-sin_12-sweep": ("u", SWEEP_DOC, "sin_12"),
    "u-missing": ("u", COUNTER_DOC, "missing.csv"),
    "max_iter": ("max_iter", GRID_DOC, "x"),
    "max_iter-negative": ("max_iter", GRID_DOC, -5),
    "tol-negative": ("tol", GRID_DOC, -1),
    "coefficient-int": ("coefficient", GRID_DOC, 5),
    "coefficient-list": ("coefficient", GRID_DOC, ["a"]),
    "coefficient-empty": ("coefficient", GRID_DOC, ""),
    "coefficient-dir": ("coefficient", GRID_DOC, "dir"),
}


UNKNOWN_TOP_LEVEL = {"seed", "outptu_dir"}  # keys a config does not have
TOP_LEVEL = {"output_dir"} | UNKNOWN_TOP_LEVEL
CSV_TEXT = {"csv": "0.0\n0.5\nnot-a-number\n", "short": "0.5\n", "empty": "",
            "comments": "# u on [0, 1]\n\n"}


@pytest.mark.parametrize("probe", list(BAD_VALUES))
def test_main_bad_value_is_a_validation_error(tmp_path, capsys, monkeypatch, probe):
    # run from tmp_path, so that an output_dir taken as a relative path
    # would show up in it
    monkeypatch.chdir(tmp_path)
    key, doc, value = BAD_VALUES[probe]
    doc = dict(doc, output_dir=str(tmp_path / "out"),
               parameters=dict(doc["parameters"]))
    if isinstance(value, str) and value in CSV_TEXT:
        path = tmp_path / "u.csv"
        path.write_text(CSV_TEXT[value])
        value = str(path)
    elif value == "dir":
        value = str(tmp_path)
    if key in TOP_LEVEL:
        doc[key] = value
    else:
        doc["parameters"][key] = value
    if doc["command"] == "homogenize_grid" and key != "coefficient":
        coeff_path = tmp_path / "coeff.txt"
        cell.save_coefficient(cell.constant_coefficient(np.eye(2), 2, 4), coeff_path)
        doc["parameters"]["coefficient"] = str(coeff_path)
    cfg = write_config(tmp_path, doc)
    before = sorted(tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([doc["command"], "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("validation error: ")
    assert (f"{key}: unknown key" if key in UNKNOWN_TOP_LEVEL else key) in err[-1]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("literal, code", [("0", 1), ("-1", 1), ("1e400", 1),
                                           ("NaN", 1), ("1", 0), ("1e5", 1)])
def test_counterexample_lambda_max_exit_codes(tmp_path, capsys, literal, code):
    # 1e400 parses as inf; lambda_max = 1 only coarsens kernel.csv and h.csv;
    # at 1e5 h.csv would hold 16 lambda_max + 1 rows, more than the N_MAX
    # samples h_kernel allows, and the key's own check refuses it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "counterexample", "output_dir": %s, "parameters": '
                   '{"c": 2.0, "theta": 0.5, "n": 64, "lambda_max": %s}}'
                   % (json.dumps(str(tmp_path / "out")), literal))
    assert cli.main(["counterexample", "--config", str(cfg)]) == code
    if code == 1:
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("validation error: parameters.lambda_max")
        assert not (tmp_path / "out").exists()
    else:
        rows = (tmp_path / "out" / "h.csv").read_text().splitlines()[1:]
        x = np.array([float(row.split(",")[0]) for row in rows])
        assert len(x) == 17 and np.all(np.diff(x) == 0.5)


def test_lambda_max_bound_is_h_kernel_sample_limit():
    # the largest lambda_max the key accepts still fits h.csv in N_MAX samples
    check = cli.PARAMETERS["counterexample"]["lambda_max"][0]
    assert check(32767.9) == 32767.9
    with pytest.raises(ValidationError, match=r"must lie in \(0.0, 32767.9375\)"):
        check(32767.9375)
    x, _ = anomalous.h_kernel(anomalous.SpectralParams(c=2.0, theta=0.5),
                              cli.H_SPACING / 32767.9, half_width=cli.H_HALF_WIDTH)
    assert len(x) == anomalous.N_MAX - 1


@pytest.mark.parametrize("n, code", [(None, 0), (64, 0), (1024, 1)])
def test_counterexample_csv_reports_its_sample_count(tmp_path, capsys, monkeypatch, n, code):
    # a u CSV of 64 samples sets n = 64; a different n given is refused.
    # parse_config reads the CSV once and the run once more.
    reads = []
    read = cli._read_u_csv
    monkeypatch.setattr(cli, "_read_u_csv", lambda path: reads.append(path) or read(path))
    path = tmp_path / "u.csv"
    np.savetxt(path, np.sin(np.pi * np.linspace(0.0, 1.0, 64)))
    params = {"c": 2.0, "theta": 0.5, "u": str(path)}
    if n is not None:
        params["n"] = n
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"command": "counterexample", "output_dir": str(out),
                                  "parameters": params})
    assert cli.main(["counterexample", "--config", str(cfg)]) == code
    assert reads == [str(path)] * (2 if code == 0 else 1)
    if code == 1:
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == "validation error: parameters.n: u holds 64 samples, not 1024"
        assert not out.exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["inputs"]["parameters"]["n"] == 64
        assert len((out / "u0_branches.csv").read_text().splitlines()) == 64 + 1


def test_u_csv_above_n_max_is_refused_unread(tmp_path):
    # a CSV of 4 N_MAX lines is refused after N_MAX + 1 of them: the peak is
    # bounded by the 8 (N_MAX + 1) bytes of samples that may be held, not
    # by the file (reading it whole peaked at 34.6 MB)
    path = tmp_path / "u.csv"
    path.write_text("0\n" * (4 * anomalous.N_MAX))
    doc = {"command": "counterexample", "parameters": {"c": 2.0, "theta": 0.5, "u": str(path)}}
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="parameters.u: .* holds more than 524288"):
            cli.parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (anomalous.N_MAX + 1)


@pytest.mark.parametrize("values", [16, 4 * anomalous.N_MAX])
def test_u_csv_line_of_several_values_is_refused_unparsed(tmp_path, capsys, values):
    # one sample a line: a line with a comma is refused as it is read, so
    # neither a one-line field of 16 values nor an 8 MB line of 4 N_MAX
    # values reaches np.loadtxt, which peaked at 97.9 MB on the latter; the
    # peak is now about twice the line (measured 17.0 MB)
    path = tmp_path / "u.csv"
    path.write_text(",".join(["0.0"] * values) + "\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"command": "counterexample", "output_dir": str(out),
                                  "parameters": {"c": 2.0, "theta": 0.5, "u": str(path)}})
    tracemalloc.start()
    try:
        code = cli.main(["counterexample", "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == (f"validation error: parameters.u: {path} holds more than one value "
                   "on line 1: one sample a line")
    assert not out.exists()
    assert peak < 2.5 * path.stat().st_size + 2 ** 20, f"peak {peak / 1e6:.1f} MB"


def test_counterexample_csv_named_like_a_profile(tmp_path, monkeypatch):
    # only sin_1 ... sin_9 and bump are names, so sin_wave.csv is a CSV path
    # and runs as the same samples named wave.csv do
    monkeypatch.chdir(tmp_path)
    samples = np.sin(np.pi * np.linspace(0.0, 1.0, 64))
    energies = []
    for name in ("wave.csv", "sin_wave.csv"):
        np.savetxt(name, samples)
        cfg = write_config(tmp_path, {"command": "counterexample", "output_dir": name + ".out",
                                      "parameters": {"c": 2.0, "theta": 0.5, "u": name}})
        assert cli.main(["counterexample", "--config", str(cfg)]) == 0
        energies.append((tmp_path / (name + ".out") / "energies.csv").read_bytes())
    assert energies[0] == energies[1]


def test_counterexample_high_contrast_fine_grid(tmp_path):
    # h is an exponential sum, so no kernel window limits c = 100 at n = 16384
    doc = {"command": "counterexample", "output_dir": str(tmp_path / "out"),
           "parameters": {"c": 100.0, "theta": 0.5, "n": 16384}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["counterexample", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["diagnostics"]["form_relative_difference"] <= 1e-6
