"""End-to-end tests of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homoglab
from homoglab import cell, cli
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
    assert cfg.command == "homogenize_laminate"
    assert cfg.parameters["theta"] == 0.5


def test_parse_config_round_trip():
    cfg = cli.parse_config(json.dumps(LAMINATE_DOC))
    again = cli.parse_config(cfg.to_document())
    assert again == cfg


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


def run_python(*args):
    """Run ``python *args`` with this homoglab first on the import path."""
    src = str(Path(homoglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)


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


def test_main_numerical_exit_code(tmp_path):
    rng = np.random.default_rng(6)
    b = rng.normal(size=(8, 8, 2, 2))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=2, n_grid=8, samples=samples)
    coeff_path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, coeff_path)
    doc = {"command": "homogenize_grid", "output_dir": str(tmp_path / "out"),
           "parameters": {"coefficient": str(coeff_path), "max_iter": 1,
                          "tol": 1e-14}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["homogenize_grid", "--config", str(cfg)]) == 2


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
    co = cell.constant_coefficient(np.eye(2), 2, 16)
    coeff_path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, coeff_path)
    doc = {"command": "homogenize_grid", "output_dir": str(tmp_path / "out"),
           "parameters": {"coefficient": str(coeff_path)}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["homogenize_grid", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    np.testing.assert_allclose(np.array(report["results"]["estimate"]),
                               np.eye(2), atol=1e-8)
    n_delta = len(report["results"]["deltas"])
    iterations = np.array(report["diagnostics"]["cg_iterations"])
    residuals = np.array(report["diagnostics"]["cg_residuals"])
    assert iterations.shape == residuals.shape == (n_delta, 2)
    assert residuals.max() <= cell.SolverConfig.tol
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
    assert gaps[-1] < gaps[0]  # decreasing overall
    assert gaps[-1] < 0.05


def test_counterexample_run(tmp_path):
    doc = {"command": "counterexample", "output_dir": str(tmp_path / "out"),
           "parameters": {"c": 2.0, "theta": 0.5, "u": "sin_1", "n": 512}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["counterexample", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    diff = report["diagnostics"]["form_relative_difference"]
    assert diff <= 2e-3
    for name in ("kernel.csv", "h.csv", "energies.csv", "u0_branches.csv"):
        assert (tmp_path / "out" / name).exists()


def test_csv_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        doc = {"command": "recovery_sweep",
               "output_dir": str(tmp_path / tag),
               "parameters": {"c": 2.0, "theta": 0.5, "u": "sin_1",
                              "eps_list": [0.125, 0.0625]}}
        cfg = write_config(tmp_path, doc, name=f"cfg_{tag}.json")
        assert cli.main(["recovery_sweep", "--config", str(cfg), "--seed", "7"]) == 0
        outputs.append((tmp_path / tag / "recovery.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_declared_artifacts_exist_with_row_counts(tmp_path):
    doc = dict(LAMINATE_DOC, output_dir=str(tmp_path / "out"))
    cfg = cli.parse_config(json.dumps(doc))
    report = cli.run(cfg)
    for name, rows in report.artifacts:
        path = tmp_path / "out" / name
        assert path.exists()
        if rows is not None:
            assert len(path.read_text().splitlines()) == rows + 1
