"""The benchmark's workloads: seeded inputs, the calls into homoglab, oracles.

Each workload has four parts:

* ``prepare(seed, inputs)`` runs in ``run.py`` and writes the inputs into
  the directory ``inputs``;
* ``load(inputs, out)`` runs in the workload process after ``import
  homoglab`` and before the clock restarts; ``out`` is a fresh directory
  for artifacts;
* ``call(hg, data)`` is the timed part: only calls into homoglab;
* ``check(hg, data, result)`` returns a list of oracle failures (empty when
  correct) and runs after the clock stops.  Reference values come from
  independent numpy formulas, not from homoglab.

``info(data, result)`` returns numbers worth printing that are not gated:
the known defects the workloads expose.

Why these four (README.md in this directory has the numbers):

* grid_checkerboard_2d - the degenerate checkerboard makes CG iterate
  (about 3,500 iterations, growing as delta^-1/2), so the cost of one CG
  iteration dominates.  Library call, no file I/O.
* grid_laminate_3d - 36 solves of 0-1 iterations each on a 64^3 grid read
  from a text file: per-solve set-up, text load and PSD validation
  dominate.  The opposite use of ``cell``.
* anomalous_limit - the only workload where ``anomalous`` works: the dense
  Green cross-check and the n_fine^2 recovery field.
* laminate_batch - the only workload where ``laminate`` and ``linalg`` do
  the work: thousands of 2x2/3x3 eigendecompositions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# independent reference formulas
# ---------------------------------------------------------------------------

def laminate_formula(a1, a2, theta: float, n) -> np.ndarray:
    """Explicit effective tensor of a rank-one laminate (regular branch)."""
    a1, a2, n = (np.asarray(x, dtype=float) for x in (a1, a2, n))
    a = (1.0 - theta) * n @ a1 @ n + theta * n @ a2 @ n
    mean = theta * a1 + (1.0 - theta) * a2
    if a <= 1e-12 * (np.abs(a1).max() + np.abs(a2).max()):
        return mean
    jump = (a2 - a1) @ n
    return mean - theta * (1.0 - theta) / a * np.outer(jump, jump)


def _psd_margin(m: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part, relative to max(1, |m|)."""
    m = 0.5 * (m + m.T)
    return float(np.linalg.eigvalsh(m)[0]) / max(1.0, float(np.abs(m).max()))


def _run_cli(hg, command: str, config: Path) -> None:
    code = hg.cli.main([command, "--config", str(config)])
    if code != 0:
        raise RuntimeError(f"homoglab {command} exited with code {code}")


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _tensor_csv(path: Path, dim: int) -> np.ndarray:
    t = np.zeros((dim, dim))
    for row in _read_csv(path):
        t[int(row["i"]), int(row["j"])] = float(row["value"])
    return t


# ---------------------------------------------------------------------------
# grid_checkerboard_2d
# ---------------------------------------------------------------------------

CHECKER_N = 128
E2XE2 = np.array([[0.0, 0.0], [0.0, 1.0]])


class GridCheckerboard2D:
    """cell.homogenize_general on the checkerboard of e2 x e2 and I, n = 128.

    The inputs do not depend on the seed: the geometry is fixed, so the CG
    iteration counts repeat exactly from run to run.
    """

    name = "grid_checkerboard_2d"

    @staticmethod
    def prepare(seed: int, inputs: Path) -> None:
        centers = (np.arange(CHECKER_N) + 0.5) / CHECKER_N
        half = (centers < 0.5).astype(int)
        parity = half[:, None] ^ half[None, :]
        samples = np.where(parity[..., None, None] == 0, E2XE2, np.eye(2))
        np.save(inputs / "checkerboard.npy", samples)

    @staticmethod
    def load(inputs: Path, out: Path) -> dict:
        return {"samples": np.load(inputs / "checkerboard.npy")}

    @staticmethod
    def call(hg, data: dict):
        coeff = hg.cell.PeriodicCoefficient(dim=2, n_grid=CHECKER_N,
                                            samples=data["samples"])
        return hg.cell.homogenize_general(coeff)

    @staticmethod
    def check(hg, data: dict, res) -> list[str]:
        errors = []
        mean = data["samples"].reshape(-1, 2, 2).mean(axis=0)
        deltas = [float(d) for d in res.deltas]
        if len(res.tensors) != len(deltas) or not deltas:
            errors.append(f"{len(res.tensors)} tensors for {len(deltas)} deltas")
        for delta, t in zip(deltas, res.tensors):
            t = np.asarray(t, dtype=float)
            if np.abs(t - t.T).max() > 1e-10:
                errors.append(f"delta={delta:g}: A* not symmetric")
            if _psd_margin(mean + delta * np.eye(2) - t) < -1e-9:
                errors.append(f"delta={delta:g}: A* exceeds mean(A) + delta I")
            if abs(t[1, 1] - (1.0 + delta)) > 1e-9 * (1.0 + delta):
                errors.append(f"delta={delta:g}: A*[1,1] = {t[1, 1]!r}, want 1 + delta")
        if not res.monotone:
            errors.append("A*_delta not monotone along the schedule")
        return errors

    @staticmethod
    def info(data: dict, res) -> dict:
        return {"fit_residual": float(res.fit_residual),
                "estimate_withheld": res.estimate is None}


# ---------------------------------------------------------------------------
# grid_laminate_3d
# ---------------------------------------------------------------------------

LAMINATE_N = 64


def _rank_two(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    eta = eta / np.linalg.norm(eta)
    return np.eye(3) - np.outer(eta, eta)


# The rank-two/rank-two pair of acceptance criterion 3, normal e1, theta 1/2.
LAM3_PHASES = (_rank_two([0.0, 1.0, 0.0]), _rank_two([1.0, 0.0, 1.0]))


class GridLaminate3D:
    """CLI homogenize_grid on the 64^3 rank-two/rank-two laminate text file."""

    name = "grid_laminate_3d"

    @staticmethod
    def prepare(seed: int, inputs: Path) -> None:
        # Text format of homoglab's coefficient files: header "dim n channels",
        # then one cell per line, row-major, upper triangle of the matrix.
        # The normal is axis 0, the slowest index, so each slab is a run of
        # identical lines.
        rows = [" ".join(repr(float(a[i, j])) for i in range(3) for j in range(i, 3))
                + "\n" for a in LAM3_PHASES]
        centers = (np.arange(LAMINATE_N) + 0.5) / LAMINATE_N
        with open(inputs / "laminate3d.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"3 {LAMINATE_N} 6\n")
            for c in centers:
                fh.write(rows[0 if c < 0.5 else 1] * LAMINATE_N ** 2)

    @staticmethod
    def load(inputs: Path, out: Path) -> dict:
        config = out / "grid.json"
        config.write_text(json.dumps({
            "command": "homogenize_grid", "output_dir": str(out / "grid"),
            "parameters": {"coefficient": str(inputs / "laminate3d.txt")}}))
        return {"config": config, "out": out / "grid"}

    @staticmethod
    def call(hg, data: dict):
        _run_cli(hg, "homogenize_grid", data["config"])

    @staticmethod
    def check(hg, data: dict, result) -> list[str]:
        path = data["out"] / "estimate.csv"
        if not path.exists():
            return ["estimate.csv not written (estimate withheld)"]
        return _check_laminate_3d(_tensor_csv(path, 3))

    @staticmethod
    def info(data: dict, result) -> dict:
        report = json.loads((data["out"] / "report.json").read_text())
        return {"fit_residual": report["diagnostics"]["fit_residual"]}


def _check_laminate_3d(estimate: np.ndarray) -> list[str]:
    ref = laminate_formula(*LAM3_PHASES, 0.5, [1.0, 0.0, 0.0])
    err = float(np.abs(estimate - ref).max())
    if err > 1e-3 * max(1.0, float(np.abs(ref).max())):
        return [f"3D estimate off the laminate formula by {err:.3e} (> 1e-3)"]
    return []


# ---------------------------------------------------------------------------
# anomalous_limit
# ---------------------------------------------------------------------------

ANOMALOUS = {"c": 2.0, "theta": 0.5, "u": "sin_1"}
EPS_LIST = [1 / 16, 1 / 64, 1 / 256]


class AnomalousLimit:
    """CLI counterexample (n = 4096) then recovery_sweep, in one process."""

    name = "anomalous_limit"

    @staticmethod
    def prepare(seed: int, inputs: Path) -> None:
        pass

    @staticmethod
    def load(inputs: Path, out: Path) -> dict:
        docs = {
            "counterexample": {**ANOMALOUS, "n": 4096},
            "recovery_sweep": {**ANOMALOUS, "eps_list": EPS_LIST,
                               "points_per_period": 16},
        }
        data = {}
        for command, params in docs.items():
            config = out / f"{command}.json"
            config.write_text(json.dumps({"command": command,
                                          "output_dir": str(out / command),
                                          "parameters": params}))
            data[command] = config
        data["out"] = out
        return data

    @staticmethod
    def call(hg, data: dict):
        _run_cli(hg, "counterexample", data["counterexample"])
        _run_cli(hg, "recovery_sweep", data["recovery_sweep"])

    @staticmethod
    def check(hg, data: dict, result) -> list[str]:
        return _check_anomalous(*_anomalous_outputs(data["out"]))

    @staticmethod
    def info(data: dict, result) -> dict:
        return {"recovery_gaps": [r["gap"] for r in _anomalous_outputs(data["out"])[1]]}


def _anomalous_outputs(out: Path) -> tuple[dict, list[dict]]:
    energies = {r["form"]: float(r["value"])
                for r in _read_csv(out / "counterexample" / "energies.csv")}
    sweep = [{k: float(v) for k, v in r.items()}
             for r in _read_csv(out / "recovery_sweep" / "recovery.csv")]
    return energies, sweep


def _check_anomalous(energies: dict, sweep: list[dict]) -> list[str]:
    errors = []
    ff, fc = energies["fourier"], energies["convolution"]
    if not (ff > 0 and abs(ff - fc) <= 1e-3 * ff):
        errors.append(f"Fourier {ff!r} and convolution {fc!r} forms differ by > 1e-3")
    if len(sweep) != len(EPS_LIST):
        errors.append(f"recovery sweep has {len(sweep)} rows, want {len(EPS_LIST)}")
    elif not sweep[-1]["gap"] < 0.05:
        errors.append(f"final recovery gap {sweep[-1]['gap']!r} not below 5%")
    return errors


# ---------------------------------------------------------------------------
# laminate_batch
# ---------------------------------------------------------------------------

BATCH_SPECS = 2000
FAMILIES = ("general_2d", "general_3d", "rank_one_pd_2d", "rank_two_3d")


def _unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _draw_spec(rng, family: str) -> dict:
    d = 2 if family.endswith("2d") else 3
    if family.startswith("general"):
        # PSD of random rank 1..d with eigenvalues bounded away from zero.
        def phase():
            rank = int(rng.integers(1, d + 1))
            q = _rotation(rng, d)[:, :rank]
            return q @ np.diag(rng.uniform(0.5, 2.0, rank)) @ q.T
        a1, a2 = phase(), phase()
    elif family == "rank_one_pd_2d":
        xi = _unit(rng, 2) * rng.uniform(0.5, 2.0)
        q = _rotation(rng, 2)
        a1 = np.outer(xi, xi)
        a2 = q @ np.diag(rng.uniform(0.5, 2.0, 2)) @ q.T
    else:
        def phase():
            q = _rotation(rng, 3)
            return q @ np.diag([*rng.uniform(0.5, 2.0, 2), 0.0]) @ q.T
        a1, a2 = phase(), phase()
    return {"family": family, "phase1": (0.5 * (a1 + a1.T)).tolist(),
            "phase2": (0.5 * (a2 + a2.T)).tolist(),
            "theta": float(rng.uniform(0.1, 0.9)), "direction": _unit(rng, d).tolist()}


class LaminateBatch:
    """homogenize_laminate, the family's conditions and the kernel identity
    on 2,000 seeded specs: half 2D and half 3D, half general PSD pairs and
    half from the rank-one/PD (2D) and rank-two/rank-two (3D) families."""

    name = "laminate_batch"

    @staticmethod
    def prepare(seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        specs = [_draw_spec(rng, FAMILIES[k % 4]) for k in range(BATCH_SPECS)]
        (inputs / "specs.json").write_text(json.dumps(specs))

    @staticmethod
    def load(inputs: Path, out: Path) -> dict:
        specs = json.loads((inputs / "specs.json").read_text())
        for s in specs:
            for key in ("phase1", "phase2", "direction"):
                s[key] = np.array(s[key])
        return {"specs": specs}

    @staticmethod
    def call(hg, data: dict):
        lam = hg.laminate
        out = []
        for s in data["specs"]:
            spec = lam.LaminateSpec(phase1=s["phase1"], phase2=s["phase2"],
                                    theta=s["theta"], direction=s["direction"])
            hom = lam.homogenize_laminate(spec)
            if s["family"] == "rank_one_pd_2d":
                h2 = lam.check_conditions_2d(spec).h2_holds
            elif s["family"] == "rank_two_3d":
                h2 = lam.check_conditions_3d(spec).h2_holds
            else:
                h2 = None
            out.append((hom.tensor, hom.pd, h2, lam.verify_kernel_identity(spec)))
        return out

    @staticmethod
    def check(hg, data: dict, result) -> list[str]:
        errors = []
        for k, (s, (tensor, pd, h2, identity)) in enumerate(zip(data["specs"], result)):
            errors += [f"spec {k} ({s['family']}): {e}"
                       for e in _check_spec(hg, s, tensor, pd, h2, identity)]
        if len(result) != len(data["specs"]):
            errors.append(f"{len(result)} results for {len(data['specs'])} specs")
        return errors

    @staticmethod
    def info(data: dict, result) -> dict:
        return {"pd_share": sum(bool(r[1]) for r in result) / max(1, len(result))}


def _check_spec(hg, s: dict, tensor, pd, h2, identity) -> list[str]:
    """Criterion-1 identities, the formula, criterion 5 and the kernel identity."""
    a1, a2, th, n = s["phase1"], s["phase2"], s["theta"], s["direction"]
    t = np.asarray(tensor, dtype=float)
    rho = max(1.0, float(np.abs(t).max()))
    errors = []
    if np.abs(t - t.T).max() > 1e-12 * rho:
        errors.append("A* not symmetric")
    if _psd_margin(t) < -1e-10:
        errors.append("A* not PSD")
    if _psd_margin(th * a1 + (1 - th) * a2 - t) < -1e-10:
        errors.append("A* exceeds the arithmetic mean")
    if np.abs(t - laminate_formula(a1, a2, th, n)).max() > 1e-9 * rho:
        errors.append("A* differs from the explicit formula")
    swapped = hg.laminate.homogenize_laminate(hg.laminate.LaminateSpec(
        phase1=a2, phase2=a1, theta=1.0 - th, direction=n)).tensor
    if np.abs(swapped - t).max() > 1e-12 * rho:
        errors.append("A* changes when the phases are swapped")
    if h2 and not pd:
        errors.append("structure conditions hold but A* is not positive definite")
    if not identity:
        errors.append("kernel identity ker(A*) = V^perp fails")
    return errors


WORKLOADS = {w.name: w for w in (GridCheckerboard2D, GridLaminate3D, AnomalousLimit,
                                 LaminateBatch)}
