"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime; each criterion
also enforces its wall-clock budget.
"""

import time

import numpy as np
import pytest

from homoglab import anomalous as an
from homoglab import cell, laminate, linalg
from oracles import inv_k0_decomposed

E1_2 = np.array([1.0, 0.0])
I2 = np.eye(2)
E2XE2 = np.array([[0.0, 0.0], [0.0, 1.0]])
I3 = np.eye(3)


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number}: FAIL - {self.description}")
            return False
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds:.0f} s budget "
            f"({elapsed:.1f} s)")
        print(f"ACCEPTANCE {self.number}: PASS - {self.description} "
              f"({elapsed:.2f} s)")
        return False


def _random_psd(rng, d):
    b = rng.normal(size=(d, d))
    return b.T @ b


def _rank_two(eta):
    eta = np.asarray(eta, dtype=float)
    eta = eta / np.linalg.norm(eta)
    return I3 - np.outer(eta, eta)


def test_criterion_1_laminate_formula_identities():
    with Budget(1, "laminate formula identity suite (1000 random pairs)", 5.0):
        rng = np.random.default_rng(2024)
        for k in range(1000):
            d = 2 if k % 2 == 0 else 3
            a1, a2 = _random_psd(rng, d), _random_psd(rng, d)
            th = float(rng.uniform(0.02, 0.98))
            n = rng.normal(size=d)
            n /= np.linalg.norm(n)
            spec = laminate.LaminateSpec(phase1=a1, phase2=a2, theta=th,
                                         direction=n)
            hom = laminate.homogenize_laminate(spec)
            dec = linalg.sym_eig(hom.tensor)
            rho = max(1.0, dec.spectral_radius)
            assert np.abs(hom.tensor - hom.tensor.T).max() <= 1e-12 * rho
            assert dec.eigenvalues[0] >= -1e-10 * rho
            mean = th * a1 + (1 - th) * a2
            assert linalg.sym_eig(mean - hom.tensor).eigenvalues[0] >= -1e-10 * rho
            swapped = laminate.homogenize_laminate(laminate.LaminateSpec(
                phase1=a2, phase2=a1, theta=1 - th, direction=n))
            assert np.abs(swapped.tensor - hom.tensor).max() <= 1e-12 * rho
            if hom.a_value > laminate.default_a_tol(spec):
                lhs = float((hom.tensor @ n) @ n) * hom.a_value
                rhs = float((a1 @ n) @ n) * float((a2 @ n) @ n)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_criterion_2_appendix_counterexample():
    with Budget(2, "appendix counter-example A* = diag(0,1), not PD", 1.0):
        spec = laminate.LaminateSpec(phase1=E2XE2, phase2=I2, theta=0.5,
                                     direction=E1_2)
        hom = laminate.homogenize_laminate(spec)
        assert hom.a_value == pytest.approx(0.5, abs=1e-15)
        assert np.abs(hom.tensor - np.diag([0.0, 1.0])).max() <= 1e-14
        assert not hom.pd


def test_criterion_3_cell_solver_matches_formula():
    with Budget(3, "cell solver vs explicit formula on 5 laminates", 60.0):
        xi = np.array([1.0, 1.0])
        specs_2d = [
            (np.outer(xi, xi), I2, 0.5),            # rank-one phase vs identity
            (I2, 2 * I2, 0.5),                      # classical isotropic
            (E2XE2, I2, 0.5),                       # degenerate counter-example
            (np.array([[2.0, 0.5], [0.5, 1.0]]),
             np.array([[1.0, -0.25], [-0.25, 3.0]]), 0.25),
        ]
        for a1, a2, th in specs_2d:
            spec = laminate.LaminateSpec(phase1=a1, phase2=a2, theta=th,
                                         direction=E1_2)
            ref = laminate.homogenize_laminate(spec).tensor
            co = cell.laminate_coefficient(a1, a2, th, 2, 256)
            res = cell.homogenize_general(co)
            assert res.estimate is not None
            assert np.abs(res.estimate - ref).max() <= 1e-3 * max(
                1.0, np.abs(ref).max())
        # one 3D rank-two pair satisfying the structure conditions
        a1 = _rank_two([0, 1, 0])
        a2 = _rank_two(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        spec = laminate.LaminateSpec(phase1=a1, phase2=a2, theta=0.5,
                                     direction=np.array([1.0, 0.0, 0.0]))
        ref = laminate.homogenize_laminate(spec).tensor
        co = cell.laminate_coefficient(a1, a2, 0.5, 3, 64)
        res = cell.homogenize_general(co)
        assert np.abs(res.estimate - ref).max() <= 1e-3 * max(
            1.0, np.abs(ref).max())


def _kernel_identity_specs():
    rng = np.random.default_rng(77)
    specs = []
    # 2D, conditions hold
    while len(specs) < 6:
        xi = rng.normal(size=2)
        a2 = _random_psd(rng, 2) + 0.2 * I2
        spec = laminate.LaminateSpec(phase1=np.outer(xi, xi), phase2=a2,
                                     theta=float(rng.uniform(0.1, 0.9)),
                                     direction=E1_2)
        if laminate.check_conditions_2d(spec).h2_holds:
            specs.append(spec)
    # 2D, xi orthogonal to the normal (condition fails, kernel nontrivial)
    for th in (0.3, 0.6):
        specs.append(laminate.LaminateSpec(
            phase1=E2XE2, phase2=_random_psd(rng, 2) + 0.2 * I2, theta=th,
            direction=E1_2))
    # 2D, flux parallel to xi but phase2 PD (conditions fail, tensor still PD)
    for th in (0.25, 0.75):
        specs.append(laminate.LaminateSpec(
            phase1=np.array([[1.0, 0.0], [0.0, 0.0]]), phase2=I2, theta=th,
            direction=E1_2))
    e1 = np.array([1.0, 0.0, 0.0])
    # 3D, conditions hold
    count = 0
    while count < 6:
        eta1, eta2 = rng.normal(size=(2, 3))
        spec = laminate.LaminateSpec(phase1=_rank_two(eta1),
                                     phase2=_rank_two(eta2),
                                     theta=float(rng.uniform(0.1, 0.9)),
                                     direction=e1)
        if laminate.check_conditions_3d(spec).h2_holds:
            specs.append(spec)
            count += 1
    # 3D, kernel along the normal (dependent triple, kernel nontrivial)
    for th in (0.4, 0.7):
        specs.append(laminate.LaminateSpec(
            phase1=_rank_two([1, 0, 0]), phase2=_rank_two(rng.normal(size=3)),
            theta=th, direction=e1))
    # 3D, identical kernels (dependent triple)
    for th in (0.2, 0.8):
        specs.append(laminate.LaminateSpec(
            phase1=_rank_two([0, 1, 0]), phase2=2.5 * _rank_two([0, 1, 0]),
            theta=th, direction=e1))
    return specs


def test_criterion_4_kernel_identity():
    with Budget(4, "ker(A*) equals the orthocomplement of the flux span "
                   "on 20 specs", 2.0):
        specs = _kernel_identity_specs()
        assert len(specs) == 20
        for spec in specs:
            assert laminate.verify_kernel_identity(spec)


def test_criterion_5_conditions_imply_definiteness():
    with Budget(5, "structure conditions imply a positive definite tensor",
                5.0):
        rng = np.random.default_rng(4242)
        produced = 0
        while produced < 100:  # 2D family
            xi = rng.normal(size=2)
            a2 = _random_psd(rng, 2) + 0.1 * I2
            spec = laminate.LaminateSpec(phase1=np.outer(xi, xi), phase2=a2,
                                         theta=float(rng.uniform(0.05, 0.95)),
                                         direction=E1_2)
            if not laminate.check_conditions_2d(spec).h2_holds:
                continue
            assert laminate.homogenize_laminate(spec).pd
            produced += 1
        produced = 0
        e1 = np.array([1.0, 0.0, 0.0])
        while produced < 100:  # 3D family
            spec = laminate.LaminateSpec(
                phase1=_rank_two(rng.normal(size=3)),
                phase2=_rank_two(rng.normal(size=3)),
                theta=float(rng.uniform(0.05, 0.95)), direction=e1)
            if not laminate.check_conditions_3d(spec).h2_holds:
                continue
            assert laminate.homogenize_laminate(spec).pd
            produced += 1
        # constructed violations carry a nontrivial kernel
        violating = [
            # xi . e1 = 0
            laminate.LaminateSpec(phase1=E2XE2, phase2=I2, theta=0.5,
                                  direction=E1_2),
            # flux pair dependent in the strongest way: A2 proportional to
            # xi x xi (with a PD phase2 the explicit formula stays PD, so the
            # degenerate-phase construction is the one that loses rank)
            laminate.LaminateSpec(phase1=np.outer([1.0, 1.0], [1.0, 1.0]),
                                  phase2=3.0 * np.outer([1.0, 1.0], [1.0, 1.0]),
                                  theta=0.5, direction=E1_2),
            # {e1, eta1, eta2} dependent
            laminate.LaminateSpec(phase1=_rank_two([1, 0, 0]),
                                  phase2=_rank_two([0, 0, 1]), theta=0.5,
                                  direction=np.array([1.0, 0.0, 0.0])),
        ]
        for spec in violating:
            hom = laminate.homogenize_laminate(spec)
            assert len(hom.kernel) >= 1
            assert not hom.pd


def test_criterion_6_spectral_identities():
    with Budget(6, "reciprocal kernel decomposition on the (c, theta) grid",
                1.0):
        lam = np.linspace(-64.0, 64.0, 8193)
        for c in (1.5, 2.0, 4.0, 10.0):
            for th in (0.1, 0.25, 0.5, 0.9):
                p = an.SpectralParams(c=c, theta=th)
                inv = 1.0 / an.k0_hat(p, lam)
                dec = inv_k0_decomposed(p, lam)
                assert np.max(np.abs(inv - dec) / inv) <= 1e-11
                alpha, f = an.alpha_f(p, lam)
                assert np.all(alpha + f > 0.0)
                assert abs(an.k0_hat(p, 0.0) - 1.0) <= 1e-14


def test_criterion_7_two_form_equivalence():
    with Budget(7, "spectral and convolution limit forms agree to 1e-4", 10.0):
        p = an.SpectralParams(c=2.0, theta=0.5)
        names = ["sin_1", "sin_2", "sin_3", "sin_4", "bump"]
        for name in names:
            u = an.SampledField.from_function(an.test_function(name), 1024)
            ff = an.gamma_limit_fourier(p, u)
            fc = an.gamma_limit_convolution(p, u)
            assert abs(ff - fc) <= 1e-4 * ff, f"{name}: {abs(ff-fc)/ff:.2e}"


def test_criterion_8_sturm_liouville_oracle():
    with Budget(8, "Sturm-Liouville oracle and phase-mean identity", 5.0):
        n = 4096
        b = an.SampledField(np.ones(n))
        u0 = an.solve_sturm_liouville(1.0, b)
        exact = 1.0 - np.cosh(u0.x - 0.5) / np.cosh(0.5)
        assert np.abs(u0.values - exact).max() <= 1e-5
        fd = an._sl_matrix_solve(1.0, b.values, b.spacing)
        green = an._sl_green_solve(1.0, b.values, b.spacing)
        assert np.abs(fd - green).max() <= 1e-5
        p = an.SpectralParams(c=2.0, theta=0.5)
        u = an.SampledField.from_function(an.test_function("sin_1"), n)
        u1, uc = an.two_scale_profile(p, u)
        mean = p.theta * u1.values + (1 - p.theta) * uc.values
        assert np.abs(mean - u.values).max() <= 1e-4


def test_criterion_9_recovery_convergence():
    with Budget(9, "recovery gaps settle at second order, final gap < 5%",
                120.0):
        p = an.SpectralParams(c=2.0, theta=0.5)
        fn = an.test_function("sin_1")
        gaps = []
        for periods in (8, 16, 32, 64):
            res = an.recovery_energy(p, fn, 1.0 / periods, 16 * periods)
            gaps.append(res.gap)
        # the gaps converge to the boundary-layer cost at second order in eps
        steps = np.abs(np.diff(gaps))
        assert np.all(steps[:-1] >= 3.0 * steps[1:]), f"gaps do not settle: {gaps}"
        assert gaps[-1] < 0.05, f"final gap {gaps[-1]:.4f} above 5%"


def test_criterion_10_two_scale_dependence():
    with Budget(10, "two-scale profile branches differ (y2 dependence)", 5.0):
        p = an.SpectralParams(c=2.0, theta=0.5)
        u = an.SampledField.from_function(an.test_function("sin_1"), 1024)
        u1, uc = an.two_scale_profile(p, u)
        assert np.abs(u1.values - uc.values).max() >= 1e-3
