"""Tests for the rank-one laminate formula and its structure conditions."""

import numpy as np
import pytest

import oracles
from homoglab import laminate
from homoglab.errors import ValidationError

E1_2 = np.array([1.0, 0.0])
I2 = np.eye(2)
E2XE2 = np.array([[0.0, 0.0], [0.0, 1.0]])


def spec2(phase1, phase2, theta=0.5, direction=E1_2):
    return laminate.LaminateSpec(phase1=phase1, phase2=phase2, theta=theta,
                                 direction=direction)


def test_spec_validation():
    with pytest.raises(ValidationError, match="theta"):
        spec2(I2, I2, theta=1.5)
    with pytest.raises(ValidationError, match="unit vector"):
        spec2(I2, I2, direction=np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="phase1 is not PSD"):
        spec2(np.diag([-1.0, 1.0]), I2)
    with pytest.raises(ValidationError, match="phase2 is not PSD"):
        spec2(I2, np.diag([-1.0, 1.0]))


def test_laminate_a_values():
    # a and the branch are computed once, by the spec
    assert spec2(E2XE2, I2).a_value == pytest.approx(0.5, abs=1e-15)
    assert spec2(E2XE2, I2).regular
    assert spec2(E2XE2, E2XE2).a_value == 0.0
    assert not spec2(E2XE2, E2XE2).regular
    assert spec2(I2, 2 * I2).a_value == pytest.approx(1.5, abs=1e-15)
    # the branch cut is 1e-12 (rho1 + rho2): two phases diag(1e-9, 1e3) give
    # a = 1e-9, below 1e-12 (1e3 + 1e3)
    tiny = np.diag([1e-9, 1e3])
    assert not spec2(tiny, tiny).regular
    assert spec2(tiny, tiny).a_value == pytest.approx(1e-9, rel=1e-12)


def test_counterexample_tensor_exact():
    hom = laminate.homogenize_laminate(spec2(E2XE2, I2))
    assert hom.a_value == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(hom.tensor, np.diag([0.0, 1.0]), atol=1e-14)
    assert not hom.pd
    assert hom.branch == "regular"
    assert len(hom.kernel) == 1
    assert abs(abs(hom.kernel[0][0]) - 1.0) < 1e-10


def test_equal_phases_reproduce_phase():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(2, 2))
    m = b.T @ b
    hom = laminate.homogenize_laminate(spec2(m, m, theta=0.3))
    np.testing.assert_allclose(hom.tensor, m, atol=1e-13)


def test_isotropic_harmonic_arithmetic():
    hom = laminate.homogenize_laminate(spec2(I2, 2 * I2))
    np.testing.assert_allclose(hom.tensor, np.diag([4.0 / 3.0, 1.5]), rtol=1e-14)


def test_degenerate_average_branch():
    # both phases kill the normal: a = 0, arithmetic average
    hom = laminate.homogenize_laminate(spec2(E2XE2, 2 * E2XE2, theta=0.25))
    assert hom.branch == "degenerate_average"
    np.testing.assert_allclose(hom.tensor, 0.25 * E2XE2 + 0.75 * 2 * E2XE2,
                               atol=1e-14)


def test_rotated_direction_matches_conjugation():
    rng = np.random.default_rng(5)
    b1, b2 = rng.normal(size=(2, 2, 2))
    a1, a2 = b1.T @ b1, b2.T @ b2
    angle = 0.7
    q = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    n = q @ E1_2
    hom_rot = laminate.homogenize_laminate(
        spec2(q @ a1 @ q.T, q @ a2 @ q.T, theta=0.37, direction=n))
    hom_ref = laminate.homogenize_laminate(spec2(a1, a2, theta=0.37))
    np.testing.assert_allclose(hom_rot.tensor, q @ hom_ref.tensor @ q.T,
                               atol=1e-12)


def _random_psd_pair(rng, d):
    b1 = rng.normal(size=(d, d))
    b2 = rng.normal(size=(d, d))
    return b1.T @ b1, b2.T @ b2


def test_formula_invariants_random():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(2, 4))
        a1, a2 = _random_psd_pair(rng, d)
        th = float(rng.uniform(0.05, 0.95))
        n = rng.normal(size=d)
        n /= np.linalg.norm(n)
        spec = laminate.LaminateSpec(phase1=a1, phase2=a2, theta=th, direction=n)
        hom = laminate.homogenize_laminate(spec)
        w = np.linalg.eigvalsh(hom.tensor)
        rho = max(1.0, np.abs(w).max())
        assert w[0] >= -1e-10 * rho
        mean = th * a1 + (1 - th) * a2
        assert np.linalg.eigvalsh(mean - hom.tensor)[0] >= -1e-10 * rho
        # exchange symmetry
        swapped = laminate.homogenize_laminate(
            laminate.LaminateSpec(phase1=a2, phase2=a1, theta=1 - th, direction=n))
        assert np.abs(swapped.tensor - hom.tensor).max() <= 1e-12 * rho
        # cross-interface identity A*n.n a = (A1n.n)(A2n.n)
        if spec.regular:
            lhs = float((hom.tensor @ n) @ n) * hom.a_value
            rhs = float((a1 @ n) @ n) * float((a2 @ n) @ n)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_theta_endpoint_continuity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        a1, a2 = _random_psd_pair(rng, d)
        a1 += 0.1 * np.eye(d)  # keep a bounded away from 0 at the endpoints
        a2 += 0.1 * np.eye(d)
        n = np.zeros(d)
        n[0] = 1.0
        lo = laminate.homogenize_laminate(
            laminate.LaminateSpec(phase1=a1, phase2=a2, theta=1e-8, direction=n))
        hi = laminate.homogenize_laminate(
            laminate.LaminateSpec(phase1=a1, phase2=a2, theta=1 - 1e-8, direction=n))
        assert np.abs(lo.tensor - a2).max() <= 1e-6 * np.abs(a2).max()
        assert np.abs(hi.tensor - a1).max() <= 1e-6 * np.abs(a1).max()


def test_conditions_2d_examples():
    xi = np.array([1.0, 1.0])
    rep = laminate.check_conditions_2d(spec2(np.outer(xi, xi), I2))
    assert rep.h2_holds
    assert rep.detail("xi_not_orthogonal").value == pytest.approx(1.0)
    assert rep.detail("xi_A2n_independent").value == pytest.approx(1.0)

    rep = laminate.check_conditions_2d(spec2(E2XE2, I2))
    assert not rep.h2_holds
    assert not rep.detail("xi_not_orthogonal").passed

    e1e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = laminate.check_conditions_2d(spec2(e1e1, I2))
    assert not rep.h2_holds
    assert not rep.detail("xi_A2n_independent").passed
    assert rep.detail("xi_not_orthogonal").passed


def test_conditions_2d_rejects_full_rank_phase1():
    for phase1 in (I2, np.zeros((2, 2))):
        with pytest.raises(ValidationError, match="rank one"):
            laminate.check_conditions_2d(spec2(phase1, I2))
    # rank one is read off the spec's own range at its cut: 1e-12 lies
    # within RANK_TOL * max(1, 1e-3), though above RANK_TOL * 1e-3
    xi, eta = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    spec = spec2(1e-3 * np.outer(xi, xi) + 1e-12 * np.outer(eta, eta), I2)
    assert len(spec.ranges[0]) == 1
    rep = laminate.check_conditions_2d(spec)
    assert rep.h2_holds
    assert rep.detail("xi_not_orthogonal").value == pytest.approx(0.6 * np.sqrt(1e-3))


def _rank_two(eta):
    eta = np.asarray(eta, dtype=float)
    eta = eta / np.linalg.norm(eta)
    return np.eye(3) - np.outer(eta, eta)


def spec3(a1, a2, theta=0.5):
    return laminate.LaminateSpec(phase1=a1, phase2=a2, theta=theta,
                                 direction=np.array([1.0, 0.0, 0.0]))


def test_conditions_3d_equal_fluxes_fail_rank_condition():
    # eta1 = e2, eta2 = e3: A1 e1 = A2 e1 = e1, so the flux pair is rank one
    rep = laminate.check_conditions_3d(spec3(_rank_two([0, 1, 0]), _rank_two([0, 0, 1])))
    assert rep.detail("n_eta1_eta2_independent").passed
    assert not rep.detail("A1n_A2n_independent").passed
    assert not rep.h2_holds


def test_conditions_3d_kernel_along_normal_fails():
    rep = laminate.check_conditions_3d(spec3(_rank_two([1, 0, 0]), _rank_two([0, 0, 1])))
    assert not rep.detail("n_eta1_eta2_independent").passed
    assert not rep.h2_holds


def test_conditions_3d_oblique_kernel_holds():
    a2 = _rank_two(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    rep = laminate.check_conditions_3d(spec3(_rank_two([0, 1, 0]), a2))
    # det[e1, e2, (e1+e3)/sqrt(2)] = 1/sqrt(2); A1 e1 = e1, A2 e1 = (e1-e3)/2
    assert rep.detail("n_eta1_eta2_independent").value == pytest.approx(1 / np.sqrt(2))
    assert rep.h2_holds
    hom = laminate.homogenize_laminate(
        spec3(_rank_two([0, 1, 0]), a2))
    assert hom.pd


def test_conditions_3d_rejects_wrong_rank():
    with pytest.raises(ValidationError, match="phase2"):
        laminate.check_conditions_3d(spec3(_rank_two([0, 1, 0]), np.eye(3)))


def _same_span(a, b):
    a, b = np.asarray(a), np.asarray(b)
    rank = oracles.span_rank(a)[0]
    return rank == oracles.span_rank(b)[0] == oracles.span_rank(np.concatenate([a, b]))[0]


def test_v_space_2d_spans_plane():
    # The paper's basis of V for the rank-one/PD family is the oracle:
    # {xi, (1 - theta) t}, t a unit vector orthogonal to n.
    for xi, phase2, theta, n in [
            ([1.0, 1.0], I2, 0.5, E1_2),
            ([0.0, 1.0], I2, 0.5, E1_2),  # xi orthogonal to n: V = span{e2}
            ([0.3, -1.2], np.array([[2.0, 0.5], [0.5, 1.0]]), 0.3, np.array([0.6, 0.8])),
            ([0.8, 0.6], 3.0 * I2, 0.7, np.array([0.6, -0.8]))]:  # xi along t
        xi = np.array(xi)
        t = np.array([-n[1], n[0]])
        spec = spec2(np.outer(xi, xi), phase2, theta, n)
        assert _same_span(laminate.v_space_basis(spec), [xi, (1.0 - theta) * t])
        assert laminate.verify_kernel_identity(spec)


def test_v_space_2d_orthogonal_xi_degenerates():
    gens = laminate.v_space_basis(spec2(E2XE2, I2))
    rank, basis = oracles.span_rank(gens)
    assert rank == 1
    assert abs(abs(basis[0][1]) - 1.0) < 1e-12  # span {e2}


def test_v_space_3d_spans_space():
    gens = laminate.v_space_basis(
        spec3(_rank_two([0, 1, 0]), _rank_two(np.array([1.0, 0, 1.0]) / np.sqrt(2))))
    assert len(gens) == 3
    assert oracles.span_rank(gens)[0] == 3


def test_verify_kernel_identity_examples():
    xi = np.array([1.0, 1.0])
    assert laminate.verify_kernel_identity(spec2(np.outer(xi, xi), I2))
    assert laminate.verify_kernel_identity(spec2(E2XE2, I2))
    assert laminate.verify_kernel_identity(spec2(I2, I2))


R2 = np.sqrt(0.5)


@pytest.mark.parametrize("kernel, holds", [
    (np.array([[-1.0, 0.0]]), True),  # the right kernel, another basis
    (np.zeros((0, 2)), False),  # too few vectors
    (np.eye(2), False),  # too many
    (np.array([[R2, R2]]), False),  # the right count, not orthogonal to V
], ids=["other-basis", "too-few", "too-many", "not-orthogonal"])
def test_verify_kernel_identity_decides_from_the_spec_kernel(kernel, holds):
    # V = span{e2} and ker(A*) = span{e1}; the check reads the spec's kernel
    spec = spec2(E2XE2, I2)
    assert laminate.verify_kernel_identity(spec)
    object.__setattr__(spec, "effective_kernel", kernel)
    assert laminate.verify_kernel_identity(spec) is holds


# Both phases are rank one and phase2's range is within ~1e-5 of orthogonal
# to n.  The pair space is 1 + 1 - 1 = 1 dimensional.
NEAR_ORTHOGONAL = spec2(
    np.array([[0.5400858168342109, -0.48190281286687875],
              [-0.48190281286687875, 0.4299878163997358]]),
    np.array([[1.4454308516338876, -0.28477178178357815],
              [-0.28477178178357815, 0.056104356433602925]]),
    theta=0.23748307106313968,
    direction=np.array([0.19329186354175434, 0.9811413025087445]),
)


def test_v_space_near_orthogonal_rank_one_range():
    # exactly one generator may come back
    spec = NEAR_ORTHOGONAL
    assert len(laminate.v_space_basis(spec)) == 1
    assert laminate.verify_kernel_identity(spec)


ZERO_CROSS_TILTS = (0.0, 1e-11, 1e-9)


def zero_cross_spec(dim, tilt):
    """Both ranges e2, with n tilted from e1 towards e2 by tilt."""
    e2 = np.eye(dim)[1]
    n = np.cos(tilt) * np.eye(dim)[0] + np.sin(tilt) * e2
    return laminate.LaminateSpec(phase1=np.outer(e2, e2), phase2=2.0 * np.outer(e2, e2),
                                 theta=0.3, direction=n)


@pytest.mark.parametrize("dim", [2, 3])
def test_v_space_zero_cross_coefficient(dim):
    # Both ranges are orthogonal to n, or tilted from it by 1e-11 or 1e-9,
    # so a = 0 to the tolerance and the interface row is zero, within
    # RANK_TOL of zero, or just above it.  The generators, whatever their
    # count, span the common range e2 in every case.
    e2 = np.eye(dim)[1]
    for tilt in ZERO_CROSS_TILTS:
        spec = zero_cross_spec(dim, tilt)
        rank, basis = oracles.span_rank(laminate.v_space_basis(spec))
        assert rank == 1
        assert abs(abs(basis[0] @ e2) - 1.0) < 1e-12
        assert laminate.verify_kernel_identity(spec)
        # A* is the mean, whose kernel is K1 intersect K2 = e2^perp: {e1} in
        # 2D, {e1, e3} in 3D.
        kernel = laminate.homogenize_laminate(spec).kernel
        assert len(kernel) == dim - 1
        np.testing.assert_allclose(sum(np.outer(v, v) for v in kernel),
                                   np.eye(dim) - np.outer(e2, e2), atol=1e-14)


# One spec per family from seeded draws of the benchmark's laminate_batch.
# On each A* is definite, with a smallest eigenvalue of 9.3e-11, 4.4e-11,
# 1.1e-10 and 6.3e-11 that agrees with the explicit formula; an eigenvalue
# cut of 1e-10 * max(1, rho) on the assembled A* calls all four singular.
# No such cut separates the cases: over 800,000 drawn specs, tensors whose
# V is rank-deficient reach lambda_min / max(1, rho) = 1.43e-12 while
# definite ones go down to 6.1e-13.  Definiteness therefore comes from the
# phases' kernels.  Each entry carries the family's structure conditions,
# or None for the general families.
DEFINITE_BELOW_CUT = {
    "rank_two_3d-seed83-spec1883": (laminate.LaminateSpec(
        phase1=np.array([[0.3508987449888577, 0.3977122468943246, -0.1675896782002102],
                         [0.3977122468943246, 0.6522062245049862, 0.17964468005165768],
                         [-0.1675896782002102, 0.17964468005165768, 0.7581684744584266]]),
        phase2=np.array([[0.6526624892183966, 0.08090584296327229, -0.22947835081397783],
                         [0.08090584296327229, 0.0852297575792752, 0.19255263449051788],
                         [-0.22947835081397783, 0.19255263449051788, 0.7301593962152533]]),
        theta=0.2155717212843003,
        direction=np.array([-0.9536478841878038, -0.2889598564330534,
                            -0.08401139419337364])),
        laminate.check_conditions_3d),
    "rank_one_pd_2d-seed236-spec1850": (spec2(
        np.array([[0.3739540612696505, 0.2419404903881195],
                  [0.2419404903881195, 0.15653045909036198]]),
        np.array([[0.7116063159232436, -0.0039042598040150978],
                  [-0.0039042598040150978, 0.6785313934094055]]),
        theta=0.6424418052201695,
        direction=np.array([0.5431946774520171, -0.8396067784313077])),
        laminate.check_conditions_2d),
    "general_2d-seed355-spec1692": (spec2(
        np.array([[1.314832939195087, 0.7886516727337343],
                  [0.7886516727337343, 0.4730421959815479]]),
        np.array([[1.5528401228659838, 0.11490828787179827],
                  [0.11490828787179827, 1.0704369804407257]]),
        theta=0.7125241755109802,
        direction=np.array([0.514365386134715, -0.8575711338113507])),
        None),
    "general_3d-seed1620-spec341": (laminate.LaminateSpec(
        phase1=np.array([[1.8504990702054396, 6.619853893318997e-06, -0.0008448920416580924],
                         [6.619853893318997e-06, 1.8497859942056605, -0.0033101885343507194],
                         [-0.0008448920416580924, -0.0033101885343507194,
                          1.8289701863540775]]),
        phase2=np.array([[1.2291551475708036, 0.06778890708062806, 0.2838396525767247],
                         [0.06778890708062806, 0.0037386134144805484, 0.015653987921986863],
                         [0.2838396525767247, 0.015653987921986863, 0.06554497903222178]]),
        theta=0.34697325649096544,
        direction=np.array([0.06195535781508722, 0.8763710143505767,
                            -0.4776351943106223])),
        None),
}


@pytest.mark.parametrize("name", list(DEFINITE_BELOW_CUT))
def test_conditions_imply_definite_near_the_kernel_cut(name):
    spec, check = DEFINITE_BELOW_CUT[name]
    hom = laminate.homogenize_laminate(spec)
    assert 0.0 < np.linalg.eigvalsh(hom.tensor)[0] < 1e-10 * max(1.0, np.abs(hom.tensor).max())
    assert hom.pd and hom.kernel.shape == (0, spec.dim)
    assert laminate.verify_kernel_identity(spec)
    if check is not None:
        assert check(spec).h2_holds


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _draw_family_spec(rng, family):
    """A random spec of one family: general PSD pairs of random rank 1..d,
    rank one with PD in 2D, or rank two with rank two in 3D; nonzero
    eigenvalues in [0.5, 2]."""
    d = 2 if family.endswith("2d") else 3

    def phase(rank):
        q = _rotation(rng, d)[:, :rank]
        return q @ np.diag(rng.uniform(0.5, 2.0, rank)) @ q.T

    if family.startswith("general"):
        a1 = phase(int(rng.integers(1, d + 1)))
        a2 = phase(int(rng.integers(1, d + 1)))
    elif family == "rank_one_pd_2d":
        a1, a2 = phase(1), phase(2)
    else:
        a1, a2 = phase(2), phase(2)
    return laminate.LaminateSpec(phase1=a1, phase2=a2, theta=float(rng.uniform(0.1, 0.9)),
                                 direction=_unit(rng, d))


def test_kernel_is_tied_to_the_tensor():
    # The kernel comes from the phases, not from A*; check it against A*.
    rng = np.random.default_rng(2024)
    families = ("general_2d", "general_3d", "rank_one_pd_2d", "rank_two_3d")
    singular = 0
    for k in range(2000):
        hom = laminate.homogenize_laminate(_draw_family_spec(rng, families[k % 4]))
        w = np.linalg.eigvalsh(hom.tensor)
        rho = max(1.0, np.abs(w).max())
        for v in hom.kernel:
            assert np.linalg.norm(hom.tensor @ v) <= 1e-12 * rho
        if len(hom.kernel):
            singular += 1
        else:
            assert w[0] > 0.0
    assert 100 < singular < 1900  # both outcomes are exercised


def test_parallel_flux_with_pd_phase2_keeps_definiteness():
    # xi parallel to A2 e1 forces xi.e1 != 0 when A2 is PD, and the explicit
    # formula then yields a positive definite tensor even though the
    # independence condition fails.
    e1e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    hom = laminate.homogenize_laminate(spec2(e1e1, I2))
    np.testing.assert_allclose(hom.tensor, np.diag([1.0, 0.5]), atol=1e-14)
    assert hom.pd
    assert laminate.verify_kernel_identity(spec2(e1e1, I2))


def test_spec_dict_round_trip():
    # the CLI builds a spec from its JSON parameters as LaminateSpec(**params)
    spec = spec2(E2XE2, I2, theta=0.25)
    again = laminate.LaminateSpec(
        **{"phase1": [[0, 0], [0, 1]], "phase2": [[1, 0], [0, 1]], "theta": 0.25,
           "direction": [1, 0]})
    for name in ("phase1", "phase2", "direction", "effective_kernel"):
        np.testing.assert_array_equal(getattr(again, name), getattr(spec, name))
    assert again.theta == spec.theta


def test_each_phase_is_decomposed_once(monkeypatch):
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))

    def count(fn, *args, name="eigh"):
        calls.clear()
        fn(*args)
        return calls.count(name)

    xi = np.array([1.0, 1.0])
    s2 = spec2(np.outer(xi, xi), I2)
    s3 = spec3(_rank_two([0, 1, 0]), _rank_two([1.0, 0.0, 1.0]))
    # one eigh of the (2, d, d) stack of the pair
    assert count(spec2, np.outer(xi, xi), I2) == 1
    assert count(spec3, _rank_two([0, 1, 0]), _rank_two([1.0, 0.0, 1.0])) == 1
    assert count(laminate.homogenize_laminate, s2) == 0
    assert count(laminate.check_conditions_2d, s2) == 0
    assert count(laminate.check_conditions_3d, s3) == 0
    assert count(laminate.v_space_basis, s2) == 0
    assert count(laminate.v_space_basis, s3) == 0
    assert count(laminate.verify_kernel_identity, s3) == 0
    # and one SVD, of V, per identity check
    for spec in (s2, s3, spec2(E2XE2, I2)):
        assert count(laminate.verify_kernel_identity, spec, name="svd") == 1


def _oracle_cases():
    """Specs the pair oracle is compared on: 2,000 seeded family draws,
    the definite specs near the kernel cut, the zero-cross tilts and the
    near-orthogonal rank-one pair."""
    rng = np.random.default_rng(77)
    families = ("general_2d", "general_3d", "rank_one_pd_2d", "rank_two_3d")
    yield from (_draw_family_spec(rng, families[k % 4]) for k in range(2000))
    yield from (spec for spec, _ in DEFINITE_BELOW_CUT.values())
    yield from (zero_cross_spec(dim, tilt) for dim in (2, 3) for tilt in ZERO_CROSS_TILTS)
    yield NEAR_ORTHOGONAL


def test_kernel_and_v_space_match_the_pair_oracle():
    # the one-SVD ker(A*) and V against the null spaces of pairs of phase
    # vectors mapped to their means: same dimension, same projector
    for spec in _oracle_cases():
        for rows, (rank, want) in ((spec.effective_kernel, oracles.effective_kernel(spec)),
                                   (laminate.v_space_basis(spec), oracles.v_space(spec))):
            assert len(rows) == rank
            assert np.abs(rows.T @ rows - want.T @ want).max() <= 1e-10
