"""Tests for the input validators and for the one eigendecomposition a
laminate spec makes of each phase: its PSD check and its range/kernel split
at RANK_TOL * max(1, spectral radius)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoglab import laminate, linalg
from homoglab.errors import ValidationError

E2 = np.eye(2)
E3 = np.eye(3)
TOL = laminate.RANK_TOL


def phase_split(m):
    """(eigenvalues, range rows, kernel rows) of m, read off a spec with m
    as phase1."""
    d = np.shape(m)[0]
    spec = laminate.LaminateSpec(phase1=m, phase2=np.eye(d), theta=0.5,
                                 direction=np.eye(d)[0])
    return spec.eigenvalues[0], spec.ranges[0], spec.kernels[0]


def kernel(m):
    """The near-kernel of the spec's split at TOL."""
    return phase_split(m)[2]


def test_sym_eig_identity():
    w, rng, ker = phase_split(E2)
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(rng @ rng.T, E2, atol=1e-12)
    assert ker.shape == (0, 2)


def test_sym_eig_rank_one_projector():
    w, rng, ker = phase_split([[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)
    assert rng.shape == ker.shape == (1, 2)
    assert abs(abs(rng[0][1]) - 1.0) < 1e-12  # eigenvector for 1 is +/- e2


def test_sym_eig_hand_characteristic_polynomial():
    # [[2,1],[1,2]]: lambda^2 - 4 lambda + 3 = 0, roots 1 and 3
    w = phase_split([[2.0, 1.0], [1.0, 2.0]])[0]
    np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-12)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(ValidationError, match="not symmetric"):
        linalg.as_sym_matrix([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="phase1 is not symmetric"):
        phase_split([[1.0, 2.0], [0.0, 1.0]])


def test_sym_eig_3d_subnormal_off_diagonal():
    # A subnormal coupling next to an O(1) one must not warn.
    m = np.array([[1.0, 1e-310, 0.5], [1e-310, 2.0, 0.0], [0.5, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, rng, ker = phase_split(m)
    assert np.all(np.diff(w) >= 0.0)
    assert len(rng) == 3 and len(ker) == 0
    assert np.abs(rng.T @ np.diag(w) @ rng - m).max() <= 1e-10


def test_kernel_basis_examples():
    ker = kernel([[0.0, 0.0], [0.0, 1.0]])
    assert len(ker) == 1
    assert abs(abs(ker[0][0]) - 1.0) < 1e-12

    assert kernel(E3).shape == (0, 3)

    ker = kernel(np.diag([0.0, 0.0, 1.0]))
    assert len(ker) == 2
    for v in ker:
        assert abs(v[2]) < 1e-12
    assert abs(ker[0] @ ker[1]) < 1e-12
    # 1e-16 is below the cut: in the kernel, not in the range
    _, rng, ker = phase_split(np.diag([1e-16, 1.0]))
    assert len(rng) == 1 and len(ker) == 1
    # the cut is TOL * max(1, rho): 1e-12 is in the kernel next to 1e-3 (cut
    # 1e-10), and 1e-9 in the kernel next to 1e3 (cut 1e-7) but in the range
    # next to 1 (cut 1e-10)
    _, rng, ker = phase_split(np.diag([1e-12, 1e-3]))
    assert len(rng) == 1 and len(ker) == 1
    _, rng, ker = phase_split(np.diag([1e-9, 1e3]))
    assert len(rng) == 1 and len(ker) == 1
    _, rng, ker = phase_split(np.diag([1e-9, 1.0]))
    assert len(rng) == 2 and len(ker) == 0


def test_kernel_basis_rejects_indefinite():
    with pytest.raises(ValidationError, match="phase1 is not PSD"):
        phase_split(np.diag([-1.0, 1.0]))
    # the refusal is at -cut: -0.9 * cut passes and lands in the kernel,
    # -1.1 * cut is refused
    assert len(kernel(np.diag([-0.9e-8, 100.0]))) == 1
    with pytest.raises(ValidationError, match="phase1 is not PSD"):
        phase_split(np.diag([-1.1e-8, 100.0]))


def _psd_from_flat(entries, d):
    b = np.array(entries, dtype=float).reshape(d, d)
    return b.T @ b


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_psd_reconstruction(d, entries):
    # the range rows and their eigenvalues carry the phase to within the cut
    m = _psd_from_flat(entries[: d * d], d)
    scale = max(1.0, np.abs(m).max())
    w, rng, ker = phase_split(m)
    cut = TOL * max(1.0, np.abs(w).max())
    top = w[len(w) - len(rng):]
    np.testing.assert_allclose(rng.T @ np.diag(top) @ rng, m, atol=1e-10 * scale + cut)
    basis = np.concatenate([ker, rng])
    np.testing.assert_allclose(basis @ basis.T, np.eye(d), atol=1e-12)
    assert np.all(np.diff(w) >= -1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_kernel_pd_consistency(d, entries):
    m = _psd_from_flat(entries[: d * d], d)
    w, rng, ker = phase_split(m)
    assert len(rng) + len(ker) == d  # PSD: every eigenvector is in one of them
    rho = max(1.0, np.abs(w).max())
    for i, v in enumerate(ker):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(m @ v) <= 10.0 * TOL * rho
        for u in ker[i + 1:]:
            assert abs(v @ u) < 1e-12


def test_kernel_residual_bound_at_unit_scale():
    # With O(1)-scaled random PSD matrices the residual honors the tighter
    # bound 10 * tol * spectral_radius.
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        b = rng.normal(size=(d, d)) + np.eye(d)
        m = b.T @ b
        w, _, ker = phase_split(m)
        for v in ker:
            assert np.linalg.norm(m @ v) <= 10.0 * TOL * np.abs(w).max()
