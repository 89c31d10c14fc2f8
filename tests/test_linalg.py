"""Unit and property tests for the small symmetric linear algebra kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoglab import linalg
from homoglab.errors import ValidationError

E2 = np.eye(2)
E3 = np.eye(3)


def test_sym_eig_identity():
    dec = linalg.sym_eig(E2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
    np.testing.assert_allclose(dec.rotation @ dec.rotation.T, E2, atol=1e-12)


def test_sym_eig_rank_one_projector():
    dec = linalg.sym_eig([[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-14)
    v = dec.rotation[:, 1]
    assert abs(abs(v[1]) - 1.0) < 1e-12  # eigenvector for 1 is +/- e2


def test_sym_eig_hand_characteristic_polynomial():
    # [[2,1],[1,2]]: lambda^2 - 4 lambda + 3 = 0, roots 1 and 3
    dec = linalg.sym_eig([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], rtol=1e-12)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(ValidationError, match="not symmetric"):
        linalg.sym_eig([[1.0, 2.0], [0.0, 1.0]])


def test_sym_eig_3d_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = rng.normal(size=(3, 3))
        m = b.T @ b
        dec = linalg.sym_eig(m)
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(m),
                                   rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dec.reconstruct(), m,
                                   atol=1e-10 * max(1.0, np.abs(m).max()))


def test_sym_eig_3d_subnormal_off_diagonal():
    # A subnormal coupling next to an O(1) one must neither overflow a
    # rotation angle nor warn.
    m = np.array([[1.0, 1e-310, 0.5], [1e-310, 2.0, 0.0], [0.5, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = linalg.sym_eig(m)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    assert np.abs(dec.reconstruct() - m).max() <= 1e-10


def test_kernel_basis_examples():
    ker = linalg.kernel_basis([[0.0, 0.0], [0.0, 1.0]], 1e-10)
    assert len(ker) == 1
    assert abs(abs(ker[0][0]) - 1.0) < 1e-12

    assert linalg.kernel_basis(E3, 1e-10) == []

    ker = linalg.kernel_basis(np.diag([0.0, 0.0, 1.0]), 1e-10)
    assert len(ker) == 2
    for v in ker:
        assert abs(v[2]) < 1e-12
    assert abs(ker[0] @ ker[1]) < 1e-12


def test_kernel_basis_rejects_indefinite():
    with pytest.raises(ValidationError, match="not PSD"):
        linalg.kernel_basis(np.diag([-1.0, 1.0]), 1e-10)


def test_is_positive_definite_examples():
    assert linalg.is_positive_definite(E2)
    assert not linalg.is_positive_definite([[0.0, 0.0], [0.0, 1.0]])
    assert not linalg.is_positive_definite(np.diag([1e-16, 1.0]), 1e-10)


def test_sqrt_psd_examples():
    np.testing.assert_allclose(linalg.sqrt_psd(E2), E2, atol=1e-14)
    np.testing.assert_allclose(linalg.sqrt_psd(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-12)
    p = np.array([[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(linalg.sqrt_psd(p), p, atol=1e-12)


def test_sqrt_psd_clamps_tiny_negative():
    m = np.diag([-1e-13, 1.0])
    root = linalg.sqrt_psd(m)
    assert root[0, 0] == 0.0


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValidationError, match="not PSD"):
        linalg.sqrt_psd(np.diag([-1.0, 1.0]))


def test_span_equals_orthocomplement_examples():
    e1, e2 = E2
    assert linalg.span_equals_orthocomplement([e1, e2], [])
    assert linalg.span_equals_orthocomplement([e1], [e2])
    assert not linalg.span_equals_orthocomplement([e1], [e1])


def test_span_equals_orthocomplement_dimension_mismatch():
    with pytest.raises(ValidationError, match="mixed vector dimensions"):
        linalg.span_equals_orthocomplement([E2[0]], [E3[0]])


def _psd_from_flat(entries, d):
    b = np.array(entries, dtype=float).reshape(d, d)
    return b.T @ b


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_psd_reconstruction_and_sqrt(d, entries):
    m = _psd_from_flat(entries[: d * d], d)
    scale = max(1.0, np.abs(m).max())
    dec = linalg.sym_eig(m)
    np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-10 * scale)
    np.testing.assert_allclose(dec.rotation.T @ dec.rotation, np.eye(d),
                               atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12 * scale)
    root = linalg.sqrt_psd(m)
    np.testing.assert_allclose(root @ root, m, atol=1e-10 * scale)
    assert linalg.sym_eig(root).eigenvalues[0] >= -1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_kernel_pd_consistency(d, entries):
    m = _psd_from_flat(entries[: d * d], d)
    tol = 1e-10
    ker = linalg.kernel_basis(m, tol)
    assert linalg.is_positive_definite(m, tol) == (len(ker) == 0)
    rho = max(1.0, linalg.spectral_radius(m))
    for i, v in enumerate(ker):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(m @ v) <= 10.0 * tol * rho
        for w in ker[i + 1:]:
            assert abs(v @ w) < 1e-12


def test_kernel_residual_bound_at_unit_scale():
    # With O(1)-scaled random PSD matrices the residual honors the tighter
    # bound 10 * tol * spectral_radius.
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        b = rng.normal(size=(d, d)) + np.eye(d)
        m = b.T @ b
        rho = linalg.spectral_radius(m)
        for v in linalg.kernel_basis(m, 1e-10):
            assert np.linalg.norm(m @ v) <= 10.0 * 1e-10 * rho
