"""Unit and property tests for the small symmetric linear algebra kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homoglab import linalg
from homoglab.errors import ValidationError

E2 = np.eye(2)
E3 = np.eye(3)
TOL = 1e-10


def reconstruct(dec):
    return dec.rotation @ np.diag(dec.eigenvalues) @ dec.rotation.T


def kernel(m):
    """The near-kernel that psd_eig's split gives at TOL."""
    return linalg.psd_eig(m, TOL).split(TOL)[1]


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
        np.testing.assert_allclose(reconstruct(dec), m,
                                   atol=1e-10 * max(1.0, np.abs(m).max()))


def test_sym_eig_3d_subnormal_off_diagonal():
    # A subnormal coupling next to an O(1) one must neither overflow a
    # rotation angle nor warn.
    m = np.array([[1.0, 1e-310, 0.5], [1e-310, 2.0, 0.0], [0.5, 0.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = linalg.sym_eig(m)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    assert np.abs(reconstruct(dec) - m).max() <= 1e-10


def test_kernel_basis_examples():
    ker = kernel([[0.0, 0.0], [0.0, 1.0]])
    assert len(ker) == 1
    assert abs(abs(ker[0][0]) - 1.0) < 1e-12

    assert kernel(E3) == []

    ker = kernel(np.diag([0.0, 0.0, 1.0]))
    assert len(ker) == 2
    for v in ker:
        assert abs(v[2]) < 1e-12
    assert abs(ker[0] @ ker[1]) < 1e-12
    # 1e-16 is below the cut: in the kernel, not in the range
    rng, ker = linalg.psd_eig(np.diag([1e-16, 1.0]), TOL).split(TOL)
    assert len(rng) == 1 and len(ker) == 1


def test_kernel_basis_rejects_indefinite():
    with pytest.raises(ValidationError, match="not PSD"):
        linalg.psd_eig(np.diag([-1.0, 1.0]), TOL)


def _psd_from_flat(entries, d):
    b = np.array(entries, dtype=float).reshape(d, d)
    return b.T @ b


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_psd_reconstruction(d, entries):
    m = _psd_from_flat(entries[: d * d], d)
    scale = max(1.0, np.abs(m).max())
    dec = linalg.sym_eig(m)
    np.testing.assert_allclose(reconstruct(dec), m, atol=1e-10 * scale)
    np.testing.assert_allclose(dec.rotation.T @ dec.rotation, np.eye(d),
                               atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) >= -1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(finite, min_size=9, max_size=9))
def test_kernel_pd_consistency(d, entries):
    m = _psd_from_flat(entries[: d * d], d)
    dec = linalg.psd_eig(m, TOL)
    rng, ker = dec.split(TOL)
    assert len(rng) + len(ker) == d  # PSD: every eigenvector is in one of them
    rho = max(1.0, dec.spectral_radius)
    for i, v in enumerate(ker):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(m @ v) <= 10.0 * TOL * rho
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
        dec = linalg.psd_eig(m, TOL)
        for v in dec.split(TOL)[1]:
            assert np.linalg.norm(m @ v) <= 10.0 * TOL * dec.spectral_radius
