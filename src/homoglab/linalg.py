"""Small-dimension symmetric linear algebra (d = 2 or 3).

Eigendecompositions come from LAPACK (``numpy.linalg.eigh``) and span
ranks from an SVD.  Everything downstream (kernel detection, positive
definiteness, PSD square roots, span comparisons) is built on these.  The
one scale-aware degeneracy threshold, tol * max(1, spectral radius), is
``EigenDecomp.cut``, which ``EigenDecomp.split`` applies: exact degenerate and
grid-rounded matrices are treated alike, and a caller holding a decomposition
splits it instead of redoing it.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SYM_RTOL = 1e-12
DEFAULT_TOL = 1e-10


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from None


def as_sym_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a symmetric d x d float array, d in {2, 3}."""
    a = _as_float_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    d = a.shape[0]
    if d not in (2, 3):
        raise ValidationError(f"{name} must be 2x2 or 3x3, got {d}x{d}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > SYM_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric to {SYM_RTOL:g} relative")
    return 0.5 * (a + a.T)


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-d float array of dimension 2 or 3."""
    a = _as_float_array(v, name)
    if a.ndim != 1 or a.shape[0] not in (2, 3):
        raise ValidationError(f"{name} must be a 2- or 3-vector, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValidationError(f"{name} has dimension {a.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class EigenDecomp:
    """Orthogonal diagonalization m = rotation @ diag(eigenvalues) @ rotation.T.

    Eigenvalues are ascending; rotation columns are the matching
    orthonormal eigenvectors; ``matrix`` is m as validated by
    ``as_sym_matrix``.
    """

    rotation: np.ndarray
    eigenvalues: np.ndarray
    matrix: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.rotation @ np.diag(self.eigenvalues) @ self.rotation.T

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())

    def cut(self, tol: float) -> float:
        """The degeneracy threshold tol * max(1, spectral_radius)."""
        return tol * max(1.0, self.spectral_radius)

    def split(self, tol: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(range, kernel) eigenvectors: eigenvalue above, and within +-, the
        cut; one below -cut is in neither (not PSD)."""
        cut = self.cut(tol)
        cols = [(w, self.rotation[:, i].copy()) for i, w in enumerate(self.eigenvalues)]
        return [v for w, v in cols if w > cut], [v for w, v in cols if abs(w) <= cut]


def sym_eig(m, name: str = "matrix") -> EigenDecomp:
    """Eigendecomposition of a symmetric 2x2 or 3x3 matrix.

    Returns ascending eigenvalues and an orthogonal matrix of eigenvectors
    satisfying the reconstruction identity to 1e-10 relative.
    """
    a = as_sym_matrix(m, name)
    w, r = np.linalg.eigh(a)
    return EigenDecomp(rotation=r, eigenvalues=w, matrix=a)


def spectral_radius(m) -> float:
    return sym_eig(m).spectral_radius


def psd_eig(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> EigenDecomp:
    """sym_eig of a matrix that must be PSD to tol (see EigenDecomp.cut)."""
    dec = sym_eig(m, name)
    if dec.eigenvalues[0] < -dec.cut(tol):
        raise ValidationError(
            f"{name} is not PSD: eigenvalue {dec.eigenvalues[0]:.3e} below "
            f"-{tol:g} * max(1, spectral radius)"
        )
    return dec


def kernel_basis(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the near-kernel of a symmetric PSD matrix.

    Returns the eigenvectors whose eigenvalue is at most
    tol * max(1, spectral radius); empty when the matrix is positive
    definite above that threshold.  Raises when an eigenvalue dips below
    the negative of the same threshold.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    return psd_eig(m, tol).split(tol)[1]


def is_positive_definite(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue exceeds tol * max(1, spectral radius)."""
    dec = sym_eig(m)
    return len(dec.split(tol)[0]) == len(dec.eigenvalues)


def sqrt_psd(m) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues in [-1e-10 * max(1, spectral radius), 0) are clamped to
    zero; anything lower raises.
    """
    dec = psd_eig(m)
    w = np.maximum(dec.eigenvalues, 0.0)
    root = dec.rotation @ np.diag(np.sqrt(w)) @ dec.rotation.T
    return 0.5 * (root + root.T)


def _span_rank(vectors, dim: int, tol: float) -> tuple[int, np.ndarray]:
    """Rank of the span and an orthonormal basis, via SVD of the unit vectors.

    Vectors of norm at most ``tol`` are dropped; the rank counts singular
    values above ``tol``.
    """
    units = [v / nv for v in vectors if (nv := np.linalg.norm(v)) > tol]
    if not units:
        return 0, np.zeros((0, dim))
    _, sv, vt = np.linalg.svd(np.array(units))
    rank = int(np.count_nonzero(sv > tol))
    return rank, vt[:rank]


def span_equals_orthocomplement(spanners, kernel, tol: float = DEFAULT_TOL) -> bool:
    """True iff span(spanners) is exactly the orthogonal complement of span(kernel).

    Decided by rank: rank(S) + rank(K) must equal the ambient dimension and
    every spanner must be orthogonal to every kernel vector, both with
    threshold ``tol``.
    """
    spanners = [as_vector(v, name="spanner") for v in spanners]
    kernel = [as_vector(v, name="kernel vector") for v in kernel]
    dims = {v.shape[0] for v in spanners} | {v.shape[0] for v in kernel}
    if len(dims) > 1:
        raise ValidationError(f"mixed vector dimensions {sorted(dims)}")
    if not dims:
        raise ValidationError("at least one vector is required to fix the dimension")
    d = dims.pop()
    rs, bs = _span_rank(spanners, d, tol)
    rk, bk = _span_rank(kernel, d, tol)
    if rs + rk != d:
        return False
    if rs and rk and np.abs(bs @ bk.T).max() > tol:
        return False
    return True
