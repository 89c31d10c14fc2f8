"""Small-dimension symmetric linear algebra (d = 2 or 3).

Input validators for symmetric matrices and vectors, and
eigendecompositions from LAPACK (``numpy.linalg.eigh``).  The one
scale-aware degeneracy threshold, tol * max(1, spectral radius), is
``EigenDecomp.cut``, which ``EigenDecomp.split`` applies: exact degenerate
and grid-rounded matrices are treated alike, and a caller holding a
decomposition splits it instead of redoing it.  The SVD null spaces and
span ranks behind the laminate kernel identity live in ``laminate``, next
to their one user, cut at its ``RANK_TOL``.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SYM_RTOL = 1e-12


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


def psd_eig(m, tol: float, name: str = "matrix") -> EigenDecomp:
    """sym_eig of a matrix that must be PSD to tol (see EigenDecomp.cut)."""
    dec = sym_eig(m, name)
    if dec.eigenvalues[0] < -dec.cut(tol):
        raise ValidationError(
            f"{name} is not PSD: eigenvalue {dec.eigenvalues[0]:.3e} below "
            f"-{tol:g} * max(1, spectral radius)"
        )
    return dec
