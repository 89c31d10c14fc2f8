"""Input validators for small symmetric matrices and vectors (d = 2 or 3).

Each returns a float array or raises ``ValidationError`` naming the input.
Eigendecompositions, PSD checks and range/kernel splits are done where
they are used: ``laminate`` decomposes each phase once with
``numpy.linalg.eigh`` and cuts it at its ``RANK_TOL``.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

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
