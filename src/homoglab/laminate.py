"""Effective tensors of two-phase rank-one laminates with degenerate phases.

A laminate alternates two constant symmetric PSD conductivities ``A1``
(volume fraction ``theta``) and ``A2`` along a unit normal ``n``.  With

    a = (1 - theta) * A1 n.n + theta * A2 n.n,

the effective tensor is, for a > 0,

    A* = theta A1 + (1-theta) A2
         - theta (1-theta) / a * ((A2 - A1) n) otimes ((A2 - A1) n),

and the plain arithmetic average when a = 0.  The formula stays valid when
one or both phases are singular, which is the regime of interest here:
``A*`` may then lose definiteness, and the condition checkers below decide
whether it does.

``homogenize_laminate`` evaluates this formula as written, with
j = (A2 - A1) n: the mean plus a multiple of j otimes j is symmetric
exactly, and for an axis normal j is a column of A2 - A1.

A spec decomposes each phase once with ``numpy.linalg.eigh``, checks it is
PSD and splits its eigenvectors into range and kernel rows at the one cut
RANK_TOL * max(1, spectral radius), and computes a and the branch once;
everything below reads these.  Definiteness and ker(A*) come from the
phases' kernels and the structure of the formula, not from A*'s
eigenvalues: A* x.x is the least laminate energy with mean x, so x lies in
ker(A*) exactly when x = theta y1 + (1-theta) y2 with y_i in ker(A_i) and
y1 - y2 parallel to n (y1 = y2 on the a = 0 branch, where A* is the mean).

Both sides of ker(A*) = V^perp, V the span of the means of divergence-free
laminate fields, are the SVD null space, cut at ``RANK_TOL``, of a linear
constraint on pairs of phase vectors, mapped to the pairs' means by one
product with the theta-weighted phase bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_sym_matrix, as_vector

RANK_TOL = 1e-10


def _decompose(m, name: str):
    """(matrix, eigenvalues, range rows, kernel rows) of a PSD phase: one
    eigh; eigenvectors above, and within +-, the cut RANK_TOL * max(1,
    spectral radius).  An eigenvalue below -cut is refused (not PSD)."""
    a = as_sym_matrix(m, name)
    w, r = np.linalg.eigh(a)
    cut = RANK_TOL * max(1.0, float(np.abs(w).max()))
    if w[0] < -cut:
        raise ValidationError(
            f"{name} is not PSD: eigenvalue {w[0]:.3e} below "
            f"-{RANK_TOL:g} * max(1, spectral radius)")
    return a, w, r.T[w > cut], r.T[np.abs(w) <= cut]


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LaminateSpec:
    """Two PSD phases, a volume fraction in (0, 1), and a unit normal."""

    phase1: np.ndarray
    phase2: np.ndarray
    theta: float
    direction: np.ndarray
    # per phase: ascending eigenvalues, and the orthonormal eigenvectors
    # (rows) of its range and kernel split at the cut; see _decompose
    eigenvalues: tuple[np.ndarray, np.ndarray] = _derived()
    ranges: tuple[np.ndarray, np.ndarray] = _derived()
    kernels: tuple[np.ndarray, np.ndarray] = _derived()
    # a = (1-theta) A1 n.n + theta A2 n.n, and whether it exceeds
    # 1e-12 * (rho1 + rho2), the phases' spectral radii: the regular branch
    a_value: float = _derived()
    regular: bool = _derived()
    # orthonormal basis of ker(A*) as (k, d) rows, k = 0 when A* is definite
    effective_kernel: np.ndarray = _derived()

    def __post_init__(self):
        p1, w1, r1, k1 = _decompose(self.phase1, "phase1")
        p2, w2, r2, k2 = _decompose(self.phase2, "phase2")
        if p1.shape != p2.shape:
            raise ValidationError("phases must share a dimension")
        n = as_vector(self.direction, dim=p1.shape[0], name="direction")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValidationError("direction must be a unit vector to 1e-12")
        if not (0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must lie in (0, 1), got {self.theta}")
        a = float((1.0 - self.theta) * (p1 @ n) @ n + self.theta * (p2 @ n) @ n)
        regular = a > 1e-12 * (float(np.abs(w1).max()) + float(np.abs(w2).max()))
        for name, value in dict(phase1=p1, phase2=p2, direction=n, eigenvalues=(w1, w2),
                                ranges=(r1, r2), kernels=(k1, k2), a_value=a,
                                regular=regular).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "effective_kernel", _effective_kernel(self))

    @property
    def dim(self) -> int:
        return self.phase1.shape[0]


@dataclass(frozen=True)
class HomogenizedLaminate:
    """a-value, effective tensor, branch taken, and its definiteness data.

    ``kernel`` is the spec's ``effective_kernel``, (k, d) rows read from
    the phases' kernels and the normal, and ``pd`` is k = 0; neither comes
    from the eigenvalues of ``tensor``.
    """

    a_value: float
    tensor: np.ndarray
    branch: str  # "regular" | "degenerate_average"
    pd: bool
    kernel: np.ndarray


@dataclass(frozen=True)
class ConditionDetail:
    name: str
    passed: bool
    value: float
    threshold: float


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the algebraic structure conditions, with raw quantities."""

    h2_holds: bool
    details: tuple[ConditionDetail, ...] = field(default_factory=tuple)

    def detail(self, name: str) -> ConditionDetail:
        for d in self.details:
            if d.name == name:
                return d
        raise KeyError(name)


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning m's null space: one SVD, cut at RANK_TOL."""
    _, sv, vt = np.linalg.svd(m)
    return vt[np.count_nonzero(sv > RANK_TOL):]


def _span_rank(vectors: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of the span of the rows and an orthonormal basis of it from one
    SVD of the unit rows; rows of norm, and singular values, at most
    RANK_TOL drop."""
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms > RANK_TOL
    _, sv, vt = np.linalg.svd(vectors[keep] / norms[keep, None])
    rank = int(np.count_nonzero(sv > RANK_TOL))
    return rank, vt[:rank]


def _phase_means(spec: LaminateSpec, basis1, basis2, pairs) -> np.ndarray:
    """Rows theta basis1 c1 + (1-theta) basis2 c2, where (c1, c2) leads a
    row of pairs."""
    stack = np.concatenate([spec.theta * basis1, (1.0 - spec.theta) * basis2])
    return pairs[:, :len(stack)] @ stack


def _effective_kernel(spec: LaminateSpec) -> np.ndarray:
    """Orthonormal basis of ker(A*) from the phases' kernels K1, K2: the null
    vectors (c1, c2, t) of [K1 | -K2 | -n] are the pairs y1 = K1 c1,
    y2 = K2 c2 with y1 - y2 = t n, each giving x = theta y1 + (1-theta) y2.
    The a = 0 branch drops the -n column, leaving K1 intersect K2."""
    k1, k2 = spec.kernels
    if not len(k1) and not len(k2):
        return np.zeros((0, spec.dim))
    rows = [k1, -k2, -spec.direction[None]] if spec.regular else [k1, -k2]
    null = _null_space(np.concatenate(rows).T)
    return _span_rank(_phase_means(spec, k1, k2, null))[1]


def homogenize_laminate(spec: LaminateSpec) -> HomogenizedLaminate:
    """Effective tensor of the laminate, on the a = 0 branch unless the
    spec is ``regular``."""
    th = spec.theta
    tensor = th * spec.phase1 + (1.0 - th) * spec.phase2
    if spec.regular:
        jump = (spec.phase2 - spec.phase1) @ spec.direction
        tensor = tensor - (th * (1.0 - th) / spec.a_value) * np.outer(jump, jump)
    return HomogenizedLaminate(
        a_value=spec.a_value,
        tensor=tensor,
        branch="regular" if spec.regular else "degenerate_average",
        pd=not len(spec.effective_kernel),
        kernel=spec.effective_kernel,
    )


def _rank_one_vector(eigenvalues: np.ndarray, rng: np.ndarray, name: str) -> np.ndarray:
    """xi with phase = xi otimes xi: sqrt(top eigenvalue) times the one row
    of the phase's range (see _decompose)."""
    if len(rng) != 1:
        raise ValidationError(
            f"{name} must be rank one: its range at RANK_TOL has dimension "
            f"{len(rng)} (eigenvalues {eigenvalues.tolist()})")
    return np.sqrt(eigenvalues[-1]) * rng[0]


def _rank_two_kernel(ker: np.ndarray, name: str) -> np.ndarray:
    if len(ker) != 1:
        raise ValidationError(
            f"{name} must have rank two (one-dimensional kernel), found "
            f"kernel dimension {len(ker)}"
        )
    return ker[0]


def check_conditions_2d(spec: LaminateSpec) -> ConditionReport:
    """Structure conditions for the 2D family: phase1 = xi otimes xi, phase2 PD.

    xi = sqrt(lambda) v, with v the one row of phase1's range and
    lambda its top eigenvalue; xi's sign is arbitrary, and every condition
    below is invariant under xi -> -xi.
    Sub-conditions, all relative to the lamination normal n, tol = RANK_TOL:
      * xi_not_orthogonal: |xi . n| > tol * |xi|
      * xi_A2n_independent: |det[xi, A2 n]| > tol * |xi| * |A2 n|
      * phase2_pd: phase2 positive definite
    """
    if spec.dim != 2:
        raise ValidationError("check_conditions_2d requires 2x2 phases")
    xi = _rank_one_vector(spec.eigenvalues[0], spec.ranges[0], "phase1")
    n = spec.direction
    a2n = spec.phase2 @ n
    nxi = np.linalg.norm(xi)
    c1 = abs(float(xi @ n))
    t1 = RANK_TOL * nxi
    c2 = abs(float(xi[0] * a2n[1] - xi[1] * a2n[0]))
    t2 = RANK_TOL * nxi * np.linalg.norm(a2n)
    pd2 = not len(spec.kernels[1])
    details = (
        ConditionDetail("xi_not_orthogonal", c1 > t1, c1, t1),
        ConditionDetail("xi_A2n_independent", c2 > t2, c2, t2),
        ConditionDetail("phase2_pd", pd2, float(spec.eigenvalues[1][0]), 0.0),
    )
    return ConditionReport(h2_holds=all(d.passed for d in details), details=details)


def check_conditions_3d(spec: LaminateSpec) -> ConditionReport:
    """Structure conditions for the 3D family: both phases rank two.

    Sub-conditions, tol = RANK_TOL:
      * n_eta1_eta2_independent: |det[n, eta1, eta2]| > tol (etas orthonormal)
      * A1n_A2n_independent: Gram determinant of {A1 n, A2 n} above
        tol^2 * |A1 n|^2 |A2 n|^2
    """
    if spec.dim != 3:
        raise ValidationError("check_conditions_3d requires 3x3 phases")
    eta1 = _rank_two_kernel(spec.kernels[0], "phase1")
    eta2 = _rank_two_kernel(spec.kernels[1], "phase2")
    n = spec.direction
    c1 = abs(float(np.linalg.det(np.column_stack([n, eta1, eta2]))))
    t1 = RANK_TOL  # all three columns are unit vectors
    v1 = spec.phase1 @ n
    v2 = spec.phase2 @ n
    gram = float((v1 @ v1) * (v2 @ v2) - (v1 @ v2) ** 2)
    t2 = RANK_TOL * RANK_TOL * float(v1 @ v1) * float(v2 @ v2)
    details = (
        ConditionDetail("n_eta1_eta2_independent", c1 > t1, c1, t1),
        ConditionDetail("A1n_A2n_independent", gram > t2, gram, t2),
    )
    return ConditionReport(h2_holds=all(d.passed for d in details), details=details)


def v_space_basis(spec: LaminateSpec) -> np.ndarray:
    """Generators (rows) of the span V of divergence-free laminate field means.

    The admissible fields are piecewise constant, each phase value in the
    range of its matrix, with the jump orthogonal to n: the pairs
    xi1 = P1 c1, xi2 = P2 c2 null the interface row n^T [P1 | -P2], and
    each gives theta xi1 + (1 - theta) xi2.  A row within RANK_TOL of zero
    (both ranges orthogonal to n) leaves every pair admissible.
    """
    p, q = spec.ranges
    if not len(p) or not len(q):
        raise ValidationError("both phases must be nonzero to carry a flux field")
    n = spec.direction
    row = np.concatenate([p @ n, -(q @ n)])[None]
    return _phase_means(spec, p, q, _null_space(row))


def verify_kernel_identity(spec: LaminateSpec) -> bool:
    """Check ker(A*) = (span of laminate field means)^perp for this spec.

    The spec's ``effective_kernel`` K is orthonormal, so with B_V an
    orthonormal basis of the span of ``v_space_basis`` (one SVD), the
    identity holds when rank(B_V) + len(K) is the dimension and
    ||B_V K^T||_2 <= RANK_TOL.
    """
    rank, basis = _span_rank(v_space_basis(spec))
    kernel = spec.effective_kernel
    if rank + len(kernel) != spec.dim:
        return False
    if not (rank and len(kernel)):
        return True
    return bool(np.linalg.norm(basis @ kernel.T, 2) <= RANK_TOL)
