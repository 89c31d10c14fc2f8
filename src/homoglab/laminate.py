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

A spec checks its phases in one pass and decomposes them with one
``numpy.linalg.eigh`` of their (2, d, d) stack.  A phase must be PSD; its
eigenvalues are ascending, so its kernel and range rows (eigenvectors
within +-, and above, the cut RANK_TOL * max(1, spectral radius)) are two
slices.  a and the branch are computed once, and everything below reads
these.  Definiteness and ker(A*) come from the phases' kernels and the
structure of the formula, not from A*'s eigenvalues: A* x.x is the least
laminate energy with mean x, so x lies in ker(A*) exactly when
x = theta y1 + (1-theta) y2 with y_i in ker(A_i) and y1 - y2 = t n (t = 0
on the a = 0 branch, where A* is the mean).

Each side of ker(A*) = V^perp, V the span of the means of divergence-free
laminate fields, is one SVD cut at ``RANK_TOL`` of the range rows R1, R2
with a unit vector projected out of their columns.  Every such pair is
y1 = x + (1-theta) t n, y2 = x - theta t n, so x lies in ker(A*) exactly
when [R1; R2] x is a multiple of c = [(1-theta) R1 n; -theta R2 n]; V is
the row space of [theta R1; (1-theta) R2] restricted to the pairs
orthogonal to the interface row [R1 n; -R2 n].  A vector within RANK_TOL
of zero is not projected out: n then lies in both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_sym_matrix, as_vector

RANK_TOL = 1e-10


def _phase_stack(phase1, phase2) -> np.ndarray:
    """The phases as one (2, d, d) float array: an exactly symmetric finite
    pair as given, anything else through ``as_sym_matrix`` phase by phase."""
    try:
        p = np.array((phase1, phase2), dtype=float)
        if p.shape in ((2, 2, 2), (2, 3, 3)) and np.isfinite(p).all() \
                and (p == p.transpose(0, 2, 1)).all():
            return p
    except (TypeError, ValueError):
        pass
    p1, p2 = as_sym_matrix(phase1, "phase1"), as_sym_matrix(phase2, "phase2")
    if p1.shape != p2.shape:
        raise ValidationError("phases must share a dimension")
    return np.stack([p1, p2])


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
    # (rows) of its range and kernel split at the cut (module docstring)
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
        p = _phase_stack(self.phase1, self.phase2)
        w, vectors = np.linalg.eigh(p)
        splits = []
        for name, wi in zip(("phase1", "phase2"), w.tolist()):
            cut = RANK_TOL * max(1.0, -wi[0], wi[-1])
            if wi[0] < -cut:
                raise ValidationError(
                    f"{name} is not PSD: eigenvalue {wi[0]:.3e} below "
                    f"-{RANK_TOL:g} * max(1, spectral radius)")
            splits.append(sum(x <= cut for x in wi))  # ascending: the kernel comes first
        n = as_vector(self.direction, dim=p.shape[1], name="direction")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValidationError("direction must be a unit vector to 1e-12")
        if not (0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must lie in (0, 1), got {self.theta}")
        a = float((1.0 - self.theta) * (p[0] @ n) @ n + self.theta * (p[1] @ n) @ n)
        rows = vectors.transpose(0, 2, 1)  # eigenvectors as rows
        rho_sum = float(np.maximum(-w[:, 0], w[:, -1]).sum())  # rho1 + rho2
        for name, value in dict(phase1=p[0], phase2=p[1], direction=n, eigenvalues=tuple(w),
                                ranges=(rows[0, splits[0]:], rows[1, splits[1]:]),
                                kernels=(rows[0, :splits[0]], rows[1, :splits[1]]),
                                a_value=a, regular=a > 1e-12 * rho_sum).items():
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


def _project_out(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m with the unit vector along c projected out of its columns, or m
    itself when |c| <= RANK_TOL."""
    cc = float(c @ c)
    return m if cc <= RANK_TOL ** 2 else m - c[:, None] * ((c @ m) / cc)


def _effective_kernel(spec: LaminateSpec) -> np.ndarray:
    """Orthonormal basis of ker(A*): the null space of [R1; R2], with c
    projected out of its columns on the regular branch (module docstring)."""
    rows = np.concatenate(spec.ranges)
    if spec.regular:
        (r1, r2), n, th = spec.ranges, spec.direction, spec.theta
        rows = _project_out(rows, np.concatenate([(1.0 - th) * (r1 @ n), -th * (r2 @ n)]))
    _, sv, vt = np.linalg.svd(rows)
    return vt[np.count_nonzero(sv > RANK_TOL):]


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
    of the phase's range."""
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
    """Orthonormal rows spanning V, the means of divergence-free laminate fields.

    The admissible fields are piecewise constant, each phase value in the
    range of its matrix, with the jump orthogonal to n: the pairs
    xi1 = P1^T c1, xi2 = P2^T c2 (P_i the range rows) with (c1, c2)
    orthogonal to the interface row [P1 n; -P2 n], each giving
    theta xi1 + (1 - theta) xi2.  A row within RANK_TOL of zero (both
    ranges orthogonal to n) leaves every pair admissible.
    """
    p, q = spec.ranges
    if not len(p) or not len(q):
        raise ValidationError("both phases must be nonzero to carry a flux field")
    th, n = spec.theta, spec.direction
    _, sv, vt = np.linalg.svd(_project_out(np.concatenate([th * p, (1.0 - th) * q]),
                                           np.concatenate([p @ n, -(q @ n)])))
    return vt[:np.count_nonzero(sv > RANK_TOL)]


def verify_kernel_identity(spec: LaminateSpec) -> bool:
    """Check ker(A*) = (span of laminate field means)^perp for this spec.

    B_V = ``v_space_basis`` and the spec's ``effective_kernel`` K are
    orthonormal, so the identity holds when len(B_V) + len(K) = d and
    B_V K^T vanishes to RANK_TOL.  With d <= 3 that product is a row, a
    column or empty, and its 2-norm is its Frobenius norm.
    """
    basis, kernel = v_space_basis(spec), spec.effective_kernel
    return len(basis) + len(kernel) == spec.dim \
        and bool(np.linalg.norm(basis @ kernel.T) <= RANK_TOL)
