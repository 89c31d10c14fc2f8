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

A spec decomposes each phase once, in its PSD check, splits each
decomposition once into range and kernel at ``RANK_TOL``, and keeps both;
everything below reads them.  Definiteness and ker(A*) come from the
phases' kernels and the structure of the formula, not from A*'s
eigenvalues: A* x.x is the least laminate energy with mean x, so x lies in
ker(A*) exactly when x = theta y1 + (1-theta) y2 with y_i in ker(A_i) and
y1 - y2 parallel to n (y1 = y2 on the a = 0 branch, where A* is the mean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from . import linalg
from .linalg import EigenDecomp, as_vector

RANK_TOL = 1e-10


def rotation_to_axis(n: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q n = e1, the identity when n is already e1.

    Householder reflection through the bisector of n and e1; returning the
    exact identity for n = e1 keeps axis-aligned inputs bit-exact.
    """
    d = n.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = n - e1
    nv2 = v @ v
    if nv2 < 1e-28:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / nv2


@dataclass(frozen=True)
class LaminateSpec:
    """Two PSD phases, a volume fraction in (0, 1), and a unit normal."""

    phase1: np.ndarray
    phase2: np.ndarray
    theta: float
    direction: np.ndarray
    # eigendecompositions of (phase1, phase2), made by the PSD check, and
    # their (range, kernel) splits at RANK_TOL
    eigs: tuple[EigenDecomp, EigenDecomp] = field(init=False, repr=False, compare=False)
    splits: tuple[tuple[list, list], tuple[list, list]] = field(
        init=False, repr=False, compare=False)
    # orthonormal basis of ker(A*), empty when A* is positive definite
    effective_kernel: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eigs = (linalg.psd_eig(self.phase1, RANK_TOL, "phase1"),
                linalg.psd_eig(self.phase2, RANK_TOL, "phase2"))
        p1, p2 = eigs[0].matrix, eigs[1].matrix
        if p1.shape != p2.shape:
            raise ValidationError("phases must share a dimension")
        n = as_vector(self.direction, dim=p1.shape[0], name="direction")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValidationError("direction must be a unit vector to 1e-12")
        if not (0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must lie in (0, 1), got {self.theta}")
        object.__setattr__(self, "eigs", eigs)
        object.__setattr__(self, "splits", tuple(e.split(RANK_TOL) for e in eigs))
        object.__setattr__(self, "phase1", p1)
        object.__setattr__(self, "phase2", p2)
        object.__setattr__(self, "direction", n)
        object.__setattr__(self, "effective_kernel", _effective_kernel(self))

    @property
    def dim(self) -> int:
        return self.phase1.shape[0]

    def to_dict(self) -> dict:
        return {
            "phase1": self.phase1.tolist(),
            "phase2": self.phase2.tolist(),
            "theta": float(self.theta),
            "direction": self.direction.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LaminateSpec":
        missing = {"phase1", "phase2", "theta", "direction"} - set(doc)
        if missing:
            raise ValidationError(f"laminate document missing keys {sorted(missing)}")
        return cls(
            phase1=np.asarray(doc["phase1"], dtype=float),
            phase2=np.asarray(doc["phase2"], dtype=float),
            theta=float(doc["theta"]),
            direction=np.asarray(doc["direction"], dtype=float),
        )


@dataclass(frozen=True)
class HomogenizedLaminate:
    """a-value, effective tensor, branch taken, and its definiteness data.

    ``kernel`` is the spec's ``effective_kernel``, read from the phases'
    kernels and the normal, and ``pd`` is ``not kernel``; neither comes
    from the eigenvalues of ``tensor``.
    """

    a_value: float
    tensor: np.ndarray
    branch: str  # "regular" | "degenerate_average"
    pd: bool
    kernel: list[np.ndarray]


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


def laminate_a(spec: LaminateSpec) -> float:
    """The cross-interface coefficient (1-theta) A1 n.n + theta A2 n.n."""
    n = spec.direction
    return float((1.0 - spec.theta) * (spec.phase1 @ n) @ n
                 + spec.theta * (spec.phase2 @ n) @ n)


def default_a_tol(spec: LaminateSpec) -> float:
    return 1e-12 * (spec.eigs[0].spectral_radius + spec.eigs[1].spectral_radius)


def _effective_kernel(spec: LaminateSpec) -> list[np.ndarray]:
    """Orthonormal basis of ker(A*) from the phases' kernels K1, K2.

    The null vectors (c1, c2, t) of [K1 | -K2 | -n] (unit columns, one SVD
    cut at RANK_TOL) are the pairs y1 = K1 c1, y2 = K2 c2 with
    y1 - y2 = t n; each gives x = theta y1 + (1-theta) y2.  The a = 0
    branch drops the -n column, leaving K1 intersect K2.
    """
    k1, k2 = spec.splits[0][1], spec.splits[1][1]
    if not k1 and not k2:
        return []
    cols = k1 + [-v for v in k2]
    if laminate_a(spec) > default_a_tol(spec):
        cols.append(-spec.direction)
    m = np.column_stack(cols)
    _, sv, vt = np.linalg.svd(m)
    null = vt[np.count_nonzero(sv > RANK_TOL):]
    m1, m2 = len(k1), len(k1) + len(k2)
    th = spec.theta
    means = [th * (m[:, :m1] @ c[:m1]) - (1.0 - th) * (m[:, m1:m2] @ c[m1:m2])
             for c in null]
    return list(linalg._span_rank(means, spec.dim, RANK_TOL)[1])


def homogenize_laminate(spec: LaminateSpec) -> HomogenizedLaminate:
    """Effective tensor of the laminate, choosing the a = 0 branch when
    the cross coefficient falls below the scale-aware ``default_a_tol``."""
    th = spec.theta
    a = laminate_a(spec)
    tensor = th * spec.phase1 + (1.0 - th) * spec.phase2
    if a > default_a_tol(spec):
        jump = (spec.phase2 - spec.phase1) @ spec.direction
        tensor = tensor - (th * (1.0 - th) / a) * np.outer(jump, jump)
        branch = "regular"
    else:
        branch = "degenerate_average"
    return HomogenizedLaminate(
        a_value=a,
        tensor=tensor,
        branch=branch,
        pd=not spec.effective_kernel,
        kernel=spec.effective_kernel,
    )


def _rank_one_vector(dec: EigenDecomp, name: str) -> np.ndarray:
    """Extract xi with phase = xi otimes xi from its decomposition, validating
    rank one to RANK_TOL."""
    lam = dec.eigenvalues
    top = lam[-1]
    if top <= 0.0:
        raise ValidationError(f"{name} must be a nonzero rank-one matrix")
    if np.abs(lam[:-1]).max() > RANK_TOL * top:
        raise ValidationError(
            f"{name} is not rank one within {RANK_TOL:g} relative "
            f"(eigenvalues {lam.tolist()})"
        )
    return np.sqrt(top) * dec.rotation[:, -1]


def _rank_two_kernel(ker: list[np.ndarray], name: str) -> np.ndarray:
    if len(ker) != 1:
        raise ValidationError(
            f"{name} must have rank two (one-dimensional kernel), found "
            f"kernel dimension {len(ker)}"
        )
    return ker[0]


def check_conditions_2d(spec: LaminateSpec) -> ConditionReport:
    """Structure conditions for the 2D family: phase1 = xi otimes xi, phase2 PD.

    xi = sqrt(lambda) v comes from phase1's decomposition; its sign is
    arbitrary, and every condition below is invariant under xi -> -xi.
    Sub-conditions, all relative to the lamination normal n, tol = RANK_TOL:
      * xi_not_orthogonal: |xi . n| > tol * |xi|
      * xi_A2n_independent: |det[xi, A2 n]| > tol * |xi| * |A2 n|
      * phase2_pd: phase2 positive definite
    """
    if spec.dim != 2:
        raise ValidationError("check_conditions_2d requires 2x2 phases")
    xi = _rank_one_vector(spec.eigs[0], "phase1")
    n = spec.direction
    a2n = spec.phase2 @ n
    nxi = np.linalg.norm(xi)
    c1 = abs(float(xi @ n))
    t1 = RANK_TOL * nxi
    c2 = abs(float(xi[0] * a2n[1] - xi[1] * a2n[0]))
    t2 = RANK_TOL * nxi * np.linalg.norm(a2n)
    pd2 = not spec.splits[1][1]
    details = (
        ConditionDetail("xi_not_orthogonal", c1 > t1, c1, t1),
        ConditionDetail("xi_A2n_independent", c2 > t2, c2, t2),
        ConditionDetail("phase2_pd", pd2, float(spec.eigs[1].eigenvalues[0]), 0.0),
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
    eta1 = _rank_two_kernel(spec.splits[0][1], "phase1")
    eta2 = _rank_two_kernel(spec.splits[1][1], "phase2")
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


def _unit_complement(n: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the hyperplane orthogonal to unit n."""
    q = rotation_to_axis(n)
    return [q.T[:, k].copy() for k in range(1, n.shape[0])]


def v_space_basis(spec: LaminateSpec) -> list[np.ndarray]:
    """Generators of the space of mean values of divergence-free laminate fields.

    The admissible fields are piecewise constant per phase, each phase
    value in the range of its matrix, with the jump across the interface
    orthogonal to the lamination normal; the generator attached to a pair
    (xi1, xi2) is theta xi1 + (1 - theta) xi2.  The rank-one/PD family in
    2D keeps the explicit basis {xi, (1 - theta) t}, t a unit vector
    orthogonal to n; in every other case (rank-two pairs in 3D, general
    PSD phases) the pair space is computed as the kernel of the single
    interface constraint over range(A1) x range(A2).
    """
    n = spec.direction
    th = spec.theta
    eig1 = spec.eigs[0]
    p = spec.splits[0][0]
    q, ker2 = spec.splits[1]
    if spec.dim == 2 and not ker2:
        top = eig1.eigenvalues[-1]
        if top > 0.0 and abs(eig1.eigenvalues[0]) <= RANK_TOL * top:
            t = _unit_complement(n)[0]
            return [_rank_one_vector(eig1, "phase1"), (1.0 - th) * t]
    if not p or not q:
        raise ValidationError("both phases must be nonzero to carry a flux field")
    row = np.array([v @ n for v in p] + [-(v @ n) for v in q])
    nr = np.linalg.norm(row)
    # A zero row (both ranges orthogonal to n, the a = 0 branch) leaves
    # every pair admissible.
    pairs = _unit_complement(row / nr) if nr > 0 else list(np.eye(len(row)))
    gens = []
    for coeff in pairs:
        xi1 = sum(coeff[k] * p[k] for k in range(len(p)))
        xi2 = sum(coeff[len(p) + k] * q[k] for k in range(len(q)))
        gens.append(th * xi1 + (1.0 - th) * xi2)
    return gens


def verify_kernel_identity(spec: LaminateSpec) -> bool:
    """Check ker(A*) = (span of laminate field means)^perp for this spec.

    The spec's ``effective_kernel`` K is orthonormal, so with B_V an
    orthonormal basis of the span of ``v_space_basis`` (one SVD), the
    identity holds when rank(B_V) + len(K) is the dimension and
    ||B_V K^T||_2 <= RANK_TOL.
    """
    rank, basis = linalg._span_rank(v_space_basis(spec), spec.dim, RANK_TOL)
    kernel = spec.effective_kernel
    if rank + len(kernel) != spec.dim:
        return False
    if not (rank and kernel):
        return True
    return bool(np.linalg.norm(basis @ np.array(kernel).T, 2) <= RANK_TOL)
