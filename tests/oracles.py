"""Reference implementations the tests compare homoglab against.

None of these is on a computing path of the package.  They are either
closed forms the package evaluates another way (the rational k0_hat, the
reciprocal-kernel decomposition, the transform of h, the dense Green
kernel), the laminate's ker(A*) and V as null spaces of pairs of phase
vectors mapped to their means, a cold single-direction cell solve, by a
plain CG of its own, whose energy comes from an independent quadrature of
the corrector field, or the grid coefficient's PSD check as eigvalsh of
every cell.  The corrector solve's operators are whole-grid ``np.roll``
stencils, not the package's slab sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from homoglab import cell, laminate
from homoglab.anomalous import TWO_PI_SQ, SpectralParams, alpha_f
from homoglab.errors import ConvergenceError

# ---------------------------------------------------------------------------
# anomalous limit
# ---------------------------------------------------------------------------


def k0_hat_closed(params: SpectralParams, lambda1):
    """Closed rational form (c_theta t + 1) / ((t + 1)(c t + 1)), t = 4 pi^2 lambda^2."""
    t = TWO_PI_SQ * np.square(lambda1)
    return (params.c_theta * t + 1.0) / ((t + 1.0) * (params.c * t + 1.0))


def inv_k0_decomposed(params: SpectralParams, lambda1):
    """(c/c_theta) 4 pi^2 lambda^2 + alpha + f(lambda)."""
    alpha, f = alpha_f(params, lambda1)
    t = TWO_PI_SQ * np.square(lambda1)
    return params.c / params.c_theta * t + alpha + f


def h_transform(params: SpectralParams, lambda1):
    """Fourier transform of the convolution kernel: sqrt(alpha + f) - sqrt(alpha).

    Evaluated as f / (sqrt(alpha + f) + sqrt(alpha)), which does not cancel
    when f is small against alpha (contrast c near 1).
    """
    alpha, f = alpha_f(params, lambda1)
    return f / (np.sqrt(alpha + f) + np.sqrt(alpha))


def green_kernel(a_value: float, x, s) -> np.ndarray:
    """Dirichlet Green kernel of -a u'' + u on (0, 1), dense in (x, s).

    G(x, s) = sinh(min/sqrt(a)) sinh((1 - max)/sqrt(a)) /
              (sqrt(a) sinh(1/sqrt(a))); symmetric in (x, s).
    """
    ra = math.sqrt(a_value)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    lo = np.minimum(x[..., None], s[None, ...])
    hi = np.maximum(x[..., None], s[None, ...])
    return np.sinh(lo / ra) * np.sinh((1.0 - hi) / ra) / (ra * math.sinh(1.0 / ra))


# ---------------------------------------------------------------------------
# laminate
# ---------------------------------------------------------------------------


def span_rank(vectors) -> tuple[int, np.ndarray]:
    """Rank of the span of the rows and an orthonormal basis of it from one
    SVD of the unit rows; rows of norm, and singular values, at most
    RANK_TOL drop."""
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms > laminate.RANK_TOL
    _, sv, vt = np.linalg.svd(vectors[keep] / norms[keep, None])
    rank = int(np.count_nonzero(sv > laminate.RANK_TOL))
    return rank, vt[:rank]


def _null_space(m: np.ndarray) -> np.ndarray:
    _, sv, vt = np.linalg.svd(m)
    return vt[np.count_nonzero(sv > laminate.RANK_TOL):]


def _phase_means(spec, basis1, basis2, pairs) -> np.ndarray:
    """Rows theta basis1 c1 + (1-theta) basis2 c2, where (c1, c2) leads a
    row of pairs."""
    stack = np.concatenate([spec.theta * basis1, (1.0 - spec.theta) * basis2])
    return pairs[:, :len(stack)] @ stack


def effective_kernel(spec) -> tuple[int, np.ndarray]:
    """ker(A*) as (dimension, orthonormal rows) from pairs of kernel
    vectors: the null vectors (c1, c2, t) of [K1 | -K2 | -n] are the pairs
    y1 = K1 c1, y2 = K2 c2 with y1 - y2 = t n, each giving the mean
    theta y1 + (1-theta) y2; the a = 0 branch drops the -n column."""
    k1, k2 = spec.kernels
    rows = [k1, -k2, -spec.direction[None]] if spec.regular else [k1, -k2]
    return span_rank(_phase_means(spec, k1, k2, _null_space(np.concatenate(rows).T)))


def v_space(spec) -> tuple[int, np.ndarray]:
    """V as (dimension, orthonormal rows) from pairs of range vectors: the
    pairs xi1 = P1 c1, xi2 = P2 c2 nulling the interface row n^T [P1 | -P2]
    (all pairs when the row is within RANK_TOL of zero), mapped to their
    means."""
    p, q = spec.ranges
    row = np.concatenate([p @ spec.direction, -(q @ spec.direction)])[None]
    return span_rank(_phase_means(spec, p, q, _null_space(row)))


# ---------------------------------------------------------------------------
# cell problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSolution:
    """One corrector solve: energy, gradient field and CG exit state."""

    corrector_grad: np.ndarray  # shape (n,)*dim + (dim,), cell-based
    energy: float
    residual: float  # relative CG residual at exit
    iterations: int


def psd_refusal(channels: np.ndarray, dim: int) -> str | None:
    """The PSD check's error message for a channel array, or None if it passes.

    eigvalsh of every cell at once: the smallest eigenvalue must be
    >= -1e-10 max(1, largest |entry|).
    """
    a = np.asarray(channels, dtype=float)
    scale = max(1.0, float(np.abs(a).max()))
    mats = np.empty(a.shape[1:] + (dim, dim))
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    for k, (i, j) in enumerate(pairs):
        mats[..., i, j] = mats[..., j, i] = a[k]
    lowest = float(np.linalg.eigvalsh(mats).min())
    if lowest < -1e-10 * scale:
        return f"samples are not PSD (smallest eigenvalue {lowest:.3e})"
    return None


def gradient_scale(dim: int, n: int) -> float:
    """s in G = s G0, G the edge-averaged gradient below and G0 the package's
    integer stencil: the edge average 0.5^(dim-1) over the spacing h = 1 / n,
    a power of two on the package's grids."""
    return 0.5 ** (dim - 1) * n


def cell_gradient(v: np.ndarray, h: float) -> np.ndarray:
    """Edge-averaged forward differences per cell, shape (dim,) + v.shape."""
    dim = v.ndim
    out = np.empty((dim,) + v.shape)
    scale = 0.5 ** (dim - 1) / h
    for ax in range(dim):
        g = out[ax]
        np.subtract(np.roll(v, -1, axis=ax), v, out=g)
        # Sum the parallel edges of the cell: the other axes' two bounding nodes.
        for other in range(dim):
            if other != ax:
                g += np.roll(g, -1, axis=other)
        g *= scale
    return out


def cell_gradient_adjoint(w, h: float) -> np.ndarray:
    """Adjoint of cell_gradient for the unweighted inner products.

    w is a component-major field or any sequence of its dim components.
    """
    dim = len(w)
    out = np.zeros(w[0].shape)
    for ax in range(dim):
        g = w[ax]
        for other in range(dim):
            if other != ax:
                g = g + np.roll(g, 1, axis=other)
        out += np.roll(g, 1, axis=ax)
        out -= g
    out *= 0.5 ** (dim - 1) / h
    return out


def dense_entry(coeff: cell.PeriodicCoefficient, i: int, j: int) -> np.ndarray:
    """Entry (i, j) of every cell: its channel, or zeros for a channel kept as None."""
    c = coeff.entry(i, j)
    return np.zeros((coeff.n_grid,) * coeff.dim) if c is None else c


def stacked_channels(coeff: cell.PeriodicCoefficient) -> np.ndarray:
    """All dim (dim + 1) / 2 channels as one array, zeros for those kept as None."""
    return np.stack([dense_entry(coeff, i, j) for i, j in cell._triu_indices(coeff.dim)])


def apply_coeff(coeff: cell.PeriodicCoefficient, w: np.ndarray) -> np.ndarray:
    """sum_j A_ij w_j per cell for a component-major field w, A read off its
    channels, every product formed (a zero channel's too)."""
    out = np.empty(w.shape)
    term = np.empty(w.shape[1:])
    for i in range(coeff.dim):
        np.multiply(dense_entry(coeff, i, 0), w[0], out=out[i])
        for j in range(1, coeff.dim):
            out[i] += np.multiply(dense_entry(coeff, i, j), w[j], out=term)
    return out


def full_samples(coeff: cell.PeriodicCoefficient) -> np.ndarray:
    """The per-cell matrices, shape (n,)*dim + (dim, dim), rebuilt from the channels."""
    dim = coeff.dim
    out = np.empty((coeff.n_grid,) * dim + (dim, dim))
    for i in range(dim):
        for j in range(dim):
            out[..., i, j] = dense_entry(coeff, i, j)
    return out


def energy_of_field(coeff: cell.PeriodicCoefficient, delta: float, direction,
                    corrector_grad: np.ndarray) -> float:
    """Quadrature of (lam + g) . A_delta (lam + g) over the cell grid."""
    field = corrector_grad + np.asarray(direction, dtype=float)
    flux = np.einsum("...ij,...j->...i", full_samples(coeff), field) + delta * field
    return float(np.sum(field * flux) * coeff.h ** coeff.dim)


def solve_cell_problem(coeff: cell.PeriodicCoefficient, delta: float, direction,
                       cfg: cell.SolverConfig = cell.SolverConfig()) -> CellSolution:
    """Minimize the delta-regularized cell energy for one direction, cold.

    Plain preconditioned CG from zero on G^T A_delta G v = -G^T A lam with
    the ``np.roll`` operators above, the package's preconditioner symbol
    (built for G0, so divided by s^2) and its own recurrence, which forms
    the corrector v; the right-hand side comes from the rebuilt full
    matrices and the energy is ``energy_of_field`` of the corrector
    gradient, not the multi-shift read-out.
    """
    lam = np.asarray(direction, dtype=float)
    h, dim = coeff.h, coeff.dim
    grid = (coeff.n_grid,) * dim
    axes = tuple(range(dim))
    inv_sym = cell._precond_inverse(dim, coeff.n_grid) / gradient_scale(dim, coeff.n_grid) ** 2

    def operator(p):
        g = cell_gradient(p, h)
        return cell_gradient_adjoint(apply_coeff(coeff, g) + delta * g, h)

    def precond(r):
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_sym, s=grid, axes=axes)

    r = -cell_gradient_adjoint(np.moveaxis(full_samples(coeff) @ lam, -1, 0), h)
    v = np.zeros(grid)
    bnorm = float(np.linalg.norm(r))
    residual, it = 0.0, 0
    if bnorm > 0.0:
        z = precond(r)
        p, rz = z, float(np.vdot(r, z))
        while True:
            residual = float(np.linalg.norm(r)) / bnorm
            if residual <= cfg.tol:
                break
            if it >= cfg.max_iter or not np.isfinite(residual):
                raise ConvergenceError(f"oracle CG stopped after {it} iterations", residual)
            ap = operator(p)
            alpha = rz / float(np.vdot(p, ap))
            v += alpha * p
            r -= alpha * ap
            z = precond(r)
            rz_new = float(np.vdot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
    grad = np.ascontiguousarray(np.moveaxis(cell_gradient(v, h), 0, -1))
    return CellSolution(corrector_grad=grad,
                        energy=energy_of_field(coeff, delta, lam, grad),
                        residual=residual, iterations=it)
