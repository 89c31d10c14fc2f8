"""Reference implementations the tests compare homoglab against.

None of these is on a computing path of the package.  They are either
closed forms the package evaluates another way (the rational k0_hat, the
reciprocal-kernel decomposition, the transform of h, the dense Green
kernel) or a cold single-direction cell solve, by a plain CG of its own,
whose energy comes from an independent quadrature of the corrector field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from homoglab import cell
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
# cell problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSolution:
    """One corrector solve: energy, gradient field and CG exit state."""

    corrector_grad: np.ndarray  # shape (n,)*dim + (dim,), cell-based
    energy: float
    residual: float  # relative CG residual at exit
    iterations: int


def full_samples(coeff: cell.PeriodicCoefficient) -> np.ndarray:
    """The per-cell matrices, shape (n,)*dim + (dim, dim), rebuilt from the channels."""
    dim = coeff.dim
    out = np.empty((coeff.n_grid,) * dim + (dim, dim))
    for i in range(dim):
        for j in range(dim):
            out[..., i, j] = coeff.entry(i, j)
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
    the package's operators and preconditioner but its own recurrence, which
    forms the corrector v; the right-hand side comes from the rebuilt full
    matrices and the energy is ``energy_of_field`` of the corrector gradient,
    not the multi-shift read-out.
    """
    lam = np.asarray(direction, dtype=float)
    h, dim = coeff.h, coeff.dim
    grid = (coeff.n_grid,) * dim
    axes = tuple(range(dim))
    inv_sym = cell._precond_inverse(dim, coeff.n_grid)

    def operator(p):
        g = cell._cell_gradient(p, h)
        return cell._cell_gradient_adjoint(cell._apply_coeff(coeff, g) + delta * g, h)

    def precond(r):
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_sym, s=grid, axes=axes)

    r = -cell._cell_gradient_adjoint(np.moveaxis(full_samples(coeff) @ lam, -1, 0), h)
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
    grad = np.ascontiguousarray(np.moveaxis(cell._cell_gradient(v, h), 0, -1))
    return CellSolution(corrector_grad=grad,
                        energy=energy_of_field(coeff, delta, lam, grad),
                        residual=residual, iterations=it)
