"""Reference implementations the tests compare homoglab against.

None of these is on a computing path of the package.  They are either
closed forms the package evaluates another way (the rational k0_hat, the
reciprocal-kernel decomposition, the transform of h, the dense Green
kernel) or a cold single-direction cell solve whose energy comes from an
independent quadrature of the corrector field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from homoglab import cell
from homoglab.anomalous import TWO_PI_SQ, SpectralParams, alpha_f

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


def energy_of_field(coeff: cell.PeriodicCoefficient, delta: float, direction,
                    corrector_grad: np.ndarray) -> float:
    """Quadrature of (lam + g) . A_delta (lam + g) over the cell grid."""
    field = corrector_grad + np.asarray(direction, dtype=float)
    flux = np.einsum("...ij,...j->...i", coeff.samples, field) + delta * field
    return float(np.sum(field * flux) * coeff.h ** coeff.dim)


def solve_cell_problem(coeff: cell.PeriodicCoefficient, delta: float, direction,
                       cfg: cell.SolverConfig = cell.SolverConfig()) -> CellSolution:
    """Minimize the delta-regularized cell energy for one direction, cold.

    The one-shift case of ``cell._shifted_cg`` from zero on
    G^T A_delta G v = -G^T A lam; the energy is ``energy_of_field`` of the
    corrector gradient, not the multi-shift read-out.
    """
    lam = np.asarray(direction, dtype=float)
    grid = (coeff.n_grid,) * coeff.dim
    v, _, iterations, residuals = cell._shifted_cg(
        cell._coeff_entries(coeff.samples, delta), coeff.h, cell._rhs(coeff, lam),
        [0.0], np.zeros((0,) + grid), cfg)
    grad = np.empty(grid + (coeff.dim,))
    cell._cell_gradient(v, coeff.h, out=np.moveaxis(grad, -1, 0))
    return CellSolution(corrector_grad=grad,
                        energy=energy_of_field(coeff, delta, lam, grad),
                        residual=float(residuals[0]), iterations=int(iterations[0]))
