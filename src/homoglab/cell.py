"""Periodic cell problems for grid-sampled PSD coefficients.

Computes the effective tensor of a Y_d-periodic coefficient A(y) that may
be degenerate:  A is replaced by A + delta I, the corrector problem

    min over periodic v of  sum_cells  (lam + grad v) . A_delta (lam + grad v) h^d

is solved once per axis e_i for a schedule of shrinking delta: the energy
gives A*_delta[i, i] and the mean flux A_delta (e_i + grad v) gives column i
(the classical cell formula A* e_i = mean A (e_i + grad v_i)).  The
delta -> 0 limit is estimated by a linear Richardson fit through the two
smallest delta.

Discretization: corrector values live on the periodic node grid, the
gradient is the edge-averaged first-order difference per cell (exact under
axis permutations and reflections of the grid), and the coefficient is
sampled at cell centers.  The linear systems are solved by conjugate
gradients on component-major fields, shape (dim,) + (n,)*dim, so each
gradient component and each coefficient entry A_ij + delta [i == j] is one
contiguous array.  The preconditioner is the constant-coefficient operator
(mean trace(A)/dim + delta) G^T G inverted in Fourier space: the
pseudo-inverse of the symbol of G^T G lives on the rfftn half spectrum and
is built once per grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError

DELTA0_DEFAULT = 1e-1
N_DELTA_DEFAULT = 6
DELTA_SHRINK = 4.0


@dataclass(frozen=True)
class SolverConfig:
    """CG controls: relative residual target and iteration cap."""

    tol: float = 1e-9
    max_iter: int = 20000
    delta0: float = DELTA0_DEFAULT
    n_delta: int = N_DELTA_DEFAULT

    def deltas(self) -> np.ndarray:
        return self.delta0 * DELTA_SHRINK ** (-np.arange(self.n_delta, dtype=float))


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Cell-centered samples of a periodic symmetric PSD coefficient field.

    ``samples`` has shape (n,)*dim + (dim, dim); cell (i, j, ...) covers
    [i h, (i+1) h) x ... with h = 1/n and is sampled at its center.
    """

    dim: int
    n_grid: int
    samples: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValidationError(f"dim must be 2 or 3, got {self.dim}")
        n = self.n_grid
        if n < 4 or (n & (n - 1)) != 0:
            raise ValidationError(f"n_grid must be a power of two >= 4, got {n}")
        a = np.asarray(self.samples, dtype=float)
        want = (n,) * self.dim + (self.dim, self.dim)
        if a.shape != want:
            raise ValidationError(f"samples must have shape {want}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("samples contain non-finite values")
        flat = a.reshape(-1, self.dim, self.dim)
        scale = max(1.0, float(np.abs(flat).max()))
        if np.abs(flat - flat.transpose(0, 2, 1)).max() > 1e-12 * scale:
            raise ValidationError("samples are not symmetric to 1e-12 relative")
        evals = np.linalg.eigvalsh(flat)
        if evals.min() < -1e-10 * scale:
            raise ValidationError(
                f"samples are not PSD (smallest eigenvalue {evals.min():.3e})"
            )
        object.__setattr__(self, "samples", a)

    @property
    def h(self) -> float:
        return 1.0 / self.n_grid


@dataclass(frozen=True)
class CellSolution:
    """One corrector solve: direction, regularization, energy, gradient field."""

    delta: float
    direction: np.ndarray
    corrector: np.ndarray  # node values, shape (n,)*dim, mean zero
    corrector_grad: np.ndarray  # shape (n,)*dim + (dim,), cell-based
    energy: float
    residual: float  # relative CG residual at exit
    iterations: int


@dataclass(frozen=True)
class ExtrapolationResult:
    """A*_delta along the schedule plus the linear delta -> 0 estimate."""

    deltas: np.ndarray
    tensors: list[np.ndarray]
    estimate: np.ndarray | None
    fit_residual: float
    monotone: bool
    stalled: bool
    iterations: np.ndarray  # CG iterations, shape (n_delta, dim)
    residuals: np.ndarray  # relative CG residuals at exit, shape (n_delta, dim)


# ---------------------------------------------------------------------------
# coefficient constructors and file I/O
# ---------------------------------------------------------------------------

def constant_coefficient(matrix, dim: int, n_grid: int) -> PeriodicCoefficient:
    m = np.asarray(matrix, dtype=float)
    samples = np.broadcast_to(m, (n_grid,) * dim + m.shape).copy()
    return PeriodicCoefficient(dim=dim, n_grid=n_grid, samples=samples)


def laminate_coefficient(phase1, phase2, theta: float, dim: int, n_grid: int,
                         axis: int = 0) -> PeriodicCoefficient:
    """Sample a rank-one laminate with normal along a grid axis."""
    if not 0 <= axis < dim:
        raise ValidationError(f"axis must be < dim, got {axis}")
    a1 = np.asarray(phase1, dtype=float)
    a2 = np.asarray(phase2, dtype=float)
    centers = (np.arange(n_grid) + 0.5) / n_grid
    chi = centers < theta
    samples = np.empty((n_grid,) * dim + a1.shape)
    shape = [1] * dim
    shape[axis] = n_grid
    mask = chi.reshape(shape + [1, 1])
    samples[...] = np.where(mask, a1, a2)
    return PeriodicCoefficient(dim=dim, n_grid=n_grid, samples=samples)


def checkerboard_coefficient(alpha: float, beta: float, n_grid: int) -> PeriodicCoefficient:
    """2D checkerboard of isotropic phases alpha I and beta I (half-period cells)."""
    centers = (np.arange(n_grid) + 0.5) / n_grid
    ix = (centers < 0.5).astype(int)
    parity = ix[:, None] ^ ix[None, :]
    vals = np.where(parity[..., None, None] == 0, alpha, beta)
    samples = vals * np.eye(2)
    return PeriodicCoefficient(dim=2, n_grid=n_grid, samples=samples)


def _triu_indices(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def save_coefficient(coeff: PeriodicCoefficient, path) -> None:
    """Write 'dim n_grid channels' header then row-major upper-triangle floats."""
    idx = _triu_indices(coeff.dim)
    flat = coeff.samples.reshape(-1, coeff.dim, coeff.dim)
    cols = np.column_stack([flat[:, i, j] for i, j in idx])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{coeff.dim} {coeff.n_grid} {len(idx)}\n")
        for row in cols:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_coefficient(path) -> PeriodicCoefficient:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValidationError("coefficient file must start with 'dim n_grid channels'")
        dim, n, channels = (int(x) for x in header)
        want = dim * (dim + 1) // 2
        if channels != want:
            raise ValidationError(f"expected {want} channels for dim {dim}, got {channels}")
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    cells = n ** dim
    if data.shape != (cells, channels):
        raise ValidationError(
            f"expected {cells} rows of {channels} floats, got shape {data.shape}"
        )
    flat = np.zeros((cells, dim, dim))
    for k, (i, j) in enumerate(_triu_indices(dim)):
        flat[:, i, j] = data[:, k]
        flat[:, j, i] = data[:, k]
    samples = flat.reshape((n,) * dim + (dim, dim))
    return PeriodicCoefficient(dim=dim, n_grid=n, samples=samples)


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def _cell_gradient(v: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Edge-averaged forward differences per cell into out, shape (dim,) + v.shape."""
    dim = v.ndim
    if out is None:
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


def _cell_gradient_adjoint(w: np.ndarray, h: float) -> np.ndarray:
    """Adjoint of _cell_gradient for the unweighted inner products."""
    dim = w.shape[0]
    out = np.zeros(w.shape[1:])
    for ax in range(dim):
        g = w[ax]
        for other in range(dim):
            if other != ax:
                g = g + np.roll(g, 1, axis=other)
        out += np.roll(g, 1, axis=ax)
        out -= g
    out *= 0.5 ** (dim - 1) / h
    return out


def _coeff_entries(samples: np.ndarray, delta: float) -> list[list[np.ndarray]]:
    """Contiguous entries of A + delta I; entry [j][i] is the array of [i][j]."""
    dim = samples.shape[-1]
    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        entries[i][i] = samples[..., i, i] + delta
        for j in range(i + 1, dim):
            entries[i][j] = entries[j][i] = samples[..., i, j].copy()
    return entries


def _apply_coeff(entries: list[list[np.ndarray]], w: np.ndarray) -> np.ndarray:
    """sum_j (A + delta I)_ij w_j per cell for a component-major field w."""
    out = np.empty(w.shape)
    term = np.empty(w.shape[1:])
    for i, row in enumerate(entries):
        np.multiply(row[0], w[0], out=out[i])
        for j in range(1, len(row)):
            out[i] += np.multiply(row[j], w[j], out=term)
    return out


@functools.lru_cache(maxsize=1)
def _precond_inverse(dim: int, n: int) -> np.ndarray:
    """Pseudo-inverse of the Fourier symbol of G^T G on the rfftn half spectrum.

    Kernel modes of the averaged-difference gradient (constant and
    checkerboard patterns) get zero and are projected out by the
    preconditioner.  The symbol is real and even in every wavenumber, so the
    half spectrum of the last axis (k = 0 .. n/2) carries all of it.  Cached
    per grid and read-only: every solve on the same (dim, n) shares it.
    """
    k = np.arange(n)
    phase = np.exp(2j * np.pi * k / n)
    diff2 = np.abs((phase - 1.0) * n) ** 2
    avg2 = np.abs(0.5 * (1.0 + phase)) ** 2
    sym = np.zeros((n,) * dim)
    for ax in range(dim):
        term = np.ones((n,) * dim)
        for other in range(dim):
            oshape = [1] * dim
            oshape[other] = n
            term *= (diff2 if other == ax else avg2).reshape(oshape)
        sym += term
    sym = sym[..., : n // 2 + 1]
    inv = np.zeros_like(sym)
    good = sym > 1e-12 * sym.max()
    inv[good] = 1.0 / sym[good]
    inv.setflags(write=False)
    return inv


def energy_of_field(coeff: PeriodicCoefficient, delta: float, direction,
                    corrector_grad: np.ndarray) -> float:
    """Quadrature of (lam + g) . A_delta (lam + g) over the cell grid."""
    lam = np.asarray(direction, dtype=float)
    if lam.shape != (coeff.dim,):
        raise ValidationError(f"direction must have shape ({coeff.dim},)")
    g = np.asarray(corrector_grad, dtype=float)
    want = (coeff.n_grid,) * coeff.dim + (coeff.dim,)
    if g.shape != want:
        raise ValidationError(f"corrector_grad must have shape {want}, got {g.shape}")
    field = g + lam
    flux = np.einsum("...ij,...j->...i", coeff.samples, field) + delta * field
    return float(np.sum(field * flux) * coeff.h ** coeff.dim)


def solve_cell_problem(coeff: PeriodicCoefficient, delta: float, direction,
                       cfg: SolverConfig = SolverConfig(),
                       initial: np.ndarray | None = None) -> CellSolution:
    """Minimize the regularized cell energy for one macroscopic direction.

    Preconditioned CG on G^T A_delta G v = -G^T A_delta lam with the
    constant-coefficient FFT preconditioner; converges when the relative
    residual drops below cfg.tol.  ``initial`` (node values, shape
    (n,)*dim, finite) starts the iteration; by default it starts at zero.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    lam = np.asarray(direction, dtype=float)
    if lam.shape != (coeff.dim,) or abs(np.linalg.norm(lam) - 1.0) > 1e-12:
        raise ValidationError("direction must be a unit vector of the grid dimension")
    n, h, dim = coeff.n_grid, coeff.h, coeff.dim
    grid = (n,) * dim
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != grid:
            raise ValidationError(f"initial must have shape {grid}, got {initial.shape}")
        if not np.all(np.isfinite(initial)):
            raise ValidationError("initial contains non-finite values")
    entries = _coeff_entries(coeff.samples, delta)

    def op(v):
        return _cell_gradient_adjoint(_apply_coeff(entries, _cell_gradient(v, h)), h)

    lam_field = np.broadcast_to(lam.reshape((dim,) + (1,) * dim), (dim,) + grid)
    r = _cell_gradient_adjoint(_apply_coeff(entries, lam_field), h)
    r *= -1.0  # the right-hand side b; the residual at v = 0
    bnorm = float(np.linalg.norm(r))

    inv_sym = _precond_inverse(dim, n)
    scale = 1.0 / (float(np.einsum("...ii->...", coeff.samples).mean() / dim) + delta)
    axes = tuple(range(dim))

    def precond(r):
        z = np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_sym, s=grid, axes=axes)
        z *= scale
        return z

    v = np.zeros(grid)
    rel = 0.0
    it = 0
    if bnorm > 0.0:
        if initial is not None:
            v[...] = initial
            r -= op(v)
        z = precond(r)
        p = z.copy()
        rz = float(np.vdot(r, z))
        rel = float(np.linalg.norm(r)) / bnorm
        while not rel <= cfg.tol:
            if it >= cfg.max_iter or not math.isfinite(rel):
                raise ConvergenceError(
                    f"cell problem CG stopped after {it} iterations "
                    f"(limit {cfg.max_iter}, residual {rel:.3e})", rel)
            ap = op(p)
            alpha = rz / float(np.vdot(p, ap))
            v += alpha * p
            ap *= alpha
            r -= ap
            del ap  # free before the next op(p)
            rel = float(np.linalg.norm(r)) / bnorm
            z = precond(r)
            rz_new = float(np.vdot(r, z))
            p *= rz_new / rz
            p += z
            rz = rz_new
            it += 1
        del z, p
        v -= v.mean()
    # Free all but v: the gradient and energy fields below set the peak memory.
    del r, entries, op, precond
    grad = np.empty(grid + (dim,))
    _cell_gradient(v, h, out=np.moveaxis(grad, -1, 0))
    return CellSolution(delta=delta, direction=lam, corrector=v,
                        corrector_grad=grad,
                        energy=energy_of_field(coeff, delta, lam, grad),
                        residual=rel, iterations=it)


def homogenize_general(coeff: PeriodicCoefficient,
                       cfg: SolverConfig = SolverConfig()) -> ExtrapolationResult:
    """Effective tensor of a grid coefficient via the vanishing-delta schedule.

    Solves one corrector v_i per axis e_i for each delta (warm-starting
    along the schedule).  A*_delta[i, i] is that solve's energy and column i
    is the mean flux mean A_delta (e_i + grad v_i), symmetrized.  The
    delta -> 0 limit is estimated by the straight line through the two
    smallest delta.  ``fit_residual`` is the largest relative deviation of
    the remaining schedule points from that line; ``monotone`` flags whether
    A*_delta decreased as quadratic forms along the schedule; ``stalled``
    (estimate withheld) flags a clearly non-PSD extrapolation.
    """
    deltas = cfg.deltas()
    dim = coeff.dim
    flat = coeff.samples.reshape(-1, dim, dim)
    cells = flat.shape[0]
    mean_a = flat.mean(axis=0)
    table = np.zeros((len(deltas), dim, dim))
    iterations = np.zeros((len(deltas), dim), dtype=int)
    residuals = np.zeros((len(deltas), dim))
    for i, lam in enumerate(np.eye(dim)):
        guess = None
        for k, delta in enumerate(deltas):
            sol = solve_cell_problem(coeff, delta, lam, cfg, initial=guess)
            # grad v_i has zero mean, so delta I contributes delta e_i exactly
            # samples are symmetric, so rows of flat.reshape(-1, dim) give A grad
            table[k, :, i] = mean_a[:, i] + delta * lam + (
                flat.reshape(-1, dim).T @ sol.corrector_grad.reshape(-1)) / cells
            table[k, i, i] = sol.energy
            iterations[k, i] = sol.iterations
            residuals[k, i] = sol.residual
            guess = sol.corrector
            del sol  # free the gradient field before the next solve
    tensors = list(0.5 * (table + table.transpose(0, 2, 1)))
    monotone = True
    scale = max(1.0, float(np.abs(tensors[0]).max()))
    for k in range(len(deltas) - 1):
        diff = tensors[k] - tensors[k + 1]
        if np.linalg.eigvalsh(diff).min() < -1e-8 * scale:
            monotone = False
    if len(deltas) >= 2:
        d1, d0 = deltas[-2], deltas[-1]
        t1, t0 = tensors[-2], tensors[-1]
        slope = (t1 - t0) / (d1 - d0)
        estimate = t0 - slope * d0
        fit_residual = 0.0
        for k in range(len(deltas)):
            pred = estimate + slope * deltas[k]
            fit_residual = max(fit_residual, float(
                np.abs(pred - tensors[k]).max() / scale))
    else:
        estimate = tensors[-1]
        fit_residual = 0.0
    estimate = 0.5 * (estimate + estimate.T)
    stalled = bool(np.linalg.eigvalsh(estimate).min()
                   < -1e-3 * max(1.0, float(np.abs(estimate).max())))
    return ExtrapolationResult(
        deltas=deltas,
        tensors=tensors,
        estimate=None if stalled else estimate,
        fit_residual=fit_residual,
        monotone=monotone,
        stalled=stalled,
        iterations=iterations,
        residuals=residuals,
    )
