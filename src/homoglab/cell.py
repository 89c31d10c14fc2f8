"""Periodic cell problems for grid-sampled PSD coefficients.

Computes the effective tensor of a Y_d-periodic coefficient A(y) that may
be degenerate:  A is replaced by A + delta I, the corrector problem

    min over periodic v of  sum_cells  (lam + grad v) . A_delta (lam + grad v) h^d

is solved per axis e_i for a schedule of shrinking delta, and the
classical cell formula A*_delta e_i = mean A_delta (e_i + grad v_i) gives
the tensor.  The delta -> 0 limit is estimated by a linear Richardson fit
through the two smallest delta.

The right-hand side b_i = -G^T A e_i does not depend on delta, so the whole
schedule is one family of shifted systems (G^T A G + delta G^T G) v = b_i.
One multi-shift CG run per axis, started from zero (no warm start) and
based at A itself, with the schedule's delta as the shifts, solves all of
them; a shift is frozen once it has converged.  No corrector field is
formed: by adjointness A*_delta = mean(A) + delta I - B^T V_delta / cells,
with B the right-hand sides and V_delta the correctors, and each shift
carries only the numbers B^T v.

Discretization: corrector values live on the periodic node grid, the
gradient is the edge-averaged first-order difference per cell (exact under
axis permutations and reflections of the grid), and the coefficient is
sampled at cell centers.  CG works on component-major fields, shape
(dim,) + (n,)*dim, so each gradient component is one contiguous array.
The preconditioner is the pseudo-inverse of G^T G in Fourier space: its
symbol lives on the rfftn half spectrum and is built once per grid.

Storage: a coefficient is its dim (dim + 1) / 2 upper-triangle channels,
one contiguous n^dim array each, in the file format's order, from file to
CG; no per-cell dim x dim array is formed.  The solver copies nothing: the
operator's entries, the columns of A for the right-hand sides and mean(A)
are read from the channels.  Measured on a random 32^3 field:
homogenize_general peaks at about 12 n^3 doubles on top of the
coefficient's 6, and loading a text file at 12 (its table and the
channels).  The tests' corrector oracle runs a plain CG of its own.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass
from pathlib import Path

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
        """delta0 shrunk n_delta - 1 times, the smallest checked > 0 first."""
        if not (self.n_delta >= 1 and self.delta0 * DELTA_SHRINK ** (1 - self.n_delta) > 0):
            raise ValidationError("the delta schedule needs n_delta >= 1 and delta > 0")
        return self.delta0 * DELTA_SHRINK ** (-np.arange(self.n_delta, dtype=float))


VALIDATE_BLOCK = 1 << 14  # cells per pass of the PSD check


def _check_grid(dim: int, n: int) -> None:
    """dim is 2 or 3 and n a power of two >= 4: a coefficient's, or a file header's."""
    if dim not in (2, 3):
        raise ValidationError(f"dim must be 2 or 3, got {dim}")
    if n < 4 or (n & (n - 1)) != 0:
        raise ValidationError(f"n_grid must be a power of two >= 4, got {n}")


def _triu_indices(dim: int) -> list[tuple[int, int]]:
    """The (i, j), i <= j, of the channels: the row-major upper triangle."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _certified(part: np.ndarray, dim: int, shift: float) -> np.ndarray:
    """Mask of the cells, the columns of the channel block ``part``, whose
    A + shift I has only positive pivots in LDL^T, run in closed form on
    the upper triangle.  Its backward error is O(dim u |A|) (Higham 2002,
    ch. 10), so a certified cell has eigenvalues >= -shift - O(u |A|)."""
    pairs = _triu_indices(dim)
    schur = {ij: part[k] for k, ij in enumerate(pairs)}
    ok = np.ones(part.shape[1], dtype=bool)
    with np.errstate(all="ignore"):  # a zero or negative pivot only fails its cell
        for i in range(dim):
            schur[i, i] = schur[i, i] + shift
        for k in range(dim):
            ok &= schur[k, k] > 0
            for i, j in pairs:
                if i > k:
                    schur[i, j] = schur[i, j] - schur[k, i] * schur[k, j] / schur[k, k]
    return ok


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Cell-centered samples of a periodic symmetric PSD coefficient field.

    Stored as its dim (dim + 1) / 2 upper-triangle channels: ``channels`` has
    shape (dim (dim + 1) / 2,) + (n,)*dim, and channel k, one contiguous
    n^dim array, holds entry ``_triu_indices(dim)[k]`` of every cell (the
    file format's order: a11 a12 a22, or a11 a12 a13 a22 a23 a33).  Cell
    (i, j, ...) covers [i h, (i+1) h) x ... with h = 1/n and is sampled at
    its center.  Full per-cell matrices may be given instead as ``samples``,
    shape (n,)*dim + (dim, dim); they are converted once and not kept.
    """

    dim: int
    n_grid: int
    channels: np.ndarray | None = None
    samples: InitVar[np.ndarray | None] = None

    def __post_init__(self, samples):
        _check_grid(self.dim, self.n_grid)
        n = self.n_grid
        if (samples is None) == (self.channels is None):
            raise ValidationError("give exactly one of channels and samples")
        grid = (n,) * self.dim
        pairs = _triu_indices(self.dim)
        if samples is None:
            name, a = "channels", np.ascontiguousarray(self.channels, dtype=float)
            want = (len(pairs),) + grid
        else:
            name, a = "samples", np.asarray(samples, dtype=float)
            want = grid + (self.dim, self.dim)
        if a.shape != want:
            raise ValidationError(f"{name} must have shape {want}, got {a.shape}")
        # min and max are NaN or infinite exactly when some entry is
        lo, hi = float(a.min()), float(a.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError("samples contain non-finite values")
        scale = max(1.0, hi, -lo)
        if samples is not None:
            for i, j in pairs:
                if i < j and np.abs(a[..., i, j] - a[..., j, i]).max() > 1e-12 * scale:
                    raise ValidationError("samples are not symmetric to 1e-12 relative")
            a = np.stack([a[..., i, j] for i, j in pairs])
        # A block of cells at a time, so no temporary is field-sized: LDL^T
        # of A + (tol / 2) I certifies a cell's eigenvalues >= -tol, and only
        # the cells it leaves go to eigvalsh, which decides them and gives
        # the smallest eigenvalue.  Valid degenerate cells have pivots near
        # tol / 2, far above the rounding, so they are certified too.
        tol = 1e-10 * scale
        flat = a.reshape(len(pairs), -1)
        lowest = np.inf
        for start in range(0, flat.shape[1], VALIDATE_BLOCK):
            part = flat[:, start:start + VALIDATE_BLOCK]
            part = part[:, ~_certified(part, self.dim, 0.5 * tol)]
            if part.shape[1]:
                mats = np.empty((part.shape[1], self.dim, self.dim))
                for k, (i, j) in enumerate(pairs):
                    mats[:, i, j] = mats[:, j, i] = part[k]
                lowest = min(lowest, float(np.linalg.eigvalsh(mats).min()))
        if lowest < -tol:
            raise ValidationError(f"samples are not PSD (smallest eigenvalue {lowest:.3e})")
        object.__setattr__(self, "channels", a)

    @property
    def h(self) -> float:
        return 1.0 / self.n_grid

    def entry(self, i: int, j: int) -> np.ndarray:
        """Entry (i, j) = (j, i) of every cell: its channel, not a copy."""
        return self.channels[_triu_indices(self.dim).index((min(i, j), max(i, j)))]


@dataclass(frozen=True)
class ExtrapolationResult:
    """A*_delta along the schedule plus the linear delta -> 0 estimate."""

    deltas: np.ndarray
    tensors: list[np.ndarray]
    estimate: np.ndarray | None
    fit_residual: float
    monotone: bool
    stalled: bool
    # [k, i]: the iteration of axis i's CG run at which delta_k converged,
    # and its relative residual there; shape (n_delta, dim)
    iterations: np.ndarray
    residuals: np.ndarray


# ---------------------------------------------------------------------------
# coefficient constructors and file I/O
# ---------------------------------------------------------------------------

def constant_coefficient(matrix, dim: int, n_grid: int) -> PeriodicCoefficient:
    m = np.asarray(matrix, dtype=float)
    samples = np.broadcast_to(m, (n_grid,) * dim + m.shape)
    return PeriodicCoefficient(dim=dim, n_grid=n_grid, samples=samples)


def laminate_coefficient(phase1, phase2, theta: float, dim: int, n_grid: int,
                         axis: int = 0) -> PeriodicCoefficient:
    """Sample a rank-one laminate with normal along a grid axis."""
    if not 0 <= axis < dim:
        raise ValidationError(f"axis must be < dim, got {axis}")
    a1 = np.asarray(phase1, dtype=float)
    a2 = np.asarray(phase2, dtype=float)
    centers = (np.arange(n_grid) + 0.5) / n_grid
    shape = [1] * dim
    shape[axis] = n_grid
    mask = (centers < theta).reshape(shape + [1, 1])
    samples = np.broadcast_to(np.where(mask, a1, a2), (n_grid,) * dim + a1.shape)
    return PeriodicCoefficient(dim=dim, n_grid=n_grid, samples=samples)


def checkerboard_coefficient(alpha: float, beta: float, n_grid: int) -> PeriodicCoefficient:
    """2D checkerboard of isotropic phases alpha I and beta I (half-period cells)."""
    centers = (np.arange(n_grid) + 0.5) / n_grid
    ix = (centers < 0.5).astype(int)
    parity = ix[:, None] ^ ix[None, :]
    vals = np.where(parity[..., None, None] == 0, alpha, beta)
    samples = vals * np.eye(2)
    return PeriodicCoefficient(dim=2, n_grid=n_grid, samples=samples)


def save_coefficient(coeff: PeriodicCoefficient, path) -> None:
    """Write the channel array to a .npy path, else the text format: the
    header 'dim n_grid channels', then one cell per line, row-major."""
    if Path(path).suffix == ".npy":
        np.save(path, coeff.channels)
        return
    cols = coeff.channels.reshape(len(coeff.channels), -1).T
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{coeff.dim} {coeff.n_grid} {len(coeff.channels)}\n")
        for row in cols:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_coefficient(path) -> PeriodicCoefficient:
    """Read a coefficient file: a .npy channel array, else the text format.

    Either way the result is the channel array and nothing else: the text
    table is transposed into channels and dropped before validation.  A text
    header is checked (dim, n_grid, channel count) before the table is read.
    """
    if Path(path).suffix == ".npy":
        try:
            channels = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValidationError(f"{path} is not a .npy array: {exc}") from None
        if channels.dtype.kind not in "iuf" or channels.ndim not in (3, 4):
            raise ValidationError(
                f"{path} must hold a real array of shape (channels,) + (n,)*dim, "
                f"got {channels.dtype} {channels.shape}")
        return PeriodicCoefficient(dim=channels.ndim - 1, n_grid=channels.shape[-1],
                                   channels=channels)
    bad = "coefficient file must start with 'dim n_grid channels' and then hold floats"
    with open(path, "r", encoding="utf-8") as fh:
        try:
            dim, n, count = (int(x) for x in fh.readline().split())
        except ValueError as exc:
            raise ValidationError(f"{bad} ({exc})") from None
        _check_grid(dim, n)
        want = dim * (dim + 1) // 2
        if count != want:
            raise ValidationError(f"expected {want} channels for dim {dim}, got {count}")
        try:
            data = np.loadtxt(fh, dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{bad} ({exc})") from None
    cells = n ** dim
    if data.shape != (cells, count):
        raise ValidationError(
            f"expected {cells} rows of {count} floats, got shape {data.shape}"
        )
    channels = np.ascontiguousarray(data.T).reshape((count,) + (n,) * dim)
    del data
    return PeriodicCoefficient(dim=dim, n_grid=n, channels=channels)


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def _cell_gradient(v: np.ndarray, h: float) -> np.ndarray:
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


def _cell_gradient_adjoint(w, h: float) -> np.ndarray:
    """Adjoint of _cell_gradient for the unweighted inner products.

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


def _apply_coeff(coeff: PeriodicCoefficient, w: np.ndarray) -> np.ndarray:
    """sum_j A_ij w_j per cell for a component-major field w, A read off its channels."""
    out = np.empty(w.shape)
    term = np.empty(w.shape[1:])
    for i in range(coeff.dim):
        np.multiply(coeff.entry(i, 0), w[0], out=out[i])
        for j in range(1, coeff.dim):
            out[i] += np.multiply(coeff.entry(i, j), w[j], out=term)
    return out


@functools.lru_cache(maxsize=1)
def _precond_inverse(dim: int, n: int) -> np.ndarray:
    """Pseudo-inverse of the Fourier symbol of G^T G on the rfftn half spectrum.

    Kernel modes of the averaged-difference gradient (constant and
    checkerboard patterns) get zero and are projected out by the
    preconditioner.  The symbol is sum_ax |rfftn(G_ax impulse)|^2, read off
    the gradient operator itself; it is real and even in every wavenumber,
    so the half spectrum of the last axis (k = 0 .. n/2) carries all of it.
    Cached per grid and read-only: every solve on the same (dim, n) shares it.
    """
    impulse = np.zeros((n,) * dim)
    impulse[(0,) * dim] = 1.0
    sym = sum(np.abs(np.fft.rfftn(g)) ** 2 for g in _cell_gradient(impulse, 1.0 / n))
    inv = np.zeros_like(sym)
    good = sym > 1e-12 * sym.max()
    inv[good] = 1.0 / sym[good]
    inv.setflags(write=False)
    return inv


def _rhs(coeff: PeriodicCoefficient, i: int) -> np.ndarray:
    """b_i = -G^T A e_i, the right-hand side for axis e_i.

    Column i of A is read off the channels.  G^T of the constant field
    delta e_i vanishes, so b_i is the same for every delta of the schedule.
    """
    b = _cell_gradient_adjoint([coeff.entry(j, i) for j in range(coeff.dim)], coeff.h)
    b *= -1.0
    return b


def _shifted_cg(coeff: PeriodicCoefficient, rhs: np.ndarray, shifts,
                readout: np.ndarray, cfg: SolverConfig):
    """Preconditioned CG from zero on (G^T A G + s G^T G) v_s = rhs, all s at once.

    The base operator G^T A G is read off the coefficient's channels, and
    ``shifts`` are the s >= 0 of the systems to solve.  The preconditioner
    P is the pseudo-inverse of G^T G, so P (G^T A G + s G^T G) is the
    base's preconditioned operator plus s I: the Krylov space is shared,
    the residuals stay collinear, r_s = zeta_s r, and the zeta / alpha /
    beta recurrences of multi-shift CG (Jegerlehner 1996; van den Eshof &
    Sleijpen 2004) give every shift's steps from the one base run.  The
    base is singular where A is, but consistent (rhs = -G^T A e_i lies in
    its range), so PCG from zero does not break down before the shifts
    converge (Kaasschieter 1988).  Shift s is frozen (its zeta no longer
    updated, which would underflow) once |zeta_s| |r| / |rhs| <= cfg.tol.

    No iterate is formed, not even the base's: each shift carries only
    the numbers readout[j] . v_s, recurred from readout . z once per
    iteration.  The last iteration stops before the preconditioner, so a
    run of k iterations applies it k times, the first before the loop.
    Returns those numbers (shape (len(shifts), len(readout))),
    and per shift the iteration at which it froze and its relative residual
    there.
    """
    grid, h = rhs.shape, coeff.h
    axes = tuple(range(rhs.ndim))
    inv_sym = _precond_inverse(rhs.ndim, grid[0])
    rows = readout.reshape(len(readout), rhs.size)
    shifts = [float(s) for s in shifts]
    dots = np.zeros((len(shifts), len(rows)))
    iterations = np.zeros(len(shifts), dtype=int)
    residuals = np.zeros(len(shifts))
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return dots, iterations, residuals

    def precond(r):
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_sym, s=grid, axes=axes)

    r = rhs.copy()
    p = precond(r)
    rz = float(np.vdot(r, p))
    rel = 1.0
    # Per shift, as Python floats: (zeta_{k-1}, zeta_k), readout . p_s and
    # readout . v_s.  Entries are replaced, never changed in place.
    zeta = [(1.0, 1.0)] * len(shifts)
    read_p = [(rows @ p.reshape(-1)).tolist()] * len(shifts)
    read_v = [[0.0] * len(rows)] * len(shifts)
    alpha_old, beta_old = 1.0, 0.0
    active = range(len(shifts))
    it = 0
    while True:
        for s in active:
            iterations[s] = it
            residuals[s] = abs(zeta[s][1]) * rel
        active = [s for s in active if not residuals[s] <= cfg.tol]  # NaN stays
        if not active:
            break
        if it >= cfg.max_iter or not np.all(np.isfinite(residuals)):
            worst = float(residuals[active].max())
            raise ConvergenceError(
                f"cell problem CG stopped after {it} iterations "
                f"(limit {cfg.max_iter}, residual {worst:.3e})", worst)
        if it:
            # the previous step's search direction, preconditioned only now
            # that some shift still needs it: the last step skips it
            z = precond(r)
            rz_new = float(np.vdot(r, z))
            beta = rz_new / rz
            read_z = (rows @ z.reshape(-1)).tolist()
            for s in active:
                # the shift's own beta (carry)
                z1, z2 = zeta[s]
                carry = beta * (z2 / z1) ** 2
                read_p[s] = [z2 * w + carry * q for w, q in zip(read_z, read_p[s])]
            p *= beta
            p += z
            del z  # free before the operator application
            beta_old, rz = beta, rz_new
        ap = _cell_gradient_adjoint(_apply_coeff(coeff, _cell_gradient(p, h)), h)
        alpha = rz / float(np.vdot(p, ap))
        ap *= alpha
        r -= ap
        del ap  # free before the preconditioner
        rel = float(np.linalg.norm(r)) / bnorm
        for s in active:
            # zeta_{k+1}, then the shift's own alpha (step)
            z0, z1 = zeta[s]
            z2 = z1 * z0 * alpha_old / (alpha * beta_old * (z0 - z1)
                                        + z0 * alpha_old * (1.0 + shifts[s] * alpha))
            step = alpha * z2 / z1
            read_v[s] = [v + step * q for v, q in zip(read_v[s], read_p[s])]
            zeta[s] = (z1, z2)
        alpha_old = alpha
        it += 1
    dots[...] = read_v
    return dots, iterations, residuals


def homogenize_general(coeff: PeriodicCoefficient,
                       cfg: SolverConfig = SolverConfig()) -> ExtrapolationResult:
    """Effective tensor of a grid coefficient via the vanishing-delta schedule.

    One multi-shift CG run per axis e_i, started from zero (no warm start)
    and based at A itself, with the schedule's delta as the shifts, solves
    the corrector v_i^delta for every delta.  By adjointness the tensor
    needs no corrector field: A*_delta = mean(A) + delta I - B^T V_delta /
    cells, where the columns of B are the delta-independent right-hand sides
    b_j = -G^T A e_j and those of V_delta the correctors; it is
    symmetrized.  ``iterations[k, i]`` is the iteration of axis i's run at
    which delta_k converged.  The delta -> 0 limit is estimated by the
    straight line through the two smallest delta.  ``fit_residual`` is the
    largest relative deviation of the remaining schedule points from that
    line; ``monotone`` flags whether A*_delta decreased as quadratic forms
    along the schedule; ``stalled`` (estimate withheld) flags a clearly
    non-PSD extrapolation.
    """
    deltas = cfg.deltas()
    dim = coeff.dim
    cells = coeff.n_grid ** dim
    mean_a = np.empty((dim, dim))
    for k, (i, j) in enumerate(_triu_indices(dim)):
        mean_a[i, j] = mean_a[j, i] = coeff.channels[k].mean()
    rhs = np.empty((dim,) + coeff.channels.shape[1:])
    for i in range(dim):
        rhs[i] = _rhs(coeff, i)
    table = np.empty((len(deltas), dim, dim))
    iterations = np.empty((len(deltas), dim), dtype=int)
    residuals = np.empty((len(deltas), dim))
    for i in range(dim):
        dots, iterations[:, i], residuals[:, i] = _shifted_cg(coeff, rhs[i], deltas, rhs, cfg)
        table[:, :, i] = mean_a[:, i] - dots / cells
        table[:, i, i] += deltas
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
