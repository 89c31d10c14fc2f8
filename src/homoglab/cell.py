"""Periodic cell problems for grid-sampled PSD coefficients.

A Y_d-periodic coefficient A(y) that may be degenerate is replaced by
A + delta I for a schedule of shrinking delta.  Per axis e_i the corrector
v_i minimizes sum_cells (e_i + grad v) . A_delta (e_i + grad v) h^d over
periodic v, and the classical cell formula A*_delta e_i = mean A_delta
(e_i + grad v_i) gives the tensor (``homogenize_general``).  The delta -> 0
limit is a linear Richardson fit through the two smallest delta.

Discretization: corrector values live on the periodic node grid, the
coefficient is sampled at cell centers, and the gradient is the
edge-averaged first-order difference per cell (the Q1 element with
one-point quadrature), exact under axis permutations and reflections of
the grid.  A coefficient is its upper-triangle channels from file to CG,
with no array for a channel that is zero in every cell, and every other
field-sized step works in blocks of VALIDATE_BLOCK cells.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ValidationError

DELTA_SHRINK = 4.0


@dataclass(frozen=True)
class SolverConfig:
    """Cell solver controls.

    ``tol``: every entry of every A*_delta is certified within tol max(1,
    |mean A|) of the exact discrete value (``homogenize_general``).
    ``max_iter``: the iteration cap of each CG run.  ``delta0`` and
    ``n_delta``: the delta schedule.
    """

    tol: float = 1e-9
    max_iter: int = 20000
    delta0: float = 1e-1
    n_delta: int = 6

    def deltas(self) -> np.ndarray:
        """delta0 shrunk n_delta - 1 times, the smallest checked > 0 first."""
        if not (self.n_delta >= 1 and self.delta0 * DELTA_SHRINK ** (1 - self.n_delta) > 0):
            raise ValidationError("the delta schedule needs n_delta >= 1 and delta > 0")
        return self.delta0 * DELTA_SHRINK ** (-np.arange(self.n_delta, dtype=float))


# The one block size: cells per pass of the PSD check, 16 times the lines
# per chunk of a text table (a chunk is held as Python strings, several
# times the bytes of its parsed rows), and the most cells in a slab of the
# G0^T A G0 sweep (which takes at least one plane).  Beyond the coefficient,
# the CG fields (one of them the right-hand side), an FFT's half spectrum
# and the cached preconditioner symbol, no step holds more than a few
# blocks of work memory.
VALIDATE_BLOCK = 1 << 14


def _check_grid(dim: int, n: int) -> None:
    """dim is 2 or 3 and n a power of two >= 4: a coefficient's, or a file header's."""
    if dim not in (2, 3):
        raise ValidationError(f"dim must be 2 or 3, got {dim}")
    if n < 4 or (n & (n - 1)) != 0:
        raise ValidationError(f"n_grid must be a power of two >= 4, got {n}")


def _triu_indices(dim: int) -> list[tuple[int, int]]:
    """The (i, j), i <= j, of the channels: the row-major upper triangle."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _certified(part: list, dim: int, shift: float) -> np.ndarray:
    """Mask of the cells of the channel block ``part`` (one slice of the
    same cells per channel, None for a zero channel, read as the scalar 0)
    whose A + shift I has only positive pivots in LDL^T, run in closed
    form on the upper triangle.  Its backward error is O(dim u |A|)
    (Higham 2002, ch. 10), so a certified cell has eigenvalues >= -shift
    - O(u |A|)."""
    pairs = _triu_indices(dim)
    zero = np.float64(0.0)
    schur = {ij: zero if c is None else c for ij, c in zip(pairs, part)}
    ok = np.ones(np.broadcast_shapes(*map(np.shape, part)), dtype=bool)
    with np.errstate(all="ignore"):  # a zero or negative pivot only fails its cell
        for i in range(dim):
            schur[i, i] = schur[i, i] + shift
        for k in range(dim):
            ok &= schur[k, k] > 0
            for i, j in pairs:
                # 0 * 0 / pivot is +0 in every cell still certified, and
                # subtracting +0 changes no value
                if i > k and not (schur[k, i] is zero and schur[k, j] is zero):
                    schur[i, j] = schur[i, j] - schur[k, i] * schur[k, j] / schur[k, k]
    return ok


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Cell-centered samples of a periodic symmetric PSD coefficient field.

    Stored as its dim (dim + 1) / 2 upper-triangle channels: ``channels``
    is a tuple whose entry k holds entry ``_triu_indices(dim)[k]`` of every
    cell (the file format's order: a11 a12 a22, or a11 a12 a13 a22 a23
    a33), either as one C-contiguous n^dim array or, for a channel that is
    zero in every cell, as None: no array is kept for it.  Cell (i, j, ...)
    covers [i h, (i+1) h) x ... with h = 1/n and is sampled at its center.
    ``channels`` may be given as one stacked array of shape (dim (dim + 1)
    / 2,) + (n,)*dim, whose zero channels are then dropped, or as a
    sequence of that many (n,)*dim arrays or None.  Full per-cell matrices
    may be given instead as ``samples``, shape (n,)*dim + (dim, dim); only
    their nonzero channels are built, and the matrices are not kept.
    """

    dim: int
    n_grid: int
    channels: tuple | np.ndarray | None = None
    samples: InitVar[np.ndarray | None] = None

    def __post_init__(self, samples):
        _check_grid(self.dim, self.n_grid)
        n = self.n_grid
        if (samples is None) == (self.channels is None):
            raise ValidationError("give exactly one of channels and samples")
        grid = (n,) * self.dim
        pairs = _triu_indices(self.dim)
        if samples is not None:
            a = np.asarray(samples, dtype=float)
            if a.shape != grid + (self.dim, self.dim):
                raise ValidationError(
                    f"samples must have shape {grid + (self.dim, self.dim)}, got {a.shape}")
            # min and max are NaN or infinite exactly when some entry is
            lo, hi = float(a.min()), float(a.max())
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("samples contain non-finite values")
            scale = max(1.0, hi, -lo)
            for i, j in pairs:
                if i < j and np.abs(a[..., i, j] - a[..., j, i]).max() > 1e-12 * scale:
                    raise ValidationError("samples are not symmetric to 1e-12 relative")
            chans = [a[..., i, j].copy() if a[..., i, j].any() else None for i, j in pairs]
        else:
            if isinstance(self.channels, (list, tuple)):
                chans = [None if c is None else np.ascontiguousarray(c, dtype=float)
                         for c in self.channels]
                got = [None if c is None else c.shape for c in chans]
                if len(chans) != len(pairs) or any(g not in (None, grid) for g in got):
                    raise ValidationError(f"channels must hold {len(pairs)} arrays of "
                                          f"shape {grid} or None, got {got}")
            else:
                a = np.ascontiguousarray(self.channels, dtype=float)
                if a.shape != (len(pairs),) + grid:
                    raise ValidationError(
                        f"channels must have shape {(len(pairs),) + grid}, got {a.shape}")
                chans = list(a)
            # a missing channel is 0 in every cell; min and max are NaN or
            # infinite exactly when some entry is, and 0 both only for a
            # zero channel
            bounds = [(0.0, 0.0) if c is None else (float(c.min()), float(c.max()))
                      for c in chans]
            lo, hi = min(b[0] for b in bounds), max(b[1] for b in bounds)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("samples contain non-finite values")
            scale = max(1.0, hi, -lo)
            chans = [None if b == (0.0, 0.0) else c for c, b in zip(chans, bounds)]
        # A block of cells at a time, so no temporary is field-sized: LDL^T
        # of A + (tol / 2) I certifies a cell's eigenvalues >= -tol, and only
        # the cells it leaves go to eigvalsh, which decides them and gives
        # the smallest eigenvalue.  Valid degenerate cells have pivots near
        # tol / 2, far above the rounding, so they are certified too.
        tol = 1e-10 * scale
        flat = [None if c is None else c.reshape(-1) for c in chans]
        lowest = np.inf
        for start in range(0, n ** self.dim, VALIDATE_BLOCK):
            part = [None if c is None else c[start:start + VALIDATE_BLOCK] for c in flat]
            keep = ~_certified(part, self.dim, 0.5 * tol)
            if keep.any():
                mats = np.zeros((int(keep.sum()), self.dim, self.dim))
                for c, (i, j) in zip(part, pairs):
                    if c is not None:
                        mats[:, i, j] = mats[:, j, i] = c[keep]
                lowest = min(lowest, float(np.linalg.eigvalsh(mats).min()))
        if lowest < -tol:
            raise ValidationError(f"samples are not PSD (smallest eigenvalue {lowest:.3e})")
        object.__setattr__(self, "channels", tuple(chans))

    @property
    def h(self) -> float:
        return 1.0 / self.n_grid

    def entry(self, i: int, j: int) -> np.ndarray | None:
        """Entry (i, j) = (j, i) of every cell: its channel, not a copy, or
        None where that entry is 0 in every cell.  With i <= j that is
        channel i d - i (i - 1) / 2 + j - i of the row-major upper
        triangle."""
        i, j = min(i, j), max(i, j)
        return self.channels[i * self.dim - i * (i - 1) // 2 + j - i]


@dataclass(frozen=True)
class ExtrapolationResult:
    """A*_delta along the schedule plus the linear delta -> 0 estimate."""

    deltas: np.ndarray
    tensors: list[np.ndarray]
    estimate: np.ndarray | None
    fit_residual: float
    monotone: bool
    stalled: bool
    # [k, i]: the iteration of axis i's CG run at which delta_k stopped, its
    # relative residual there (reported, not a stop test) and the certified
    # bound on A*_delta[i, i] - the exact discrete value; shape (n_delta, dim)
    iterations: np.ndarray
    residuals: np.ndarray
    widths: np.ndarray


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
    """Write the stacked channel array, a zero channel as zeros, to a .npy
    path, else the text format: the header 'dim n_grid channels', then one
    cell per line, row-major."""
    stacked = np.zeros((len(coeff.channels),) + (coeff.n_grid,) * coeff.dim)
    for k, c in enumerate(coeff.channels):
        if c is not None:
            stacked[k] = c
    if Path(path).suffix == ".npy":
        np.save(path, stacked)
        return
    cols = stacked.reshape(len(stacked), -1).T
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{coeff.dim} {coeff.n_grid} {len(stacked)}\n")
        for row in cols:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _table_rows(lines: list[str]) -> np.ndarray:
    """The rows ``np.loadtxt`` gives for ``lines``, each distinct line parsed
    once: one row per data line, in order, blank and '#' comment lines
    skipped."""
    # Hashing every line would slow a table with no repeats.  The rows of a
    # piecewise-constant field come in runs, so lines with no two equal
    # neighbours are parsed as they are.
    repeats = any(map(operator.eq, lines, lines[1:]))
    distinct = list(dict.fromkeys(lines)) if repeats else lines
    with warnings.catch_warnings():  # numpy's note on lines that hold no data
        warnings.filterwarnings("ignore", ".* contained no data", UserWarning)
        table = np.loadtxt(distinct, dtype=float, ndmin=2)
    if len(distinct) == len(lines):  # the parsed lines are the chunk
        return table
    row_of = dict(zip(distinct, range(len(distinct))))
    at = np.fromiter(map(row_of.__getitem__, lines), np.intp, len(lines))
    if len(table) < len(distinct):  # loadtxt skipped blank and comment lines
        data = np.array([bool(line.partition("#")[0].strip()) for line in distinct])
        at = (np.cumsum(data) - 1)[at[data[at]]]  # distinct index -> table row
    return table[at]


def load_coefficient(path) -> PeriodicCoefficient:
    """Read a coefficient file: a .npy channel array, else the text format.

    Either way the result holds the channels and nothing else, and the
    header is checked before the data are read: a .npy header's dtype and
    shape against the bytes after it, a text header's dim, n_grid and
    channel count.  A .npy file's channels are views of its one array.  A
    text table is read VALIDATE_BLOCK // 16 lines at a time:
    ``np.loadtxt`` parses each distinct line of the chunk once (the whole
    chunk when no line repeats its neighbour), and the chunk's rows are
    written straight into the channels.  A channel's n_grid^dim array is
    allocated, as zeros, at the first chunk that holds a nonzero value in
    it, so a channel that is zero in every cell never gets one.  So no
    field-sized table is held, and a piecewise-constant field's few
    distinct rows are parsed a few times a chunk, not once a cell.  Blank
    lines and '#' comments are skipped as by ``np.loadtxt``, whose values
    these are; the table must hold n_grid^dim rows of as many floats as
    there are channels.
    """
    if Path(path).suffix == ".npy":
        fmt = np.lib.format
        try:  # np.load allocates the header's shape before it reads the data
            with open(path, "rb") as fh:
                version = fmt.read_magic(fh)
                shape, _, dtype = (fmt.read_array_header_1_0 if version == (1, 0)
                                   else fmt.read_array_header_2_0)(fh)
                data = Path(path).stat().st_size - fh.tell()
        except (ValueError, EOFError) as exc:
            raise ValidationError(f"{path} is not a .npy array: {exc}") from None
        if (dtype.kind not in "iuf" or len(shape) not in (3, 4)
                or math.prod(shape) * dtype.itemsize > data):
            raise ValidationError(
                f"{path} must hold a real array of shape (channels,) + (n,)*dim, "
                f"got {dtype} {shape} with {data} bytes of data")
        return PeriodicCoefficient(dim=len(shape) - 1, n_grid=shape[-1],
                                   channels=np.load(path, allow_pickle=False))
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
        cells = n ** dim
        # a row takes 2 bytes a float or more (the header's newline covers a last
        # row without one): a shorter file is parsed, for the refusal, not stored
        store = Path(path).stat().st_size >= 2 * count * cells
        flat = [None] * count  # a channel is allocated at its first nonzero value
        rows, cols = 0, 0  # table rows read so far, and the floats per row
        while True:
            try:  # a byte that is not UTF-8 raises while the lines are read
                lines = list(itertools.islice(fh, max(1, VALIDATE_BLOCK // 16)))
                block = _table_rows(lines)
            except ValueError as exc:
                raise ValidationError(f"{bad} ({exc}, in the block after row {rows})") from None
            if not lines:
                break
            if not len(block):  # blank and comment lines only
                continue
            if rows and block.shape[1] != cols:
                raise ValidationError(f"{bad} (the number of columns changed from "
                                      f"{cols} to {block.shape[1]} after row {rows})")
            cols = block.shape[1]
            if store and cols == count and rows + len(block) <= cells:
                for k in np.flatnonzero(block.any(axis=0)):
                    if flat[k] is None:
                        flat[k] = np.zeros(cells)
                for k, c in enumerate(flat):
                    if c is not None:
                        c[rows:rows + len(block)] = block[:, k]
            rows += len(block)
    if (rows, cols) != (cells, count):
        raise ValidationError(
            f"expected {cells} rows of {count} floats, got shape {(rows, cols)}")
    return PeriodicCoefficient(dim=dim, n_grid=n, channels=[
        None if c is None else c.reshape((n,) * dim) for c in flat])


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------
#
# The solver runs on G0, the integer stencil of the gradient per cell:
# component ax is the forward difference along ax summed over the cell's
# parallel edges, i.e. forward sums along every other axis.  The gradient
# is G = s G0, s = 0.5^(dim-1) / h: on G0 the right-hand sides are -1/s
# times G's and the solutions -s times, so s cancels from B^T V and every
# Gauss sum, exactly, as s is a power of two.
# Each factor of G0 acts along one axis, so G0 of the cells in a slab of
# axis-0 planes [a, b) reads node planes a .. b, and G0^T of their fields
# writes node planes a .. b.  The operators below sweep such slabs,
# VALIDATE_BLOCK cells at a time, reading and writing views: no halo copy.


def _periodic(op, x: np.ndarray, ax: int, step: int, out: np.ndarray) -> None:
    """out[k] = op(x[k + step], x[k]) along axis ax, periodic, step = +-1.

    x and out are C-contiguous and do not share memory.  One pass over the
    flat arrays shifted by one step along ax, then the wrapped hyperplane:
    contiguous operands need no ufunc buffers, strided ones would.
    """
    s = math.prod(x.shape[ax + 1:])
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    lead = (slice(None),) * ax
    first, last = lead + (slice(None, 1),), lead + (slice(-1, None),)
    if step > 0:
        op(flat[s:], flat[:-s], out=flat_out[:-s])
        op(x[first], x[last], out=out[last])
    else:
        op(flat[:-s], flat[s:], out=flat_out[s:])
        op(x[last], x[first], out=out[first])


def _chain(x: np.ndarray, stencils, out: np.ndarray, tmp: np.ndarray) -> None:
    """Apply the in-plane stencils (op, axis, step) to x in turn, ending in out.

    Intermediates alternate between out and tmp; x is not written.
    """
    for k, (op, ax, step) in enumerate(stencils):
        dst = out if (len(stencils) - k) % 2 else tmp
        _periodic(op, x, ax, step, dst)
        x = dst


def _across(op, p: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
    """out[k] = op(p[a + k + 1], p[a + k]) for the planes k < b - a of a slab.

    Views of p only: the last slab reads plane 0 across the wrap.
    """
    if b < len(p):
        op(p[a + 1:b + 1], p[a:b], out=out)
    else:
        op(p[a + 1:b], p[a:b - 1], out=out[:-1])
        op(p[0], p[b - 1], out=out[-1])


def _sweep(out: np.ndarray, flux, slots: int) -> None:
    """out = G0^T w, one sweep over slabs of axis-0 planes.

    A slab holds at most VALIDATE_BLOCK cells (at least one plane).
    ``flux(a, b, work)`` returns the dim components of w on the cells of
    planes [a, b), None for a component that is 0 there; ``work`` holds
    ``slots`` >= dim scratch fields of the slab's shape, and the first dim
    of them are the sweep's own once flux has returned.  Node plane j
    takes (T - U)[j] + (T + U)[j - 1], where U is the in-plane adjoint of
    component 0 and T the sum of the others'; each slab writes its planes
    and carries the plane it owes the next, and the last slab's carry is
    added to plane 0.  On a grid of one block the sweep is the whole-grid
    slice stencil.
    """
    dim, n = out.ndim, len(out)
    step = max(1, VALIDATE_BLOCK // out[0].size)
    # one array for all slots: with one array per slot, glibc returned the
    # freed blocks to the system and faulted them in again on every call
    work = np.empty((slots, min(step, n)) + out.shape[1:])
    carry = np.empty(out.shape[1:])
    sums = [(np.add, o, -1) for o in range(1, dim)]
    for a in range(0, n, step):
        b = min(a + step, n)
        w = flux(a, b, work[:, :b - a])
        t, u, tmp = work[:3, :b - a] if dim > 2 else (*work[:2, :b - a], None)
        for ax in range(1, dim):
            if w[ax] is None:  # a zero component adds nothing
                if ax == 1:
                    t[...] = 0.0
                continue
            other = [s for s in sums if s[1] != ax] + [(np.subtract, ax, -1)]
            _chain(w[ax], other, t if ax == 1 else u, tmp)
            if ax > 1:
                t += u
        if w[0] is None:
            u[...] = 0.0
        else:
            _chain(w[0], sums, u, tmp)
        np.subtract(t, u, out=out[a:b])
        np.add(t, u, out=t)
        out[a + 1:b] += t[:-1]
        if a:
            out[a] += carry
        carry[...] = t[-1]
    out[0] += carry


def _adjoint(w, out: np.ndarray) -> np.ndarray:
    """out = G0^T w for the dim cell fields w (any sequence of them, None
    for a zero field)."""
    _sweep(out, lambda a, b, work: [None if c is None else c[a:b] for c in w], len(w))
    return out


def _stiffness(coeff: PeriodicCoefficient, p: np.ndarray, out: np.ndarray) -> list[float]:
    """out = G0^T A G0 p, one sweep over slabs of axis-0 planes; returns B^T p.

    Per slab: G0 p from views of p (differences and sums across the
    planes, then the in-plane stencils), A applied from views of the
    channels (no gather, and no product with a zero channel), and the
    adjoint written into out by ``_sweep``.  b_j . p = sum_cells (A G0 p)_j
    for b_j = G0^T A e_j: the flux, summed per slab.
    """
    dim = coeff.dim
    sums = [(np.add, o, 1) for o in range(1, dim)]
    flux_sums = np.zeros(dim)
    # row i of A: the (j, channel) of its entries that are not 0 everywhere
    rows = [[(j, c) for j in range(dim) if (c := coeff.entry(i, j)) is not None]
            for i in range(dim)]

    def flux(a, b, work):
        g, q = work[:dim], work[dim:]
        tmp = q[2] if dim > 2 else None
        _across(np.subtract, p, a, b, q[0])
        _across(np.add, p, a, b, q[1])
        _chain(q[0], sums, g[0], tmp)
        for ax in range(1, dim):
            _chain(q[1], [(np.subtract, ax, 1)] + [s for s in sums if s[1] != ax], g[ax], tmp)
        # q_i = sum_j A_ij g_j over the present A_ij, the next q as the
        # product buffer; the last q takes its products in g, as g is not
        # read again.  A dropped product is an exact zero, so q is unchanged
        for i, row in enumerate(rows):
            if not row:
                q[i] = 0.0
                continue
            (j, c), *rest = row
            np.multiply(c[a:b], g[j], out=q[i])
            for j, c in rest:
                q[i] += np.multiply(c[a:b], g[j], out=q[i + 1] if i < dim - 1 else g[j])
        np.add(flux_sums, q.sum(axis=tuple(range(1, dim + 1))), out=flux_sums)
        return q

    _sweep(out, flux, 2 * dim)
    return flux_sums.tolist()


@functools.lru_cache(maxsize=1)
def _precond_inverse(dim: int, n: int) -> np.ndarray:
    """Pseudo-inverse of the Fourier symbol of G0^T G0 on the rfftn half spectrum.

    G0_ax is a tensor product of 1D stencils: the difference v[k+1] - v[k]
    along ax and the sum v[k] + v[k+1] along each other axis.  So its
    symbol is sum_ax prod_o |s_o(k_o)|^2, broadcast from the 1D transforms
    of the two stencils, with no field-sized impulse; it is real and even
    in every wavenumber, so the half spectrum of the last axis (k = 0 ..
    n/2) carries all of it.  Kernel modes of G0 (constant and checkerboard
    patterns) get zero and are projected out by the preconditioner.
    Cached per grid and read-only: every solve on the same (dim, n) shares
    it.
    """
    stencils = np.zeros((2, n))
    stencils[0, :2] = 1.0        # sum
    stencils[1, :2] = -1.0, 1.0  # difference
    total, difference = np.abs(np.fft.fft(stencils)) ** 2
    sym = 0.0
    for ax in range(dim):
        term = 1.0
        for o in range(dim):
            factor = difference if o == ax else total
            if o == dim - 1:
                factor = factor[:n // 2 + 1]
            term = term * factor.reshape((-1,) + (1,) * (dim - 1 - o))
        sym = sym + term
    inv = np.zeros_like(sym)
    np.divide(1.0, sym, out=inv, where=sym > 1e-12 * sym.max())
    inv.setflags(write=False)
    return inv


def _precondition(r: np.ndarray, inv_sym: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = P r, P the pseudo-inverse of G0^T G0, with one half-spectrum temporary.

    rfft on the last axis makes the spectrum; fft and then ifft run in
    place on the other axes, in the order of ``rfftn``/``irfftn``; irfft
    writes into out.  The spectrum lives only during the call, so it and
    the operator's slab work are never held together.
    """
    axes = range(r.ndim - 1)
    spec = np.fft.rfft(r, axis=-1)
    for ax in reversed(axes):
        np.fft.fft(spec, axis=ax, out=spec)
    for part in (spec.real, spec.imag):  # a real factor, with no casting buffer
        part *= inv_sym
    for ax in axes:
        np.fft.ifft(spec, axis=ax, out=spec)
    return np.fft.irfft(spec, r.shape[-1], axis=-1, out=out)


def _rhs(coeff: PeriodicCoefficient, i: int, out: np.ndarray) -> np.ndarray:
    """out = b_i = G0^T A e_i, the right-hand side for axis e_i.

    Column i of A is read off the channels by the adjoint half of the
    sweep, a zero channel skipped.  G0^T of the constant field delta e_i
    vanishes, so b_i is the same for every delta of the schedule.
    """
    return _adjoint([coeff.entry(j, i) for j in range(coeff.dim)], out)


def _cg_failure(what, active, shifts, widths, limits, residuals) -> ConvergenceError:
    """ConvergenceError for a CG run that ``what`` (stopped, broke down),
    naming the active shift whose width lies furthest above its limit."""
    with np.errstate(all="ignore"):  # NaN counts as furthest
        ratio = np.nan_to_num(widths[active] / np.asarray(limits)[active], nan=np.inf)
    s = active[int(np.argmax(ratio))]
    return ConvergenceError(
        f"cell problem CG {what} with width {widths[s]:.3e} at shift {shifts[s]:.3e}, "
        f"against a threshold of {limits[s]:.3e}", float(residuals[s]))


def _shifted_cg(operator, inv_sym: np.ndarray, rhs: np.ndarray, shifts, limits, max_iter: int):
    """Preconditioned CG from zero on (K + s G0^T G0) v_s = rhs, all s > 0 at once.

    ``operator(p, out)`` writes K p into out and returns the rhs.ndim
    numbers B^T p (here K = G0^T A G0, B the right-hand sides G0^T A e_j:
    ``_stiffness``), ``inv_sym`` is the half-spectrum pseudo-inverse of the
    symbol of G0^T G0 (``_precond_inverse``), and ``shifts`` are the s > 0
    of the systems to solve.  With P that pseudo-inverse, P (K + s G0^T G0)
    is the base's preconditioned operator plus s I: the Krylov space is
    shared, the residuals stay collinear, r_s = zeta_s r, and the zeta /
    alpha / beta recurrences of multi-shift CG (Jegerlehner 1996; van den
    Eshof & Sleijpen 2004) give every shift's steps from the one base run.
    The base is singular where A is, but consistent (rhs = G0^T A e_i lies
    in its range), so in exact arithmetic PCG from zero does not break down
    before the shifts converge (Kaasschieter 1988).  In floating point the
    rounding leaves a component outside the range, and far below grid
    resolution (the 16^2 I/0 checkerboard at delta_min <= 5.6e-18) p^T K p
    can reach 0; a p^T K p that is not > 0 raises ConvergenceError.

    Per cell (divided by rhs.size), with M_s = K + s G0^T G0: each shift
    carries the Hestenes-Stiefel sum g_s = sum_k alpha_s zeta_s^2 r.z, the
    Gauss value of rhs^T M_s^+ rhs, which it never exceeds, and a bound
    ``width`` on the energy error rhs^T M_s^+ rhs - g_s (Golub & Meurant
    2010; Meurant & Tichy 2024).  PK + s I >= s on the range of P, so
    Gauss-Radau with its node at s gives width = at zeta_s^2 r.z, with at
    = 1/s at step 0 and at <- (at - alpha_s) / (s (at - alpha_s) + beta_s)
    after each preconditioning; before it, M_s >= s G0^T G0 and Parseval
    give the cheaper zeta_s^2 |r|^2 max(inv_sym) / s.  Shift s stops, its
    zeta no longer updated (which would underflow), at the first of these
    bounds that is <= limits[s]: a run of k iterations applies the
    preconditioner k times (the first at step 0), and k + 1 if its last
    shift to stop needed the Radau bound.  A NaN bound never stops a shift.

    No iterate is formed: each shift also carries B^T v_s, recurred from
    B^T z = B^T p_k - beta B^T p_{k-1}.  The fields are r (``rhs`` itself,
    overwritten), p and one buffer that holds P r and then K p.  Returns,
    per shift, B^T v_s / cells (shape (len(shifts), rhs.ndim)), g_s, the
    width at the stop, the stop iteration and the relative residual there.
    """
    shifts = [float(s) for s in shifts]
    cells = rhs.size
    iterations = np.zeros(len(shifts), dtype=int)
    residuals, widths, gauss = np.zeros((3, len(shifts)))
    bb = float(np.vdot(rhs, rhs))
    if bb == 0.0:
        return np.zeros((len(shifts), rhs.ndim)), gauss, widths, iterations, residuals

    r = rhs
    z = np.empty_like(r)  # P r, then K p
    top = float(inv_sym.max()) / cells
    # Per shift, as Python floats: (zeta_{k-1}, zeta_k), B^T p_s and B^T v_s,
    # replaced, never changed in place, the Radau at and the shift's own
    # alpha (step) and beta (carry); ``gauss`` holds the sums.  Step 0 has
    # p_{-1} = 0, beta = 0 and the last step 0, which leaves at = 1/s.
    zeta = [(1.0, 1.0)] * len(shifts)
    read_p = [[0.0] * rhs.ndim] * len(shifts)
    read_v = list(read_p)
    radau = [1.0 / s for s in shifts]
    steps = [0.0] * len(shifts)
    carry = [0.0] * len(shifts)
    read_last = [0.0] * rhs.ndim  # B^T p_{k-1}
    alpha_old = 1.0
    active = range(len(shifts))
    it = 0
    while True:
        rr = float(np.vdot(r, r))
        rel = math.sqrt(rr / bb)
        for s in active:
            iterations[s] = it
            residuals[s] = abs(zeta[s][1]) * rel
            widths[s] = zeta[s][1] ** 2 * rr * top / shifts[s]
        active = [s for s in active if not widths[s] <= limits[s]]  # NaN stays
        if active:
            _precondition(r, inv_sym, z)
            rz_new = float(np.vdot(r, z))
            beta = rz_new / rz if it else 0.0
            rz = rz_new
            for s in active:
                # at <= 1/s, and at - alpha_s > 0, in exact arithmetic; should
                # rounding break the second, 1/s is an upper bound still
                z1, z2 = zeta[s]
                carry[s] = beta * (z2 / z1) ** 2
                at, shift = radau[s] - steps[s], shifts[s]
                radau[s] = at / (shift * at + carry[s]) if at > 0.0 else 1.0 / shift
                widths[s] = radau[s] * z2 * z2 * rz / cells
            active = [s for s in active if not widths[s] <= limits[s]]
        if not active:
            break
        if it >= max_iter or not np.all(np.isfinite(widths[active])):
            raise _cg_failure(f"stopped after {it} iterations (limit {max_iter})",
                              active, shifts, widths, limits, residuals)
        if it:
            p *= beta
            p += z
        else:  # after the first preconditioner: its spectrum is not held beside p
            p = z.copy()
        read = operator(p, z)
        read_z = [w - beta * q for w, q in zip(read, read_last)]
        read_last = read
        for s in active:
            read_p[s] = [zeta[s][1] * w + carry[s] * q for w, q in zip(read_z, read_p[s])]
        pkp = float(np.vdot(p, z))
        if not pkp > 0.0:
            raise _cg_failure(f"broke down at iteration {it} (p^T K p = {pkp:.3e})",
                              active, shifts, widths, limits, residuals)
        alpha = rz / pkp
        z *= alpha
        r -= z
        for s in active:
            # zeta_{k+1}, then the shift's own alpha (step)
            z0, z1 = zeta[s]
            z2 = z1 * z0 * alpha_old / (alpha * beta * (z0 - z1)
                                        + z0 * alpha_old * (1.0 + shifts[s] * alpha))
            steps[s] = step = alpha * z2 / z1
            gauss[s] += step * z1 * z1 * rz / cells
            read_v[s] = [v + step * q for v, q in zip(read_v[s], read_p[s])]
            zeta[s] = (z1, z2)
        alpha_old = alpha
        it += 1
    return np.array(read_v) / cells, gauss, widths, iterations, residuals


def homogenize_general(coeff: PeriodicCoefficient,
                       cfg: SolverConfig = SolverConfig()) -> ExtrapolationResult:
    """Effective tensor of a grid coefficient via the vanishing-delta schedule.

    One multi-shift CG run per axis e_i, started from zero (no warm start)
    and based at A itself, with the schedule's delta as the shifts, solves
    the corrector v_i^delta for every delta.  By adjointness the tensor
    needs no corrector field: A*_delta = mean(A) + delta I - B^T V_delta /
    cells, where the columns of B are the delta-independent right-hand sides
    b_j = G0^T A e_j of the integer stencil G0 (not stored: ``_stiffness``
    returns B^T p, and b_i is overwritten as the CG residual) and those of
    V_delta the correctors; ``_shifted_cg`` returns B^T V_delta / cells off
    the diagonal, and each shift's Gauss value gives the diagonal.

    What ``cfg.tol`` certifies: every entry of every A*_delta is within tau
    = tol max(1, |mean A|) of the exact discrete value.  The diagonal's
    error is at most its Gauss-Radau width; the read-out b_i^T v_j / cells
    errs by at most sqrt(q_i width_j), where q_i >= b_i^T M^+ b_i / cells is
    known before any run (0 when b_i = 0).  So shift delta of run j stops
    at width <= min(tau, tau^2 / max_{i != j} q_i), the q term dropped when
    every other q_i is 0, and the off-diagonals, symmetrized, are within
    tau too.  Every run answers to every other, so no result depends on
    the order of the axes.  ``iterations[k, i]``, ``residuals[k, i]`` and
    ``widths[k, i]`` are the iteration of axis i's run at which delta_k
    stopped, the relative residual there (reported, not a stop test) and
    the width.

    The delta -> 0 limit is estimated by the straight line through the two
    smallest delta.  ``fit_residual`` is the largest relative deviation of
    the remaining schedule points from that line; ``monotone`` flags
    whether A*_delta decreased as quadratic forms along the schedule;
    ``stalled`` (estimate withheld) flags a clearly non-PSD extrapolation.
    """
    deltas = cfg.deltas()
    dim = coeff.dim
    cells = coeff.n_grid ** dim
    mean_a = np.zeros((dim, dim))
    for c, (i, j) in zip(coeff.channels, _triu_indices(dim)):
        if c is not None:
            mean_a[i, j] = mean_a[j, i] = c.mean()
    tau = cfg.tol * max(1.0, float(np.abs(mean_a).max()))
    rhs = np.empty((coeff.n_grid,) * dim)  # each axis's b_i, then its CG residual
    operator = functools.partial(_stiffness, coeff)
    inv_sym = _precond_inverse(dim, coeff.n_grid)
    table = np.empty((len(deltas), dim, dim))
    iterations = np.empty((len(deltas), dim), dtype=int)
    residuals = np.empty((len(deltas), dim))
    widths = np.empty((len(deltas), dim))
    # q[k, i] >= b_i^T M^+ b_i / cells at delta_k, before any run: A*_delta >=
    # delta I bounds it by mean(A)_ii, and M >= delta G0^T G0 by |b_i|^2
    # max(inv_sym) / (delta cells), which is 0 when b_i = 0.  The b_i are
    # formed last to first, which leaves b_0 in place for the first run.
    q = np.empty((len(deltas), dim))
    for i in reversed(range(dim)):
        b = _rhs(coeff, i, rhs)
        q[:, i] = np.minimum(mean_a[i, i], float(np.vdot(b, b)) * inv_sym.max() / (deltas * cells))
    for j in range(dim):
        others = np.delete(q, j, axis=1).max(axis=1)
        limits = [tau if o == 0.0 else min(tau, tau * tau / o) for o in others]
        dots, gauss, widths[:, j], iterations[:, j], residuals[:, j] = _shifted_cg(
            operator, inv_sym, rhs if j == 0 else _rhs(coeff, j, rhs), deltas, limits,
            cfg.max_iter)
        table[:, :, j] = mean_a[:, j] - dots
        table[:, j, j] = mean_a[j, j] + deltas - gauss
    tensors = list(0.5 * (table + table.transpose(0, 2, 1)))
    scale = max(1.0, float(np.abs(tensors[0]).max()))
    monotone = not any(np.linalg.eigvalsh(t1 - t0).min() < -1e-8 * scale
                       for t1, t0 in zip(tensors, tensors[1:]))
    # a single delta is its own estimate: the line of slope 0
    slope = (tensors[-2] - tensors[-1]) / (deltas[-2] - deltas[-1]) if len(deltas) >= 2 else 0.0
    estimate = tensors[-1] - slope * deltas[-1]
    fit_residual = max(0.0, *(float(np.abs(estimate + slope * d - t).max())
                              for d, t in zip(deltas, tensors))) / scale
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
        widths=widths,
    )
