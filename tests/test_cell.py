"""Tests for the regularized periodic cell solver."""

import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from homoglab import cell, cli, laminate
from homoglab.errors import ConvergenceError, ValidationError
from oracles import (apply_coeff, cell_gradient, cell_gradient_adjoint, energy_of_field,
                     full_samples, gradient_scale, psd_refusal, solve_cell_problem,
                     stacked_channels)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
I2 = np.eye(2)
E2XE2 = np.array([[0.0, 0.0], [0.0, 1.0]])


def delta_laminate_closed_form(a1, a2, theta, delta):
    """Classical lamination formula for the delta-shifted phases.

    Normal e1, phase a1 on the fraction theta, in 2D or 3D.
    """
    d = a1.shape[0]
    p1 = a1 + delta * np.eye(d)
    p2 = a2 + delta * np.eye(d)
    a = (1 - theta) * p1[0, 0] + theta * p2[0, 0]
    jump = (p2 - p1)[:, 0]
    return theta * p1 + (1 - theta) * p2 - theta * (1 - theta) / a * np.outer(jump, jump)


def rank_two(eta):
    eta = np.asarray(eta, dtype=float)
    return np.eye(3) - np.outer(eta, eta) / (eta @ eta)


def e2e2_checkerboard(n):
    """Checkerboard of e2 x e2 and I on half-period squares."""
    half = ((np.arange(n) + 0.5) / n < 0.5).astype(int)
    parity = half[:, None] ^ half[None, :]
    samples = np.where(parity[..., None, None] == 0, E2XE2, I2)
    return cell.PeriodicCoefficient(dim=2, n_grid=n, samples=samples)


def cold_tensor(co, delta, cfg):
    """A*_delta from independent single-delta solves per axis: the energy on
    the diagonal, the symmetrized mean flux A_delta (e_i + grad v_i) off it."""
    dim = co.dim
    flux = np.zeros((dim, dim))
    energy = np.zeros(dim)
    for i, lam in enumerate(np.eye(dim)):
        sol = solve_cell_problem(co, delta, lam, cfg)
        field = sol.corrector_grad + lam
        flux[:, i] = (np.einsum("...ij,...j->...i", full_samples(co), field)
                      + delta * field).mean(axis=tuple(range(dim)))
        energy[i] = sol.energy
    t = 0.5 * (flux + flux.T)
    t[np.diag_indices(dim)] = energy
    return t


def mean_abs(co):
    """|mean A|, the largest entry of the cell mean in absolute value."""
    return np.abs(stacked_channels(co).mean(axis=tuple(range(1, co.dim + 1)))).max()


def certified_tol(co, cfg):
    """tau = tol max(1, |mean A|): every entry of every A*_delta is within it."""
    return cfg.tol * max(1.0, mean_abs(co))


def random_psd_coefficient(dim, n, seed):
    b = np.random.default_rng(seed).normal(size=(n,) * dim + (dim, dim))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    return cell.PeriodicCoefficient(dim=dim, n_grid=n, samples=samples)


def diagonal_voxels(dim, n, seed):
    """A diagonal field of 8^dim voxels refined to n: each diagonal entry is
    0 with probability 0.3, else uniform in [1, 4], so |mean A| >= 1."""
    rng = np.random.default_rng(seed)
    shape = (8,) * dim + (dim,)
    d = np.where(rng.random(shape) < 0.3, 0.0, rng.uniform(1.0, 4.0, shape))
    for ax in range(dim):
        d = np.repeat(d, n // 8, axis=ax)
    return cell.PeriodicCoefficient(dim=dim, n_grid=n, samples=d[..., None] * np.eye(dim))


def with_zero_arrays(co):
    """co with every channel an array, a zero one as zeros: the products a
    skipped channel would have added are formed again."""
    full = cell.PeriodicCoefficient(dim=co.dim, n_grid=co.n_grid, channels=stacked_channels(co))
    object.__setattr__(full, "channels", tuple(stacked_channels(co)))
    return full


def test_coefficient_validation():
    with pytest.raises(ValidationError, match="power of two"):
        cell.PeriodicCoefficient(dim=2, n_grid=12, samples=np.zeros((12, 12, 2, 2)))
    bad = np.broadcast_to(np.diag([-1.0, 1.0]), (4, 4, 2, 2)).copy()
    with pytest.raises(ValidationError, match="PSD"):
        cell.PeriodicCoefficient(dim=2, n_grid=4, samples=bad)
    with pytest.raises(ValidationError, match="exactly one"):
        cell.PeriodicCoefficient(dim=2, n_grid=4)
    with pytest.raises(ValidationError, match=r"channels must have shape \(3, 4, 4\)"):
        cell.PeriodicCoefficient(dim=2, n_grid=4, channels=np.zeros((4, 4, 4)))


def test_nonsymmetric_samples_are_refused():
    full = full_samples(random_psd_coefficient(3, 4, 8))
    full[1, 2, 3, 0, 2] += 1e-9 * np.abs(full).max()
    with pytest.raises(ValidationError, match="not symmetric"):
        cell.PeriodicCoefficient(dim=3, n_grid=4, samples=full)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["samples", "channels"])
def test_nonfinite_samples_are_refused(value, form):
    co = random_psd_coefficient(2, 8, 8)
    arrays = {"samples": full_samples(co), "channels": stacked_channels(co)}
    arrays[form][(0,) * arrays[form].ndim] = value
    with pytest.raises(ValidationError, match="non-finite"):
        cell.PeriodicCoefficient(dim=2, n_grid=8, **{form: arrays[form]})


@pytest.mark.parametrize("block", [cell.VALIDATE_BLOCK, 1000])
def test_non_psd_cell_in_last_validation_block_is_caught(monkeypatch, block):
    # 32^3 cells are two blocks of the default size; blocks of 1000 leave a
    # partial last block of 768 cells
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    n = 32
    assert n ** 3 > block
    channels = stacked_channels(cell.constant_coefficient(np.eye(3), 3, n))
    channels[3, -1, -1, -1] = -1e-3  # a22 of the last cell
    with pytest.raises(ValidationError, match="smallest eigenvalue -1.000e-03"):
        cell.PeriodicCoefficient(dim=3, n_grid=n, channels=channels)


def degenerate_channels(dim, n, magnitude, seed):
    """Channels of randomly oriented cells of random rank 0 .. dim, entries
    of order ``magnitude``: zero, rank-one and (in 3D) rank-two cells are
    singular."""
    rng = np.random.default_rng(seed)
    cells = n ** dim
    b = rng.normal(size=(cells, dim, dim)) * np.sqrt(magnitude)
    b *= (np.arange(dim) < rng.integers(0, dim + 1, size=cells)[:, None])[:, None, :]
    mats = np.einsum("cik,cjk->cij", b, b)
    pairs = cell._triu_indices(dim)
    return np.stack([mats[:, i, j] for i, j in pairs]).reshape((len(pairs),) + (n,) * dim)


@pytest.mark.parametrize("block", [cell.VALIDATE_BLOCK, 1000])
@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
def test_psd_check_matches_eigvalsh_of_every_cell(monkeypatch, dim, n, magnitude, block):
    # 4,096 cells: one partial block of the default size, or four blocks of
    # 1000 and a partial fifth.  Four cells, the last among them, get the
    # smallest eigenvalue factor * tol (tol = 1e-10 max(1, largest |entry|)),
    # on a field of singular and regular cells
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    rng = np.random.default_rng(dim * 100 + int(np.log10(magnitude)))
    cells = n ** dim
    pairs = cell._triu_indices(dim)
    for factor in [None, 0.0, -0.3, -0.7, -0.99, -1.01, -1.5, -1e7]:
        channels = degenerate_channels(dim, n, magnitude, rng.integers(1 << 30))
        flat = channels.reshape(len(pairs), cells)
        if factor is not None:
            tol = 1e-10 * max(1.0, np.abs(channels).max())
            for c in [*rng.choice(cells - 1, 3, replace=False), cells - 1]:
                q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
                lam = np.concatenate([[factor * tol], rng.uniform(0, magnitude, dim - 1)])
                m = (q * lam) @ q.T
                flat[:, c] = [m[i, j] for i, j in pairs]
        want = psd_refusal(channels, dim)
        assert (want is None) == (factor is None or factor > -1.0)
        if want is None:
            cell.PeriodicCoefficient(dim=dim, n_grid=n, channels=channels)
        else:
            with pytest.raises(ValidationError) as err:
                cell.PeriodicCoefficient(dim=dim, n_grid=n, channels=channels)
            assert str(err.value) == want


@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
def test_valid_degenerate_field_needs_no_eigvalsh(monkeypatch, dim, n, magnitude):
    # zero, rank-one and rank-two cells have LDL^T pivots near tol / 2, far
    # above the rounding, so the certificate passes every cell of them
    channels = degenerate_channels(dim, n, magnitude, 11)
    mats = full_samples(cell.PeriodicCoefficient(dim=dim, n_grid=n, channels=channels))
    ranks = np.linalg.matrix_rank(mats.reshape(-1, dim, dim), tol=1e-9 * magnitude)
    assert set(ranks.tolist()) == set(range(dim + 1))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a valid field")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cell.PeriodicCoefficient(dim=dim, n_grid=n, channels=channels)


@pytest.mark.parametrize("dim", [2, 3])
def test_entry_is_the_channel_of_the_upper_triangle(dim):
    # entry's closed-form index against the channel order itself; the
    # arrays are the same view of channels: same memory, shape and strides
    co = random_psd_coefficient(dim, 4, 2)
    for i in range(dim):
        for j in range(dim):
            k = cell._triu_indices(dim).index((min(i, j), max(i, j)))
            assert co.entry(i, j).__array_interface__ == co.channels[k].__array_interface__


def test_coefficient_holds_only_its_channels():
    # full matrices are converted once: no per-cell (d, d) array is kept, and
    # the solver copies no channel: on a random 32^3 field homogenize_general
    # peaks at 6.1 n^3 doubles (the CG fields r, which is the right-hand
    # side, p and z, and the slab work of one operator application: 6 slabs
    # of 16 planes, half the grid each); a copy of the diagonal of A + delta
    # I would add 3, and whole-field operator temporaries about as much
    co = random_psd_coefficient(3, 8, 1)
    assert set(vars(co)) == {"dim", "n_grid", "channels"}
    assert len(co.channels) == 6
    assert all(c.shape == (8, 8, 8) and c.flags.c_contiguous for c in co.channels)
    np.testing.assert_array_equal(co.entry(2, 0), co.channels[2])
    n = 32
    co = random_psd_coefficient(3, n, 5)
    cell._precond_inverse(3, n)  # the cached symbol is built outside the solve
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cell.homogenize_general(co)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.2f} n^3 doubles"


def test_zero_channels_keep_no_array():
    # a channel that is zero in every cell is kept as None, whether the
    # field comes as samples, as a stacked array or as a sequence of
    # channels; a sequence's arrays are kept, not copied
    co = diagonal_voxels(3, 8, 1)
    kept = [False, True, True, False, True, False]
    assert [c is None for c in co.channels] == kept
    assert co.entry(0, 1) is None and co.entry(2, 1) is None
    again = cell.PeriodicCoefficient(dim=3, n_grid=8, channels=stacked_channels(co))
    assert [c is None for c in again.channels] == kept
    listed = cell.PeriodicCoefficient(dim=3, n_grid=8, channels=list(co.channels))
    assert all(a is b for a, b in zip(listed.channels, co.channels))
    with pytest.raises(ValidationError, match=r"channels must hold 6 arrays of shape "
                                              r"\(8, 8, 8\) or None"):
        cell.PeriodicCoefficient(dim=3, n_grid=8, channels=list(co.channels)[:5])
    # a field that is 0 everywhere keeps no array, passes the PSD check,
    # and its A*_delta is delta I
    zero = cell.PeriodicCoefficient(dim=2, n_grid=4, channels=[None] * 3)
    res = cell.homogenize_general(zero)
    np.testing.assert_array_equal(res.tensors, [d * I2 for d in res.deltas])


def test_constant_coefficient_zero_corrector():
    co = cell.constant_coefficient(I2, 2, 16)
    sol = solve_cell_problem(co, 0.25, E1)
    assert sol.iterations == 0
    assert np.abs(sol.corrector_grad).max() == 0.0
    assert sol.energy == pytest.approx(1.25, abs=1e-14)


def test_laminate_energy_matches_closed_form():
    co = cell.laminate_coefficient(E2XE2, I2, 0.5, 2, 256)
    sol = solve_cell_problem(co, 1e-3, E1)
    ref = delta_laminate_closed_form(E2XE2, I2, 0.5, 1e-3)[0, 0]
    assert sol.energy == pytest.approx(ref, rel=1e-4)
    assert sol.residual <= 1e-9
    # mean of the corrector gradient vanishes (gradient of a periodic function)
    assert np.abs(sol.corrector_grad.mean(axis=(0, 1))).max() < 1e-8
    assert sol.energy >= 1e-3 - 1e-10  # >= delta |lam|^2


def test_checkerboard_regression():
    # continuum value sqrt(alpha beta) = 2; frozen band measured at n=64,
    # delta=1e-3 (not a closed-form claim)
    co = cell.checkerboard_coefficient(1.0, 4.0, 64)
    sol = solve_cell_problem(co, 1e-3, E1)
    assert sol.energy == pytest.approx(2.0, abs=5e-3)
    co_fine = cell.checkerboard_coefficient(1.0, 4.0, 128)
    co_coarse = cell.checkerboard_coefficient(1.0, 4.0, 32)
    err_fine = abs(solve_cell_problem(co_fine, 1e-3, E1).energy - 2.0)
    err_coarse = abs(solve_cell_problem(co_coarse, 1e-3, E1).energy - 2.0)
    assert err_fine <= err_coarse


def test_degenerate_checkerboard_matches_dykhne():
    # phases I and 0 shifted by delta I: Dykhne's sqrt(alpha beta) gives
    # A*_delta = sqrt(delta (1 + delta)) I exactly.  Measured at delta = 0.1:
    # relative errors +6.57e-3, +2.33e-3, +8.27e-4 at n = 32, 64, 128 (a ratio
    # of 2.8 per doubling) after 10, 12 and 14 CG iterations
    delta = 0.1
    exact = np.sqrt(delta * (1.0 + delta))
    cfg = cell.SolverConfig(delta0=delta, n_delta=1)
    errs = []
    for n in (32, 64, 128):
        res = cell.homogenize_general(cell.checkerboard_coefficient(1.0, 0.0, n), cfg)
        t = res.tensors[0]
        assert t[1, 1] == pytest.approx(t[0, 0], rel=1e-14)
        assert abs(t[0, 1]) <= 1e-15
        assert res.iterations.max() <= 20
        errs.append((t[0, 0] - exact) / exact)
    assert 0.0 < errs[0] <= 1e-2
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 2.5 <= coarse / fine <= 3.2


def test_energy_of_field_zero_corrector():
    co = cell.constant_coefficient(I2, 2, 16)
    zero = np.zeros((16, 16, 2))
    assert energy_of_field(co, 0.0, E1, zero) == pytest.approx(1.0, abs=1e-14)
    lam_co = cell.laminate_coefficient(E2XE2, I2, 0.5, 2, 64)
    # arithmetic mean upper bound through the trivial corrector
    assert energy_of_field(lam_co, 0.0, E1, np.zeros((64, 64, 2))) == \
        pytest.approx(0.5, abs=1e-12)
    sol = solve_cell_problem(lam_co, 1e-3, E1)
    assert sol.energy < 0.5 + 1e-3
    # the solver's own corrector reproduces its energy through the quadrature
    assert energy_of_field(lam_co, 1e-3, E1, sol.corrector_grad) == \
        pytest.approx(sol.energy, rel=1e-13)


def test_upper_bound_and_delta_monotonicity():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(8, 8, 2, 2))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=2, n_grid=8, samples=samples)
    zero = np.zeros((8, 8, 2))
    upper = energy_of_field(co, 1e-2, E1, zero)
    sol_hi = solve_cell_problem(co, 1e-2, E1)
    sol_lo = solve_cell_problem(co, 1e-3, E1)
    assert sol_hi.energy <= upper + 1e-12
    gap = sol_hi.energy - sol_lo.energy
    assert 0.0 <= gap  # nested quadratic forms
    # testing the smaller-delta minimizer in the larger-delta form bounds the
    # gap by (delta - delta') * int |lam + grad v|^2
    grad_norm = float(np.sum(sol_lo.corrector_grad ** 2)) * co.h ** 2
    assert gap <= (1e-2 - 1e-3) * (1.0 + grad_norm) * 1.01


def test_grid_convergence_first_order_halving():
    # theta = 1/3 keeps the interface off the grid; the sampling error halves
    # with each refinement (binary expansion of 1/3), +/- 20 percent
    a1 = np.diag([0.2, 1.0])
    a2 = np.diag([3.0, 0.5])
    ref = delta_laminate_closed_form(a1, a2, 1.0 / 3.0, 1e-3)[0, 0]
    errs = []
    for n in (16, 32, 64, 128):
        co = cell.laminate_coefficient(a1, a2, 1.0 / 3.0, 2, n)
        errs.append(abs(solve_cell_problem(co, 1e-3, E1).energy - ref))
    for fine, coarse in zip(errs[1:], errs[:-1]):
        assert 0.4 <= fine / coarse <= 0.6


def test_frame_covariance_axis_permutation_and_reflection():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(16, 16, 2, 2))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=2, n_grid=16, samples=samples)
    lam = np.array([1.0, 0.0])
    base = solve_cell_problem(co, 1e-2, lam).energy

    # swap axes: y -> (y2, y1)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = np.einsum("ab,ijbc,dc->ijad", perm, samples.transpose(1, 0, 2, 3), perm)
    co_p = cell.PeriodicCoefficient(dim=2, n_grid=16, samples=swapped)
    e_p = solve_cell_problem(co_p, 1e-2, perm @ lam).energy
    assert e_p == pytest.approx(base, rel=1e-8)

    # reflect the first axis: y1 -> -y1
    refl = np.diag([-1.0, 1.0])
    flipped = np.einsum("ab,ijbc,dc->ijad", refl, samples[::-1], refl)
    co_r = cell.PeriodicCoefficient(dim=2, n_grid=16, samples=flipped)
    e_r = solve_cell_problem(co_r, 1e-2, refl @ lam).energy
    assert e_r == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("field", ["diagonal", "random"])
def test_frame_covariance_3d_axis_permutations(field):
    # the sweep treats axis 0 unlike the others, so each of the six axis
    # orders runs every axis through another stencil path; the discrete
    # cell problem is exact under permutations, so A* permutes with the
    # field to within the certified tau on each side.  The diagonal field
    # keeps no off-diagonal channel (the products are skipped), the random
    # one all six
    co = diagonal_voxels(3, 8, 9) if field == "diagonal" else random_psd_coefficient(3, 8, 9)
    assert sum(c is None for c in co.channels) == (3 if field == "diagonal" else 0)
    samples = full_samples(co)
    cfg = cell.SolverConfig()
    tau = certified_tol(co, cfg)
    base = cell.homogenize_general(co, cfg).tensors
    for perm in itertools.permutations(range(3)):
        p = np.eye(3)[list(perm)]
        moved = np.einsum("ab,...bc,dc->...ad", p, samples.transpose(perm + (3, 4)), p)
        co_p = cell.PeriodicCoefficient(dim=3, n_grid=8, samples=moved)
        for t, t_p in zip(base, cell.homogenize_general(co_p, cfg).tensors):
            assert np.abs(t_p - p @ t @ p.T).max() <= 2 * tau, perm


@pytest.mark.parametrize("field", ["voxels-3d", "voxels-2d", "board"])
def test_power_of_two_scaling_is_exact(field):
    # A -> 2A with delta -> 2 delta scales every step of the solver by a
    # power of two, tau too as |mean A| >= 1: each tensor doubles bit for
    # bit, with the same iteration table
    co = {"voxels-3d": lambda: diagonal_voxels(3, 16, 4),
          "voxels-2d": lambda: diagonal_voxels(2, 32, 4),
          "board": lambda: e2e2_checkerboard(64)}[field]()
    assert mean_abs(co) >= 1.0
    twice = cell.PeriodicCoefficient(dim=co.dim, n_grid=co.n_grid,
                                     channels=2.0 * stacked_channels(co))
    cfg = cell.SolverConfig()
    res = cell.homogenize_general(co, cfg)
    res2 = cell.homogenize_general(twice, cell.SolverConfig(delta0=2.0 * cfg.delta0))
    assert res.iterations.max() > 10
    np.testing.assert_array_equal(np.array(res2.tensors), 2.0 * np.array(res.tensors))
    np.testing.assert_array_equal(res2.iterations, res.iterations)
    np.testing.assert_array_equal(res2.widths, 2.0 * res.widths)
    np.testing.assert_array_equal(res2.residuals, res.residuals)


@pytest.mark.parametrize("field", ["voxels-2d", "voxels-3d", "zero-row-3d", "board",
                                   "rank-two-laminate-3d"])
def test_skipped_channels_change_no_bit(field):
    # a channel that is zero in every cell gets no array, and the sweep, the
    # right-hand sides and mean(A) skip it: against the same field with
    # every channel an array of its values, the operator and the right-hand
    # sides are equal (a dropped product can only flip the sign of a zero
    # sum), the read-out and every result bit-identical
    co = {"voxels-2d": lambda: diagonal_voxels(2, 32, 6),
          "voxels-3d": lambda: diagonal_voxels(3, 16, 6),
          "zero-row-3d": lambda: cell.PeriodicCoefficient(
              dim=3, n_grid=8, samples=np.einsum("i,j,...->...ij", [0.0, 1.0, 1.0],
                                                 [0.0, 1.0, 1.0], np.ones((8, 8, 8)))
              + full_samples(diagonal_voxels(3, 8, 6)) * np.diag([0.0, 1.0, 1.0])),
          "board": lambda: e2e2_checkerboard(32),
          "rank-two-laminate-3d": lambda: cell.laminate_coefficient(
              rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0]), 0.5, 3, 16)}[field]()
    full = with_zero_arrays(co)
    assert any(c is None for c in co.channels)
    assert all(c is not None for c in full.channels)
    p = np.random.default_rng(7).normal(size=(co.n_grid,) * co.dim)
    outs = [np.empty_like(p), np.empty_like(p)]
    assert cell._stiffness(co, p, outs[0]) == cell._stiffness(full, p, outs[1])
    np.testing.assert_array_equal(outs[0], outs[1])
    for i in range(co.dim):
        np.testing.assert_array_equal(cell._rhs(co, i, outs[0]), cell._rhs(full, i, outs[1]))
    res, ref = cell.homogenize_general(co), cell.homogenize_general(full)
    for name in ("tensors", "estimate", "iterations", "widths", "residuals"):
        assert np.asarray(getattr(res, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()


def test_homogenize_general_constant():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    co = cell.constant_coefficient(m, 2, 16)
    res = cell.homogenize_general(co)
    np.testing.assert_allclose(res.estimate, m, atol=1e-8)
    assert res.monotone
    assert not res.stalled
    np.testing.assert_allclose(res.estimate, res.estimate.T, atol=1e-10)


def test_homogenize_general_matches_formula_2d():
    xi = np.array([1.0, 1.0])
    a1 = np.outer(xi, xi)
    spec = laminate.LaminateSpec(phase1=a1, phase2=I2, theta=0.5, direction=E1)
    ref = laminate.homogenize_laminate(spec).tensor
    co = cell.laminate_coefficient(a1, I2, 0.5, 2, 128)
    res = cell.homogenize_general(co)
    assert np.abs(res.estimate - ref).max() <= 1e-3 * np.abs(ref).max()
    # tensors decrease with delta as quadratic forms
    for t_hi, t_lo in zip(res.tensors, res.tensors[1:]):
        assert np.linalg.eigvalsh(t_hi - t_lo).min() >= -1e-8


def test_homogenize_general_degenerate_direction():
    co = cell.laminate_coefficient(E2XE2, I2, 0.5, 2, 128)
    res = cell.homogenize_general(co)
    assert res.estimate[0, 0] <= 1e-3
    assert res.estimate[1, 1] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_homogenize_general_matches_cold_single_delta_solves(dim, n):
    co = random_psd_coefficient(dim, n, 3)
    cfg = cell.SolverConfig()
    res = cell.homogenize_general(co, cfg)
    assert res.iterations.shape == res.residuals.shape == res.widths.shape == (cfg.n_delta, dim)
    assert res.widths.max() <= certified_tol(co, cfg)
    scale = max(np.abs(t).max() for t in res.tensors)
    for delta, t in zip(res.deltas, res.tensors):
        assert np.abs(t - cold_tensor(co, delta, cfg)).max() <= 1e-8 * scale


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_off_diagonals_match_polarization(dim, n):
    # energy of (e_i + e_j)/sqrt(2) is (T_ii + T_jj)/2 + T_ij for the
    # discrete A*_delta, each solved cold
    co = random_psd_coefficient(dim, n, 21)
    cfg = cell.SolverConfig()
    res = cell.homogenize_general(co, cfg)
    scale = max(np.abs(t).max() for t in res.tensors)
    axes = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            for delta, t in zip(res.deltas, res.tensors):
                sol = solve_cell_problem(co, delta, (axes[i] + axes[j]) / np.sqrt(2.0),
                                              cfg)
                assert abs(sol.energy - 0.5 * (t[i, i] + t[j, j]) - t[i, j]) \
                    <= 1e-8 * scale


def half_void(dim, n, seed):
    """random_psd_coefficient with A = 0 on the slab x1 < 1/2."""
    channels = stacked_channels(random_psd_coefficient(dim, n, seed))
    channels[:, : n // 2] = 0.0
    return cell.PeriodicCoefficient(dim=dim, n_grid=n, channels=channels)


@pytest.mark.parametrize("field", ["checkerboard", "half_void"])
def test_frozen_shifts_match_cold_solves(field):
    # shifts up to 1e3 converge within a few iterations and are frozen while
    # the run on A itself goes on for the smallest shift (3.8e-3); their zeta
    # would underflow otherwise.  Both fields make G^T A G singular.
    co = e2e2_checkerboard(32) if field == "checkerboard" else half_void(2, 32, 11)
    cfg = cell.SolverConfig(delta0=1e3, n_delta=10)
    res = cell.homogenize_general(co, cfg)
    its = res.iterations[:, 0]
    assert its[0] <= 5 and its[-1] >= 10 * its[0]
    assert np.all(np.diff(its) >= 0)
    assert res.widths.max() <= certified_tol(co, cfg)
    for delta, t in zip(res.deltas, res.tensors):
        ref = cold_tensor(co, delta, cfg)
        assert np.abs(t - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.fixture(scope="module", params=["random-2d", "random-3d", "half-void"])
def bracket_case(request):
    """A field and its A*_delta along the default schedule from the oracle's
    cold CG to a relative residual of 1e-13."""
    co = {"random-2d": lambda: random_psd_coefficient(2, 16, 31),
          "random-3d": lambda: random_psd_coefficient(3, 8, 31),
          "half-void": lambda: half_void(2, 16, 31)}[request.param]()
    cfg = cell.SolverConfig(tol=1e-13)
    return co, [cold_tensor(co, delta, cfg) for delta in cfg.deltas()]


@pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7, 1e-9])
def test_gauss_radau_bracket_holds_the_exact_diagonal(bracket_case, tol):
    # A*_delta[i, i] = mean(A)_ii + delta - g_i / cells with g_i the Gauss
    # value, a lower bound on b_i^T M^+ b_i, and widths[k, i] the gap to its
    # Gauss-Radau upper bound: the exact entry lies in [t_ii - width, t_ii].
    # The slack is the reference's rounding, far below every width here
    co, refs = bracket_case
    res = cell.homogenize_general(co, cell.SolverConfig(tol=tol))
    slack = 1e-13 * max(np.abs(ref).max() for ref in refs)
    for t, width, ref in zip(res.tensors, res.widths, refs):
        assert np.all(np.diag(t) - width <= np.diag(ref) + slack)
        assert np.all(np.diag(ref) <= np.diag(t) + slack)


@pytest.fixture(scope="module", params=["board-32", "board-64", "random-2d", "random-3d",
                                        "half-void-2d", "half-void-3d", "rank-two-laminate-3d"])
def contract_case(request):
    """A field and its A*_delta along the default schedule at tol 1e-13."""
    co = {"board-32": lambda: e2e2_checkerboard(32),
          "board-64": lambda: e2e2_checkerboard(64),
          "random-2d": lambda: random_psd_coefficient(2, 16, 12),
          "random-3d": lambda: random_psd_coefficient(3, 8, 12),
          "half-void-2d": lambda: half_void(2, 16, 12),
          "half-void-3d": lambda: half_void(3, 8, 12),
          "rank-two-laminate-3d": lambda: cell.laminate_coefficient(
              rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0]), 0.5, 3, 16),
          }[request.param]()
    return co, cell.homogenize_general(co, cell.SolverConfig(tol=1e-13)).tensors


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_every_entry_is_within_tau_of_the_exact_tensor(contract_case, tol):
    # what tol certifies: every entry of every A*_delta, off-diagonals
    # included, within tau = tol max(1, |mean A|).  An off-diagonal read-out
    # b_i^T v_j errs by up to sqrt(q_i width_j): had every run stopped on its
    # diagonal's width alone, the random and half-void fields' off-diagonals
    # would be 2e-7 to 1.2e-6 off at tol 1e-9
    co, refs = contract_case
    cfg = cell.SolverConfig(tol=tol)
    res = cell.homogenize_general(co, cfg)
    tau = certified_tol(co, cfg)
    for t, ref in zip(res.tensors, refs):
        assert np.abs(t - ref).max() <= tau


def test_board_smallest_delta_stops_on_its_bracket():
    # b_2 = 0 on the e2 x e2 / I board, so axis 0's run answers to its own
    # width only: delta_min stops at 439 iterations at n = 128, where the
    # relative residual 1e-9 took 904
    res = cell.homogenize_general(e2e2_checkerboard(128))
    assert res.iterations[-1, 0] <= 500


def test_zero_right_hand_side_takes_no_iteration():
    # A e2 = e2 in both phases, so b_2 = -G^T A e2 vanishes
    res = cell.homogenize_general(e2e2_checkerboard(32))
    assert np.all(res.iterations[:, 1] == 0)
    assert np.all(res.residuals[:, 1] == 0.0)
    assert np.all(res.iterations[:, 0] > 0)
    for delta, t in zip(res.deltas, res.tensors):
        assert abs(t[1, 1] - (1.0 + delta)) <= 1e-12


@pytest.mark.parametrize("coeff, axis, radau", [
    (random_psd_coefficient(2, 16, 3), 0, 1),
    (random_psd_coefficient(3, 8, 3), 2, 1),
    (e2e2_checkerboard(16), 0, 0),
    (e2e2_checkerboard(16), 1, 0),
    (cell.laminate_coefficient(rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0]), 0.5, 3, 16),
     0, 0)], ids=["random-2d", "random-3d", "board-axis0", "board-axis1", "laminate-3d"])
def test_krylov_run_of_k_iterations_preconditions_k_times(monkeypatch, coeff, axis, radau):
    # step k's residual is preconditioned only if some shift is still
    # active once the bound from |r_k| alone is checked: a run whose last
    # shifts stop on that bound applies the preconditioner k times, one
    # whose last shift needed the Radau bound (it takes r_k . z_k) k + 1.
    # The random runs end on the Radau bound; the 16^2 board's axis-0 run
    # and the laminate's converge exactly, and the board's b_2 vanishes, so
    # that run takes no iteration (one rfft per application)
    cfg = cell.SolverConfig()
    rhs = cell._rhs(coeff, axis, np.empty((coeff.n_grid,) * coeff.dim))
    inv_sym = cell._precond_inverse(coeff.dim, coeff.n_grid)
    calls = []
    rfft = np.fft.rfft

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    _, _, _, iterations, _ = cell._shifted_cg(functools.partial(cell._stiffness, coeff), inv_sym,
                                              rhs, cfg.deltas(), [cfg.tol] * cfg.n_delta,
                                              cfg.max_iter)
    assert len(calls) == iterations.max() + radau


def test_3d_rank_two_laminate_exact_along_schedule():
    # on-grid interfaces: the discrete cell problem of a laminate is solved
    # exactly by a corrector that depends on y1 only
    a1, a2 = rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0])
    co = cell.laminate_coefficient(a1, a2, 0.5, 3, 16)
    res = cell.homogenize_general(co)
    for delta, t in zip(res.deltas, res.tensors):
        ref = delta_laminate_closed_form(a1, a2, 0.5, delta)
        assert np.abs(t - ref).max() <= 1e-10


R = np.array([1.0, 1.0])
S = np.array([1.0, -1.0])
OBLIQUE_PAIRS = {
    "diagonal": (np.diag([1.0, 2.0]), np.diag([3.0, 1.0])),
    "rank-one": (np.outer(R, R) / 2, np.outer(S, S) / 2),
    "degenerate-pd": (np.diag([1.0, 0.0]), np.diag([1.0, 3.0])),
}


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("pair", list(OBLIQUE_PAIRS))
def test_oblique_laminate_matches_formula_along_schedule(pair, n):
    # an off-axis interface: chi = ((x + y) mod 1) < 1/2 at the cell centres
    # is a laminate with normal (1, 1)/sqrt(2), and the discrete cell problem
    # reproduces the formula for the delta-shifted phases at every delta
    a1, a2 = OBLIQUE_PAIRS[pair]
    x = (np.arange(n) + 0.5) / n
    chi = ((x[:, None] + x[None, :]) % 1.0) < 0.5
    co = cell.PeriodicCoefficient(dim=2, n_grid=n,
                                  samples=np.where(chi[..., None, None], a1, a2))
    res = cell.homogenize_general(co)
    for delta, t in zip(res.deltas, res.tensors):
        ref = laminate.homogenize_laminate(laminate.LaminateSpec(
            phase1=a1 + delta * I2, phase2=a2 + delta * I2, theta=0.5,
            direction=R / np.sqrt(2.0))).tensor
        assert np.abs(t - ref).max() <= 1e-13


def test_homogenize_general_keeps_no_field_per_shift():
    # the schedule adds only scalars per shift: 12 deltas cost no more than
    # 2 (plus one n^3 field of slack); the absolute guard is 6.5 n^3 doubles
    # (measured 6.13: the CG fields, one of them the right-hand side, and
    # the slab work of one operator application)
    n = 32
    co = random_psd_coefficient(3, n, 5)
    field = 8 * n ** 3
    peaks = {}
    for n_delta in (2, 12):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cell.homogenize_general(co, cell.SolverConfig(n_delta=n_delta))
            peaks[n_delta] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks[12] <= peaks[2] + field, peaks
    assert peaks[12] <= 6.5 * field, f"peak {peaks[12] / field:.2f} n^3 doubles"


@pytest.mark.parametrize("delta0, n_delta", [(0.0, 6), (-1e-2, 6), (np.nan, 6), (0.1, 0)])
def test_homogenize_general_rejects_bad_schedule(delta0, n_delta):
    co = cell.constant_coefficient(I2, 2, 8)
    with pytest.raises(ValidationError, match="delta"):
        cell.homogenize_general(co, cell.SolverConfig(delta0=delta0, n_delta=n_delta))


def test_underflowing_schedule_is_refused_before_allocating():
    # 4^-(10^9 - 1) underflows; building the schedule would take two 8 GB arrays
    co = cell.constant_coefficient(I2, 2, 8)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="delta"):
            cell.homogenize_general(co, cell.SolverConfig(n_delta=10 ** 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_solver_nonconvergence_carries_residual():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(16, 16, 2, 2))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=2, n_grid=16, samples=samples)
    with pytest.raises(ConvergenceError) as err:
        cell.homogenize_general(co, cell.SolverConfig(n_delta=1, tol=1e-12, max_iter=1))
    assert 0.0 < err.value.residual


def test_nan_residual_raises_instead_of_returning(monkeypatch):
    # a preconditioner that breaks down turns the residual into NaN, which
    # must not pass for convergence
    def broken(dim, n):
        return np.full((n,) * (dim - 1) + (n // 2 + 1,), np.nan)

    monkeypatch.setattr(cell, "_precond_inverse", broken)
    with pytest.raises(ConvergenceError):
        cell.homogenize_general(random_psd_coefficient(2, 8, 2), cell.SolverConfig(n_delta=1))


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_gradient_adjoint_identity(dim, n):
    # the package's adjoint half G0^T against the oracle's gradient G = s G0
    rng = np.random.default_rng(5)
    v = rng.normal(size=(n,) * dim)
    w = rng.normal(size=(dim,) + (n,) * dim)
    gv = cell_gradient(v, 1.0 / n)
    gtw = cell._adjoint(w, np.empty((n,) * dim))
    lhs, rhs = float(np.sum(gv * w)), gradient_scale(dim, n) * float(np.sum(v * gtw))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(gv) * np.linalg.norm(w)


@pytest.mark.parametrize("slabs", ["one", "two", "uneven", "one-plane"])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 64), (3, 8), (3, 16)])
def test_sweep_matches_roll_oracle(monkeypatch, dim, n, slabs):
    # G0^T A G0 p, its read-out B^T p and the right-hand sides G0^T A e_i
    # from the slab sweep against whole-grid np.roll stencils of G = s G0,
    # on random PSD fields: one slab, two, slabs of 3 planes (a short last
    # slab) and one plane per slab.  s is a power of two, so the oracles
    # are rescaled exactly: G0^T A G0 = s^-2 G^T A G, and G0^T A e_j is
    # -1/s times G's right-hand side -G^T A e_j.
    plane = n ** (dim - 1)
    block = {"one": n * plane, "two": n * plane // 2, "uneven": 3 * plane, "one-plane": 1}
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block[slabs])
    co = random_psd_coefficient(dim, n, 11)
    s = gradient_scale(dim, n)
    p = np.random.default_rng(12).normal(size=(n,) * dim)
    grad = cell_gradient(p, co.h)
    want = cell_gradient_adjoint(apply_coeff(co, grad), co.h) / s ** 2
    got = np.full_like(p, np.nan)
    read = cell._stiffness(co, p, got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    samples = full_samples(co)
    # b_j . p = sum over cells of (A e_j) . (G0 p), and G0 p = G p / s
    want = np.array([np.sum(np.moveaxis(samples[..., j], -1, 0) * grad) for j in range(dim)]) / s
    assert np.abs(np.array(read) - want).max() <= 1e-13 * np.abs(want).max()
    for i in range(dim):
        want = cell_gradient_adjoint(np.moveaxis(samples[..., i], -1, 0), co.h) / s
        got = cell._rhs(co, i, np.full_like(p, np.nan))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_half_spectrum_preconditioner_matches_full_fft(dim, n):
    # full complex-FFT pseudo-inverse of the symbol of G^T G, read off the
    # oracle's gradient of an impulse, not built from 1D factors; the
    # package's is that of G0^T G0 = s^-2 G^T G, so its inverse is s^2 times
    impulse = np.zeros((n,) * dim)
    impulse[(0,) * dim] = 1.0
    sym = sum(np.abs(np.fft.fftn(g)) ** 2 for g in cell_gradient(impulse, 1.0 / n))
    inv_full = np.zeros_like(sym)
    good = sym > 1e-12 * sym.max()
    inv_full[good] = 1.0 / sym[good]
    r = np.random.default_rng(6).normal(size=(n,) * dim)
    want = np.real(np.fft.ifftn(np.fft.fftn(r) * inv_full)) * gradient_scale(dim, n) ** 2

    inv_half = cell._precond_inverse(dim, n)
    assert inv_half is cell._precond_inverse(dim, n)  # built once per grid
    assert not inv_half.flags.writeable
    got = cell._precondition(r, inv_half, np.empty_like(r))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_corrector_grad_is_c_contiguous(dim, n):
    sol = solve_cell_problem(random_psd_coefficient(dim, n, 4), 1e-2, np.eye(dim)[0])
    assert sol.corrector_grad.shape == (n,) * dim + (dim,)
    assert sol.corrector_grad.flags.c_contiguous
    assert isinstance(sol.iterations, int) and isinstance(sol.residual, float)


def test_load_coefficient_peak_memory_3d(tmp_path):
    # the channels (6 n^3 doubles) and the work of one block, half the grid
    # at 32^3: the PSD check's LDL^T of a block of cells is the peak
    # (measured 9.09), and the parse of a chunk of VALIDATE_BLOCK // 16
    # lines peaks at 7.65.  The whole table parsed at once would add its
    # own 6 or more, a per-cell 3 x 3 array 9
    n = 32
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(random_psd_coefficient(3, n, 5), path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        co = cell.load_coefficient(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [c.shape for c in co.channels] == [(n, n, n)] * 6
    assert peak <= 9.5 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.2f} n^3 doubles"


def test_load_diagonal_text_field_peak_memory_3d(tmp_path):
    # a diagonal field's off-diagonal channels are never allocated: loading
    # a 64^3 one peaks at its 3 n^3 doubles and the work of a block
    # (measured 3.22; with every channel allocated the peak was 6.39)
    n = 64
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(diagonal_voxels(3, n, 3), path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        co = cell.load_coefficient(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [c is None for c in co.channels] == [False, True, True, False, True, False]
    assert peak <= 3.5 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.2f} n^3 doubles"


def test_homogenize_grid_run_peak_memory_3d(tmp_path):
    # the whole CLI run on a 64^3 text laminate, the preconditioner symbol
    # built inside it; a block is 1/16 of the grid.  Measured 7.97 n^3
    # doubles: the coefficient's 4 nonzero channels (a12 and a23 are zero
    # in every cell and get no array), the CG fields r (the right-hand
    # side), p and z, the symbol and the slab work (one CG iteration per
    # axis, so no FFT runs beside z).  With all 6 channels stored it was
    # 9.97; holding all 3 right-hand sides as well, 12.9; with the whole
    # text table parsed at once, the symbol read off an impulse field and
    # np.roll operators, 18.5
    n = 64
    assert cell.VALIDATE_BLOCK <= n ** 3 // 8
    rows = [" ".join(repr(float(a[i, j])) for i in range(3) for j in range(i, 3)) + "\n"
            for a in (rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0]))]
    path = tmp_path / "laminate.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"3 {n} 6\n")
        for k in range(n):
            fh.write(rows[k >= n // 2] * n ** 2)
    config = cli.parse_config(json.dumps({
        "command": "homogenize_grid", "output_dir": str(tmp_path / "out"),
        "parameters": {"coefficient": str(path)}}))
    cell._precond_inverse.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli.run(config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 8.4 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.2f} n^3 doubles"


def test_coefficient_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    b = rng.normal(size=(4, 4, 4, 3, 3))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=3, n_grid=4, samples=samples)
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, path)
    again = cell.load_coefficient(path)
    assert again.dim == 3 and again.n_grid == 4
    np.testing.assert_array_equal(stacked_channels(again), stacked_channels(co))
    np.testing.assert_array_equal(full_samples(again), samples)


def test_npy_coefficient_file_round_trip(tmp_path):
    co = random_psd_coefficient(2, 8, 17)
    path = tmp_path / "coeff.npy"
    cell.save_coefficient(co, path)
    assert np.load(path).shape == (3, 8, 8)
    again = cell.load_coefficient(path)
    assert again.dim == 2 and again.n_grid == 8
    np.testing.assert_array_equal(stacked_channels(again), stacked_channels(co))


def test_npy_coefficient_file_is_validated(tmp_path):
    path = tmp_path / "coeff.npy"
    channels = stacked_channels(cell.constant_coefficient(np.eye(2), 2, 4))
    channels[0, 1, 2] = -1.0
    np.save(path, channels)
    with pytest.raises(ValidationError, match="PSD"):
        cell.load_coefficient(path)
    np.save(path, channels[:2])
    with pytest.raises(ValidationError, match="channels must have shape"):
        cell.load_coefficient(path)
    np.save(path, channels.astype(complex))
    with pytest.raises(ValidationError, match="real array"):
        cell.load_coefficient(path)
    path.write_text("2 4 3\n")
    with pytest.raises(ValidationError, match="not a .npy array"):
        cell.load_coefficient(path)


def test_load_coefficient_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 8\n1 0 1\n")
    with pytest.raises(ValidationError, match="dim n_grid channels"):
        cell.load_coefficient(path)
    # the header is checked before the table is read: a negative n would
    # otherwise reach reshape as a second unknown dimension
    for header, message in [("2 -4 3", "n_grid must be a power of two >= 4, got -4"),
                            ("2 6 3", "n_grid must be a power of two"),
                            ("4 4 10", "dim must be 2 or 3, got 4"),
                            ("2 4 6", "expected 3 channels for dim 2, got 6")]:
        path.write_text(header + "\n" + "1 0 1\n" * 16)
        with pytest.raises(ValidationError, match=message):
            cell.load_coefficient(path)


@pytest.mark.parametrize("text", ["2.5 4 3\n", "2 4 3\n" + "1 x 1\n" * 16],
                         ids=["fractional-header", "word-in-cell"])
def test_load_coefficient_rejects_text_that_is_not_numbers(tmp_path, text):
    # a fractional header or a cell that is not numbers is a validation
    # error, not a bare ValueError
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match="dim n_grid channels"):
        cell.load_coefficient(path)


# text-table chunks of 1,024 lines (one chunk in these tests), of 5 lines,
# and of 1 line (VALIDATE_BLOCK // 16 is 0 for both 5 and 1)
TEXT_BLOCKS = [cell.VALIDATE_BLOCK, 16 * 5, 5, 1]


def _table_lines(tmp_path, dim=2, n=8):
    """A random coefficient and the header and row lines of its text file."""
    co = random_psd_coefficient(dim, n, 7)
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, path)
    lines = path.read_text().splitlines(keepends=True)
    return co, path, lines[0], lines[1:]


@pytest.mark.parametrize("block", TEXT_BLOCKS)
def test_text_table_skips_blank_and_comment_lines(tmp_path, monkeypatch, block):
    # blank lines, comment lines, a trailing comment, a run of blank lines
    # longer than a block and a trailing blank line are not rows
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    co, path, header, rows = _table_lines(tmp_path)
    path.write_text(header + "".join(rows[:10]) + "\n# a comment\n   \n"
                    + "".join(rows[10:30]) + "\n" * 7 + rows[30].rstrip("\n")
                    + "  # trailing\n" + "".join(rows[31:]) + "\n")
    np.testing.assert_array_equal(stacked_channels(cell.load_coefficient(path)),
                                  stacked_channels(co))


@pytest.mark.parametrize("block", TEXT_BLOCKS)
@pytest.mark.parametrize("case", ["empty", "short", "extra", "narrow-row-first",
                                  "narrow-row-inside", "narrow-row-last", "narrow-table",
                                  "word-in-last-row"])
def test_text_table_refusals(tmp_path, monkeypatch, block, case):
    # the accepted table is exactly n^dim rows of the header's channel count;
    # a table with no rows is refused as such, with no numpy warning
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    _, path, header, rows = _table_lines(tmp_path)
    counted = "expected 64 rows of 3 floats"
    text, message = {
        "empty": (["\n", "# no rows\n"], counted + r", got shape \(0, 0\)"),
        "short": (rows[:-1], counted + r", got shape \(63, 3\)"),
        "extra": (rows + rows[:1], counted + r", got shape \(65, 3\)"),
        "narrow-row-first": (["1 0\n"] + rows[1:], "dim n_grid channels"),
        "narrow-row-inside": (rows[:37] + ["1 0\n"] + rows[38:], "dim n_grid channels"),
        "narrow-row-last": (rows[:-1] + ["1 0\n"], "dim n_grid channels"),
        "narrow-table": (["1 0\n"] * 64, counted + r", got shape \(64, 2\)"),
        "word-in-last-row": (rows[:-1] + ["1 x 1\n"], "dim n_grid channels"),
    }[case]
    path.write_text(header + "".join(text))
    with pytest.raises(ValidationError, match=message):
        cell.load_coefficient(path)


def five_phase_coefficient(n, seed):
    """2D cells drawn at random from five PSD phases: few distinct rows, and
    repeats both next to each other and apart."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(5, 2, 2))
    phases = b @ b.transpose(0, 2, 1)
    return cell.PeriodicCoefficient(dim=2, n_grid=n, samples=phases[rng.integers(0, 5, (n, n))])


TEXT_FIELDS = {
    "random": lambda: random_psd_coefficient(3, 8, 11),
    "laminate": lambda: cell.laminate_coefficient(rank_two([0.0, 1.0, 0.0]),
                                                  rank_two([1.0, 0.0, 1.0]), 0.5, 3, 8),
    "checkerboard": lambda: cell.checkerboard_coefficient(1.0, 4.0, 16),
    "five-phase": lambda: five_phase_coefficient(16, 3),
}


@pytest.mark.parametrize("block", TEXT_BLOCKS)
@pytest.mark.parametrize("field", list(TEXT_FIELDS))
def test_text_table_matches_loadtxt_of_the_whole_table(tmp_path, monkeypatch, field, block):
    # the stored rows are np.loadtxt's of the whole table, an oracle that
    # parses every line, with blank and whitespace lines, comment lines (one
    # of them repeated), trailing comments and CRLF endings mixed in
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    co = TEXT_FIELDS[field]()
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, path)
    header, *rows = path.read_text().splitlines()
    lines = [header]
    for k, row in enumerate(rows):
        lines += [""] * (k % 7 == 3) + [" \t"] * (k % 17 == 8)
        lines += ["# a repeated comment"] * (k % 11 == 5) + [f"  # comment {k}"] * (k % 13 == 0)
        lines.append(row + "  # trailing" * (k % 5 == 2))
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    oracle = np.loadtxt(path, skiprows=1)
    again = cell.load_coefficient(path)
    np.testing.assert_array_equal(stacked_channels(again),
                                  oracle.T.reshape(stacked_channels(co).shape))
    np.testing.assert_array_equal(stacked_channels(again), stacked_channels(co))


@pytest.mark.parametrize("block", TEXT_BLOCKS)
def test_text_table_row_spellings_give_the_same_cell(tmp_path, monkeypatch, block):
    # one cell written four ways, in turn: four distinct lines, one row
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    spellings = ["1 0 1\n", "1.0 0.0 1.0\n", "1\t0\t1\n", "1 0 1 # c\n"]
    path = tmp_path / "coeff.txt"
    path.write_text("2 8 3\n" + "".join(spellings[k % 4] for k in range(64)))
    np.testing.assert_array_equal(stacked_channels(cell.load_coefficient(path)),
                                  stacked_channels(cell.constant_coefficient(I2, 2, 8)))


@pytest.mark.parametrize("field", ["laminate", "checkerboard"])
def test_text_table_parses_each_distinct_line_once(tmp_path, monkeypatch, field):
    # a two-phase file holds at most 2 distinct lines a chunk, and only
    # those are parsed: a 16^3 laminate has 4,096 rows, a 32^2 board 1,024
    co = {"laminate": lambda: cell.laminate_coefficient(rank_two([0.0, 1.0, 0.0]), np.eye(3),
                                                         0.5, 3, 16),
          "checkerboard": lambda: cell.checkerboard_coefficient(1.0, 4.0, 32)}[field]()
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, path)
    parsed = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        parsed.append(len(table))
        return table

    monkeypatch.setattr(np, "loadtxt", counted)
    again = cell.load_coefficient(path)
    np.testing.assert_array_equal(stacked_channels(again), stacked_channels(co))
    chunks = -(-co.n_grid ** co.dim // (cell.VALIDATE_BLOCK // 16))
    assert 0 < sum(parsed) <= 2 * chunks


@pytest.mark.parametrize("block", TEXT_BLOCKS)
def test_text_channel_nonzero_only_in_the_last_row(tmp_path, monkeypatch, block):
    # a12 is zero in every chunk but the last row's: its channel is
    # allocated at that row, and the table is np.loadtxt's of the whole file
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    path = tmp_path / "coeff.txt"
    path.write_text("2 8 3\n" + "1 0 2\n" * 63 + "1 0.5 2\n")
    co = cell.load_coefficient(path)
    oracle = np.loadtxt(path, skiprows=1)
    np.testing.assert_array_equal(stacked_channels(co), oracle.T.reshape(3, 8, 8))
    assert np.flatnonzero(co.entry(0, 1)).tolist() == [63]


@pytest.mark.parametrize("suffix", [".txt", ".npy"])
def test_diagonal_field_round_trip(tmp_path, suffix):
    # every channel is written, a zero one as zeros, so neither format
    # changes: the .npy file is np.save's of the stacked channels, the text
    # file writes 0.0 in the zero columns; loading gives back the same
    # channels and drops the zero ones again.  A text file's channels each
    # own their n^dim array; a .npy file's are views of the one array read
    co = diagonal_voxels(3, 8, 5)
    path = tmp_path / ("coeff" + suffix)
    cell.save_coefficient(co, path)
    if suffix == ".npy":
        np.save(tmp_path / "oracle.npy", stacked_channels(co))
        assert path.read_bytes() == (tmp_path / "oracle.npy").read_bytes()
    else:
        rows = path.read_text().splitlines()[1:]
        assert all(row.split()[k] == "0.0" for row in rows for k in (1, 2, 4))
    again = cell.load_coefficient(path)
    assert [c is None for c in again.channels] == [c is None for c in co.channels]
    np.testing.assert_array_equal(stacked_channels(again), stacked_channels(co))
    if suffix == ".txt":
        assert all(c.base.nbytes == c.nbytes for c in again.channels if c is not None)


@pytest.mark.parametrize("block", TEXT_BLOCKS)
@pytest.mark.parametrize("case", ["not-utf-8", "narrow-row-repeated", "word-repeated",
                                  "nan-repeated"])
def test_text_table_refusals_among_repeated_rows(tmp_path, monkeypatch, block, case):
    # a bad line inside a run of equal lines, or repeated, is refused as it
    # is when every line is parsed
    monkeypatch.setattr(cell, "VALIDATE_BLOCK", block)
    row = b"1 0 1\n"
    bad, message = {
        "not-utf-8": (b"1 0\xff 1\n", "'utf-8' codec can't decode"),
        "narrow-row-repeated": (b"1 0\n", "the number of columns changed"),
        "word-repeated": (b"1 x 1\n", "could not convert string"),
        "nan-repeated": (b"nan 0 1\n", "samples contain non-finite values"),
    }[case]
    table = row * 20 + bad + row * 20 + bad + row * 22
    path = tmp_path / "coeff.txt"
    path.write_bytes(b"2 8 3\n" + table)
    with pytest.raises(ValidationError, match=message):
        cell.load_coefficient(path)
