"""Tests for the regularized periodic cell solver."""

import tracemalloc

import numpy as np
import pytest

from homoglab import cell, laminate
from homoglab.errors import ConvergenceError, ValidationError
from oracles import energy_of_field, full_samples, solve_cell_problem

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


def random_psd_coefficient(dim, n, seed):
    b = np.random.default_rng(seed).normal(size=(n,) * dim + (dim, dim))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    return cell.PeriodicCoefficient(dim=dim, n_grid=n, samples=samples)


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
    arrays = {"samples": full_samples(co), "channels": co.channels.copy()}
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
    channels = cell.constant_coefficient(np.eye(3), 3, n).channels.copy()
    channels[3, -1, -1, -1] = -1e-3  # a22 of the last cell
    with pytest.raises(ValidationError, match="smallest eigenvalue -1.000e-03"):
        cell.PeriodicCoefficient(dim=3, n_grid=n, channels=channels)


def test_coefficient_holds_only_its_channels():
    # full matrices are converted once: no per-cell (d, d) array is kept, and
    # the solver copies no channel: on a random 32^3 field homogenize_general
    # peaks at 12.0 n^3 doubles (right-hand sides, CG vectors and the
    # temporaries of one operator application); a copy of the diagonal of
    # A + delta I would add 3
    co = random_psd_coefficient(3, 8, 1)
    assert set(vars(co)) == {"dim", "n_grid", "channels"}
    assert co.channels.shape == (6, 8, 8, 8) and co.channels.flags.c_contiguous
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
    assert peak <= 12.5 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.2f} n^3 doubles"


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
    assert res.iterations.shape == res.residuals.shape == (cfg.n_delta, dim)
    assert res.residuals.max() <= cfg.tol
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
    channels = random_psd_coefficient(dim, n, seed).channels.copy()
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
    assert res.residuals.max() <= cfg.tol
    for delta, t in zip(res.deltas, res.tensors):
        ref = cold_tensor(co, delta, cfg)
        assert np.abs(t - ref).max() <= 1e-8 * np.abs(ref).max()


def test_zero_right_hand_side_takes_no_iteration():
    # A e2 = e2 in both phases, so b_2 = -G^T A e2 vanishes
    res = cell.homogenize_general(e2e2_checkerboard(32))
    assert np.all(res.iterations[:, 1] == 0)
    assert np.all(res.residuals[:, 1] == 0.0)
    assert np.all(res.iterations[:, 0] > 0)
    for delta, t in zip(res.deltas, res.tensors):
        assert abs(t[1, 1] - (1.0 + delta)) <= 1e-12


def test_3d_rank_two_laminate_exact_along_schedule():
    # on-grid interfaces: the discrete cell problem of a laminate is solved
    # exactly by a corrector that depends on y1 only
    a1, a2 = rank_two([0.0, 1.0, 0.0]), rank_two([1.0, 0.0, 1.0])
    co = cell.laminate_coefficient(a1, a2, 0.5, 3, 16)
    res = cell.homogenize_general(co)
    for delta, t in zip(res.deltas, res.tensors):
        ref = delta_laminate_closed_form(a1, a2, 0.5, delta)
        assert np.abs(t - ref).max() <= 1e-10


def test_homogenize_general_keeps_no_field_per_shift():
    # the schedule adds only scalars per shift: 12 deltas cost no more than
    # 2 (plus one n^3 field of slack); the absolute guard is 12.5 n^3 doubles
    # (measured 12.05: right-hand sides, CG vectors and the temporaries of
    # one operator application)
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
    assert peaks[12] <= 12.5 * field, f"peak {peaks[12] / field:.1f} n^3 doubles"


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
    rng = np.random.default_rng(5)
    v = rng.normal(size=(n,) * dim)
    w = rng.normal(size=(dim,) + (n,) * dim)
    gv = cell._cell_gradient(v, 1.0 / n)
    gtw = cell._cell_gradient_adjoint(w, 1.0 / n)
    lhs, rhs = float(np.sum(gv * w)), float(np.sum(v * gtw))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(gv) * np.linalg.norm(w)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_half_spectrum_preconditioner_matches_full_fft(dim, n):
    # full complex-FFT pseudo-inverse of the symbol of G^T G, built directly
    h = 1.0 / n
    phase = np.exp(2j * np.pi * np.arange(n) / n)
    diff2 = np.abs((phase - 1.0) / h) ** 2
    avg2 = np.abs(0.5 * (1.0 + phase)) ** 2
    sym = np.zeros((n,) * dim)
    for ax in range(dim):
        term = np.ones((n,) * dim)
        for other in range(dim):
            oshape = [1] * dim
            oshape[other] = n
            term = term * (diff2 if other == ax else avg2).reshape(oshape)
        sym = sym + term
    inv_full = np.zeros_like(sym)
    good = sym > 1e-12 * sym.max()
    inv_full[good] = 1.0 / sym[good]
    r = np.random.default_rng(6).normal(size=(n,) * dim)
    want = np.real(np.fft.ifftn(np.fft.fftn(r) * inv_full))

    inv_half = cell._precond_inverse(dim, n)
    assert inv_half is cell._precond_inverse(dim, n)  # built once per grid
    assert not inv_half.flags.writeable
    axes = tuple(range(dim))
    got = np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv_half, s=r.shape, axes=axes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_corrector_grad_is_c_contiguous(dim, n):
    sol = solve_cell_problem(random_psd_coefficient(dim, n, 4), 1e-2, np.eye(dim)[0])
    assert sol.corrector_grad.shape == (n,) * dim + (dim,)
    assert sol.corrector_grad.flags.c_contiguous
    assert isinstance(sol.iterations, int) and isinstance(sol.residual, float)


def test_load_coefficient_peak_memory_3d(tmp_path):
    # the text table and the channels it becomes are 6 n^3 doubles each
    # (measured peak 12.0; a per-cell 3 x 3 array would add 9); the guard is 13
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
    assert co.channels.shape == (6, n, n, n)
    assert peak <= 13 * 8 * n ** 3, f"peak {peak / (8 * n ** 3):.1f} n^3 doubles"


def test_coefficient_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    b = rng.normal(size=(4, 4, 4, 3, 3))
    samples = np.einsum("...ki,...kj->...ij", b, b)
    co = cell.PeriodicCoefficient(dim=3, n_grid=4, samples=samples)
    path = tmp_path / "coeff.txt"
    cell.save_coefficient(co, path)
    again = cell.load_coefficient(path)
    assert again.dim == 3 and again.n_grid == 4
    np.testing.assert_array_equal(again.channels, co.channels)
    np.testing.assert_array_equal(full_samples(again), samples)


def test_npy_coefficient_file_round_trip(tmp_path):
    co = random_psd_coefficient(2, 8, 17)
    path = tmp_path / "coeff.npy"
    cell.save_coefficient(co, path)
    assert np.load(path).shape == (3, 8, 8)
    again = cell.load_coefficient(path)
    assert again.dim == 2 and again.n_grid == 8
    np.testing.assert_array_equal(again.channels, co.channels)


def test_npy_coefficient_file_is_validated(tmp_path):
    path = tmp_path / "coeff.npy"
    channels = cell.constant_coefficient(np.eye(2), 2, 4).channels.copy()
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


@pytest.mark.parametrize("text", ["2.5 4 3\n", "2 4 3\n" + "1 x 1\n" * 16],
                         ids=["fractional-header", "word-in-cell"])
def test_load_coefficient_rejects_text_that_is_not_numbers(tmp_path, text):
    # a fractional header or a cell that is not numbers is a validation
    # error, not a bare ValueError
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match="dim n_grid channels"):
        cell.load_coefficient(path)
