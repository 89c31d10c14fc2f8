"""Tests for the anomalous-limit machinery: kernels, limit forms, profiles."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import homoglab
from homoglab import anomalous as an
from homoglab.errors import CrossValidationError, ValidationError
from oracles import green_kernel, h_transform, inv_k0_decomposed, k0_hat_closed

P = an.SpectralParams(c=2.0, theta=0.5)


def field_of(name, n=1024):
    return an.SampledField.from_function(an.test_function(name), n)


def test_params_validation_and_derived_constants():
    with pytest.raises(ValidationError, match="theta"):
        an.SpectralParams(c=2.0, theta=1.0)
    with pytest.raises(ValidationError, match=">= 1"):
        an.SpectralParams(c=0.5, theta=0.5)
    # (c - 1)^2 overflows a double above c = 1.34e154
    with pytest.raises(ValidationError, match="finite"):
        an.SpectralParams(c=1e200, theta=0.5)
    assert an.SpectralParams(c=1e154, theta=0.5).alpha == pytest.approx(2.0)
    p = an.SpectralParams(c=3.0, theta=0.25)
    assert abs(p.c_theta - (3.0 * 0.25 + 0.75)) <= 1e-14
    assert abs(p.alpha - (9.0 * 0.25 + 0.75) / p.c_theta ** 2) <= 1e-14


def test_k0_hat_values():
    assert an.k0_hat(P, 0.0) == pytest.approx(1.0, abs=1e-14)
    # lambda = 1/(2 pi) gives 4 pi^2 lambda^2 = 1: 0.5/2 + 0.5/3 = 5/12
    assert an.k0_hat(P, 1.0 / (2 * np.pi)) == pytest.approx(5.0 / 12.0, rel=1e-14)
    lam = np.linspace(-80, 80, 4001)
    np.testing.assert_allclose(an.k0_hat(P, lam), k0_hat_closed(P, lam),
                               rtol=1e-13)
    # large-lambda leading order ~ c_theta / (c 4 pi^2 lambda^2)
    big = 1e4
    lead = P.c_theta / (P.c * an.TWO_PI_SQ * big ** 2)
    assert an.k0_hat(P, big) == pytest.approx(lead, rel=1e-3)
    assert an.k0_hat(P, big) > 0.0


def test_alpha_f_hand_values():
    alpha, f0 = an.alpha_f(P, 0.0)
    assert alpha == pytest.approx(10.0 / 9.0, rel=1e-14)
    assert f0 == pytest.approx(-1.0 / 9.0, rel=1e-14)
    assert inv_k0_decomposed(P, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_reciprocal_kernel_decomposition_identity():
    lam = np.linspace(-64, 64, 8193)
    lhs = 1.0 / an.k0_hat(P, lam)
    rhs = inv_k0_decomposed(P, lam)
    assert np.max(np.abs(lhs - rhs) / lhs) <= 1e-12


def test_single_phase_degeneration():
    p = an.SpectralParams(c=2.0, theta=1.0 - 1e-9)
    alpha, f = an.alpha_f(p, np.linspace(0, 10, 11))
    assert np.abs(f).max() <= 1e-8
    assert alpha == pytest.approx(1.0, abs=1e-8)  # c^2 theta / c_theta^2 -> 1


def test_alpha_plus_f_positive_everywhere():
    lam = np.linspace(-128, 128, 4001)
    for c in (1.5, 2.0, 4.0, 10.0):
        for th in (0.1, 0.25, 0.5, 0.9):
            p = an.SpectralParams(c=c, theta=th)
            alpha, f = an.alpha_f(p, lam)
            assert np.all(alpha + f > 0.0)


def test_h_transform_near_unit_contrast():
    # sqrt(alpha + f) - sqrt(alpha) cancels when c -> 1; the closed form is
    # F(h)(0) = 1 - sqrt(alpha)
    #         = -theta (1 - theta) (c - 1)^2 / (c_theta^2 (1 + sqrt(alpha)))
    p = an.SpectralParams(c=1.0 + 1e-6, theta=0.5)
    want = (-p.theta * (1.0 - p.theta) * (p.c - 1.0) ** 2
            / (p.c_theta ** 2 * (1.0 + math.sqrt(p.alpha))))
    assert h_transform(p, 0.0) == pytest.approx(want, rel=1e-12)


def test_h_kernel_peak_and_parity():
    x, h = an.h_kernel(P, 1.0 / 128, half_width=4.0)
    assert h_transform(P, 0.0) == pytest.approx(1.0 - math.sqrt(10.0 / 9.0), rel=1e-12)
    # sampled on [-4, 4], where h does not vanish at the ends
    assert len(x) == len(h) == 1025 and h[0] != 0.0 and h[-1] != 0.0
    center = len(h) // 2
    assert x[center] == 0.0 and x[0] == -4.0 and x[-1] == 4.0
    assert np.argmax(np.abs(h)) == center
    # even kernel
    scale = np.abs(h).max()
    np.testing.assert_allclose(h[center + 1:], h[:center][::-1],
                               rtol=0.0, atol=1e-14 * scale)


# (c, theta) from alpha = 1 + 2.5e-7 to alpha = 98, near theta = 1/2 and far off it
EXP_SUM_CASES = [(2.0, 0.5), (10.0, 0.5), (100.0, 0.5), (5.0, 0.25), (1e4, 0.99),
                 (100.0, 0.1), (1e4, 0.01), (1.001, 0.5)]


@pytest.mark.parametrize("c, theta", EXP_SUM_CASES)
def test_h_exponential_sum_transform_matches_h_transform(c, theta):
    # F(w exp(-sigma |x|)) = 2 w sigma / (sigma^2 + 4 pi^2 lambda^2)
    p = an.SpectralParams(c=c, theta=theta)
    w, sigma = an.h_exponential_sum(p)
    lam = np.linspace(0.0, 256.0, 4097)[:, None]
    ft = (2.0 * w * sigma / (sigma ** 2 + an.TWO_PI_SQ * lam ** 2)).sum(axis=1)
    want = h_transform(p, lam[:, 0])
    assert np.abs(ft - want).max() <= 1e-13 * abs(want[0])


@pytest.mark.parametrize("c, theta", EXP_SUM_CASES)
def test_h_exponential_sum_mass(c, theta):
    # int h = F(h)(0) = 1 - sqrt(alpha)
    p = an.SpectralParams(c=c, theta=theta)
    w, sigma = an.h_exponential_sum(p)
    assert abs((2.0 * w / sigma).sum() - (1.0 - math.sqrt(p.alpha))) <= 1e-14


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _refused_peak_mb(match, fn, *args):
    """Peak traced memory of fn(*args), which must raise ValidationError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=match):
            fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_exponential_sum_work_is_capped_before_allocating():
    # c = 1e12, theta = 1e-12: alpha = 2.5e11 asks for 4.5e6 nodes
    p = an.SpectralParams(c=1e12, theta=1e-12)
    u = field_of("sin_1", 1024)
    assert _refused_peak_mb("exponential sum", an.gamma_limit_convolution, p, u) < 1.0
    assert _refused_peak_mb("exponential sum", an.h_kernel, p, 1e-3) < 1.0
    # at c = 2 the nodes are few, but 1e9 kernel samples are not
    assert _refused_peak_mb("exponential sum", an.h_kernel, P, 1e-9) < 1.0


def test_convolution_form_memory_is_linear():
    # 2^19 samples (4 MB), the most a field holds: the loop over the nodes
    # holds a few arrays of that size, never one per node
    x = np.linspace(0.0, 1.0, an.N_MAX)
    long = an.SampledField(np.sin(np.pi * x))
    an.gamma_limit_convolution(P, field_of("sin_1", 64))
    assert _traced_peak_mb(an.gamma_limit_convolution, P, long) < 48.0


def test_every_fft_and_field_is_capped_before_allocating():
    # 2^19 + 1 samples per row, or 2^24 for eps = 2^-20, exceed N_MAX
    fn = an.test_function("sin_1")
    assert _refused_peak_mb("at most", an.SampledField.from_function, fn,
                            an.N_MAX + 1) < 1.0
    assert _refused_peak_mb("at most", an.recovery_energy, P, fn, 2.0 ** -20,
                            2 ** 24) < 1.0
    # a field built from samples holds at most N_MAX of them too; the
    # spectral form of one with 2^19 samples (4 MB) holds at most five
    # arrays of its size
    with pytest.raises(ValidationError, match="at most 524288, got shape"):
        an.SampledField(np.zeros(an.N_MAX + 1))
    an.gamma_limit_fourier(P, field_of("sin_1", 64))
    x = np.linspace(0.0, 1.0, an.N_MAX)
    long = an.SampledField(np.sin(np.pi * x))
    assert _traced_peak_mb(an.gamma_limit_fourier, P, long) < 20.0


def test_convolution_theorem_discrete():
    u = field_of("sin_2", 256)
    dx = u.spacing
    _, hw = an.h_kernel(P, dx, half_width=1.0 + 2 * dx)
    conv = np.convolve(u.values, hw) * dx
    m = 1 << math.ceil(math.log2(len(conv) + 1))
    lhs = np.fft.fft(conv, m)
    rhs = np.fft.fft(u.values, m) * np.fft.fft(hw, m) * dx
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_gamma_limit_zero():
    zeros = an.SampledField(np.zeros(64))
    assert an.gamma_limit_fourier(P, zeros) == 0.0
    assert an.gamma_limit_convolution(P, zeros) == 0.0


def test_gamma_limit_forms_agree():
    for name in ("sin_1", "sin_4", "bump"):
        u = field_of(name)
        ff = an.gamma_limit_fourier(P, u)
        fc = an.gamma_limit_convolution(P, u)
        assert abs(ff - fc) <= 1e-3 * ff


def test_gamma_limit_coercivity():
    for name in ("sin_1", "bump"):
        u = field_of(name, 512)
        l2 = float(np.trapezoid(u.values ** 2, dx=u.spacing))
        assert an.gamma_limit_fourier(P, u) >= l2


def test_gamma_limit_c1_reduction():
    # no contrast: the limit is the plain H1-type energy with alpha = 1
    p1 = an.SpectralParams(c=1.0, theta=0.5)
    u = field_of("bump", 2048)
    du = np.gradient(u.values, u.spacing)
    h1 = float(np.trapezoid(du ** 2 + u.values ** 2, dx=u.spacing))
    assert an.gamma_limit_fourier(p1, u) == pytest.approx(h1, rel=1e-3)
    assert an.gamma_limit_convolution(p1, u) == pytest.approx(h1, rel=1e-3)


def _gamma_sin_1(p):
    """Closed form of the limit energy of sin(pi x1) on [0, 1]."""
    r = math.sqrt(p.c_theta)
    k = (p.c - 1.0) ** 2 * p.theta * (1.0 - p.theta) / p.c_theta ** 2
    a = 1.0 / (1.0 + np.pi ** 2 * r ** 2)
    b = a * np.pi * r * math.exp(-0.5 / r)
    pair = a / 2.0 + b * 2.0 * np.pi * math.cosh(0.5 / r) / (np.pi ** 2 + r ** -2)
    return p.c / p.c_theta * np.pi ** 2 / 2.0 + p.alpha / 2.0 - k * pair


@pytest.mark.parametrize("c", [2.0, 10.0, 100.0])
def test_gamma_limit_fourier_is_second_order(c):
    assert _gamma_sin_1(P) == pytest.approx(7.1201461879, abs=1e-9)
    p = an.SpectralParams(c=c, theta=0.5)
    errs = [an.gamma_limit_fourier(p, field_of("sin_1", n)) - _gamma_sin_1(p)
            for n in (1024, 4096, 16384)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert math.log(coarse / fine, 4.0) == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("c", [2.0, 10.0, 100.0])
def test_gamma_limit_convolution_is_second_order(c):
    p = an.SpectralParams(c=c, theta=0.5)
    errs = [an.gamma_limit_convolution(p, field_of("sin_1", n)) - _gamma_sin_1(p)
            for n in (1024, 4096, 16384)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert math.log(coarse / fine, 4.0) == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("c, theta", [(100.0, 0.5), (1e4, 0.01)])
def test_gamma_limit_forms_agree_on_fine_grids(c, theta):
    # the convolution form covers the whole line, so the two forms meet as
    # the grid is refined, at high contrast too
    p = an.SpectralParams(c=c, theta=theta)
    for name in ("bump", "sin_1"):
        u = field_of(name, 16384)
        ff = an.gamma_limit_fourier(p, u)
        assert abs(an.gamma_limit_convolution(p, u) - ff) <= 1e-6 * ff


def test_gamma_limit_fourier_matches_padded_transform():
    # the spectral integral as a sum over the transform of the samples,
    # zero-padded 128x so the period is far beyond the decay length of g
    p = an.SpectralParams(c=100.0, theta=0.5)
    u = field_of("bump", 4096)
    m = 128 * u.n
    spec = u.spacing * np.fft.rfft(u.values, m)
    lam = np.fft.rfftfreq(m, d=u.spacing)
    fold = np.full(lam.shape, 2.0)
    fold[0] = fold[-1] = 1.0
    want = float(np.sum(fold * np.abs(spec) ** 2 / an.k0_hat(p, lam))) / (m * u.spacing)
    assert an.gamma_limit_fourier(p, u) == pytest.approx(want, rel=1e-6)


def test_fields_need_16_samples_on_every_axis():
    # a field is one x1 row: the limit of u(x1, x2) is the x2-integral of
    # the limit of its rows, so 2D values are refused however many samples
    for shape in ((1, 64), (16, 16), (15,)):
        with pytest.raises(ValidationError, match="one x1 row of at least 16 samples"):
            an.SampledField(np.zeros(shape))
    u = an.SampledField(np.zeros(16))
    assert an.gamma_limit_fourier(P, u) == an.gamma_limit_convolution(P, u) == 0.0


def test_sturm_liouville_zero_rhs():
    b = an.SampledField(np.zeros(64))
    u0 = an.solve_sturm_liouville(1.0, b)
    assert np.abs(u0.values).max() == 0.0


def test_sturm_liouville_constant_rhs_closed_form():
    n = 4097
    b = an.SampledField(np.ones(n))
    u0 = an.solve_sturm_liouville(1.0, b)
    x = u0.x
    exact = 1.0 - np.cosh(x - 0.5) / np.cosh(0.5)
    assert np.abs(u0.values - exact).max() <= 1e-5
    mid = u0.values[n // 2]
    assert mid == pytest.approx(1.0 - 1.0 / math.cosh(0.5), abs=1e-8)


def test_green_kernel_symmetry():
    x = np.array([0.1, 0.35, 0.8])
    g = green_kernel(2.0, x, x)
    np.testing.assert_allclose(g, g.T, rtol=1e-14)


def test_sturm_liouville_second_order_convergence():
    # error against the closed form shrinks ~4x per grid doubling
    errs = []
    for n in (257, 513, 1025):
        b = an.SampledField(np.ones(n))
        u0 = an.solve_sturm_liouville(1.0, b)
        exact = 1.0 - np.cosh(u0.x - 0.5) / np.cosh(0.5)
        errs.append(np.abs(u0.values - exact).max())
    for fine, coarse in zip(errs[1:], errs[:-1]):
        assert 3.0 <= coarse / fine <= 5.0


def test_sturm_liouville_validates_inputs():
    b = an.SampledField(np.ones(64))
    with pytest.raises(ValidationError, match="positive"):
        an.solve_sturm_liouville(-1.0, b)


@pytest.mark.parametrize("a_value", [1e-3, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("n", [17, 1025])
def test_sl_green_solve_matches_dense_quadrature(a_value, n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    x = np.linspace(0.0, 1.0, n)
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    dense = green_kernel(a_value, x, x) @ (w * f)
    fast = an._sl_green_solve(a_value, f, h)
    assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("a_value", [1e-3, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("n", [17, 257])
def test_sl_matrix_solve_matches_dense_tridiagonal(a_value, n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    h = 1.0 / (n - 1)
    m = n - 2
    dense = ((2.0 * a_value / h ** 2 + 1.0) * np.eye(m)
             - (a_value / h ** 2) * (np.eye(m, k=1) + np.eye(m, k=-1)))
    want = np.linalg.solve(dense, f[1:-1])
    got = an._sl_matrix_solve(a_value, f, h)
    assert got[0] == got[-1] == 0.0
    assert np.abs(got[1:-1] - want).max() <= 1e-10 * np.abs(want).max()


def test_sturm_liouville_small_coefficient():
    b = field_of("sin_1", 257)
    # sinh(1/sqrt(a)) overflows a double: rejected as an input, not leaked
    with pytest.raises(ValidationError, match="smallest"):
        an.solve_sturm_liouville(1e-6, b)
    # representable but unresolved by h = 1/256: the FD/Green gate trips
    with pytest.raises(CrossValidationError):
        an.solve_sturm_liouville(1e-5, b)


def test_two_scale_profile_zero():
    zeros = an.SampledField(np.zeros(64))
    u1, uc = an.two_scale_profile(P, zeros)
    assert np.abs(u1.values).max() == 0.0
    assert np.abs(uc.values).max() == 0.0


def test_two_scale_profile_c1_branches_collapse():
    # no contrast: k0_hat = 1/(1 + mu), so b = (-D^2 + 1) u and both branches are u
    p1 = an.SpectralParams(c=1.0, theta=0.5)
    for name in ("sin_1", "sin_7", "bump"):
        u = field_of(name, 4097)
        u1, uc = an.two_scale_profile(p1, u)
        assert np.abs(u1.values - u.values).max() <= 1e-13
        assert np.abs(uc.values - u.values).max() <= 1e-13


@pytest.mark.parametrize("c, theta", [(2.0, 0.5), (100.0, 0.01), (1e4, 0.01)])
def test_two_scale_profile_sin_1_is_the_discrete_multiplier(c, theta):
    # sin(pi x) is the first eigenvector of the Dirichlet second difference,
    # with mu_1 = (4/h^2) sin^2(pi h / 2), so w1 = (1 + c mu_1)/(1 + c_theta mu_1) u
    p = an.SpectralParams(c=c, theta=theta)
    u = field_of("sin_1", 4097)
    u1, _ = an.two_scale_profile(p, u)
    h = u.spacing
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    k1 = (1.0 + c * mu1) / (1.0 + p.c_theta * mu1)
    assert np.abs(u1.values - k1 * u.values).max() <= 1e-12


@pytest.mark.parametrize("name", ["sin_1", "sin_7", "bump"])
@pytest.mark.parametrize("c, theta", [(2.0, 0.5), (100.0, 0.5), (1e4, 0.01)])
def test_two_scale_profile_mean_identity_to_rounding(name, c, theta):
    # theta / (1 + mu) + (1 - theta) / (1 + c mu) = k0_hat(mu), mode by mode
    p = an.SpectralParams(c=c, theta=theta)
    u = field_of(name, 4097)
    u1, uc = an.two_scale_profile(p, u)
    mean = theta * u1.values + (1.0 - theta) * uc.values
    assert np.abs(mean - u.values).max() <= 1e-14 * np.abs(u.values).max()


def test_two_scale_profile_mean_identity_and_branch_separation():
    u = field_of("sin_1", 1025)
    u1, uc = an.two_scale_profile(P, u)
    mean = P.theta * u1.values + (1 - P.theta) * uc.values
    assert np.abs(mean - u.values).max() <= 1e-4
    assert np.abs(u1.values - uc.values).max() >= 1e-3
    # the a = 1 branch carries more oscillation energy than the a = c one
    # (in the continuum w1 = (c pi^2 + 1)/(c_theta pi^2 + 1) sin on this input)
    k1 = (2 * np.pi ** 2 + 1) / (1.5 * np.pi ** 2 + 1)
    assert np.abs(u1.values - k1 * u.values).max() <= 1e-6


def test_recovery_zero_function():
    res = an.recovery_energy(P, lambda x: np.zeros_like(x), 0.125, 128)
    assert res.energy_eps == 0.0 and res.gap == 0.0


def test_recovery_validation_errors():
    for eps in (0.3, 0.0, -0.5, 2.0, 1e10, math.inf, math.nan, 1e-320):
        with pytest.raises(ValidationError, match="reciprocal"):
            an.recovery_energy(P, an.test_function("sin_1"), eps, 128)
    assert [an.eps_periods(e) for e in (1, 0.125, 1.0 / 3)] == [1, 8, 3]
    with pytest.raises(ValidationError, match="points per period"):
        an.recovery_energy(P, an.test_function("sin_1"), 1.0 / 16, 128)


def test_recovery_no_contrast_gap_vanishes():
    p1 = an.SpectralParams(c=1.0, theta=0.5)
    res = an.recovery_energy(p1, an.test_function("bump"), 0.125, 8192)
    assert res.gap <= 1e-6


@pytest.mark.parametrize("c, theta, eps", [(2.0, 0.5, 1.0 / 8),
                                           (5.0, 0.25, 1.0 / 16),
                                           (1.0, 0.75, 1.0 / 4)])
def test_recovery_energy_matches_explicit_field(c, theta, eps):
    # the n_fine x n_fine field u0(x1, x2/eps), differentiated along x1 and
    # integrated over both axes, is what the two branch energies regroup
    p = an.SpectralParams(c=c, theta=theta)
    n = 256
    fn = an.test_function("sin_1")
    res = an.recovery_energy(p, fn, eps, n)
    u = an.SampledField.from_function(fn, n)
    u1, uc = an.two_scale_profile(p, u)
    x2 = (np.arange(n) + 0.5) / n
    a = p.conductivity(x2 / eps)
    rows = np.where((a == 1.0)[:, None], u1.values[None, :], uc.values[None, :])
    du = np.gradient(rows, u.spacing, axis=1, edge_order=2)
    density = a[:, None] * du ** 2 + rows ** 2
    explicit = float(np.mean(np.trapezoid(density, dx=u.spacing, axis=1)))
    assert res.energy_eps == pytest.approx(explicit, rel=1e-13)


def test_sturm_liouville_and_recovery_memory_is_linear():
    fn = an.test_function("sin_1")
    # warm-up at small n so lazy imports do not count against the peak
    an.solve_sturm_liouville(2.0, field_of("sin_1", 65))
    an.recovery_energy(P, fn, 0.25, 64)
    b = field_of("sin_1", 8193)
    assert _traced_peak_mb(an.solve_sturm_liouville, 2.0, b) < 16.0
    assert _traced_peak_mb(an.recovery_energy, P, fn, 1.0 / 256, 8192) < 16.0


def test_import_leaves_scipy_unloaded():
    src = str(Path(homoglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, homoglab; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_counterexample_runs_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "counterexample", "output_dir": str(tmp_path / "out"),
        "parameters": {"c": 2.0, "theta": 0.5, "u": "sin_1", "n": 512}}))
    src = str(Path(homoglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            f"sys.argv = ['homoglab', 'counterexample', '--config', {str(cfg)!r}]; "
            "runpy.run_module('homoglab', run_name='__main__', alter_sys=True)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "u0_branches.csv").exists()


def test_recovery_coercivity_and_gap():
    res = an.recovery_energy(P, an.test_function("sin_1"), 0.125, 256)
    u = field_of("sin_1", 256)
    u1, uc = an.two_scale_profile(P, u)
    l2_min = min(float(np.trapezoid(u1.values ** 2, dx=u.spacing)),
                 float(np.trapezoid(uc.values ** 2, dx=u.spacing)))
    assert res.energy_eps >= l2_min
    assert res.gap < 0.05


def test_test_function_registry():
    assert an.test_function("sin_2")(0.25) == pytest.approx(1.0)
    bump = an.test_function("bump")
    assert bump(np.array([0.0, 1.0])).max() == 0.0
    assert bump(np.array([0.5]))[0] == pytest.approx(1.0)
    # exactly sin_1 ... sin_9 and bump: anything else is not a name
    assert an.PROFILES == tuple(f"sin_{k}" for k in range(1, 10)) + ("bump",)
    for name in ("boxcar", "sin_0", "sin_10", "sin_01", "sin_ 1", "sin_wave.csv", "Bump"):
        with pytest.raises(ValidationError, match="unknown test function"):
            an.test_function(name)
