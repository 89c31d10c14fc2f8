"""Tests for the anomalous-limit machinery: kernels, limit forms, profiles."""

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
from homoglab.errors import (AdmissibilityError, CrossValidationError,
                             GridTooSmallError, ValidationError)

P = an.SpectralParams(c=2.0, theta=0.5)


def field_of(name, n=1024):
    return an.SampledField.from_function(an.test_function(name), n)


def test_params_validation_and_derived_constants():
    with pytest.raises(ValidationError, match="theta"):
        an.SpectralParams(c=2.0, theta=1.0)
    with pytest.raises(ValidationError, match=">= 1"):
        an.SpectralParams(c=0.5, theta=0.5)
    p = an.SpectralParams(c=3.0, theta=0.25)
    assert abs(p.c_theta - (3.0 * 0.25 + 0.75)) <= 1e-14
    assert abs(p.alpha - (9.0 * 0.25 + 0.75) / p.c_theta ** 2) <= 1e-14


def test_k0_hat_values():
    assert an.k0_hat(P, 0.0) == pytest.approx(1.0, abs=1e-14)
    # lambda = 1/(2 pi) gives 4 pi^2 lambda^2 = 1: 0.5/2 + 0.5/3 = 5/12
    assert an.k0_hat(P, 1.0 / (2 * np.pi)) == pytest.approx(5.0 / 12.0, rel=1e-14)
    lam = np.linspace(-80, 80, 4001)
    np.testing.assert_allclose(an.k0_hat(P, lam), an.k0_hat_closed(P, lam),
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
    assert an.inv_k0_decomposed(P, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_reciprocal_kernel_decomposition_identity():
    lam = np.linspace(-64, 64, 8193)
    lhs = 1.0 / an.k0_hat(P, lam)
    rhs = an.inv_k0_decomposed(P, lam)
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


def test_h_kernel_peak_and_parity():
    h = an.h_kernel(P)
    assert an.h_transform(P, 0.0) == pytest.approx(1.0 - math.sqrt(10.0 / 9.0),
                                                   rel=1e-12)
    assert h.n == 8192
    center = h.n // 2
    assert h.x[center] == pytest.approx(0.0, abs=1e-12)
    # even kernel
    np.testing.assert_allclose(h.values[center + 1:center + 100],
                               h.values[center - 99:center][::-1], atol=1e-15)


def test_h_kernel_plancherel():
    h = an.h_kernel(P)
    dx = h.spacing
    lam = np.fft.fftfreq(h.n, d=dx)
    lhs = np.sum(h.values ** 2) * dx
    rhs = np.sum(np.abs(an.h_transform(P, lam)) ** 2) / (h.n * dx)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_h_tail_gate_trips_on_small_lambda_max():
    with pytest.raises(GridTooSmallError, match="exceeds"):
        an._kernel_on_spacing(P, 1.0 / 1023, lambda_max=1.0, half_width=1.0)


def test_convolution_theorem_discrete():
    u = field_of("sin_2", 256)
    dx = u.spacing
    hw = an._kernel_on_spacing(P, dx, 64.0, half_width=1.0 + 2 * dx)
    conv = np.convolve(u.values, hw) * dx
    m = 1 << math.ceil(math.log2(len(conv) + 1))
    lhs = np.fft.fft(conv, m)
    rhs = np.fft.fft(u.values, m) * np.fft.fft(hw, m) * dx
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_gamma_limit_zero():
    zeros = an.SampledField.on_unit_interval(np.zeros(64))
    assert an.gamma_limit_fourier(P, zeros) == 0.0
    assert an.gamma_limit_convolution(P, zeros) == 0.0


def test_gamma_limit_forms_agree():
    for name in ("sin_1", "sin_4", "bump"):
        u = field_of(name)
        ff = an.gamma_limit_fourier(P, u)
        fc = an.gamma_limit_convolution(P, u)
        assert abs(ff - fc) <= 1e-3 * ff


def test_gamma_limit_forms_agree_2d_bump_product():
    n = 256
    x = np.linspace(0.0, 1.0, n)
    bump = an.test_function("bump")(x)
    u = an.SampledField.on_unit_interval(np.outer(bump, bump))
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


def test_solve_b_zero_and_gates():
    zeros = an.SampledField.on_unit_interval(np.zeros(64))
    b = an.solve_b(P, zeros)
    assert np.abs(b.values).max() == 0.0
    with pytest.raises(AdmissibilityError, match="not admissible"):
        an.solve_b(P, field_of("sin_1"))


def test_solve_b_c1_matches_second_difference():
    p1 = an.SpectralParams(c=1.0, theta=0.5)
    u = field_of("bump")
    b = an.solve_b(p1, u)
    i0 = int(round((0.0 - b.origin) / b.spacing))
    seg = b.values[i0:i0 + u.n]
    h = u.spacing
    d2 = np.zeros(u.n)
    d2[1:-1] = (u.values[2:] - 2 * u.values[1:-1] + u.values[:-2]) / h ** 2
    ref = -d2 + u.values
    inner = slice(2, -2)
    assert np.abs(seg[inner] - ref[inner]).max() <= 1e-3 * np.abs(ref).max()


def test_solve_b_plancherel_consistency():
    u = field_of("bump")
    b = an.solve_b(P, u)
    dx = u.spacing
    m = b.n
    spec = dx * np.fft.fft(u.values, m)
    lam = np.fft.fftfreq(m, d=dx)
    rhs = float(np.sum(np.abs(spec / an.k0_hat(P, lam)) ** 2) / (m * dx))
    lhs = float(np.sum(b.values ** 2) * dx)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sturm_liouville_zero_rhs():
    b = an.SampledField.on_unit_interval(np.zeros(64), zero_extended=False)
    u0 = an.solve_sturm_liouville(1.0, b)
    assert np.abs(u0.values).max() == 0.0


def test_sturm_liouville_constant_rhs_closed_form():
    n = 4097
    b = an.SampledField.on_unit_interval(np.ones(n), zero_extended=False)
    u0 = an.solve_sturm_liouville(1.0, b)
    x = u0.x
    exact = 1.0 - np.cosh(x - 0.5) / np.cosh(0.5)
    assert np.abs(u0.values - exact).max() <= 1e-5
    mid = u0.values[n // 2]
    assert mid == pytest.approx(1.0 - 1.0 / math.cosh(0.5), abs=1e-8)


def test_green_kernel_symmetry():
    x = np.array([0.1, 0.35, 0.8])
    g = an.green_kernel(2.0, x, x)
    np.testing.assert_allclose(g, g.T, rtol=1e-14)


def test_sturm_liouville_second_order_convergence():
    # error against the closed form shrinks ~4x per grid doubling
    errs = []
    for n in (257, 513, 1025):
        b = an.SampledField.on_unit_interval(np.ones(n), zero_extended=False)
        u0 = an.solve_sturm_liouville(1.0, b)
        exact = 1.0 - np.cosh(u0.x - 0.5) / np.cosh(0.5)
        errs.append(np.abs(u0.values - exact).max())
    for fine, coarse in zip(errs[1:], errs[:-1]):
        assert 3.0 <= coarse / fine <= 5.0


def test_sturm_liouville_validates_inputs():
    b = an.SampledField.on_unit_interval(np.ones(64), zero_extended=False)
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
    dense = an.green_kernel(a_value, x, x) @ (w * f)
    fast = an._sl_green_solve(a_value, f, h)
    assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


def test_sturm_liouville_small_coefficient():
    b = field_of("sin_1", 257)
    # sinh(1/sqrt(a)) overflows a double: rejected as an input, not leaked
    with pytest.raises(ValidationError, match="smallest"):
        an.solve_sturm_liouville(1e-6, b)
    # representable but unresolved by h = 1/256: the FD/Green gate trips
    with pytest.raises(CrossValidationError):
        an.solve_sturm_liouville(1e-5, b)


def test_build_u0_zero():
    zeros = an.SampledField.on_unit_interval(np.zeros(64))
    u1, uc = an.build_u0(P, zeros)
    assert np.abs(u1.values).max() == 0.0
    assert np.abs(uc.values).max() == 0.0


def test_build_u0_c1_branches_collapse():
    p1 = an.SpectralParams(c=1.0, theta=0.5)
    u = field_of("sin_1", 513)
    u1, uc = an.build_u0(p1, u)
    assert np.abs(u1.values - u.values).max() <= 1e-10
    assert np.abs(uc.values - u.values).max() <= 1e-10


def test_build_u0_mean_identity_and_branch_separation():
    u = field_of("sin_1", 1025)
    u1, uc = an.build_u0(P, u)
    mean = P.theta * u1.values + (1 - P.theta) * uc.values
    assert np.abs(mean - u.values).max() <= 1e-4
    assert np.abs(u1.values - uc.values).max() >= 1e-3
    # the a = 1 branch carries more oscillation energy than the a = c one
    # (analytically w1 = (c pi^2 + 1)/(c_theta pi^2 + 1) sin on this input)
    k1 = (2 * np.pi ** 2 + 1) / (1.5 * np.pi ** 2 + 1)
    assert np.abs(u1.values - k1 * u.values).max() <= 1e-6


def test_recovery_zero_function():
    res = an.recovery_energy(P, lambda x: np.zeros_like(x), 0.125, 128)
    assert res.energy_eps == 0.0 and res.gap == 0.0


def test_recovery_validation_errors():
    with pytest.raises(ValidationError, match="reciprocal"):
        an.recovery_energy(P, an.test_function("sin_1"), 0.3, 128)
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
    u1, uc = an.build_u0(p, u)
    x2 = (np.arange(n) + 0.5) / n
    a = p.conductivity(x2 / eps)
    rows = np.where((a == 1.0)[:, None], u1.values[None, :], uc.values[None, :])
    du = np.gradient(rows, u.spacing, axis=1, edge_order=2)
    density = a[:, None] * du ** 2 + rows ** 2
    explicit = float(np.mean(np.trapezoid(density, dx=u.spacing, axis=1)))
    assert res.energy_eps == pytest.approx(explicit, rel=1e-13)


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


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


def test_recovery_coercivity_and_gap():
    res = an.recovery_energy(P, an.test_function("sin_1"), 0.125, 256)
    u = field_of("sin_1", 256)
    u1, uc = an.build_u0(P, u)
    l2_min = min(float(np.trapezoid(u1.values ** 2, dx=u.spacing)),
                 float(np.trapezoid(uc.values ** 2, dx=u.spacing)))
    assert res.energy_eps >= l2_min
    assert res.gap < 0.05


def test_test_function_registry():
    assert an.test_function("sin_2")(0.25) == pytest.approx(1.0)
    bump = an.test_function("bump")
    assert bump(np.array([0.0, 1.0])).max() == 0.0
    assert bump(np.array([0.5]))[0] == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="unknown test function"):
        an.test_function("boxcar")
