"""The anomalous two-dimensional limit of the degenerate laminate energy.

For the x2-laminate with phases e1 x e1 and c * e1 x e1 (contrast c > 1,
fraction theta), the oscillating energies

    F_eps(u) = int a(x2/eps) (du/dx1)^2 + u^2 dx,   a in {1, c},

converge (weak-L2 Gamma sense) to a limit with two equivalent closed
forms: a spectral one weighted by 1/k0_hat(lambda), and a nonlocal one
with gradient coefficient c/c_theta plus the square of sqrt(alpha) u +
h *_1 u for an explicit even kernel h.  This module evaluates both forms,
builds the two-scale profile u0 through Sturm-Liouville problems, and
measures the recovery energies F_eps(u0(x1, x2/eps)) against the limit.

Conventions: Fourier transform F(u)(lambda) = int exp(-2 pi i lambda x)
u(x) dx; functions of x1 live on [0, 1] sampled at n equispaced points
including the endpoints and are extended by zero outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, CrossValidationError, GridTooSmallError,
                     ValidationError)

TWO_PI_SQ = 4.0 * np.pi ** 2
H_TAIL_RTOL = 1e-4
LEAKAGE_RTOL = 1e-6
MEAN_IDENTITY_TOL = 1e-4
# Smallest Sturm-Liouville coefficient the Green-kernel check supports:
# sinh(1/sqrt(a)) overflows a double beyond 1/sqrt(a) = 710.47.
SL_MIN_A = 1.0 / 710.0 ** 2


@dataclass(frozen=True)
class SpectralParams:
    """Contrast c and volume fraction theta with the derived constants.

    c_theta = c theta + 1 - theta and alpha = (c^2 theta + 1 - theta) /
    c_theta^2.  c = 1 (no contrast) is allowed as a consistency limit;
    the counter-example proper needs c > 1.
    """

    c: float
    theta: float

    def __post_init__(self):
        if not (self.c >= 1.0 and math.isfinite(self.c)):
            raise ValidationError(f"contrast c must be >= 1, got {self.c}")
        if not (0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def c_theta(self) -> float:
        return self.c * self.theta + 1.0 - self.theta

    @property
    def alpha(self) -> float:
        return (self.c ** 2 * self.theta + 1.0 - self.theta) / self.c_theta ** 2

    def conductivity(self, y2) -> np.ndarray:
        """a(y2) = 1 on the theta-fraction phase, c on the rest (1-periodic)."""
        frac = np.mod(y2, 1.0)
        return np.where(frac < self.theta, 1.0, self.c)


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric lambda-grid [-lambda_max, lambda_max) with n_freq samples."""

    lambda_max: float = 64.0
    n_freq: int = 8192

    def __post_init__(self):
        if self.lambda_max < 32.0:
            raise ValidationError("lambda_max must be >= 32 to cover the kernel decay")
        n = self.n_freq
        if n < 2 or n % 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"n_freq must be an even power of two, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.lambda_max / self.n_freq


@dataclass(frozen=True)
class SampledField:
    """Uniform samples of a real function with grid metadata.

    1D values have shape (n,); 2D values have shape (n2, n1) with the
    first index the x2 row.  ``origin`` and ``spacing`` refer to the x1
    axis; fields on the unit interval use origin 0, spacing 1/(n-1).
    ``zero_extended`` marks functions treated as zero outside (0, 1) in x1.
    """

    values: np.ndarray
    spacing: float
    origin: float = 0.0
    zero_extended: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2):
            raise ValidationError(f"values must be 1- or 2-dimensional, got {v.ndim}")
        if v.shape[-1] < 16:
            raise ValidationError("fields need at least 16 samples per axis")
        if not np.all(np.isfinite(v)):
            raise ValidationError("field has non-finite values")
        if self.spacing <= 0:
            raise ValidationError("spacing must be positive")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n)

    @classmethod
    def on_unit_interval(cls, values, zero_extended: bool = True) -> "SampledField":
        v = np.asarray(values, dtype=float)
        return cls(values=v, spacing=1.0 / (v.shape[-1] - 1), origin=0.0,
                   zero_extended=zero_extended)

    @classmethod
    def from_function(cls, fn, n: int) -> "SampledField":
        x = np.linspace(0.0, 1.0, n)
        return cls.on_unit_interval(fn(x))


def test_function(name: str):
    """Named x1 test profiles: 'sin_k' (k = 1..9) and the smooth 'bump'."""
    if name.startswith("sin_"):
        try:
            k = int(name[4:])
        except ValueError:
            raise ValidationError(f"unknown test function {name!r}")
        if not 1 <= k <= 9:
            raise ValidationError("sin_k supports k = 1..9")
        return lambda x: np.sin(k * np.pi * np.asarray(x))
    if name == "bump":
        def bump(x):
            x = np.asarray(x, dtype=float)
            inside = (x > 0.0) & (x < 1.0)
            out = np.zeros_like(x)
            t = x[inside] * (1.0 - x[inside])
            out[inside] = np.exp(1.0 - 0.25 / t)
            return out
        return bump
    raise ValidationError(f"unknown test function {name!r}")


# ---------------------------------------------------------------------------
# spectral constants and kernels
# ---------------------------------------------------------------------------

def k0_hat(params: SpectralParams, lambda1):
    """Phase average of 1/(4 pi^2 a lambda^2 + 1); equals 1 at lambda = 0."""
    t = TWO_PI_SQ * np.square(lambda1)
    return params.theta / (t + 1.0) + (1.0 - params.theta) / (params.c * t + 1.0)


def k0_hat_closed(params: SpectralParams, lambda1):
    """Closed rational form (c_theta t + 1) / ((t + 1)(c t + 1))."""
    t = TWO_PI_SQ * np.square(lambda1)
    return (params.c_theta * t + 1.0) / ((t + 1.0) * (params.c * t + 1.0))


def alpha_f(params: SpectralParams, lambda1):
    """The constant alpha and the non-positive correction f(lambda).

    Together they decompose the reciprocal kernel:
    1/k0_hat = (c/c_theta) 4 pi^2 lambda^2 + alpha + f(lambda).
    """
    c, th = params.c, params.theta
    cth = params.c_theta
    t = TWO_PI_SQ * np.square(lambda1)
    f = (c - 1.0) ** 2 * th * (th - 1.0) / cth ** 2 / (cth * t + 1.0)
    return params.alpha, f


def inv_k0_decomposed(params: SpectralParams, lambda1):
    """(c/c_theta) 4 pi^2 lambda^2 + alpha + f(lambda)."""
    alpha, f = alpha_f(params, lambda1)
    t = TWO_PI_SQ * np.square(lambda1)
    return params.c / params.c_theta * t + alpha + f


def h_transform(params: SpectralParams, lambda1):
    """Fourier transform of the convolution kernel: sqrt(alpha + f) - sqrt(alpha)."""
    alpha, f = alpha_f(params, lambda1)
    arg = alpha + f
    if np.any(arg <= 0.0):
        raise ValidationError("alpha + f must stay positive; invalid parameters")
    return np.sqrt(arg) - np.sqrt(alpha)


def h_kernel(params: SpectralParams, grid: FrequencyGrid = FrequencyGrid()) -> SampledField:
    """Sample the convolution kernel h on the grid dual to ``grid``.

    h is obtained by inverse discrete Fourier transform of h_transform on
    the symmetric lambda-grid; it is real and even, returned centered at
    x = 0 with spacing 1/(2 lambda_max) over a window of length
    n_freq / (2 lambda_max).  Raises when the transform has not decayed to
    1e-4 of its peak by lambda_max.
    """
    n = grid.n_freq
    dx = 1.0 / (2.0 * grid.lambda_max)
    lam = np.fft.fftfreq(n, d=dx)
    ft = h_transform(params, lam)
    peak = abs(float(h_transform(params, 0.0)))
    edge = abs(float(h_transform(params, grid.lambda_max)))
    if peak > 0.0 and edge > H_TAIL_RTOL * peak:
        raise GridTooSmallError(
            f"|F(h)(lambda_max)| = {edge:.3e} exceeds {H_TAIL_RTOL:g} * |F(h)(0)|; "
            "increase lambda_max")
    vals = np.fft.ifft(ft) / dx
    if np.abs(vals.imag).max() > 1e-12 * max(1.0, np.abs(vals.real).max()):
        raise CrossValidationError("kernel transform produced a non-real kernel")
    h = np.fft.fftshift(vals.real)
    origin = -dx * (n // 2)
    return SampledField(values=h, spacing=dx, origin=origin, zero_extended=False)


def _kernel_on_spacing(params: SpectralParams, dx: float, lambda_max: float,
                       half_width: float) -> np.ndarray:
    """h sampled at spacing dx on [-half_width, half_width], odd length.

    The transform is truncated at lambda_max (tail-gated) and inverted on
    a window long enough for the wrapped tails to be negligible.
    """
    rate = ((params.c - 1.0) * params.theta + 1.0) / math.sqrt(
        (params.c ** 2 * params.theta + 1.0 - params.theta) * params.c_theta)
    window = 2.0 * half_width + 2.0 * 23.0 / rate  # exp(-23) tail at the wrap
    m = 1 << max(4, math.ceil(math.log2(window / dx)))
    lam = np.fft.fftfreq(m, d=dx)
    ft = h_transform(params, lam)
    ft = np.where(np.abs(lam) <= lambda_max, ft, 0.0)
    peak = abs(float(h_transform(params, 0.0)))
    edge = abs(float(h_transform(params, lambda_max)))
    if peak > 0.0 and edge > H_TAIL_RTOL * peak:
        raise GridTooSmallError(
            f"|F(h)({lambda_max})| = {edge:.3e} exceeds {H_TAIL_RTOL:g} * |F(h)(0)|")
    vals = np.fft.ifft(ft).real / dx
    k = int(round(half_width / dx))
    idx = np.arange(-k, k + 1)
    return vals[np.mod(idx, m)]


# ---------------------------------------------------------------------------
# the two limit forms
# ---------------------------------------------------------------------------

def _rows_and_weights(u: SampledField) -> tuple[np.ndarray, np.ndarray]:
    """View a field as x2 rows with trapezoidal x2 weights (1D: one row)."""
    v = u.values
    if v.ndim == 1:
        return v[None, :], np.array([1.0])
    n2 = v.shape[0]
    w = np.full(n2, 1.0 / (n2 - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return v, w


def _check_zero_extended(u: SampledField):
    if not u.zero_extended:
        raise ValidationError("u must be declared zero-extended outside (0, 1)")
    scale = max(1.0, float(np.abs(u.values).max()))
    rows, _ = _rows_and_weights(u)
    if max(np.abs(rows[:, 0]).max(), np.abs(rows[:, -1]).max()) > 1e-9 * scale:
        raise ValidationError("zero-extended field must vanish at x1 = 0 and 1")


def _row_spectrum(row: np.ndarray, dx: float, pad_factor: int = 8):
    """Continuous-convention transform samples of the zero-padded row."""
    n = row.shape[0]
    m = 1 << math.ceil(math.log2(pad_factor * n))
    spec = dx * np.fft.fft(row, m)
    lam = np.fft.fftfreq(m, d=dx)
    dlam = 1.0 / (m * dx)
    return spec, lam, dlam


def _derivative(rows: np.ndarray, dx: float) -> np.ndarray:
    """Centered differences inside, one-sided second-order at the ends."""
    d = np.empty_like(rows)
    d[:, 1:-1] = (rows[:, 2:] - rows[:, :-2]) / (2.0 * dx)
    d[:, 0] = (-3.0 * rows[:, 0] + 4.0 * rows[:, 1] - rows[:, 2]) / (2.0 * dx)
    d[:, -1] = (3.0 * rows[:, -1] - 4.0 * rows[:, -2] + rows[:, -3]) / (2.0 * dx)
    return d


def _trapz(rows: np.ndarray, dx: float) -> np.ndarray:
    w = np.full(rows.shape[-1], dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return rows @ w


def gamma_limit_fourier(params: SpectralParams, u: SampledField) -> float:
    """Spectral form of the limit: int dx2 int (1/k0_hat) |F(u)|^2 dlambda."""
    _check_zero_extended(u)
    rows, wx2 = _rows_and_weights(u)
    total = 0.0
    for row, w in zip(rows, wx2):
        spec, lam, dlam = _row_spectrum(row, u.spacing)
        weight = 1.0 / k0_hat(params, lam)
        total += w * float(np.sum(weight * np.abs(spec) ** 2) * dlam)
    return total


def gamma_limit_convolution(params: SpectralParams, u: SampledField,
                            grid: FrequencyGrid = FrequencyGrid()) -> float:
    """Nonlocal form: int (c/c_theta)(du/dx1)^2 + (sqrt(alpha) u + h * u)^2.

    The kernel is sampled in real space at the field's spacing (transform
    truncated at grid.lambda_max) and applied by direct discrete linear
    convolution, so this route shares no quadrature with the spectral form.
    """
    _check_zero_extended(u)
    rows, wx2 = _rows_and_weights(u)
    dx = u.spacing
    # h is only needed on [-1, 1]: u lives on [0, 1] and so does the output.
    hw = _kernel_on_spacing(params, dx, grid.lambda_max, half_width=1.0 + 2 * dx)
    m0 = (len(hw) - 1) // 2
    sqrt_alpha = math.sqrt(params.alpha)
    grad_coeff = params.c / params.c_theta
    n = rows.shape[1]
    total = 0.0
    for row, w in zip(rows, wx2):
        du = _derivative(row[None, :], dx)[0]
        conv_full = np.convolve(row, hw) * dx
        conv = conv_full[m0:m0 + n]
        local = sqrt_alpha * row + conv
        total += w * float(_trapz((grad_coeff * du ** 2 + local ** 2)[None, :], dx)[0])
    return total


# ---------------------------------------------------------------------------
# b, the Sturm-Liouville problems, and the two-scale profile
# ---------------------------------------------------------------------------

def solve_b(params: SpectralParams, u: SampledField,
            grid: FrequencyGrid = FrequencyGrid()) -> SampledField:
    """Invert the kernel: b with F(b) = F(u)/k0_hat, row by row.

    Requires (4 pi^2 lambda^2 + 1) F(u) to be effectively supported below
    grid.lambda_max on the discrete spectrum (otherwise b has distributional
    content the grid cannot represent and the input is rejected).  The
    result is returned on an enlarged window centered on [0, 1]; if more
    than 1e-6 of its norm sits in the outer quarter of that window the
    truncation is deemed unreliable and the input is rejected as well.
    """
    _check_zero_extended(u)
    if u.values.ndim != 1:
        raise ValidationError("solve_b operates on one x1 row at a time")
    dx = u.spacing
    row = u.values
    n = row.shape[0]
    window = max(4.0, 1.0 + 64.0 * math.sqrt(params.c_theta))
    m = 1 << math.ceil(math.log2(window / dx))
    spec = dx * np.fft.fft(row, m)
    lam = np.fft.fftfreq(m, d=dx)
    weighted = (TWO_PI_SQ * lam ** 2 + 1.0) * np.abs(spec)
    lam_cut = min(grid.lambda_max, 0.5 / dx / 2.0)
    tail = float(np.sum(weighted[np.abs(lam) > lam_cut] ** 2))
    total = float(np.sum(weighted ** 2))
    if total > 0.0 and tail > 1e-4 * total:
        raise AdmissibilityError(
            "u is not admissible at this resolution: "
            f"{tail / total:.2e} of the weighted spectrum lies beyond "
            f"lambda = {lam_cut:g}")
    bspec = spec / k0_hat(params, lam)
    bvals = np.fft.ifft(bspec).real / dx
    # Center the window on [0, 1]: keep indices so that x = 0.5 sits mid-window.
    shift = int(round((0.5 * m * dx - 0.5) / dx))
    idx = np.mod(np.arange(m) - shift, m)
    bvals = bvals[idx]
    origin = -shift * dx
    norm = float(np.linalg.norm(bvals))
    outer = m // 4
    leak = float(np.linalg.norm(np.concatenate([bvals[:outer // 2], bvals[-outer // 2:]])))
    if norm > 0.0 and leak > LEAKAGE_RTOL * norm:
        raise AdmissibilityError(
            f"b leaks {leak / norm:.2e} of its norm into the window edges; "
            "u is not admissible at this resolution")
    return SampledField(values=bvals, spacing=dx, origin=origin, zero_extended=False)


def _sl_matrix_solve(a_value: float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Dirichlet solve of -a u'' + u = rhs on the interior nodes."""
    # imported here, its only use, so that `import homoglab` does not load scipy
    from scipy.linalg import solveh_banded

    n = rhs.shape[0]
    interior = n - 2
    main = np.full(interior, 2.0 * a_value / h ** 2 + 1.0)
    off = np.full(interior, -a_value / h ** 2)
    ab = np.zeros((2, interior))
    ab[0, 1:] = off[:-1]
    ab[1, :] = main
    sol = solveh_banded(ab, rhs[1:-1])
    out = np.zeros(n)
    out[1:-1] = sol
    return out


def green_kernel(a_value: float, x, s) -> np.ndarray:
    """Dirichlet Green kernel of -a u'' + u on (0, 1).

    G(x, s) = sinh(min/sqrt(a)) sinh((1 - max)/sqrt(a)) /
              (sqrt(a) sinh(1/sqrt(a))); symmetric in (x, s).
    """
    ra = math.sqrt(a_value)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    lo = np.minimum(x[..., None], s[None, ...])
    hi = np.maximum(x[..., None], s[None, ...])
    return np.sinh(lo / ra) * np.sinh((1.0 - hi) / ra) / (ra * math.sinh(1.0 / ra))


def _sl_green_solve(a_value: float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of int G(x, s) rhs(s) ds at the nodes, in O(n).

    With r = sqrt(a) and S = r sinh(1/r), G(x, s) is
    sinh(s/r) sinh((1 - x)/r) / S for s <= x and sinh(x/r) sinh((1 - s)/r) / S
    for s > x, so the quadrature splits into a prefix and a strict suffix
    running sum (the kernel is semiseparable).  Dividing by S before
    multiplying by the sums keeps every factor finite wherever
    ``green_kernel`` is.
    """
    n = rhs.shape[0]
    x = np.linspace(0.0, 1.0, n)
    r = math.sqrt(a_value)
    s_norm = r * math.sinh(1.0 / r)
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    wf = w * rhs
    left = np.sinh(x / r)
    right = np.sinh((1.0 - x) / r)
    below = np.cumsum(wf * left)
    above = np.zeros(n)
    above[:-1] = np.cumsum((wf * right)[:0:-1])[::-1]
    return (right / s_norm) * below + (left / s_norm) * above


def solve_sturm_liouville(a_value: float, b: SampledField) -> SampledField:
    """Two-point boundary value problem -a u0'' + u0 = b, u0(0) = u0(1) = 0.

    Solved twice, by second-order finite differences and by quadrature
    against the explicit Green kernel, and cross-validated; disagreement
    beyond the expected O(h^2) envelope raises.
    """
    if a_value <= 0:
        raise ValidationError(f"a_value must be positive, got {a_value}")
    if a_value < SL_MIN_A:
        raise ValidationError(
            f"a_value = {a_value:.3g} is below {SL_MIN_A:.3g}, the smallest the "
            "Green-kernel check supports (sinh(1/sqrt(a)) overflows)")
    if b.values.ndim != 1:
        raise ValidationError("b must be a 1D field on [0, 1]")
    if abs(b.origin) > 1e-12 or abs(b.origin + b.spacing * (b.n - 1) - 1.0) > 1e-9:
        raise ValidationError("b must be sampled on [0, 1] inclusive")
    h = b.spacing
    fd = _sl_matrix_solve(a_value, b.values, h)
    green = _sl_green_solve(a_value, b.values, h)
    scale = max(1.0, float(np.abs(fd).max()))
    gate = max(1e-5, 50.0 * h ** 2) * scale
    gap = float(np.abs(fd - green).max())
    if gap > gate:
        raise CrossValidationError(
            f"finite-difference and Green-kernel solutions differ by {gap:.3e} "
            f"(gate {gate:.3e})")
    return SampledField.on_unit_interval(fd)


def _second_difference(row: np.ndarray, h: float) -> np.ndarray:
    d2 = np.zeros_like(row)
    d2[1:-1] = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / h ** 2
    return d2


def two_scale_profile(params: SpectralParams, u: SampledField):
    """Optimal two-scale profile of u under the phase-mean constraint.

    Returns (u0_phase1, u0_phasec, b_common): both branches solve
    -a u0'' + u0 = b_common with their own a in {1, c} and homogeneous
    Dirichlet data, and their theta-weighted mean reproduces u.  The
    common right-hand side is obtained by eliminating the constraint,
    which reduces to a single solve with coefficient c_theta.
    """
    _check_zero_extended(u)
    if u.values.ndim != 1:
        raise ValidationError("the two-scale profile is built one x1 row at a time")
    row = u.values
    h = u.spacing
    c, th = params.c, params.theta
    rhs1 = -c * _second_difference(row, h) + row
    w1 = _sl_matrix_solve(params.c_theta, rhs1, h)
    b_common = -_second_difference(w1, h) + w1
    b_field = SampledField.on_unit_interval(b_common, zero_extended=False)
    wc = solve_sturm_liouville(c, b_field).values if c > 1.0 else w1.copy()
    mean = th * w1 + (1.0 - th) * wc
    gap = float(np.abs(mean - row).max())
    if gap > MEAN_IDENTITY_TOL * max(1.0, float(np.abs(row).max())):
        raise CrossValidationError(
            f"phase-mean identity violated by {gap:.3e} (tolerance "
            f"{MEAN_IDENTITY_TOL:g}); profile construction is inconsistent")
    return (SampledField.on_unit_interval(w1),
            SampledField.on_unit_interval(wc),
            b_field)


def build_u0(params: SpectralParams, u: SampledField):
    """The two u0 phase branches (a = 1 and a = c) of the two-scale limit."""
    w1, wc, _ = two_scale_profile(params, u)
    return w1, wc


# ---------------------------------------------------------------------------
# recovery energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryResult:
    eps: float
    energy_eps: float
    limit_energy: float
    gap: float


def recovery_energy(params: SpectralParams, u, eps: float, n_fine: int) -> RecoveryResult:
    """Discrete oscillating energy of u0(x1, x2/eps) against the limit form.

    ``u`` is a callable x1-profile or a 1D SampledField already on the
    n_fine grid.  eps must be the reciprocal of an integer so the
    microstructure tiles (0, 1) exactly, and n_fine must provide at least
    16 x2 samples per period.
    """
    m = 1.0 / eps
    if abs(m - round(m)) > 1e-9:
        raise ValidationError(f"eps must be the reciprocal of an integer, got {eps}")
    periods = int(round(m))
    if n_fine < 16:
        raise ValidationError("n_fine must be at least 16 (x1 resolution)")
    if n_fine < 16 * periods:
        raise ValidationError(
            f"n_fine = {n_fine} gives fewer than 16 x2 points per period for "
            f"eps = 1/{periods}")
    if callable(u):
        field = SampledField.from_function(u, n_fine)
    else:
        field = u
        if field.values.ndim != 1 or field.n != n_fine:
            raise ValidationError("u must be a 1D field sampled at n_fine points")
    if float(np.abs(field.values).max()) == 0.0:
        return RecoveryResult(eps=eps, energy_eps=0.0, limit_energy=0.0, gap=0.0)
    w1, wc, _ = two_scale_profile(params, field)
    dx = field.spacing
    # x2 midpoint sampling keeps the phase fractions exact whenever
    # theta * (points per period) is an integer.  Every x2 row of
    # u0(x1, x2/eps) is one of the two branches, so the energy is the
    # phase-fraction-weighted sum of the two 1D branch energies.
    x2 = (np.arange(n_fine) + 0.5) / n_fine
    frac1 = float(np.mean(params.conductivity(x2 / eps) == 1.0))
    branches = np.stack([w1.values, wc.values])
    a_vals = np.array([1.0, params.c])[:, None]
    e1, ec = _trapz(a_vals * _derivative(branches, dx) ** 2 + branches ** 2, dx)
    energy = float(frac1 * e1 + (1.0 - frac1) * ec)
    limit = gamma_limit_fourier(params, field)
    gap = abs(energy - limit) / limit
    return RecoveryResult(eps=eps, energy_eps=energy, limit_energy=limit, gap=gap)
