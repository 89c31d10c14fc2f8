"""The anomalous two-dimensional limit of the degenerate laminate energy.

For the x2-laminate with phases e1 x e1 and c * e1 x e1 (contrast c > 1,
fraction theta), the oscillating energies

    F_eps(u) = int a(x2/eps) (du/dx1)^2 + u^2 dx,   a in {1, c},

converge (weak-L2 Gamma sense) to a limit with two equivalent closed
forms: a spectral one weighted by 1/k0_hat(lambda), and a nonlocal one
with gradient coefficient c/c_theta plus the square of sqrt(alpha) u +
h *_1 u for an explicit even kernel h.  This module evaluates both forms
(the spectral one in real space, O(n) and with no transform, because
1/k0_hat is a polynomial minus the transform of a semiseparable kernel;
the nonlocal one on the whole line in O(q n), because h is an exact sum
of q decaying exponentials), builds the two-scale
profile u0_a = (-a d^2 + 1)^-1 b, a in {1, c}, with b = u / k0_hat taken
in the sine basis of the Dirichlet second difference and one checked
Sturm-Liouville solve per phase, and measures the recovery energies
F_eps(u0(x1, x2/eps)) against the limit.

Conventions: Fourier transform F(u)(lambda) = int exp(-2 pi i lambda x)
u(x) dx; functions of x1 live on [0, 1] sampled at n equispaced points
including the endpoints (``SampledField``) and are extended by zero
outside.  Only the kernel h (``h_kernel``) is sampled elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossValidationError, ValidationError

TWO_PI_SQ = 4.0 * np.pi ** 2
# Most work, nodes x (samples + nodes), spent on h's exponential sum.
EXP_SUM_MAX_WORK = 1 << 28
N_MAX = 1 << 19  # most samples of a field built from a function, or of h
MEAN_IDENTITY_TOL = 1e-4
# Smallest Sturm-Liouville coefficient the Green-kernel check supports:
# sinh(1/sqrt(a)) overflows a double beyond 1/sqrt(a) = 710.47.
SL_MIN_A = 1.0 / 710.0 ** 2


@dataclass(frozen=True)
class SpectralParams:
    """Contrast c and volume fraction theta with the derived constants.

    c_theta = c theta + 1 - theta, alpha = (c^2 theta + 1 - theta) /
    c_theta^2, and k = K = (c - 1)^2 theta (1 - theta) / c_theta^2, the
    weight of the nonlocal term.  c = 1 (no contrast) is allowed as a
    consistency limit; the counter-example proper needs c > 1.  c is refused
    where (c - 1)^2 overflows a double (c above about 1.34e154).
    """

    c: float
    theta: float

    def __post_init__(self):
        if not (self.c >= 1.0 and math.isfinite((self.c - 1.0) * (self.c - 1.0))):
            raise ValidationError(
                f"contrast c must be >= 1 with (c - 1)^2 finite, got {self.c}")
        if not (0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def c_theta(self) -> float:
        return self.c * self.theta + 1.0 - self.theta

    @property
    def alpha(self) -> float:
        return (self.c ** 2 * self.theta + 1.0 - self.theta) / self.c_theta ** 2

    @property
    def k(self) -> float:
        return (self.c - 1.0) ** 2 * self.theta * (1.0 - self.theta) / self.c_theta ** 2

    def conductivity(self, y2) -> np.ndarray:
        """a(y2) = 1 on the theta-fraction phase, c on the rest (1-periodic)."""
        frac = np.mod(y2, 1.0)
        return np.where(frac < self.theta, 1.0, self.c)


@dataclass(frozen=True)
class SampledField:
    """One x1 row: samples of a real function at n >= 16 equispaced points of
    [0, 1], ends included.

    F_eps has no x2-derivative, so the limit of a field u(x1, x2) is the
    x2-integral of the limit of each of its x1 rows; a row is all this
    module takes.  The spacing 1/(n - 1) and nodes x derive from n.  The
    limit forms and the profile treat a row as zero outside (0, 1) and check
    that it vanishes at x1 = 0 and 1.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not (v.ndim == 1 and v.size >= 16):
            raise ValidationError(
                f"a field is one x1 row of at least 16 samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("field has non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return self.spacing * np.arange(self.n)

    @classmethod
    def from_function(cls, fn, n: int) -> "SampledField":
        """fn at n equispaced points of [0, 1]; n above N_MAX is refused."""
        if not n <= N_MAX:
            raise ValidationError(f"a field holds at most {N_MAX} samples")
        return cls(fn(np.linspace(0.0, 1.0, n)))


def test_function(name: str):
    """Named x1 test profiles: 'sin_k' (k = 1..9) and the smooth 'bump'."""
    if isinstance(name, str) and name.startswith("sin_"):
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
    return _k0_of_symbol(params, TWO_PI_SQ * np.square(lambda1))


def _k0_of_symbol(params: SpectralParams, t):
    """k0_hat as a function of the symbol t = 4 pi^2 lambda^2 of -d^2/dx^2."""
    return params.theta / (t + 1.0) + (1.0 - params.theta) / (params.c * t + 1.0)


def alpha_f(params: SpectralParams, lambda1):
    """The constant alpha and the non-positive correction f(lambda).

    Together they decompose the reciprocal kernel:
    1/k0_hat = (c/c_theta) 4 pi^2 lambda^2 + alpha + f(lambda), with
    f = -K / (c_theta 4 pi^2 lambda^2 + 1).
    """
    t = TWO_PI_SQ * np.square(lambda1)
    return params.alpha, -params.k / (params.c_theta * t + 1.0)


def h_exponential_sum(params: SpectralParams, samples: float = 1.0):
    """Weights w and rates sigma with h(x) = sum_k w_k exp(-sigma_k |x|).

    With t = 4 pi^2 lambda^2, a = 1/(alpha c_theta) and b = 1/c_theta,
    F(h) = sqrt(alpha) (sqrt((t + a)/(t + b)) - 1) is a Stieltjes function,
    and tau = a + (b - a)(1 - cos phi)/2, sigma = sqrt(tau) turn it into
    h(x) = -sqrt(alpha) (b - a)/(2 pi) int_0^pi (1 - cos phi) e^(-sigma |x|)/(2 sigma) dphi.
    The integrand is smooth and periodic in phi, so the q-point midpoint
    rule errs by about exp(-4 q / sqrt(alpha)); q = max(8, ceil(9 sqrt(alpha))).
    b - a = K/(alpha c_theta), K = ``params.k``, is not formed by
    subtraction, which would cancel for c near 1.  Work on ``samples``
    points per node and on the node pairs, q (samples + q) above
    EXP_SUM_MAX_WORK, is refused before any per-node work.
    """
    alpha, cth = params.alpha, params.c_theta
    q = max(8, math.ceil(9.0 * math.sqrt(alpha)))
    if not q * (samples + q) <= EXP_SUM_MAX_WORK:
        raise ValidationError(
            f"h's exponential sum needs {q} nodes for {samples:.3g} samples, more "
            f"than {EXP_SUM_MAX_WORK} node-samples; lower the contrast or the resolution")
    half_gap = np.sin((np.arange(q) + 0.5) * np.pi / (2 * q)) ** 2  # (1 - cos phi)/2
    b_minus_a = params.k / (alpha * cth)
    sigma = np.sqrt(1.0 / (alpha * cth) + b_minus_a * half_gap)
    return -math.sqrt(alpha) * b_minus_a * half_gap / (2.0 * q * sigma), sigma


def h_kernel(params: SpectralParams, dx: float, half_width: float = 1.0):
    """(x, h): the convolution kernel h at spacing dx on [-half_width, half_width].

    h is ``h_exponential_sum``, exact to rounding: real and even, returned
    centred at x = 0 with an odd number of samples, at most N_MAX.
    """
    if not (dx > 0.0 and half_width > 0.0):
        raise ValidationError(
            f"dx and half_width must be positive, got {dx!r} and {half_width!r}")
    w, sigma = h_exponential_sum(params, 2.0 * half_width / dx + 1.0)
    k = int(round(half_width / dx))
    if not 2 * k + 1 <= N_MAX:
        raise ValidationError(
            f"h holds at most {N_MAX} samples, not {2 * k + 1} (spacing {dx:g} "
            f"on [-{half_width:g}, {half_width:g}])")
    dist = dx * np.abs(np.arange(-k, k + 1))
    h = sum(wk * np.exp(-sk * dist) for wk, sk in zip(w, sigma))
    return dx * np.arange(2 * k + 1) - k * dx, h


# ---------------------------------------------------------------------------
# the two limit forms
# ---------------------------------------------------------------------------

def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights of n equispaced nodes at spacing h."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _check_zero_extended(u: SampledField):
    """u is zero outside (0, 1), so it must vanish at both ends."""
    v = u.values
    if max(abs(v[0]), abs(v[-1])) > 1e-9 * max(1.0, float(np.abs(v).max())):
        raise ValidationError("zero-extended field must vanish at x1 = 0 and 1")


def gamma_limit_fourier(params: SpectralParams, u: SampledField) -> float:
    """Spectral form of the limit: int (1/k0_hat) |F(u)|^2 dlambda.

    1/k0_hat = (c/c_theta) 4 pi^2 lambda^2 + alpha - K / (c_theta 4 pi^2
    lambda^2 + 1) with K = ``params.k``, and the last term is the transform
    of g(x) = exp(-|x|/r) / (2r), r = sqrt(c_theta).
    By Plancherel the form is (c/c_theta)|u'|^2 + alpha |u|^2 - K <u, g * u>,
    evaluated in O(n) with no transform: forward differences for |u'|^2,
    the trapezoid rule for |u|^2 and the trapezoid product rule for
    <u, g * u>.  g is semiseparable, so with p = trapezoid weights * u the
    double sum is (2 sum_i p_i e^(-x_i/r) sum_(j<=i) p_j e^(x_j/r) - sum p_i^2)
    / (2r), one running sum (as in _sl_green_solve); r >= 1 and x in [0, 1]
    keep every factor within [1/e, e].  The error is O(dx^2) for u smooth
    on [0, 1].
    """
    _check_zero_extended(u)
    v, dx = u.values, u.spacing
    r = math.sqrt(params.c_theta)
    grad = np.square(np.diff(v)).sum() / dx
    p = v * _trapezoid_weights(u.n, dx)
    decay = np.exp(-u.x / r)
    running = np.cumsum(p / decay)
    pair = (2.0 * (p * running) @ decay - np.einsum("i,i", p, p)) / (2.0 * r)
    mass = np.einsum("i,i", v, p)
    return float(params.c / params.c_theta * grad + params.alpha * mass - params.k * pair)


def gamma_limit_convolution(params: SpectralParams, u: SampledField) -> float:
    """Nonlocal form: int_R (c/c_theta)(du/dx1)^2 + (sqrt(alpha) u + h * u)^2.

    h = sum_k w_k exp(-sigma_k |x|) (``h_exponential_sum``).  Inside [0, 1],
    h * u at the nodes is, per node k, a prefix and a suffix running sum of
    p = trapezoid weights * u: the trapezoid product rule, second order as
    the kink of exp(-sigma |x - x_i|) sits on a node.  Outside, u vanishes
    and h * u = sum_k A_k exp(-sigma_k dist), A_k = w_k * (the running sum
    at the nearer end), so its square integrates in closed form to
    sum_kl A_k A_l / (sigma_k + sigma_l) on each side, summed pair by pair
    as the nodes come: a q x q matrix of pairs would reach 2 GB at
    EXP_SUM_MAX_WORK, and the loop keeps memory O(n).  sigma <= 1 and x in
    [0, 1] keep every factor within [1/e, e].  No kernel is shared with the
    spectral form.
    """
    _check_zero_extended(u)
    v, dx = u.values, u.spacing
    w, sigma = h_exponential_sum(params, u.n)
    trap = _trapezoid_weights(u.n, dx)
    p = v * trap
    conv = np.zeros_like(v)
    ends = np.empty((2, len(w)))  # A_k at x = 0 and at x = 1
    outside = 0.0
    for k, (wk, sk) in enumerate(zip(w, sigma)):
        decay = np.exp(-sk * u.x)
        below = np.cumsum(p / decay) * decay  # sum_(j<=i) p_j e^(-s(x_i-x_j))
        above = np.cumsum((p * decay)[::-1])[::-1] / decay
        conv += wk * (below + above - p)
        a = ends[:, k] = wk * np.array([above[0], below[-1]])
        # the pair (k, k) once and each pair (k, l < k) twice
        earlier = ends[:, :k] @ (1.0 / (sk + sigma[:k]))
        outside += (a * (a / (2.0 * sk) + 2.0 * earlier)).sum()
    local = math.sqrt(params.alpha) * v + conv
    grad = (params.c / params.c_theta) * np.square(np.gradient(v, dx, edge_order=2))
    return float((grad + np.square(local)) @ trap + outside)


# ---------------------------------------------------------------------------
# the Sturm-Liouville problems and the two-scale profile
# ---------------------------------------------------------------------------

def _dst1(f: np.ndarray) -> np.ndarray:
    """Type-I sine transform sum_j f_j sin(pi j k / (m + 1)), k = 1..m, by rfft."""
    m = f.shape[0]
    odd = np.zeros(2 * (m + 1))
    odd[1:m + 1] = f
    odd[m + 2:] = -f[::-1]
    return -0.5 * np.fft.rfft(odd).imag[1:m + 1]


def _dirichlet_symbol(m: int, h: float) -> np.ndarray:
    """Eigenvalues mu_k = (4/h^2) sin^2(k pi / (2(m + 1))), k = 1..m, of the
    second difference -D^2 with Dirichlet ends on m interior nodes."""
    k = np.arange(1, m + 1)
    return (4.0 / h ** 2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2


def _sine_divide(values: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """Divide the sine coefficients of the interior nodes by divisor; ends are 0.

    The type-I sine transform diagonalizes -D^2 and is its own inverse up
    to 2 / (m + 1).
    """
    m = values.shape[0] - 2
    out = np.zeros(m + 2)
    out[1:-1] = (2.0 / (m + 1)) * _dst1(_dst1(values[1:-1]) / divisor)
    return out


def _sl_matrix_solve(a_value: float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Dirichlet solve of -a u'' + u = rhs on the interior nodes."""
    return _sine_divide(rhs, 1.0 + a_value * _dirichlet_symbol(rhs.shape[0] - 2, h))


def _sl_green_solve(a_value: float, rhs: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of int G(x, s) rhs(s) ds at the nodes, in O(n).

    With r = sqrt(a) and S = r sinh(1/r), G(x, s) is
    sinh(s/r) sinh((1 - x)/r) / S for s <= x and sinh(x/r) sinh((1 - s)/r) / S
    for s > x, so the quadrature splits into a prefix and a strict suffix
    running sum (the kernel is semiseparable).  Dividing by S before
    multiplying by the sums keeps every factor finite wherever the dense
    kernel is.
    """
    n = rhs.shape[0]
    x = np.linspace(0.0, 1.0, n)
    r = math.sqrt(a_value)
    s_norm = r * math.sinh(1.0 / r)
    wf = _trapezoid_weights(n, h) * rhs
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
    return SampledField(fd)


def two_scale_profile(params: SpectralParams, u: SampledField):
    """Optimal two-scale profile of u under the phase-mean constraint.

    Returns (u0_phase1, u0_phasec), the solutions of -a u0'' + u0 = b for
    a in {1, c} with homogeneous Dirichlet data (``solve_sturm_liouville``,
    so each is cross-checked), where b = u / k0_hat: in the sine basis, u's
    coefficients divided by k0_hat at the symbol mu_k of -D^2.  The branch
    coefficients are then u_k / (k0_hat(mu_k) (1 + a mu_k)), and their
    theta-weighted mean is u exactly, up to rounding.
    """
    _check_zero_extended(u)
    row = u.values
    mu = _dirichlet_symbol(u.n - 2, u.spacing)
    b = SampledField(_sine_divide(row, _k0_of_symbol(params, mu)))
    w1, wc = (solve_sturm_liouville(a, b) for a in (1.0, params.c))
    mean = params.theta * w1.values + (1.0 - params.theta) * wc.values
    gap = float(np.abs(mean - row).max())
    if gap > MEAN_IDENTITY_TOL * max(1.0, float(np.abs(row).max())):
        raise CrossValidationError(
            f"phase-mean identity violated by {gap:.3e} (tolerance "
            f"{MEAN_IDENTITY_TOL:g}); profile construction is inconsistent")
    return w1, wc


# ---------------------------------------------------------------------------
# recovery energies
# ---------------------------------------------------------------------------

def eps_periods(eps: float) -> int:
    """The number of periods 1/eps; it must be a positive integer to 1e-9."""
    m = 1.0 / eps if eps > 0 else math.nan
    if not (math.isfinite(m) and round(m) >= 1 and abs(m - round(m)) <= 1e-9):
        raise ValidationError(f"eps must be the reciprocal of an integer, got {eps}")
    return int(round(m))


@dataclass(frozen=True)
class RecoveryResult:
    eps: float
    energy_eps: float
    limit_energy: float
    gap: float


def recovery_energy(params: SpectralParams, u, eps: float, n_fine: int) -> RecoveryResult:
    """Discrete oscillating energy of u0(x1, x2/eps) against the limit form.

    ``u`` is a callable x1-profile, sampled at n_fine points.  eps must
    pass ``eps_periods``, and n_fine must provide at least 16 x2 samples
    per period.
    """
    periods = eps_periods(eps)
    if n_fine < 16 * periods:
        raise ValidationError(
            f"n_fine = {n_fine} gives fewer than 16 x2 points per period for "
            f"eps = 1/{periods}")
    field = SampledField.from_function(u, n_fine)
    if float(np.abs(field.values).max()) == 0.0:
        return RecoveryResult(eps=eps, energy_eps=0.0, limit_energy=0.0, gap=0.0)
    w1, wc = two_scale_profile(params, field)
    dx = field.spacing
    # x2 midpoint sampling keeps the phase fractions exact whenever
    # theta * (points per period) is an integer.  Every x2 row of
    # u0(x1, x2/eps) is one of the two branches, so the energy is the
    # phase-fraction-weighted sum of the two 1D branch energies.
    x2 = (np.arange(n_fine) + 0.5) / n_fine
    frac1 = float(np.mean(params.conductivity(x2 / eps) == 1.0))
    branches = np.stack([w1.values, wc.values])
    a_vals = np.array([1.0, params.c])[:, None]
    density = a_vals * np.gradient(branches, dx, axis=1, edge_order=2) ** 2 + branches ** 2
    e1, ec = density @ _trapezoid_weights(field.n, dx)
    energy = float(frac1 * e1 + (1.0 - frac1) * ec)
    limit = gamma_limit_fourier(params, field)
    gap = abs(energy - limit) / limit
    return RecoveryResult(eps=eps, energy_eps=energy, limit_energy=limit, gap=gap)
