"""Convergence analysis: error curves, rate fits, and diagnostics.

The deterministic engines (exact law, scheme law, cubic moment) give weak
errors at a list of grid sizes with no Monte Carlo noise; ``fit_rate``
compares the fitted log-log decay against the reference rate

    v_n(alpha) = 1/n           for alpha > 2/3,
                 log(n)/n      at alpha = 2/3,
                 n^{-(3a-1)}   for alpha < 2/3.

Two further diagnostics live here.  ``kernel_freeze_gap`` measures the
terminal-variance defect of the naive scheme that evaluates (rather than
integrates) the fractional kernel on each cell; the defect decays only like
n^{1-2a}, with constant -zeta(2-2a) T^{2a-1} / Gamma(a)^2 (positive, since
zeta < 0 on (0,1)).  ``strong_error_exact`` evaluates the L^2 distance
sqrt(Var(X_T - Xc_T)) as one integral of the squared kernel difference, by
per-cell Gauss rules on the resolvent's cell tails, without the scheme law.

``mc_weak_error`` is the only stochastic tool: a common-random-numbers
comparison of a coarse and a fine scheme driven by one shared fine driver,
so that the paired difference estimates the weak-error gap with far less
variance than two independent runs.  Curve points and reductions run in a
fixed order so results are reproducible regardless of the host.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .exact_law import (
    _BLOCK_SIZE,
    ModelParams,
    _blocks,
    _malliavin_kernel_array,
    cov_exact,
    mean_exact,
)
from .kernels import TimeGrid, _cell_tails, jacobi_rule, legendre_rule
from .moments import cubic_exact, cubic_scheme
from .scheme import FunctionSpec, _check_law_grid, _driver_draws, _driver_factor, _propagate
from .scheme import _MAX_N, _resolvent, build_scheme_law
from .specfun import gamma

_QUANTITIES = ("mean_X", "var_X", "cov_X", "cubic_L")
_ZETA_TERMS = 40
_TWO_THIRDS_TOL = 1e-12
_VAR_CLAMP = 1e-10  # relative tolerance for a slightly negative variance


@dataclass(frozen=True)
class ErrorCurve:
    """Absolute weak errors of one quantity over increasing grid sizes."""

    quantity: str
    n_values: tuple
    errors: tuple


@dataclass(frozen=True)
class RateFit:
    """Least-squares log-log fit of an error curve against v_n(alpha).

    ``slope`` is the decay exponent q in errors ~ C n^{-q} (positive for a
    converging curve), except on the log branch alpha = 2/3 where the fit is
    run on errors * n/log(n) and ``slope`` is the raw flatness slope of that
    rescaled curve (ideally 0).  ``theoretical`` is a short descriptor of
    the reference branch; ``passed`` is the band test described in
    ``fit_rate``.
    """

    n_values: tuple
    errors: tuple
    slope: float
    intercept: float
    r_squared: float
    theoretical: str
    passed: bool


@dataclass(frozen=True)
class MCResult:
    """A Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    paths: int
    seed: int
    grid: TimeGrid

    def __post_init__(self) -> None:
        if not self.std_error >= 0.0:
            raise ValidationError("MCResult: std_error must be >= 0")


@dataclass(frozen=True)
class MCComparison:
    """Coarse and fine MC results plus their paired difference."""

    coarse: MCResult
    fine: MCResult
    difference: float
    difference_se: float


def zeta_alternating(s: float) -> float:
    """Riemann zeta on (0, 1) via the accelerated alternating (eta) series.

    eta(s) = sum (-1)^{k-1} k^{-s} is summed with the Chebyshev-polynomial
    acceleration of Cohen-Rodriguez Villegas-Zagier (error ~ (3+sqrt(8))^{-m}
    with m = 40 terms, far below double precision), then
    zeta(s) = eta(s) / (1 - 2^{1-s}).
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValidationError(f"zeta_alternating: s must be in (0, 1), got {s}")
    m = _ZETA_TERMS
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** m
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    eta = 0.0
    for k in range(m):
        c = b - c
        eta += c * (k + 1.0) ** (-s)
        b *= (k + m) * (k - m) / ((k + 0.5) * (k + 1.0))
    eta /= d
    return eta / (1.0 - 2.0 ** (1.0 - s))


def theoretical_rate(alpha: float, n: int) -> float:
    """Reference weak-error magnitude v_n(alpha) at grid size n.

    1/n above alpha = 2/3, log(n)/n on the critical line, n^{-(3a-1)} below.
    """
    alpha = float(alpha)
    if not (0.5 < alpha < 1.0):
        raise ValidationError(f"theoretical_rate: alpha must be in (1/2, 1), got {alpha}")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValidationError(f"theoretical_rate: n must be an integer >= 2, got {n}")
    n = int(n)
    if abs(alpha - 2.0 / 3.0) <= _TWO_THIRDS_TOL:
        return math.log(n) / n
    if alpha > 2.0 / 3.0:
        return 1.0 / n
    return float(n) ** (1.0 - 3.0 * alpha)


def _check_n_list(n_list: Sequence[int], need_even: bool) -> tuple:
    ns = []
    for n in n_list:
        if not (isinstance(n, (int, np.integer)) and 2 <= n <= _MAX_N):
            raise ValidationError(
                f"weak_error_curve: grid sizes must be integers in [2, {_MAX_N}], got {n}"
            )
        if need_even and n % 2:
            raise ValidationError(
                f"weak_error_curve: cov_X compares the (T/2, T) pair and needs even n, got {n}"
            )
        ns.append(int(n))
    if len(ns) < 1:
        raise ValidationError("weak_error_curve: n_list must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError(f"weak_error_curve: n_list must be strictly increasing, got {ns}")
    return tuple(ns)


def weak_error_curve(
    quantity: str,
    alpha: float,
    p: ModelParams,
    n_list: Sequence[int],
) -> ErrorCurve:
    """Deterministic absolute weak errors of one scalar quantity vs n.

    quantity is one of:
      mean_X  -- |E X_T - mean of the scheme at t_n|
      var_X   -- |Var X_T - scheme variance at t_n|
      cov_X   -- |Cov(X_{T/2}, X_T) - scheme covariance of the same pair|
                 (needs even n so T/2 is a grid point)
      cubic_L -- |E Lc_T^3 gap| for f(x) = x, b = 0 (both sides closed form)

    ``alpha`` overrides ``p.alpha`` so one base parameter set can be swept
    across regularities.  Every point is Monte-Carlo-free.
    """
    if quantity not in _QUANTITIES:
        raise ValidationError(
            f"weak_error_curve: quantity must be one of {_QUANTITIES}, got {quantity!r}"
        )
    ns = _check_n_list(n_list, need_even=(quantity == "cov_X"))
    p = dataclasses.replace(p, alpha=float(alpha))
    T = p.T
    f_id = FunctionSpec("affine", (0.0, 1.0), role="diffusion")
    if quantity == "mean_X":
        ref = mean_exact(p, T)
    elif quantity == "var_X":
        ref = cov_exact(p, T, T)
    elif quantity == "cov_X":
        ref = cov_exact(p, 0.5 * T, T)
    else:
        ref = cubic_exact(p, f_id)
    errors = []
    for n in ns:
        law = build_scheme_law(TimeGrid(n, T), p)
        if quantity == "mean_X":
            approx = law.mean[n]
        elif quantity == "var_X":
            approx = law.cov[n, n]
        elif quantity == "cov_X":
            approx = law.cov[n // 2, n]
        else:
            approx = cubic_scheme(law, p, f_id)
        errors.append(abs(ref - float(approx)))
    return ErrorCurve(quantity, ns, tuple(errors))


def fit_loglog(n_values: Sequence[int], errors: Sequence[float]):
    """OLS fit of log(error) on log(n): returns (decay, intercept, r_squared).

    ``decay`` is the exponent q with errors ~ C n^{-q}, i.e. the negated raw
    slope, so a first-order scheme reports decay 1.0.
    """
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    if x.size < 2 or np.ptp(x) == 0.0:
        raise ValidationError("fit_loglog: need >= 2 distinct grid sizes")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0.0 else 1.0
    return -float(slope), float(intercept), r2


def fit_rate(
    curve: ErrorCurve,
    alpha: float,
    band: float = 0.15,
    flat_band: float = 0.1,
) -> RateFit:
    """Fit an error curve and test it against the reference rate v_n(alpha).

    Off the critical line the decay exponent is fitted and compared with
    min(3 alpha - 1, 1): pass iff |decay - target| <= band.  At alpha = 2/3
    the curve is rescaled by n/log(n) (which removes the reference rate
    exactly) and the fit tests flatness: pass iff |slope| <= flat_band.
    """
    alpha = float(alpha)
    if not (0.5 < alpha < 1.0):
        raise ValidationError(f"fit_rate: alpha must be in (1/2, 1), got {alpha}")
    ns = tuple(int(n) for n in curve.n_values)
    errs = tuple(float(e) for e in curve.errors)
    if len(ns) < 4:
        raise ValidationError(f"fit_rate: need >= 4 curve points, got {len(ns)}")
    if min(errs) <= 0.0 or min(errs) <= 10.0 * np.finfo(float).eps * max(errs):
        raise ValidationError(
            "fit_rate: errors must be positive and clear of round-off "
            "(smallest point is within 10 eps of the curve scale)"
        )
    if abs(alpha - 2.0 / 3.0) <= _TWO_THIRDS_TOL:
        narr = np.asarray(ns, dtype=float)
        scaled = np.asarray(errs) * narr / np.log(narr)
        decay, intercept, r2 = fit_loglog(ns, scaled)
        slope = -decay  # raw slope of the rescaled curve; 0 means on-rate
        return RateFit(ns, errs, slope, intercept, r2, "log(n)/n", abs(slope) <= flat_band)
    target = min(3.0 * alpha - 1.0, 1.0)
    decay, intercept, r2 = fit_loglog(ns, errs)
    descriptor = "n^-1" if alpha > 2.0 / 3.0 else f"n^-{target:g}"
    return RateFit(ns, errs, decay, intercept, r2, descriptor, abs(decay - target) <= band)


def kernel_freeze_gap(grid: TimeGrid, alpha: float):
    """Terminal-variance defect of the frozen-kernel scheme, and its asymptote.

    gap = T^{2a-1} / ((2a-1) Gamma(a)^2)
          - (T/n) sum_{i=1..n} (i T/n)^{2a-2} / Gamma(a)^2

    is the amount by which the right-endpoint Riemann sum of the decreasing
    kernel square undershoots its integral, hence gap > 0.  The matching
    asymptote is -zeta(2(1-a)) T^{2a-1} / (Gamma(a)^2 n^{2a-1}); the minus
    sign makes it positive because zeta < 0 on (0, 1).  Returns
    (gap, asymptote).
    """
    alpha = float(alpha)
    if not (0.5 < alpha < 1.0):
        raise ValidationError(f"kernel_freeze_gap: alpha must be in (1/2, 1), got {alpha}")
    n, T = grid.n, grid.T
    g2 = gamma(alpha) ** 2
    i = np.arange(1, n + 1, dtype=float)
    riemann = (T / n) * float(np.sum((i * T / n) ** (2.0 * alpha - 2.0))) / g2
    gap = T ** (2.0 * alpha - 1.0) / ((2.0 * alpha - 1.0) * g2) - riemann
    asymptote = (
        -zeta_alternating(2.0 * (1.0 - alpha))
        * T ** (2.0 * alpha - 1.0)
        / (g2 * float(n) ** (2.0 * alpha - 1.0))
    )
    return gap, asymptote


def _last_cell_difference_sq(p: ModelParams, dt: float) -> float:
    """int over the last cell of (D_s X_T - D_s Xc_T)^2 ds, in closed form.

    There the two kernels differ only through the Mittag-Leffler tail,
    D_e - D_s = sigma sum_{j>=1} kappa2^j (T-s)^{a-1+aj} / Gamma(a(j+1)),
    so the squared difference integrates to the double series below, which
    converges like an entire function of kappa2 dt^a.
    """
    a = p.alpha
    v = p.kappa2 * dt**a
    inv_gamma = [0.0, 0.0]  # 1/Gamma(a(j+1)) for j = 0 unused; filled from j=1
    total = 0.0
    m = 2
    while True:
        while len(inv_gamma) <= m:
            j = len(inv_gamma) - 1
            inv_gamma.append(1.0 / gamma(a * (j + 1.0)))
        a_m = sum(inv_gamma[j + 1] * inv_gamma[m - j + 1] for j in range(1, m))
        term = p.sigma**2 * v**m * dt ** (2.0 * a - 1.0) * a_m / (2.0 * a - 1.0 + a * m)
        total += term
        if m >= 6 and abs(term) < 1e-17 * max(abs(total), 1e-300):
            return total
        m += 1
        if m > 400:
            raise ConvergenceError("strong_error_exact: last-cell series did not converge")


def strong_error_exact(
    grid: TimeGrid,
    p: ModelParams,
    npts: int = 20,
) -> float:
    """L^2 distance sqrt(Var(X_T - Xc_T)) between exact and scheme at T.

    Var = Var X_T - 2 int_0^T D_s X_T D_s Xc_T ds + Var Xc_T, which by the
    isometry of both Wiener representations equals the single integral
    int_0^T (D_s X_T - D_s Xc_T)^2 ds; the fused form is evaluated so that
    the cancellation between the three terms (relative size ~ n^{-3/2} at
    alpha = 3/4) happens inside each cell instead of between quadratures.
    On cell i, p = n - i cells back, the scheme kernel splits into its
    own-edge spike c_p (t_{i+1}-s)^{a-1}, c_p = sigma omega_{p-1}/Gamma(a),
    plus the smooth tail r_p of ``kernels._cell_tails``, leaving three
    pieces: a Gauss-Legendre integral of the smooth difference squared, a
    Gauss-Jacobi cross integral against the spike, and the spike square
    dt^{2a-1}/(2a-1) in closed form.  On the last cell the exact and scheme
    spikes cancel exactly (omega_0 = 1) and the remainder integrates as a
    Mittag-Leffler double series.  Every piece converges spectrally or is
    exact, uniformly in n.

    Returns exactly 0 when kappa2 = 0 (the scheme then reproduces X).
    A variance below -1e-10 raises ConvergenceError.
    """
    if p.kappa2_is_zero:
        return 0.0
    _check_law_grid("strong_error_exact", grid, p)
    n, a, dt = grid.n, p.alpha, grid.dt
    omega, _ = _resolvent(grid, p)
    sgam = p.sigma / gamma(a)
    ul, wl = legendre_rule(npts, 0.0, 1.0)
    uj, wj = jacobi_rule(npts, a - 1.0, 0.0, 0.0, 1.0)
    u = np.concatenate((ul, uj))
    lag = np.arange(2.0, n + 1.0)[:, None]  # row p-2 is cell i = n - p
    g = _malliavin_kernel_array(p, dt * (lag - u))
    g -= sgam * dt ** (a - 1.0) * _cell_tails(omega[:n], a, u)[1:]
    c = sgam * omega[1:n]
    per_cell = (
        dt * (g[:, :npts] ** 2 @ wl)
        - 2.0 * dt**a * c * (g[:, npts:] @ wj)
        + c * c * dt ** (2.0 * a - 1.0) / (2.0 * a - 1.0)
    )
    var_diff = float(per_cell.sum()) + _last_cell_difference_sq(p, dt)
    if var_diff < -_VAR_CLAMP:
        raise ConvergenceError(
            f"strong_error_exact: fused quadrature gave negative variance {var_diff:.3e}"
        )
    return math.sqrt(max(var_diff, 0.0))


def mc_weak_error(
    phi: FunctionSpec,
    b: FunctionSpec,
    f: FunctionSpec,
    p: ModelParams,
    n_coarse: int,
    n_fine: int,
    paths: int,
    seed: int,
    block_size: int = _BLOCK_SIZE,
) -> MCComparison:
    """Common-random-numbers estimate of E phi(Lc^coarse) - E phi(Lc^fine).

    The fine driver (dW, G) is sampled once per path from its exact joint
    law; the coarse scheme reuses it -- coarse Brownian increments are sums
    of fine ones, and the coarse G_k is the fine G at the same time point
    (G depends only on the time and the W path, and the coarse times are a
    subset of the fine ones).  The orthogonal Brownian part is shared the
    same way.  Both schemes therefore see one path of one driver, and with
    n_fine = n_coarse the paired difference is exactly 0 path by path.

    Returns the two MCResults plus the paired difference and its standard
    error (sample std of the per-path differences over sqrt(paths)).
    """
    if not (isinstance(paths, (int, np.integer)) and paths >= 2):
        raise ValidationError(f"mc_weak_error: paths must be an integer >= 2, got {paths}")
    if not (phi.is_polynomial):
        raise ValidationError(f"mc_weak_error: phi must be polynomial, got kind {phi.kind!r}")
    n_coarse, n_fine = int(n_coarse), int(n_fine)
    if n_coarse < 1 or n_fine < n_coarse or n_fine % n_coarse:
        raise ValidationError(
            f"mc_weak_error: need n_fine a multiple of n_coarse >= 1, got {n_coarse}, {n_fine}"
        )
    paths = int(paths)
    ratio = n_fine // n_coarse
    grid_f = TimeGrid(n_fine, p.T)
    grid_c = TimeGrid(n_coarse, p.T)
    factor = _driver_factor(p, grid_f)
    fine = _resolvent(grid_f, p)
    coarse = _resolvent(grid_c, p)
    dt_f, dt_c = grid_f.dt, grid_c.dt
    rho = p.rho
    rho_perp = math.sqrt(max(1.0 - rho * rho, 0.0))
    phi_c = np.empty(paths)
    phi_f = np.empty(paths)
    for lo, hi, rng in _blocks(seed, paths, block_size):
        bs = hi - lo
        dW_f, G_f = _driver_draws(rng, factor, bs)
        perp_f = math.sqrt(dt_f) * rng.standard_normal((bs, n_fine))
        dB_f = rho * dW_f + rho_perp * perp_f
        dW_c = dW_f.reshape(bs, n_coarse, ratio).sum(axis=2)
        perp_c = perp_f.reshape(bs, n_coarse, ratio).sum(axis=2)
        dB_c = rho * dW_c + rho_perp * perp_c
        G_c = G_f[:, ratio - 1 :: ratio]
        _, L_f = _propagate(p, *fine, dt_f, G_f, dB_f, b, f)
        _, L_c = _propagate(p, *coarse, dt_c, G_c, dB_c, b, f)
        phi_c[lo:hi] = phi.value(L_c)
        phi_f[lo:hi] = phi.value(L_f)
    diff = phi_c - phi_f
    root = math.sqrt(paths)

    def _result(vals: np.ndarray, grid: TimeGrid) -> MCResult:
        return MCResult(float(vals.mean()), float(vals.std(ddof=1)) / root, paths, seed, grid)

    return MCComparison(
        _result(phi_c, grid_c),
        _result(phi_f, grid_f),
        float(diff.mean()),
        float(diff.std(ddof=1)) / root,
    )
