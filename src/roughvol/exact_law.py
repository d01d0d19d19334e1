"""Exact Gaussian law of the mean-reverting fractional-kernel process.

The state process solves the linear Volterra equation

    X_t = x0 + int_0^t (t-s)^(a-1)/Gamma(a) * (k1 + k2 X_s) ds
             + sigma int_0^t (t-s)^(a-1)/Gamma(a) dW_s,        a in (1/2, 1],

and is Gaussian with its law in Mittag-Leffler form (every E_{a,b} from
``specfun.ml_array``):

* mean      m(t)   = x0 E_a(k2 t^a) + (k1/k2)(E_a(k2 t^a) - 1)
* kernel    D_s X_t = sigma R(t-s),  R(u) = u^(a-1) E_{a,a}(k2 u^a)   (s < t)
* cov       C(t,T) = sigma^2 int_0^t R(T-t+v) R(v) dv,   t <= T
                     (the Ito isometry, by graded-panel quadrature; on a
                     grid, only for the pairs that touch the first cell),
* stationary variance (k2 < 0)
            sigma^2 int_0^inf R(s)^2 ds, in closed form through the
            Laplace transform 1/(p^a - k2) of R (Plancherel).

This module also carries the joint law of the Euler driver -- Brownian cell
increments together with the exactly-integrated kernel Gaussians
G_k = int_0^{t_k} (t_k-s)^(a-1)/Gamma(a) dW_s -- and reproducible
block-substream sampling for any of these laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .kernels import _CELL_NODES, TimeGrid, _diagonal_cumsum, c_matrix, cross_kernel_table
from .kernels import legendre_rule
from .specfun import ML_MAX_ABS_Z, gamma, ml_array, rgamma

__all__ = [
    "ModelParams",
    "GaussianLaw",
    "mean_exact",
    "cov_exact",
    "malliavin_exact",
    "stationary_variance",
    "grid_law_exact",
    "driver_law",
    "sample",
]

_KAPPA2_ZERO = 1e-12  # |kappa2| below this is treated as exactly zero

# grid_law_exact holds n x n tables and checks the law by an n x n
# Cholesky, O(n^3); the same cap as build_scheme_law
_GRID_LAW_MAX_N = 4096

# _cov_pairs quadrature: Gauss nodes per panel, panel levels below
# v = min(s, h) for an off-diagonal pair, nodes per batch
_COV_NODES = 10
_COV_EXTRA_LEVELS = 16
_COV_BATCH = 1 << 16
_COV_HEAD_TERMS = 96  # power-series terms of the diagonal end panel


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; alpha in (1/2, 1], sigma > 0, rho in [-1, 1]."""

    x0: float
    kappa1: float
    kappa2: float
    sigma: float
    rho: float
    alpha: float
    T: float
    L0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x0", "kappa1", "kappa2", "sigma", "rho", "alpha", "T", "L0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.5 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in (1/2, 1], got {self.alpha}")
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be > 0, got {self.sigma}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValidationError(f"rho must be in [-1, 1], got {self.rho}")
        if not self.T > 0.0:
            raise ValidationError(f"T must be > 0, got {self.T}")
        for name in ("x0", "kappa1", "kappa2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @property
    def kappa2_is_zero(self) -> bool:
        return abs(self.kappa2) < _KAPPA2_ZERO


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """A finite-dimensional Gaussian law with labelled coordinates."""

    labels: tuple
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        d = len(self.labels)
        if mean.shape != (d,) or cov.shape != (d, d):
            raise ValidationError(
                f"GaussianLaw: labels/mean/cov shapes disagree "
                f"({d}, {mean.shape}, {cov.shape})"
            )
        if not np.abs(cov - cov.T).max() <= 1e-10 * max(1.0, np.abs(cov).max()):
            raise ValidationError("GaussianLaw: covariance not symmetric")
        scale = max(float(np.abs(np.diag(cov)).max()), 1e-300)
        try:  # fails iff an eigenvalue is below -1e-8 * scale (up to rounding)
            np.linalg.cholesky(cov + 1e-8 * scale * np.eye(d))
        except np.linalg.LinAlgError:
            raise ValidationError("GaussianLaw: covariance has an eigenvalue below -1e-8 * scale")

    @property
    def dim(self) -> int:
        return len(self.labels)


def _check_ml_scale(params: ModelParams, t: float) -> None:
    if abs(params.kappa2) * t**params.alpha > ML_MAX_ABS_Z:
        raise ValidationError(
            f"|kappa2| * t^alpha = {abs(params.kappa2) * t ** params.alpha:.3g} exceeds "
            f"the Mittag-Leffler working range {ML_MAX_ABS_Z}"
        )


def mean_exact(params: ModelParams, t: float) -> float:
    """E[X_t]; reduces to x0 + kappa1 t^alpha / Gamma(alpha+1) when kappa2 = 0."""
    t = float(t)
    if t < 0.0:
        raise ValidationError(f"mean_exact: t must be >= 0, got {t}")
    return float(_mean_many(params, np.array([t]))[0])


def malliavin_exact(params: ModelParams, s: float, t: float) -> float:
    """D_s X_t = sigma (t-s)^(alpha-1) E_{alpha,alpha}(kappa2 (t-s)^alpha), s < t."""
    if not (0.0 <= s < t):
        raise ValidationError(f"malliavin_exact: need 0 <= s < t, got s={s}, t={t}")
    return float(_malliavin_kernel_array(params, np.array([t - s]))[0])


def _malliavin_kernel_array(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Vectorised sigma*u^(a-1)*E_{a,a}(k2 u^a) for u > 0 arrays."""
    a = params.alpha
    u = np.asarray(u, dtype=float)
    return params.sigma * u ** (a - 1.0) * ml_array(a, a, params.kappa2 * u**a)


def _mean_many(params: ModelParams, t: np.ndarray) -> np.ndarray:
    """Vectorised mean_exact over a t >= 0 array."""
    a = params.alpha
    t = np.asarray(t, dtype=float)
    if params.kappa2_is_zero:
        return params.x0 + params.kappa1 * t**a / gamma(a + 1.0)
    E = ml_array(a, 1.0, params.kappa2 * t**a)
    return params.x0 * E + (params.kappa1 / params.kappa2) * (E - 1.0)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def _cov_rule(alpha: float, depth: int):
    """Nodes v = s f and weights c of the Cov(X_s, X_{s+h}) quadrature.

    Cov = sigma^2 s^a sum_i c_i (h + v_i)^(a-1) E(k2 v_i^a) E(k2 (h + v_i)^a)
    with E = E_{a,a}.  Gauss-Legendre rules sit on the panels
    [s 2^-(k+1), s 2^-k], k < depth, and on the end panel [0, s 2^-depth]
    in y = v^a, where R(v) dv = E(k2 y) dy / a.  The end panel's
    _COV_NODES nodes come last.
    """
    x, w = legendre_rule(_COV_NODES, 0.0, 1.0)
    lo = 2.0 ** -np.arange(1.0, depth + 1.0)[:, None]
    f = lo * (1.0 + x)
    c = lo * w * f ** (alpha - 1.0)
    f = np.append(f, 2.0**-depth * x ** (1.0 / alpha))
    c = np.append(c, 2.0 ** (-depth * alpha) * w / alpha)
    return f, c


def _cov_head(alpha: float, k2: float, V: np.ndarray) -> np.ndarray:
    """int_0^V R(v)^2 dv for |k2| V^a <= 1, by the power series of R^2.

    R(v)^2 = v^(2a-2) sum_m k2^m B_m v^(am) with B_m = sum_j c_j c_(m-j),
    c_j = 1/Gamma(a(j+1)), so the integral is
    sum_m k2^m B_m V^(2a-1+am) / (2a-1+am).
    """
    c = rgamma(alpha * np.arange(1.0, _COV_HEAD_TERMS + 1.0))
    coef = np.convolve(c, c)[:_COV_HEAD_TERMS]
    coef /= 2.0 * alpha - 1.0 + alpha * np.arange(_COV_HEAD_TERMS)
    return V ** (2.0 * alpha - 1.0) * np.polynomial.polynomial.polyval(k2 * V**alpha, coef)


def _cov_pairs(params, t_small, t_big):
    """Cov(X_s, X_t) over pair arrays s = t_small <= t = t_big.

    Ito isometry: sigma^2 int_0^s R(h + v) R(v) dv with h = t - s and the
    resolvent kernel R(u) = u^(a-1) E_{a,a}(k2 u^a).  R(v) is singular at
    v = 0 and R(h + v) varies on the scale h, so for h > 0 the geometric
    panels of `_cov_rule` reach _COV_EXTRA_LEVELS levels below min(s, h);
    for h = 0 they go down until |k2| v^a <= 1, and `_cov_head` gives the
    end panel [0, v] in closed form.  On a
    panel [b, 2b] the integrand is analytic within distance b, so 10 Gauss
    nodes are exact to ~(3 + 2 sqrt 2)^-20 = 5e-16.  Pairs are grouped by
    depth and evaluated in batches of about _COV_BATCH nodes, which bounds
    the working memory.
    """
    a = params.alpha
    k2 = params.kappa2
    s = np.asarray(t_small, dtype=float)
    h = np.asarray(t_big, dtype=float) - s
    out = np.zeros_like(s)
    live = s > 0.0
    diag = live & (h == 0.0)
    off = live & (h > 0.0)
    depth = np.zeros(s.shape, dtype=int)
    depth[diag] = np.ceil(np.log2(np.maximum(abs(k2) * s[diag] ** a, 1.0)) / a)
    depth[off] = np.maximum(np.ceil(np.log2(s[off] / h[off])), 0.0) + _COV_EXTRA_LEVELS
    for diagonal, group in ((True, diag), (False, off)):
        for d in np.unique(depth[group]):
            f, c = _cov_rule(a, int(d))
            if diagonal:
                f, c = f[:-_COV_NODES], c[:-_COV_NODES]
            idx = np.nonzero(group & (depth == d))[0]
            step = _COV_BATCH // max(f.size, 1)
            for lo in range(0, idx.size, step):
                j = idx[lo : lo + step]
                v = s[j, None] * f
                u = h[j, None] + v
                E = ml_array(a, a, k2 * np.concatenate((v**a, u**a)))
                terms = c * u ** (a - 1.0) * E[: j.size] * E[j.size :]
                out[j] = s[j] ** a * np.sum(terms, axis=1)
    out[diag] += _cov_head(a, k2, s[diag] * 2.0 ** -depth[diag])
    return params.sigma**2 * out


def cov_exact(params: ModelParams, t1: float, t2: float) -> float:
    """Cov(X_t1, X_t2) by the Ito-isometry quadrature (symmetric in t1, t2)."""
    t1 = float(t1)
    t2 = float(t2)
    if t1 < 0.0 or t2 < 0.0:
        raise ValidationError("cov_exact: times must be >= 0")
    lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
    if lo == 0.0:
        return 0.0
    _check_ml_scale(params, hi)
    return float(_cov_pairs(params, np.array([lo]), np.array([hi]))[0])


def stationary_variance(params: ModelParams) -> float:
    """Limit variance sigma^2 int_0^inf R(s)^2 ds of X_t as t -> inf (k2 < 0).

    R has Laplace transform 1/(p^a - k2), so by Plancherel on the imaginary
    axis the integral is (1/pi) int_0^inf dw / (w^2a + 2|k2| w^a cos(pi a/2)
    + k2^2), and a Mellin integral closes it:

        sigma^2 |k2|^(1/a-2) sin(pi(1-a)/2) / (a sin(pi(1-a)/a) sin(pi a/2)),

    sigma^2 / (2|k2|) at a = 1.  sin(pi(1-a)/a) = sin(pi(2a-1)/a); each
    form is used where its argument carries no cancellation.
    """
    if not params.kappa2 < 0.0:
        raise ValidationError("stationary_variance: requires kappa2 < 0")
    a = params.alpha
    k = -params.kappa2
    if a == 1.0:
        return params.sigma**2 / (2.0 * k)
    den = a * math.sin(0.5 * math.pi * a)
    den *= math.sin(math.pi * ((2.0 * a - 1.0) if a < 2.0 / 3.0 else (1.0 - a)) / a)
    return params.sigma**2 * k ** (1.0 / a - 2.0) * math.sin(0.5 * math.pi * (1.0 - a)) / den


# ---------------------------------------------------------------------------
# grid laws and sampling
# ---------------------------------------------------------------------------


def grid_law_exact(params: ModelParams, grid: TimeGrid) -> GaussianLaw:
    """Joint exact law of (X_{t_1}, ..., X_{t_n}) on the grid, by the recurrence
    C(t_j, t_k) = C(t_{j-1}, t_{k-1}) + sigma^2 int_0^dt R(t_j-u) R(t_k-u) du:
    row j = 1 is `_cov_pairs`; for j, k >= 2 the integrand is analytic dt beyond
    the cell, so 16 Gauss-Legendre nodes (error ~ (3+2 sqrt 2)^-32) give every
    increment in one Gram product, summed down the diagonals."""
    n = grid.n
    if n > _GRID_LAW_MAX_N:
        raise ValidationError(f"grid_law_exact: n <= {_GRID_LAW_MAX_N} required, got {n}")
    t = grid.times
    mean = _mean_many(params, t[1:])
    u, w = legendre_rule(_CELL_NODES, 0.0, grid.dt)
    A = _malliavin_kernel_array(params, t[2:, None] - u) * np.sqrt(w)
    cov = np.empty((n, n))
    cov[0] = _cov_pairs(params, np.full(n, grid.dt), t[1:])
    cov[1:, 1:] = A @ A.T
    _diagonal_cumsum(cov)
    labels = tuple(f"X[{k}]" for k in range(1, n + 1))
    return GaussianLaw(labels, mean, cov)


def driver_law(params: ModelParams, grid: TimeGrid) -> GaussianLaw:
    """Joint law of the 2n driver coordinates (dW_0..dW_{n-1}, G_1..G_n).

    G_k = int_0^{t_k} (t_k-s)^(a-1)/Gamma(a) dW_s.  Blocks:
      Cov(dW_j, dW_k) = dt delta_jk
      Cov(dW_j, G_k)  = c_weight(j, k) for j < k, else 0   (cells grid-aligned)
      Cov(G_j, G_k)   = cross_kernel_integral(t_j, t_k, t_min) / Gamma(a)^2
    """
    n = grid.n
    a = params.alpha
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = grid.dt * np.eye(n)
    C = c_matrix(grid, a)  # C[i, k] for cells i, grid points k
    cov[:n, n:] = C[:n, 1:]
    cov[n:, :n] = C[:n, 1:].T
    cov[n:, n:] = cross_kernel_table(grid, a)[1:, 1:] / gamma(a) ** 2
    mean = np.zeros(2 * n)
    labels = tuple(f"dW[{j}]" for j in range(n)) + tuple(
        f"G[{k}]" for k in range(1, n + 1)
    )
    return GaussianLaw(labels, mean, cov)


def _cholesky_psd(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor with an escalating diagonal-jitter repair."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.trace(cov)) / max(cov.shape[0], 1)
    for eps in (1e-12, 1e-10):
        try:
            return np.linalg.cholesky(cov + eps * scale * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise ConvergenceError(
        "covariance not positive semi-definite within jitter repair budget"
    )


_BLOCK_SIZE = 8192


def _blocks(seed: int, count: int, block_size: int = _BLOCK_SIZE):
    """Yield (lo, hi, rng) for the fixed-size row blocks of 0..count-1.

    One spawned SeedSequence child per block, so the stream layout is a pure
    function of (seed, count, block_size) -- independent of how many workers
    consume the blocks.  Every sampler in the package draws through this.
    """
    if not block_size >= 1:
        raise ValidationError(f"block_size must be >= 1, got {block_size}")
    n_blocks = (count + block_size - 1) // block_size
    for blk, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        lo = blk * block_size
        yield lo, min(lo + block_size, count), np.random.Generator(np.random.PCG64(child))


def sample(
    law: GaussianLaw,
    n_paths: int,
    seed: int,
    block_size: int = _BLOCK_SIZE,
) -> np.ndarray:
    """Draw n_paths of the law; bit-reproducible in (seed, n_paths, block_size)."""
    if n_paths < 1:
        raise ValidationError("sample: n_paths must be >= 1")
    L = _cholesky_psd(law.cov)
    out = np.empty((n_paths, law.dim))
    for lo, hi, rng in _blocks(seed, n_paths, block_size):
        z = rng.standard_normal((hi - lo, law.dim))
        out[lo:hi] = law.mean + z @ L.T
    return out
