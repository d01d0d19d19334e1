"""Time grids, fractional-kernel cell weights, and kernel cross integrals.

Everything here is about the power kernel K(u) = u^(alpha-1)/Gamma(alpha)
on a uniform grid t_k = k*T/n:

* ``c_weight(i, k)``  = integral of K(t_k - u) over the cell [t_i, t_{i+1}]
                      = dt^alpha * ((k-i)^alpha - (k-i-1)^alpha) / Gamma(alpha+1)
* ``cross_kernel_integral(a, b, c)`` = int_0^c (a-s)^(alpha-1) (b-s)^(alpha-1) ds,
  closed form via 2F1 when c = min(a, b), Gauss-Legendre panels otherwise
* ``cross_kernel_table(grid, alpha, omega)`` = the grid table of those
  integrals (omega = e_0) or of omega-weighted kernel sums, per-cell Gauss rules
* ``beta_convolution`` = int_s^t (u-s)^(alpha-1)/Gamma(alpha) *
  (t-u)^(beta-1)/Gamma(beta) du = (t-s)^(alpha+beta-1)/Gamma(alpha+beta)

plus the quadrature helpers (Gauss-Jacobi / Gauss-Legendre rules from one
cache of reference rules, graded panel splits) shared by the law/moment
modules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .specfun import gamma, hyp2f1

__all__ = [
    "TimeGrid",
    "c_weight",
    "c_matrix",
    "toeplitz_upper",
    "cross_kernel_integral",
    "cross_kernel_table",
    "beta_convolution",
    "jacobi_rule",
    "legendre_rule",
    "graded_panels",
]

_CELL_NODES = 16  # per Gauss rule and cell in cross_kernel_table


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with t_k = k*T/n."""

    n: int
    T: float
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError(f"TimeGrid.n must be a positive integer, got {self.n}")
        if not self.T > 0.0:
            raise ValidationError(f"TimeGrid.T must be > 0, got {self.T}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(
            self, "times", np.linspace(0.0, self.T, self.n + 1)
        )

    @property
    def dt(self) -> float:
        return self.T / self.n


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.5 < alpha <= 1.0):
        raise ValidationError(f"alpha must be in (1/2, 1], got {alpha}")
    return alpha


def c_weight(i: int, k: int, grid: TimeGrid, alpha: float) -> float:
    """Exact kernel mass of cell [t_i, t_{i+1}] seen from t_k (requires i < k).

    c_{i,k} = int_{t_i}^{t_{i+1}} (t_k-u)^(alpha-1)/Gamma(alpha) du
            = dt^alpha ((k-i)^alpha - (k-i-1)^alpha) / Gamma(alpha+1)
    """
    alpha = _check_alpha(alpha)
    if not (0 <= i < k <= grid.n):
        raise ValidationError(f"c_weight: need 0 <= i < k <= n, got i={i}, k={k}")
    return float(grid.dt**alpha * _power_increments(k - i, alpha) / gamma(alpha + 1.0))


def c_weight_diffs(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Vector d with d[j] = c_{k-j,k} (depends on the gap j only), j = 1..n.

    d[0] is a padding zero so that c_{i,k} = d[k-i].
    """
    alpha = _check_alpha(alpha)
    d = np.zeros(grid.n + 1)
    d[1:] = grid.dt**alpha * _power_increments(np.arange(1.0, grid.n + 1.0), alpha) / gamma(alpha + 1.0)
    return d


def _power_increments(j, alpha: float):
    """j^alpha - (j-1)^alpha for j >= 1, as j^alpha (1 - (1 - 1/j)^alpha):
    the plain difference loses ~5e-12 relative to cancellation at j = 65536."""
    j = np.asarray(j, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at j = 1
        return j**alpha * -np.expm1(alpha * np.log1p(-1.0 / j))


def toeplitz_upper(seq: np.ndarray) -> np.ndarray:
    """Square array T[i, k] = seq[k - i] for k >= i, zero below the diagonal."""
    m = len(seq)
    padded = np.concatenate((np.zeros(m - 1), seq))
    return sliding_window_view(padded, m)[::-1].copy()


def c_matrix(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Full (n+1)x(n+1) array with C[i, k] = c_{i,k} for i < k, zero elsewhere."""
    return toeplitz_upper(c_weight_diffs(grid, alpha))


def cross_kernel_integral(a: float, b: float, c: float, alpha: float) -> float:
    """int_0^c (a-s)^(alpha-1) (b-s)^(alpha-1) ds for 0 < c <= min(a, b).

    Closed form when c = min(a,b):
        m^alpha M^(alpha-1)/alpha * 2F1(1-alpha, 1; alpha+1; m/M),
    with m = min(a,b), M = max(a,b) (and m^(2alpha-1)/(2alpha-1) when a = b).
    For c < min(a,b) the integrand is smooth on [0, c] and graded
    Gauss-Legendre panels (refined toward c, where the singularity at
    s = min(a,b) is nearest) are used.
    """
    alpha = _check_alpha(alpha)
    a = float(a)
    b = float(b)
    c = float(c)
    m, M = (a, b) if a <= b else (b, a)
    if not (0.0 < c <= m):
        raise ValidationError(
            f"cross_kernel_integral: need 0 < c <= min(a,b), got a={a}, b={b}, c={c}"
        )
    if c == m:
        if m == M:
            return m ** (2.0 * alpha - 1.0) / (2.0 * alpha - 1.0)
        z = m / M
        return m**alpha * M ** (alpha - 1.0) / alpha * hyp2f1(1.0 - alpha, 1.0, alpha + 1.0, z)
    # fallback: smooth integrand; panels graded toward the near-singular end
    breaks = graded_panels(0.0, c, n_levels=10, toward="hi")
    x, w = _reference_rule(48)
    total = 0.0
    for lo, hi in breaks:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid + half * x
        total += half * float(
            np.sum(w * (a - s) ** (alpha - 1.0) * (b - s) ** (alpha - 1.0))
        )
    return total


def cross_kernel_table(grid: TimeGrid, alpha: float, omega=None) -> np.ndarray:
    """Symmetric table K[j, k] = int_0^T g_j(s) g_k(s) ds, g_k(s) =
    sum_{1<=i<=k} omega_{k-i} (t_i - s)_+^(alpha-1); row/column 0 is zero.

    omega=None (e_0) gives int_0^min(t_j,t_k) (t_j-s)^(a-1)(t_k-s)^(a-1) ds;
    the scheme resolvent gives the scheme's Malliavin Gram table.  On cell
    l, s = t_l + u dt, g_k(s) = dt^(a-1) g_{k-l}(u), so K[j, k] =
    K[j-1, k-1] + dt^(2a-1) H[j, k] with H[p, q] = int_0^1 g_p g_q du.  g_p
    is the spike omega_{p-1} (1-u)^(a-1) plus r_p, analytic out to u = 2:
    spike^2 is exact, spike x r_p a Gauss-Jacobi rule, r_p^2 Gauss-Legendre,
    16 nodes each (error ~ (3+2 sqrt 2)^-32).
    """
    alpha = _check_alpha(alpha)
    n = grid.n
    spike = np.eye(1, n)[0] if omega is None else np.asarray(omega, dtype=float)[:n]
    uj, wj = jacobi_rule(_CELL_NODES, alpha - 1.0, 0.0, 0.0, 1.0)
    ul, wl = legendre_rule(_CELL_NODES, 0.0, 1.0)
    r = _cell_tails(spike, alpha, np.concatenate((uj, ul)))
    rl = r[:, _CELL_NODES:]
    jac = r[:, :_CELL_NODES] @ wj
    # H = spike spike^T/(2a-1) + spike jac^T + jac spike^T + rl diag(wl) rl^T
    left = np.column_stack((rl * wl, spike / (2.0 * alpha - 1.0) + jac, spike))
    right = np.column_stack((rl, spike, jac))
    pad = ((1, 0), (0, 0))  # zero row 0 on both factors: the product is the whole table
    K = np.pad(grid.dt ** (2.0 * alpha - 1.0) * left, pad) @ np.pad(right, pad).T
    return _diagonal_cumsum(K)


def _cell_tails(omega, alpha: float, u) -> np.ndarray:
    """r[p-1] = r_p(u) = sum_{m=2..p} omega_{p-m} (m-u)^(a-1), p = 1..len(omega).

    On the cell p cells back, the omega-weighted kernel sum is the spike
    omega_{p-1} (1-u)^(a-1) (m = 1) plus this tail, analytic on u < 2.
    """
    F = (np.arange(1.0, len(omega) + 1.0)[:, None] - u) ** (alpha - 1.0)
    F[0] = 0.0
    return toeplitz_upper(omega).T @ F


def _diagonal_cumsum(K: np.ndarray) -> np.ndarray:
    """Per-cell increments to the grid table, in place: K[j, k] += K[j-1, k-1]
    on the upper half, each row mirrored into its column (exact symmetry)."""
    m = K.shape[0]
    K[1:, 0] = K[0, 1:]
    for j in range(1, m):
        K[j, j:] += K[j - 1, j - 1 : m - 1]
        K[j + 1 :, j] = K[j, j + 1 :]
    return K


def beta_convolution(s: float, t: float, alpha: float, beta: float) -> float:
    """Normalised power-kernel convolution over [s, t]:

    int_s^t (u-s)^(alpha-1)/Gamma(alpha) * (t-u)^(beta-1)/Gamma(beta) du
        = (t-s)^(alpha+beta-1) / Gamma(alpha+beta).
    """
    if not (t > s):
        raise ValidationError(f"beta_convolution: need t > s, got s={s}, t={t}")
    if not (alpha > 0.0 and beta > 0.0):
        raise ValidationError("beta_convolution: exponents must be positive")
    return (t - s) ** (alpha + beta - 1.0) / gamma(alpha + beta)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _reference_rule(npts: int, exps=None):
    """Cached read-only Gauss rule on [-1, 1]: Legendre, or Jacobi with
    weight (1-x)^exps[0] (1+x)^exps[1]."""
    x, w = _gauss_jacobi(npts, *(exps or (0.0, 0.0)))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_jacobi(n: int, a: float, b: float):
    """n-point Gauss rule for the weight (1-x)^a (1+x)^b on [-1, 1], a, b > -1.

    Nodes: eigenvalues of the Jacobi matrix (Golub & Welsch 1969), polished
    by three Newton steps on P_n^(a,b).  Weights: Szego's 1/((1-x^2) P_n'^2),
    scaled to the exact zeroth moment 2^(a+b+1) B(a+1, b+1) rather than by
    the lgamma constant, whose rounding costs up to 3.6e-14 at 48 nodes.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    with np.errstate(invalid="ignore"):  # 0/0 at k = 1 when a + b = -1
        off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    off[:1] = np.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    for _ in range(3):
        p, dp = _jacobi_p(n, a, b, x)
        x = x - p / dp
    _, dp = _jacobi_p(n, a, b, x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    return x, w * (mu0 / w.sum())


def _jacobi_p(n: int, a: float, b: float, x: np.ndarray):
    """P_n^(a,b)(x) and its derivative, by the three-term recurrence."""
    prev, p = np.ones_like(x), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        prev, p = p, (
            (c - 1.0) * (c * (c - 2.0) * x + a * a - b * b) * p
            - 2.0 * (k + a - 1.0) * (k + b - 1.0) * c * prev
        ) / (2.0 * k * (k + a + b) * (c - 2.0))
    c = 2.0 * n + a + b
    dp = (n * (a - b - c * x) * p + 2.0 * (n + a) * (n + b) * prev) / (c * (1.0 - x) * (1.0 + x))
    return p, dp


def jacobi_rule(npts: int, exp_hi: float, exp_lo: float, lo: float, hi: float):
    """Nodes/weights so that sum w_i f(x_i) ~= int_lo^hi (hi-x)^exp_hi (x-lo)^exp_lo f(x) dx.

    Exponents must be > -1.  Built from the cached Gauss-Jacobi rule on [-1, 1].
    """
    if min(exp_hi, exp_lo) <= -1.0:
        raise ValidationError("jacobi_rule: exponents must be > -1")
    x, w = _reference_rule(npts, (exp_hi, exp_lo))
    half = 0.5 * (hi - lo)
    nodes = lo + half * (x + 1.0)
    weights = w * half ** (exp_hi + exp_lo + 1.0)
    return nodes, weights


def legendre_rule(npts: int, lo: float, hi: float):
    """Plain Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = _reference_rule(npts)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def graded_panels(lo: float, hi: float, n_levels: int = 30, toward: str = "hi"):
    """Geometric panel split of [lo, hi] refined toward one or both ends.

    Used to resolve algebraic endpoint behaviour with fixed Gauss rules:
    panel widths halve toward the marked end, so a u^gamma endpoint factor
    is analytic-on-panel with uniformly bounded transformed derivatives and
    the compound rule converges to near machine precision.
    """
    if hi <= lo:
        raise ValidationError("graded_panels: need hi > lo")
    if toward == "both":
        mid = lo + 0.5 * (hi - lo)
        return graded_panels(lo, mid, n_levels, "lo") + graded_panels(mid, hi, n_levels, "hi")
    if toward not in ("lo", "hi"):
        raise ValidationError("graded_panels: toward must be 'lo', 'hi', or 'both'")
    gaps = [0.0] + [2.0 ** (k - n_levels) * (hi - lo) for k in range(1, n_levels)]
    pts = [lo + g for g in gaps] + [hi] if toward == "lo" else [lo] + [hi - g for g in gaps[::-1]]
    return list(zip(pts[:-1], pts[1:]))[:n_levels]
