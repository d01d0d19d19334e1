"""Integrated-kernel Euler scheme: exact Gaussian law of X-check, path sampling.

The scheme freezes the non-kernel part of the coefficients at the cell's left
endpoint and integrates the fractional kernel exactly:

    Xc_{t_k} = x0 + sum_{i<k} (k1 + k2 Xc_{t_i}) c_{i,k} + sigma G_k,
    Lc_{t_{k+1}} = Lc_{t_k} + b(Xc_{t_k}) dt + f(Xc_{t_k}) dB_k,

with c_{i,k} = d_{k-i} the exact kernel cell weights and G_k the
kernel-weighted Wiener integrals from the driver law.  On the uniform grid
the recursion is a discrete convolution, so it is solved once by the
resolvent omega, the power-series inverse of 1 - k2 d(z) (the discrete twin
of E_{a,a} in the exact law):

    omega_0 = 1,  omega_m = k2 sum_{j=1..m} d_j omega_{m-j}
    mean:  mc    = x0 + (k1 + k2 x0) cumsum(omega * d)
    D_s Xc_{t_k} = (sigma/Gamma(a)) sum_{1<=i<=k} omega_{k-i} (t_i - s)_+^(a-1)
    cov          = (sigma/Gamma(a))^2 int_0^T D_s Xc_{t_j} D_s Xc_{t_k} ds
    paths        Xc = mc + sigma G W,  W[i, k] = omega_{k-i},  one GEMM per block.

The Malliavin weights are Toeplitz in k - i, so the law keeps the vector
omega and only transient products (the path GEMM, the cell tails) form their
table.  On cell l, D_s Xc_{t_k} depends on k - l alone, so cov is a diagonal
cumulative sum of one per-cell Gram matrix (``cross_kernel_table``): the
law's one O(n^2) array, capped at n <= 4096.  Path sampling factors the
driver law blockwise (one n x n Schur complement) and is capped at n <= 2048.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .exact_law import _BLOCK_SIZE, ModelParams, _blocks
from .kernels import TimeGrid, c_matrix, c_weight_diffs, cross_kernel_table, toeplitz_upper
from .specfun import gamma

__all__ = [
    "FunctionSpec",
    "SchemeLaw",
    "build_scheme_law",
    "malliavin_scheme",
    "cell_integrated_malliavin",
    "sample_scheme_paths",
]

_MAX_N = 4096
_MAX_SAMPLE_N = 2048  # O(n^3) driver factor; its n x 2n G rows are 64 MB at the cap
_KINDS = ("constant", "affine", "polynomial", "exponential-affine")
_ROLES = ("drift", "diffusion", "test")


@dataclass(frozen=True)
class FunctionSpec:
    """A coefficient function: constant, affine, polynomial, or c0*exp(c1*x).

    ``coefficients`` are ascending-degree for the polynomial kinds and
    (amplitude, growth) for exponential-affine.
    """

    kind: str
    coefficients: tuple
    role: str = "test"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(
                f"FunctionSpec.kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.role not in _ROLES:
            raise ValidationError(
                f"FunctionSpec.role must be one of {_ROLES}, got {self.role!r}"
            )
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValidationError("FunctionSpec needs a nonempty tuple of finite coefficients")
        expected = {"constant": 1, "affine": 2, "exponential-affine": 2}
        if self.kind in expected and len(coeffs) != expected[self.kind]:
            raise ValidationError(
                f"FunctionSpec kind {self.kind!r} takes {expected[self.kind]} "
                f"coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def parse(cls, text: str, role: str = "test") -> "FunctionSpec":
        """Parse 'kind:c0,c1,...' as used on the command line ('poly' = polynomial)."""
        kind, sep, rest = text.partition(":")
        kind = {"poly": "polynomial"}.get(kind.strip(), kind.strip())
        if not sep or not rest.strip():
            raise ValidationError(f"function spec {text!r} is not KIND:c0,c1,...")
        try:
            coeffs = tuple(float(p) for p in rest.split(","))
        except ValueError as e:
            raise ValidationError(f"bad coefficient in function spec {text!r}") from e
        return cls(kind, coeffs, role)

    @property
    def is_polynomial(self) -> bool:
        return self.kind != "exponential-affine"

    def poly_coefficients(self) -> tuple:
        if not self.is_polynomial:
            raise ValidationError("exponential-affine spec has no polynomial coefficients")
        return self.coefficients

    def affine_pair(self) -> tuple:
        """(f0, f1) with f(x) = f0 + f1 x; error if the spec is not affine."""
        coeffs = self.poly_coefficients()
        if len(coeffs) > 2 and any(c != 0.0 for c in coeffs[2:]):
            raise ValidationError(f"{self.kind} spec of degree > 1 where affine is required")
        f0 = coeffs[0]
        f1 = coeffs[1] if len(coeffs) > 1 else 0.0
        return f0, f1

    def value(self, x):
        """The function, elementwise over x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential-affine":
            c0, c1 = self.coefficients
            return c0 * np.exp(c1 * x)
        acc = np.full_like(x, self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            acc = acc * x + c
        return acc


@dataclass(frozen=True, eq=False)
class SchemeLaw:
    """Deterministic description of the scheme's Gaussian X-check law.

    omega[m], m = 0..n, is the discrete resolvent: the Malliavin weight of
    grid point t_i in Xc_{t_k} is omega[k-i] for 1 <= i <= k.  mean[k] and
    cov[j, k] cover grid indices 0..n (index 0 is the deterministic x0).
    """

    params: ModelParams
    grid: TimeGrid
    omega: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n


def _resolvent(grid: TimeGrid, p: ModelParams):
    """(omega, mean): the scheme's discrete resolvent and its mean path, O(n^2).

    omega solves omega_m = k2 sum_{j=1..m} d_j omega_{m-j} with omega_0 = 1;
    omega_m is the Malliavin weight of t_i in Xc_{t_k} for k - i = m.
    mean[k] is the scheme mean at t_k.
    """
    d = c_weight_diffs(grid, p.alpha)
    n = grid.n
    omega = np.zeros(n + 1)
    omega[0] = 1.0
    if p.kappa2 != 0.0:
        for m in range(1, n + 1):
            omega[m] = p.kappa2 * (d[m:0:-1] @ omega[:m])
    drift = p.kappa1 + p.kappa2 * p.x0
    mean = p.x0 + drift * np.cumsum(np.convolve(omega, d)[: n + 1])
    return omega, mean


def _check_law_grid(who: str, grid: TimeGrid, p: ModelParams) -> None:
    """n within the scheme-law cap and the grid horizon equal to the model's."""
    if grid.n > _MAX_N:
        raise ValidationError(f"{who}: n <= {_MAX_N}, got {grid.n}")
    if abs(grid.T - p.T) > 1e-12 * max(1.0, abs(p.T)):
        raise ValidationError(f"{who}: grid horizon {grid.T} != model horizon {p.T}")


def build_scheme_law(grid: TimeGrid, p: ModelParams) -> SchemeLaw:
    """Resolvent, mean, and full covariance of the scheme.

    The covariance is (sigma/Gamma(a))^2 times the cell-quadrature table
    ``cross_kernel_table(grid, a, omega)``, the law's one (n+1) x (n+1)
    array; it is O(n^2) and n is capped at 4096.
    """
    _check_law_grid("build_scheme_law", grid, p)
    a = p.alpha
    omega, mean = _resolvent(grid, p)
    cov = cross_kernel_table(grid, a, omega)
    cov *= (p.sigma / gamma(a)) ** 2
    if np.any(np.diag(cov) < -1e-10 * max(cov.max(), -cov.min(), 1.0)):
        raise ConvergenceError("build_scheme_law: negative variance in assembly")
    return SchemeLaw(params=p, grid=grid, omega=omega, mean=mean, cov=cov)


def malliavin_scheme(s: float, k: int, law: SchemeLaw) -> float:
    """D_s Xc_{t_k} = (sigma/Gamma(a)) sum_{i<=k, t_i>s} omega_{k-i} (t_i - s)^(a-1).

    Finite at every s not equal to some t_i (and at the t_i themselves, where
    the vanishing term is excluded), but diverges as s approaches any grid
    point t_i <= t_k from the left.
    """
    s = float(s)
    if not (0 <= k <= law.n):
        raise ValidationError(f"malliavin_scheme: k must be in 0..{law.n}, got {k}")
    t = law.grid.times
    if not (0.0 <= s < t[k]):
        raise ValidationError(f"malliavin_scheme: need 0 <= s < t_k = {t[k]}, got s={s}")
    p = law.params
    ti = t[: k + 1]
    wk = law.omega[k::-1]  # i = 0 drops out: t_0 = 0 <= s
    mask = ti > s
    return float(
        p.sigma / gamma(p.alpha) * np.sum(wk[mask] * (ti[mask] - s) ** (p.alpha - 1.0))
    )


def cell_integrated_malliavin(law: SchemeLaw) -> np.ndarray:
    """M[i, k] = integral over cell [t_i, t_{i+1}] of D_s Xc_{t_k} ds, exactly.

    Termwise the cell integral of (t_l - s)_+^(a-1)/Gamma(a) is the cell
    weight c_{i,l} = d[l-i], so M[i, k] = sigma sum_l d[l-i] omega_{k-l}: one
    Toeplitz table of the convolution d * omega.  Shape (n, n+1); rows
    i >= k are zero.
    """
    n = law.n
    d = c_weight_diffs(law.grid, law.params.alpha)
    omega = law.omega[:n]  # d[0] = 0 needs no omega_n
    return law.params.sigma * toeplitz_upper(np.convolve(d, omega)[: n + 1])[:n]


@functools.lru_cache(maxsize=8)
def _driver_factor(p: ModelParams, grid: TimeGrid):
    """(diag L[:n, :n], L[n:]) of the driver law's Cholesky factor L, cached.

    The law of (dW, G) is [[dt I, C], [C^T, Gamma_G]] with C the cell
    weights, so L = [[sqrt(dt) I, 0], [C^T/sqrt(dt), chol(S)]], S = Gamma_G -
    C^T C/dt = Cov(G | dW).  S is exactly 0 at alpha = 1 (G is the Brownian
    path); below 1 a failed Cholesky of S raises ConvergenceError.  The G
    rows are n x 2n, so n is capped before they are built.
    """
    n = grid.n
    if n > _MAX_SAMPLE_N:
        raise ValidationError(f"path sampling: n <= {_MAX_SAMPLE_N}, got {n}")
    a, dt = p.alpha, grid.dt
    ct = c_matrix(grid, a)[:n, 1:].T / math.sqrt(dt)
    chol_s = np.zeros((n, n))
    if a < 1.0:
        schur = cross_kernel_table(grid, a)[1:, 1:] / gamma(a) ** 2 - ct @ ct.T
        try:
            chol_s = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"driver factor: Cov(G | dW) is not positive definite at alpha={a}, n={n}"
            ) from None
    return np.full(n, math.sqrt(dt)), np.hstack((ct, chol_s))


def _driver_draws(rng: np.random.Generator, factor, count: int):
    """(dW, G), each (count, n): z @ L.T for one block of standard normals z."""
    scale, g_rows = factor
    z = rng.standard_normal((count, g_rows.shape[1]))
    return z[:, : len(scale)] * scale, z @ g_rows.T


def _propagate(p, omega, mean, dt, G, dB, b, f, full=False):
    """Scheme paths from one block of driver draws (paths along axis 0).

    X[:, 1:] = mean[1:] + sigma G w solves the Volterra recursion of every
    step at once; Lc then runs one step at a time.  Returns X (count, n+1)
    and the Lc path (count, n+1) if ``full``, else Lc_T only.
    """
    count, n = G.shape
    X = np.empty((count, n + 1))
    X[:, 0] = p.x0
    Y = X[:, 1:]
    np.matmul(G, toeplitz_upper(omega[:n]), out=Y)
    Y *= p.sigma
    Y += mean[1:]
    L = np.full(count, p.L0)
    if full:
        path = np.empty((count, n + 1))
        path[:, 0] = L
    for k in range(n):
        L = L + b.value(X[:, k]) * dt + f.value(X[:, k]) * dB[:, k]
        if full:
            path[:, k + 1] = L
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(L))):
        raise ConvergenceError(
            "non-finite path values (exponential-affine coefficient overflow "
            "under extreme draws?)"
        )
    return X, path if full else L


def sample_scheme_paths(
    grid: TimeGrid,
    p: ModelParams,
    b: FunctionSpec,
    f: FunctionSpec,
    count: int,
    seed: int,
    block_size: int = _BLOCK_SIZE,
    keep: str = "full",
):
    """Sample (Xc path, Lc path) batches; bit-reproducible in (seed, count,
    block_size).

    The driver (dW, G) is drawn exactly from its joint Gaussian law (one
    cached block Cholesky factor per grid, n <= 2048; ConvergenceError where
    Cov(G | dW) is numerically singular below alpha = 1), the orthogonal Brownian part
    is an independent substream, and dB = rho dW + sqrt(1-rho^2) dW_perp.
    The Xc marginal is then *exactly* the SchemeLaw Gaussian -- the only
    discretisation is the scheme itself.

    keep="full" returns arrays (count, n+1); keep="terminal" returns the
    (Xc_T, Lc_T) columns only, which is what large-count moment runs want.
    """
    if count < 1:
        raise ValidationError("sample_scheme_paths: count must be >= 1")
    if keep not in ("full", "terminal"):
        raise ValidationError(f"sample_scheme_paths: keep must be full|terminal, got {keep!r}")
    n = grid.n
    factor = _driver_factor(p, grid)
    omega, mean = _resolvent(grid, p)
    dt = grid.dt
    rho = p.rho
    rho_perp = math.sqrt(max(1.0 - rho * rho, 0.0))
    full = keep == "full"
    shape = (count, n + 1) if full else (count,)
    X_out = np.empty(shape)
    L_out = np.empty(shape)
    for lo, hi, rng in _blocks(seed, count, block_size):
        bs = hi - lo
        dW, G = _driver_draws(rng, factor, bs)
        perp = rng.standard_normal((bs, n))
        dB = rho * dW + rho_perp * math.sqrt(dt) * perp
        X, L = _propagate(p, omega, mean, dt, G, dB, b, f, full)
        X_out[lo:hi] = X if full else X[:, n]
        L_out[lo:hi] = L
    return X_out, L_out
