"""Special functions the whole package is built on.

Public entry points:

* ``gamma``          -- Euler Gamma on x > 0 (``math.gamma``)
* ``rgamma``         -- 1/Gamma(x) on x > 0, elementwise (``math``)
* ``ml_array``       -- E_{a,b}(z) = sum_{i>=0} z^i / Gamma(a*i + b) over an
                        array; ``mittag_leffler`` is the same at one point
* ``hyp2f1``         -- Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1]
                        (``scipy.special.hyp2f1``)

``gamma`` and ``hyp2f1`` add only the domain checks the package relies on.
Only ``hyp2f1`` needs scipy, and it imports it when first called: nothing
else in the package loads scipy.

Numerical policy
----------------
The Mittag-Leffler series alternates violently for z << 0 (largest term
~ exp(|z|^(1/a))), so each point takes one of three branches:

* |z| <= 1: Horner on the first 48 series terms;
* z < -1: the Bromwich integral E = (1/2 pi i) int e^s s^(a-b) / (s^a - z) ds
  on the parabola s(u) = mu (1 + iu)^2, by the trapezoid rule with one
  fixed mu, step and node count (Weideman & Trefethen 2007, Math. Comp.
  76:1341; Garrappa 2015, SIAM J. Numer. Anal. 53:1350).  For z < 0 and
  a < 1 the integrand has no pole on the principal sheet; at a = 1 its pole
  s = z lies left of the contour, as the Bromwich integral needs;
* 1 < z <= 30: the series, whose terms are all positive, with log-terms in
  long double.  A sum past the float64 range raises ConvergenceError.

Accuracy, against a high-precision series: on the accepted domain a in
(1/2, 1], 0 < b <= 3, the error is below 1e-12 |E| + 1e-17 for
-30 <= z <= 1, where the absolute part is the contour's roundoff on tiny
values such as e^z near z = -30 (the contour constants keep a factor 4 to
spare on a grid of 1716 such points); on 1 < z <= 30 the relative error is
below 1e-13 (~6e-14 near z = 30 as a -> 1/2; ~5e-13 if long double is
float64).  Arguments |z| > 30 are rejected outright -- the
mean-reversion scales this package targets keep |kappa2| * t^alpha well
inside that.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "gamma",
    "ml_array",
    "mittag_leffler",
    "hyp2f1",
    "rgamma",
]

# Largest |z| the Mittag-Leffler evaluator accepts; see module docstring.
ML_MAX_ABS_Z = 30.0

_ML_HORNER_TERMS = 48  # series terms on |z| <= 1
# contour s(u) = _ML_MU (1 + iu)^2, trapezoid step and nodes on u >= 0
# (u <= 9.94, where |e^s| < 1e-21)
_ML_MU = 0.5
_ML_STEP = 0.14
_ML_NODES = 72
_ML_CHUNK = 4096  # contour points per (points x nodes) complex temporary
_ML_BLOCK_TERMS = 64  # positive-z series terms per block


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0 (``math.gamma``).

    Raises ValidationError for x <= 0 and ConvergenceError on overflow
    (x beyond ~171.6).
    """
    x = float(x)
    if not x > 0.0:
        raise ValidationError(f"gamma: domain is x > 0, got {x}")
    if x > 171.6:
        raise ConvergenceError(f"gamma: overflow for x = {x}")
    return math.gamma(x)


def _rgamma(x: float) -> float:
    if x < 1.0:  # 1/Gamma(x) = x/Gamma(1+x): no overflow as x -> 0
        return x / math.gamma(1.0 + x)
    if x > 171.6:  # Gamma(x) past the float64 range; the result underflows
        return math.exp(-math.lgamma(x))
    return 1.0 / math.gamma(x)


def rgamma(x):
    """1/Gamma(x) for x > 0, elementwise over an array (a float for a scalar).

    Raises ValidationError outside x > 0.
    """
    arr = np.asarray(x, dtype=float)
    if not arr.min(initial=1.0) > 0.0:
        raise ValidationError(f"rgamma: domain is x > 0, got min {arr.min()}")
    out = np.fromiter(map(_rgamma, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def _ml_contour_rule(alpha: float, beta: float):
    """Trapezoid nodes of the parabolic Bromwich contour, u >= 0 half.

    E(z) = Im(sum_k num_k / (den_k - z)) with num = w e^s s^(a-b) s' / pi
    and den = s^a at s(u) = mu (1 + iu)^2: the integrand at -u is minus
    the conjugate of the one at u, so the u < 0 half doubles the imaginary
    part.
    """
    u = _ML_STEP * np.arange(_ML_NODES)
    s = _ML_MU * (1.0 + 1j * u) ** 2
    w = np.full(_ML_NODES, _ML_STEP / math.pi)
    w[0] *= 0.5
    log_s = np.log(s)
    num = w * 2j * _ML_MU * (1.0 + 1j * u) * np.exp(s + (alpha - beta) * log_s)
    return num, np.exp(alpha * log_s)


def _ml_positive(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """The series for z > 1, in blocks of terms until every sum has settled.

    Every term z^i / Gamma(a i + b) is positive, so nothing cancels.  Terms
    rise to one peak and then fall, so a block whose last term is below
    2^-60 of the sum has passed the peak and leaves a negligible tail.
    Log-terms are in long double: near z = 30 the peak is at i ~ 1500.
    """
    i = np.arange(_ML_BLOCK_TERMS, dtype=np.longdouble)
    log_z = np.log(z.astype(np.longdouble))[:, None]
    total = np.zeros(z.size)
    with np.errstate(over="ignore"):
        for start in itertools.count(0, _ML_BLOCK_TERMS):
            x = alpha * (start + i) + beta
            # lgamma(x) to first order in x - x64 (<= 2^-53 x), psi(x) taken as
            # log x - 1/(2x): <= 2e-17 error for x >= 1/2; x64 < 1/2 only where x = x64
            x64 = x.astype(float)
            x_half = np.maximum(x64, 0.5)
            lgamma = np.fromiter(map(math.lgamma, x64.tolist()), float, x64.size)
            log_gamma = lgamma + (x - x64) * (np.log(x_half) - 0.5 / x_half)
            terms = np.exp((start + i) * log_z - log_gamma).astype(float)
            total += terms.sum(axis=1)
            if not np.isfinite(total).all():
                raise ConvergenceError(
                    f"mittag_leffler: E_{{{alpha},{beta}}}({z.max()}) exceeds the float64 range"
                )
            if (terms[:, -1] <= 2.0**-60 * total).all():
                return total


@functools.lru_cache(maxsize=64)
def _ml_series_coef(alpha: float, beta: float) -> np.ndarray:
    """Read-only 1/Gamma(a i + b), i < _ML_HORNER_TERMS: cached, because
    the law and error routines call ml_array once per grid, many times a run."""
    coef = rgamma(alpha * np.arange(_ML_HORNER_TERMS) + beta)
    coef.setflags(write=False)
    return coef


def ml_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta}(z) over an array; alpha in (1/2, 1], beta in (0, 3], |z| <= 30.

    Three branches, chosen per point (see the module docstring): Horner on
    the first 48 series terms for |z| <= 1, less the terms that stay below
    1e-17 of the first at the largest such |z|; the trapezoid rule on the
    parabolic Bromwich contour for z < -1, in chunks of _ML_CHUNK points;
    the positive-term series for z > 1.  Accuracy as in the module
    docstring.  A value past the float64 range (z > 0 only) raises
    ConvergenceError.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0.5 < alpha <= 1.0):
        raise ValidationError(f"mittag_leffler: alpha must be in (1/2, 1], got {alpha}")
    if not (0.0 < beta <= 3.0):
        # the contour loses accuracy to the s^(a-b) singularity at s = 0
        # as b grows: 1e-12 relative at b = 4, 1e-7 at b = 6
        raise ValidationError(f"mittag_leffler: beta must be in (0, 3], got {beta}")
    z = np.asarray(z, dtype=float)
    shape = z.shape
    z = z.ravel()
    zmax = float(np.abs(z).max(initial=0.0))
    if not zmax <= ML_MAX_ABS_Z:
        raise ValidationError(f"mittag_leffler: |z| <= {ML_MAX_ABS_Z} required, got |z| = {zmax}")
    far = np.abs(z) > 1.0
    vmax = float(np.abs(z[~far]).max(initial=0.0))
    coef = _ml_series_coef(alpha, beta)
    coef = coef[coef * vmax ** np.arange(_ML_HORNER_TERMS) >= 1e-17 * coef[0]]
    E = np.zeros_like(z)
    for c in coef[::-1]:
        E *= z
        E += c
    neg = np.flatnonzero(z < -1.0)
    if neg.size:
        num, den = _ml_contour_rule(alpha, beta)
        for lo in range(0, neg.size, _ML_CHUNK):
            j = neg[lo : lo + _ML_CHUNK]
            E[j] = (num / (den - z[j, None])).sum(axis=1).imag
    pos = far & (z > 0.0)
    if pos.any():
        E[pos] = _ml_positive(alpha, beta, z[pos])
    return E.reshape(shape)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) at one point: ``ml_array`` on a one-element array."""
    return float(ml_array(alpha, beta, np.array([float(z)]))[0])


# ---------------------------------------------------------------------------
# Gauss hypergeometric on [0, 1]
# ---------------------------------------------------------------------------


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) for b > 0, c > b, 0 <= z <= 1 (``scipy.special.hyp2f1``).

    z = 1 requires c - a - b > 0 (Gauss value); otherwise ValidationError.
    scipy is imported here, not at module level: no CLI command calls
    hyp2f1, so none pays for loading scipy.
    """
    from scipy import special

    a = float(a)
    b = float(b)
    c = float(c)
    z = float(z)
    if not (b > 0.0 and c > b):
        raise ValidationError(f"hyp2f1: need c > b > 0, got b={b}, c={c}")
    if not (0.0 <= z <= 1.0):
        raise ValidationError(f"hyp2f1: z must be in [0, 1], got {z}")
    if z == 1.0 and not c - a - b > 0.0:
        raise ValidationError(
            f"hyp2f1 at z=1 requires c-a-b > 0, got c-a-b = {c - a - b} (a={a}, b={b}, c={c})"
        )
    return float(special.hyp2f1(a, b, c, z))
