"""Scalar special functions the whole package is built on.

Three public entry points:

* ``gamma``          -- Euler Gamma on x > 0 (``math.gamma``)
* ``mittag_leffler`` -- E_{a,b}(z) = sum_{i>=0} z^i / Gamma(a*i + b)
* ``hyp2f1``         -- Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1]
                        (``scipy.special.hyp2f1``)

``gamma`` and ``hyp2f1`` add only the domain checks the package relies on;
``rgamma`` is ``scipy.special.rgamma``.

Numerical policy
----------------
The Mittag-Leffler series alternates violently for z << 0 (largest term
~ exp(|z|^(1/a))).  The fast path sums in float64 while tracking the peak
term; if the roundoff estimate exceeds rel_tol * |sum| the same series is
re-run in mpmath at a working precision sized to the peak; a peak term
past the float64 range (|z| near 30 as a -> 1/2) goes straight to that
re-run, or for z > 0 raises ConvergenceError.  Arguments |z| > 30 are
rejected outright -- the mean-reversion scales this package targets keep
|kappa2| * t^alpha well inside that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from scipy import special
from scipy.special import rgamma

from .errors import ConvergenceError, ValidationError

__all__ = [
    "SeriesControl",
    "gamma",
    "mittag_leffler",
    "hyp2f1",
    "rgamma",
]

_EPS = 2.220446049250313e-16
_LOG_FLOAT_MAX = 709.0  # exp() of more overflows float64

# Largest |z| the Mittag-Leffler series accepts; see module docstring.
ML_MAX_ABS_Z = 30.0


@dataclass(frozen=True)
class SeriesControl:
    """Knobs for the series evaluations.

    rel_tol must sit in (0, 1e-6] (the contracts below are stated relative
    to it), max_terms >= 50.  The defaults are generous enough for any
    |z| <= 30 Mittag-Leffler argument at alpha >= 1/2.
    """

    rel_tol: float = 1e-12
    max_terms: int = 4000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValidationError(
                f"SeriesControl.rel_tol must be in (0, 1e-6], got {self.rel_tol}"
            )
        if self.max_terms < 50:
            raise ValidationError(
                f"SeriesControl.max_terms must be >= 50, got {self.max_terms}"
            )


_DEFAULT_CTL = SeriesControl()


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


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def _ml_series_float(alpha: float, beta: float, z: float, ctl: SeriesControl):
    """Plain float64 series; returns (sum, log_peak_term, n_terms, converged).

    A term beyond the float64 range ends the sum with sum = nan; the scan
    then goes on to the peak term only, whose log sizes the mpmath re-run.
    """
    total = float(rgamma(beta))
    if z == 0.0:
        return total, 0.0, 1, True
    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    log_peak = -math.inf
    prev_mag = abs(total)
    for i in range(1, ctl.max_terms + 1):
        log_t = i * log_az - math.lgamma(alpha * i + beta)
        if log_t > _LOG_FLOAT_MAX:
            for i in range(i + 1, ctl.max_terms + 1):
                nxt = i * log_az - math.lgamma(alpha * i + beta)
                if nxt <= log_t:
                    return math.nan, log_t, i, True
                log_t = nxt
            return math.nan, log_t, ctl.max_terms, False
        log_peak = max(log_peak, log_t)
        term = (sgn_z**i) * math.exp(log_t) if log_t > -745.0 else 0.0
        total += term
        mag = abs(term)
        if mag <= ctl.rel_tol * abs(total) and mag <= prev_mag:
            return total, log_peak, i, True
        prev_mag = mag
    return total, log_peak, ctl.max_terms, False


def _ml_series_mp(alpha: float, beta: float, z: float, ctl: SeriesControl, dps: int):
    """Same truncated series, summed in mpmath working precision."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        zz = mpmath.mpf(z)
        total = 1 / mpmath.gamma(b)
        term_mag = abs(total)
        for i in range(1, ctl.max_terms + 1):
            term = zz**i / mpmath.gamma(a * i + b)
            total += term
            mag = abs(term)
            if mag <= ctl.rel_tol * abs(total) and mag <= term_mag:
                return float(total)
            term_mag = mag
    raise ConvergenceError(
        f"mittag_leffler: series did not settle within {ctl.max_terms} terms "
        f"(alpha={alpha}, beta={beta}, z={z})"
    )


def mittag_leffler(
    alpha: float, beta: float, z: float, ctl: SeriesControl | None = None
) -> float:
    """Two-parameter Mittag-Leffler E_{alpha,beta}(z) by truncated series.

    Domain: alpha in (0, 1], beta > 0, |z| <= 30.  The result carries
    relative error ~ ctl.rel_tol; float64 cancellation for strongly negative
    z is detected and repaired by an extended-precision re-run of the same
    series.  A value beyond the float64 range raises ConvergenceError.
    """
    ctl = ctl or _DEFAULT_CTL
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"mittag_leffler: alpha must be in (0,1], got {alpha}")
    if not beta > 0.0:
        raise ValidationError(f"mittag_leffler: beta must be > 0, got {beta}")
    if abs(z) > ML_MAX_ABS_Z:
        raise ValidationError(
            f"mittag_leffler: |z| <= {ML_MAX_ABS_Z} required, got z = {z}"
        )
    total, log_peak, n_terms, ok = _ml_series_float(alpha, beta, z, ctl)
    if not ok:
        raise ConvergenceError(
            f"mittag_leffler: {ctl.max_terms} terms reached while terms still "
            f"growing (alpha={alpha}, beta={beta}, z={z})"
        )
    if z > 0.0 and not math.isfinite(total):
        # every term is positive: the sum exceeds its overflowing peak term
        raise ConvergenceError(
            f"mittag_leffler: E_{{{alpha},{beta}}}({z}) exceeds the float64 range"
        )
    # roundoff ~ peak_term * eps * n_terms; compare against what was asked for
    if math.isnan(total) or (
        math.exp(log_peak) * _EPS * max(n_terms, 1) > ctl.rel_tol * max(abs(total), 1e-300)
    ):
        dps = int(log_peak / math.log(10.0)) + 30
        return _ml_series_mp(alpha, beta, z, ctl, max(dps, 30))
    return total


# ---------------------------------------------------------------------------
# Gauss hypergeometric on [0, 1]
# ---------------------------------------------------------------------------


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) for b > 0, c > b, 0 <= z <= 1 (``scipy.special.hyp2f1``).

    z = 1 requires c - a - b > 0 (Gauss value); otherwise ValidationError.
    """
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
