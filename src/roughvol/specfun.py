"""Scalar special functions the whole package is built on.

Three public entry points:

* ``gamma``          -- Euler Gamma on x > 0, Lanczos approximation
* ``mittag_leffler`` -- E_{a,b}(z) = sum_{i>=0} z^i / Gamma(a*i + b)
* ``hyp2f1``         -- Gauss hypergeometric 2F1(a, b; c; z) for z in [0, 1]

plus a vectorised b = 1 hypergeometric (``hyp2f1_b1``) that the kernel/
covariance tables lean on: every 2F1 appearing in the covariance series has
second parameter b = 1, so the series collapses to sum_k (a)_k/(c)_k z^k and
can be evaluated over whole z-arrays with one coefficient sweep.

Numerical policy
----------------
The Mittag-Leffler series alternates violently for z << 0 (largest term
~ exp(|z|^(1/a))).  The fast path sums in float64 while tracking the peak
term; if the roundoff estimate exceeds rel_tol * |sum| the same series is
re-run in mpmath at a working precision sized to the peak.  Arguments
|z| > 30 are rejected outright -- the mean-reversion scales this package
targets keep |kappa2| * t^alpha well inside that; the far-tail asymptotic
expansion (private ``_mittag_leffler_asymptotic``) exists only for the
stationary-variance integrand.

2F1 on z in [0, 1] uses the power series for z <= 0.9, the z -> 1-z linear
transformation (non-integer exponent branch, parameters nudged when
c - a - b sits within 1e-6 of an integer) for 0.9 < z < 1, and the Gauss
summation at z = 1.  The same cancellation guard / mpmath-retry applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "SeriesControl",
    "gamma",
    "mittag_leffler",
    "hyp2f1",
    "hyp2f1_b1",
    "gammaln_signed",
    "rgamma",
]

_EPS = 2.220446049250313e-16

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

# Lanczos g = 7, n = 9 coefficient set (double-precision classic).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0 (Lanczos; relative error <= 1e-13 on (0, 50]).

    Raises ValidationError for x <= 0 and ConvergenceError on overflow
    (x beyond ~171.6).
    """
    x = float(x)
    if not x > 0.0:
        raise ValidationError(f"gamma: domain is x > 0, got {x}")
    if x > 171.6:
        raise ConvergenceError(f"gamma: overflow for x = {x}; use gammaln_signed")
    if x < 0.5:
        # reflection keeps the rational part well conditioned near 0
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def gammaln_signed(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for real non-pole x; sign is 0.0 at poles.

    Internal workhorse for log-scale series terms and the z -> 1-z
    transformation prefactors, where arguments go negative.
    """
    x = float(x)
    if x > 0.0:
        return math.lgamma(x), 1.0
    if x == math.floor(x):
        return math.inf, 0.0  # pole: 1/Gamma == 0, callers treat sign 0 as kill
    # Gamma(x) < 0 iff floor(x) is odd (alternates between consecutive poles)
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def rgamma(x: float) -> float:
    """1/Gamma(x), entire in x; 0.0 at the poles x = 0, -1, -2, ..."""
    ln, sign = gammaln_signed(x)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(-ln)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real non-pole x.

    Reflection below 1/2, upward recurrence to x >= 8, then the Bernoulli
    asymptotic series (|relative error| ~ 1e-15 there).
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValidationError(f"digamma: pole at x = {x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # - sum B_{2n} / (2n x^{2n});  1/12, -1/120, 1/252, -1/240, 1/132, -691/32760, 1/12
    tail = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2
                * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0)))
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - tail


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def _ml_series_float(alpha: float, beta: float, z: float, ctl: SeriesControl):
    """Plain float64 series; returns (sum, log_peak_term, n_terms, converged)."""
    total = rgamma(beta)
    if z == 0.0:
        return total, 0.0, 1, True
    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    log_peak = -math.inf
    prev_mag = abs(total)
    for i in range(1, ctl.max_terms + 1):
        log_t = i * log_az - math.lgamma(alpha * i + beta)
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
    series.
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
    # roundoff ~ peak_term * eps * n_terms; compare against what was asked for
    roundoff = math.exp(log_peak) * _EPS * max(n_terms, 1)
    if roundoff > ctl.rel_tol * max(abs(total), 1e-300):
        dps = int(log_peak / math.log(10.0)) + 30
        return _ml_series_mp(alpha, beta, z, ctl, max(dps, 30))
    return total


def _mittag_leffler_asymptotic(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z <= -30 via the z -> -inf expansion.

    E ~ -sum_{k>=1} z^{-k} / Gamma(beta - alpha*k); terms are added while
    they shrink.  At |z| >= 30 the first omitted term is far below 1e-12
    relative.  Private: only the stationary-variance tail needs it.
    """
    if z > -ML_MAX_ABS_Z:
        raise ValidationError("asymptotic branch is for z <= -30")
    total = 0.0
    prev = math.inf
    for k in range(1, 60):
        coef = rgamma(beta - alpha * k)
        term = -coef / z**k
        if coef != 0.0 and abs(term) >= prev:
            break
        total += term
        if coef != 0.0:
            prev = abs(term)
            if abs(term) <= 1e-17 * max(abs(total), 1e-300):
                break
    return total


# ---------------------------------------------------------------------------
# Gauss hypergeometric on [0, 1]
# ---------------------------------------------------------------------------


def _gauss_value(a: float, b: float, c: float) -> float:
    """2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)); needs c-a-b > 0."""
    s = c - a - b
    if s <= 0.0:
        raise ValidationError(
            f"hyp2f1 at z=1 requires c-a-b > 0, got c-a-b = {s} (a={a}, b={b}, c={c})"
        )
    ln1, s1 = gammaln_signed(c)
    ln2, s2 = gammaln_signed(s)
    ln3, s3 = gammaln_signed(c - a)
    ln4, s4 = gammaln_signed(c - b)
    if s3 == 0.0 or s4 == 0.0:
        return 0.0  # pole in a denominator Gamma kills the value
    return s1 * s2 * s3 * s4 * math.exp(ln1 + ln2 - ln3 - ln4)


def _series_2f1_float(a, b, c, z, rel_tol, max_terms):
    """Power series at z; returns (sum, peak, n, converged)."""
    total = 1.0
    term = 1.0
    peak = 1.0
    prev_mag = 1.0
    for k in range(max_terms):
        denom = (c + k) * (1.0 + k)
        if denom == 0.0:
            raise ValidationError(f"hyp2f1: parameter pole at c = {c}")
        term *= (a + k) * (b + k) / denom * z
        total += term
        mag = abs(term)
        peak = max(peak, mag)
        if mag <= rel_tol * abs(total) and mag <= prev_mag:
            return total, peak, k + 1, True
        prev_mag = mag
    return total, peak, max_terms, False


def _series_2f1_mp(a, b, c, z, rel_tol, max_terms, dps):
    with mpmath.workdps(dps):
        aa, bb, cc, zz = (mpmath.mpf(v) for v in (a, b, c, z))
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        prev_mag = abs(term)
        for k in range(max_terms):
            term *= (aa + k) * (bb + k) / ((cc + k) * (1 + k)) * zz
            total += term
            mag = abs(term)
            if mag <= rel_tol * abs(total) and mag <= prev_mag:
                return float(total)
            prev_mag = mag
    raise ConvergenceError(f"hyp2f1: series stalled (a={a}, b={b}, c={c}, z={z})")


def _series_2f1(a, b, c, z, rel_tol, max_terms):
    total, peak, n, ok = _series_2f1_float(a, b, c, z, rel_tol, max_terms)
    if not ok:
        raise ConvergenceError(
            f"hyp2f1: {max_terms} terms reached while still growing "
            f"(a={a}, b={b}, c={c}, z={z})"
        )
    if peak * _EPS * max(n, 1) > rel_tol * max(abs(total), 1e-300):
        dps = int(math.log10(max(peak, 1.0))) + 30
        return _series_2f1_mp(a, b, c, z, rel_tol, max_terms, dps)
    return total


# c - a - b within _INT_S_TOL of an integer -> exact logarithmic expansion;
# within _MP_S_BAND -> extended-precision two-term formula (the float formula
# loses ~eps/|c-a-b-m| digits to cancellation there); beyond -> plain float.
_INT_S_TOL = 1e-9
_MP_S_BAND = 1e-5


def _log_series_2f1(a, b, m, c, u, rel_tol, max_terms=400):
    """2F1(a, b; a+b+m; 1-u) for integer m >= 0 over an array 0 < u <= 0.1.

    Classical logarithmic expansion: a degree-(m-1) polynomial part plus a
    log(u)-weighted series with digamma coefficients.  Needs c - b = a + m > 0
    and c - a = b + m > 0, which c > b > 0 guarantees for m >= 0.
    """
    u = np.asarray(u, dtype=float)
    lnu = np.log(u)
    lgc = math.lgamma(c)
    ln_a, sg_a = gammaln_signed(a)
    ln_b, sg_b = gammaln_signed(b)
    if m == 0:
        if sg_a == 0.0 or sg_b == 0.0:
            # Gamma pole in the prefactor: the function degenerates to a
            # polynomial, which the terminating-series branch already owns.
            raise ValidationError("hyp2f1 log branch: non-positive integer a or b")
        term = sg_a * sg_b * math.exp(lgc - ln_a - ln_b) * np.ones_like(u)
        total = np.zeros_like(u)
        for k in range(max_terms):
            pk = 2.0 * digamma(k + 1.0) - digamma(a + k) - digamma(b + k)
            total += term * (pk - lnu)
            term = term * ((a + k) * (b + k) / ((k + 1.0) ** 2)) * u
            tmax = float(np.abs(term).max()) if term.size else 0.0
            if k > 2 and tmax * (abs(pk) + float(np.abs(lnu).max()) + 1.0) <= rel_tol * max(
                float(np.abs(total).max()), 1e-300
            ):
                return total
        raise ConvergenceError("hyp2f1 log branch (m=0) did not close")
    # polynomial part, k = 0 .. m-1
    pref_a = math.exp(math.lgamma(float(m)) + lgc - math.lgamma(a + m) - math.lgamma(b + m))
    coef = pref_a
    poly = np.zeros_like(u)
    upow = np.ones_like(u)
    for k in range(m):
        poly += coef * upow
        if k < m - 1:
            coef *= (a + k) * (b + k) / ((k + 1.0) * (1.0 - m + k))
            upow = upow * u
    # log part; vanishes when a or b is a non-positive integer
    logpart = np.zeros_like(u)
    if sg_a != 0.0 and sg_b != 0.0:
        sgn = -(1.0 if m % 2 == 0 else -1.0) * sg_a * sg_b
        ln0 = lgc - ln_a - ln_b - math.lgamma(m + 1.0)
        term = sgn * np.exp(ln0 + m * lnu)
        for k in range(max_terms):
            pk = (
                digamma(a + m + k)
                + digamma(b + m + k)
                - digamma(k + 1.0)
                - digamma(k + m + 1.0)
            )
            logpart += term * (lnu + pk)
            term = term * ((a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))) * u
            tmax = float(np.abs(term).max()) if term.size else 0.0
            if k > 2 and tmax * (abs(pk) + float(np.abs(lnu).max()) + 1.0) <= rel_tol * max(
                float(np.abs(poly + logpart).max()), 1e-300
            ):
                break
        else:
            raise ConvergenceError("hyp2f1 log branch did not close")
    return poly + logpart


def _hyp2f1_mp(a, b, c, z):
    """2F1 under the ambient mpmath precision: series, 1-z transform, or Gauss.

    Near-integer c-a-b is nudged by 10^-(dps/2), so the result carries about
    half the working digits -- callers size mp.dps at twice the target.
    """
    a, b, c, z = (mpmath.mpf(v) for v in (a, b, c, z))
    if z == 0:
        return mpmath.mpf(1)
    if z == 1:
        s = c - a - b
        return (
            mpmath.gamma(c) * mpmath.gamma(s) / (mpmath.gamma(c - a) * mpmath.gamma(c - b))
        )

    def series(aa, bb, cc, zz):
        tot = mpmath.mpf(1)
        term = mpmath.mpf(1)
        for k in range(200000):
            term *= (aa + k) * (bb + k) / ((cc + k) * (1 + k)) * zz
            tot += term
            if abs(term) < mpmath.mpf(10) ** (-mpmath.mp.dps - 5) * max(abs(tot), mpmath.mpf(1)):
                return tot
        raise ConvergenceError("mp 2F1 series stalled")

    if z <= mpmath.mpf("0.9"):
        return series(a, b, c, z)
    s = c - a - b
    nudge = mpmath.mpf(10) ** (-(mpmath.mp.dps // 2))
    if abs(s - mpmath.nint(s)) < nudge * 10:
        a = a + nudge
        s = c - a - b
    u = 1 - z
    first = (
        mpmath.gamma(c)
        * mpmath.gamma(s)
        / (mpmath.gamma(c - a) * mpmath.gamma(c - b))
        * series(a, b, 1 - s, u)
    )
    second = (
        mpmath.gamma(c)
        * mpmath.gamma(-s)
        / (mpmath.gamma(a) * mpmath.gamma(b))
        * u**s
        * series(c - a, c - b, 1 + s, u)
    )
    return first + second


def _two_term_mp(a, b, c, z, rel_tol):
    """Scalar mp fallback for z near 1 with awkward (near-integer) c-a-b."""
    dps = 2 * max(16, int(-math.log10(rel_tol)) + 3) + 12
    with mpmath.workdps(dps):
        return float(_hyp2f1_mp(a, b, c, z))


def hyp2f1(
    a: float, b: float, c: float, z: float, ctl: SeriesControl | None = None
) -> float:
    """2F1(a, b; c; z) for b > 0, c > b, 0 <= z <= 1.

    The parameter family this package feeds it -- a = 1 - i*alpha (or other
    small reals), b in {1, 2}, c = j*alpha + 1 or + 2 -- comes back with
    relative error <= 1e-10.  z = 1 requires c - a - b > 0 (Gauss value);
    otherwise ValidationError.
    """
    ctl = ctl or _DEFAULT_CTL
    a = float(a)
    b = float(b)
    c = float(c)
    z = float(z)
    if not (b > 0.0 and c > b):
        raise ValidationError(f"hyp2f1: need c > b > 0, got b={b}, c={c}")
    if not (0.0 <= z <= 1.0):
        raise ValidationError(f"hyp2f1: z must be in [0, 1], got {z}")
    if z == 0.0 or a == 0.0:
        return 1.0
    if z == 1.0:
        return _gauss_value(a, b, c)
    # terminating series: a a non-positive integer (polynomial of degree -a)
    if a < 0.0 and abs(a - round(a)) < 1e-12:
        return _series_2f1(a, b, c, z, ctl.rel_tol, int(-round(a)) + 2)
    if z <= 0.9:
        return _series_2f1(a, b, c, z, ctl.rel_tol, ctl.max_terms)
    # z in (0.9, 1): z -> 1-z connection.  Integer c-a-b takes the exact
    # logarithmic expansion, near-integer the mp rescue, the rest the plain
    # two-term formula.
    s = c - a - b
    delta = abs(s - round(s))
    if delta < _INT_S_TOL and round(s) >= 0:
        out = _log_series_2f1(a, b, int(round(s)), c, np.array([1.0 - z]), ctl.rel_tol)
        return float(out[0])
    if delta < _MP_S_BAND:
        return _two_term_mp(a, b, c, z, ctl.rel_tol)
    u = 1.0 - z
    ln_c, sg_c = gammaln_signed(c)
    ln_s, sg_s = gammaln_signed(s)
    ln_ca, sg_ca = gammaln_signed(c - a)
    ln_cb, sg_cb = gammaln_signed(c - b)
    ln_ms, sg_ms = gammaln_signed(-s)
    ln_a, sg_a = gammaln_signed(a)
    ln_b, sg_b = gammaln_signed(b)
    first = 0.0
    if sg_ca != 0.0 and sg_cb != 0.0:
        pref1 = sg_c * sg_s * sg_ca * sg_cb * math.exp(ln_c + ln_s - ln_ca - ln_cb)
        first = pref1 * _series_2f1(a, b, 1.0 - s, u, ctl.rel_tol, ctl.max_terms)
    second = 0.0
    if sg_a != 0.0 and sg_b != 0.0:
        pref2 = sg_c * sg_ms * sg_a * sg_b * math.exp(ln_c + ln_ms - ln_a - ln_b)
        second = (
            pref2
            * u**s
            * _series_2f1(c - a, c - b, 1.0 + s, u, ctl.rel_tol, ctl.max_terms)
        )
    return first + second


def hyp2f1_b1(a: float, c: float, z: np.ndarray, rel_tol: float = 1e-13) -> np.ndarray:
    """Vectorised 2F1(a, 1; c; z) over a z-array, z in [0, 1], c > 1.

    With b = 1 the series is sum_k (a)_k/(c)_k z^k -- one coefficient
    recurrence serves every z at once (Horner over the shared coefficient
    list for z <= 0.9; the same two-series z -> 1-z transformation for
    0.9 < z < 1; Gauss value at z = 1).  This is the bulk path behind the
    exact covariance series; scalar `hyp2f1` is its cross-check.
    """
    a = float(a)
    c = float(c)
    if not c > 1.0:
        raise ValidationError(f"hyp2f1_b1: need c > 1, got c={c}")
    z = np.asarray(z, dtype=float)
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValidationError("hyp2f1_b1: z must lie in [0, 1]")
    out = np.empty_like(z)
    flat_z = z.ravel()
    flat_out = out.ravel()

    near = flat_z > 0.9
    at_one = flat_z == 1.0

    # --- bulk: power series coefficients r_k = (a)_k / (c)_k, Horner
    bulk = ~near
    if np.any(bulk):
        zb = flat_z[bulk]
        coeffs = _b1_coeffs(a, c, 0.9, rel_tol)
        acc = np.zeros_like(zb)
        for r in coeffs[::-1]:
            acc = acc * zb + r
        flat_out[bulk] = acc

    # --- z = 1: Gauss value
    if np.any(at_one):
        flat_out[at_one] = _gauss_value(a, 1.0, c)

    # --- 0.9 < z < 1: z -> 1-z connection (same branch policy as hyp2f1)
    mid = near & ~at_one
    if np.any(mid):
        s = c - a - 1.0
        delta = abs(s - round(s))
        u = 1.0 - flat_z[mid]
        if delta < _INT_S_TOL and round(s) >= 0:
            flat_out[mid] = _log_series_2f1(a, 1.0, int(round(s)), c, u, rel_tol)
        elif delta < _MP_S_BAND:
            flat_out[mid] = [_two_term_mp(a, 1.0, c, 1.0 - ui, rel_tol) for ui in u]
        else:
            ln_c, sg_c = gammaln_signed(c)
            ln_s, sg_s = gammaln_signed(s)
            ln_ca, sg_ca = gammaln_signed(c - a)
            ln_cb, sg_cb = gammaln_signed(c - 1.0)
            ln_ms, sg_ms = gammaln_signed(-s)
            ln_a, sg_a = gammaln_signed(a)
            val = np.zeros_like(u)
            if sg_ca != 0.0 and sg_cb != 0.0:
                pref1 = sg_c * sg_s * sg_ca * sg_cb * math.exp(
                    ln_c + ln_s - ln_ca - ln_cb
                )
                val += pref1 * _poly_series_2f1(a, 1.0, 1.0 - s, u, rel_tol)
            if sg_a != 0.0:
                pref2 = sg_c * sg_ms * sg_a * math.exp(ln_c + ln_ms - ln_a)
                val += pref2 * u**s * _poly_series_2f1(c - a, c - 1.0, 1.0 + s, u, rel_tol)
            flat_out[mid] = val
    return out


def _b1_coeffs(a: float, c: float, zmax: float, rel_tol: float) -> np.ndarray:
    """Coefficients (a)_k/(c)_k until the tail at z = zmax is below rel_tol."""
    coeffs = [1.0]
    r = 1.0
    zk = 1.0
    for k in range(4000):
        r *= (a + k) / (c + k)
        zk *= zmax
        coeffs.append(r)
        if abs(r) * zk / (1.0 - zmax) < rel_tol and k > 4:
            return np.asarray(coeffs)
    raise ConvergenceError(f"hyp2f1_b1: coefficient tail not closing (a={a}, c={c})")


def _poly_series_2f1(a: float, b: float, q: float, u: np.ndarray, rel_tol: float):
    """sum_k (a)_k (b)_k / ((q)_k k!) u^k over an array u, |u| <= 0.1."""
    total = np.ones_like(u)
    term = np.ones_like(u)
    umax = float(u.max()) if u.size else 0.0
    tk = 1.0
    for k in range(2000):
        denom = (q + k) * (1.0 + k)
        if denom == 0.0:
            raise ValidationError("hyp2f1 transformation hit a parameter pole")
        fac = (a + k) * (b + k) / denom
        term = term * fac * u
        total += term
        tk *= abs(fac) * max(umax, 1e-300)
        if tk < rel_tol and k > 4:
            return total
    raise ConvergenceError("hyp2f1 transformation series stalled")
