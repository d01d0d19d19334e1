import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvol import ConvergenceError, SeriesControl, ValidationError, gamma, hyp2f1, mittag_leffler
from roughvol.specfun import rgamma


def ml_reference(alpha, beta, z, terms=6000):
    """Independent Mittag-Leffler sum, re-run at whatever precision the
    cancellation demands (terms can peak ~1e140 before summing to ~1e-4)."""
    dps = 60
    while True:
        with mp.workdps(dps):
            total, peak = mp.mpf(0), mp.mpf(1)
            zm, am, bm = mp.mpf(z), mp.mpf(alpha), mp.mpf(beta)
            for i in range(terms):
                # the Gamma argument must be built in mp arithmetic: float
                # rounding of alpha*i alone costs ~psi(a i) * 1e-14 relative
                term = zm**i / mp.gamma(am * i + bm)
                total += term
                peak = max(peak, abs(term))
                if i > 10 and abs(term) < mp.mpf(10) ** (-dps + 10):
                    break
            needed = int(mp.log10(peak)) + 60
            if needed <= dps:
                return float(total)
        dps = needed


# ---------------------------------------------------------------- gamma ----


def test_gamma_half_integers():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)
    for k in range(1, 12):
        assert gamma(k) == pytest.approx(math.factorial(k - 1), rel=1e-13)


@given(st.floats(min_value=1e-3, max_value=50.0))
def test_gamma_matches_math(x):
    assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


def test_gamma_domain():
    with pytest.raises(ValidationError):
        gamma(0.0)
    with pytest.raises(ValidationError):
        gamma(-1.3)
    with pytest.raises(ConvergenceError):
        gamma(200.0)


def test_rgamma_and_gammaln():
    for x in (0.3, 1.0, 4.7, 20.0):
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-12)


# -------------------------------------------------------- mittag-leffler ----


def test_ml_exponential_case():
    # E_{1,1} is exp; the special-function acceptance bound is 1e-12 relative
    for z in np.linspace(-5.0, 5.0, 41):
        assert mittag_leffler(1.0, 1.0, float(z)) == pytest.approx(
            math.exp(z), rel=1e-12
        )


def test_ml_at_zero_is_one_over_gamma_beta():
    for alpha, beta in [(0.6, 0.6), (0.75, 1.0), (0.9, 1.75)]:
        assert mittag_leffler(alpha, beta, 0.0) == pytest.approx(
            1.0 / math.gamma(beta), rel=1e-13
        )


@pytest.mark.parametrize(
    "alpha,beta", [(0.55, 0.55), (0.6667, 0.6667), (0.75, 0.75), (0.75, 1.0), (0.9, 1.8), (1.0, 2.0)]
)
def test_ml_against_mp_series(alpha, beta):
    for z in (-25.0, -8.0, -1.0, -0.1, 0.3, 2.0, 10.0):
        ref = ml_reference(alpha, beta, z)
        assert mittag_leffler(alpha, beta, z) == pytest.approx(ref, rel=5e-12), (
            alpha,
            beta,
            z,
        )
    # at the |z| <= 30 domain edge ~1000 float term updates accumulate a few
    # hundred ulp; the values there are ~1e180 and only feed rough bounds
    assert mittag_leffler(alpha, beta, 28.0) == pytest.approx(
        ml_reference(alpha, beta, 28.0), rel=1e-10
    )


def test_ml_strongly_negative_cancellation():
    # float64 series loses ~all digits near z = -30; the extended-precision
    # rerun must kick in and keep full relative accuracy on the tiny result
    val = mittag_leffler(0.75, 0.75, -30.0)
    assert val == pytest.approx(ml_reference(0.75, 0.75, -30.0), rel=1e-10)
    assert 0.0 < val < 1e-2


def test_ml_overflowing_terms_near_half():
    # at alpha = 0.51 the peak term near |z| = 29 is ~e^735, past float64:
    # the negative argument goes to the mpmath re-run, the positive one
    # (whose sum exceeds that term) is a typed failure
    assert mittag_leffler(0.51, 0.51, -29.0) == pytest.approx(
        ml_reference(0.51, 0.51, -29.0), rel=1e-12
    )
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.51, 0.51, 29.0)


def test_ml_domain_errors():
    with pytest.raises(ValidationError):
        mittag_leffler(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        mittag_leffler(1.2, 1.0, 0.5)
    with pytest.raises(ValidationError):
        mittag_leffler(0.75, 0.0, 0.5)
    with pytest.raises(ValidationError):
        mittag_leffler(0.75, 1.0, 31.0)


@settings(max_examples=40)
@given(
    alpha=st.floats(min_value=0.55, max_value=1.0),
    beta=st.floats(min_value=0.5, max_value=2.0),
    z=st.floats(min_value=0.0, max_value=20.0),
)
def test_ml_monotone_in_z_for_nonnegative_argument(alpha, beta, z):
    # every series term is nonnegative and increasing in z
    lo = mittag_leffler(alpha, beta, z)
    hi = mittag_leffler(alpha, beta, z + 1.0)
    assert hi > lo > 0.0


def test_series_control_validation():
    with pytest.raises(ValidationError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValidationError):
        SeriesControl(max_terms=0)
    ctl = SeriesControl(rel_tol=1e-8, max_terms=50_000)
    assert mittag_leffler(0.75, 1.0, 2.0, ctl) == pytest.approx(
        ml_reference(0.75, 1.0, 2.0), rel=1e-7
    )


# ----------------------------------------------------------------- 2F1 ----


def test_hyp2f1_gauss_point():
    # z = 1 closed form Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
    cases = [(0.25, 1.0, 2.75), (-0.5, 1.0, 1.75), (0.4, 2.0, 3.9), (-1.25, 1.0, 2.5)]
    for a, b, c in cases:
        ref = (
            math.gamma(c)
            * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b))
        )
        assert hyp2f1(a, b, c, 1.0) == pytest.approx(ref, rel=1e-10), (a, b, c)


@pytest.mark.parametrize("z", [0.05, 0.3, 0.6, 0.85, 0.93, 0.99, 0.999])
def test_hyp2f1_against_mp(z):
    # the parameter family the kernel tables feed in: a = 1 - i*alpha,
    # b in {1, 2}, c = j*alpha + b, for alphas on both sides of 2/3
    for alpha in (0.55, 2.0 / 3.0, 0.75, 0.97):
        for i in range(0, 5):
            for b in (1.0, 2.0):
                a = 1.0 - i * alpha
                c = 3.0 * alpha + b
                ref = float(mp.hyp2f1(a, b, c, z))
                assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=2e-10), (a, b, c, z)


def test_hyp2f1_integer_difference_log_branch():
    # c - a - b an exact integer near z = 1 exercises the logarithmic series
    a, b = 0.5, 1.0
    for s in (0, 1, 2):
        c = a + b + s
        for z in (0.95, 0.999):
            ref = float(mp.hyp2f1(a, b, c, z))
            assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-9), (s, z)


def test_hyp2f1_terminating_polynomial():
    # a = -2: 1 - 2bz/c + b(b+1)z^2/(c(c+1))
    a, b, c = -2.0, 1.5, 2.5
    for z in (0.2, 0.8, 1.0):
        ref = 1.0 + a * b / c * z + a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2 * z**2
        assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-12)


def test_hyp2f1_domain():
    with pytest.raises(ValidationError):
        hyp2f1(0.5, 0.0, 1.0, 0.5)  # b > 0 required
    with pytest.raises(ValidationError):
        hyp2f1(0.5, 2.0, 1.0, 0.5)  # c > b required
    with pytest.raises(ValidationError):
        hyp2f1(0.5, 1.0, 2.0, -0.1)
    with pytest.raises(ValidationError):
        hyp2f1(0.5, 1.0, 2.0, 1.0 + 1e-9)
    with pytest.raises(ValidationError):
        hyp2f1(0.6, 1.0, 1.5, 1.0)  # Gauss point needs c - a - b > 0

