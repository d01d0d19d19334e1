import dataclasses
import math

import numpy as np
import pytest

from roughvol import (
    ErrorCurve,
    FunctionSpec,
    MCResult,
    ModelParams,
    TimeGrid,
    ValidationError,
    fit_loglog,
    fit_rate,
    kernel_freeze_gap,
    mc_weak_error,
    strong_error_exact,
    theoretical_rate,
    weak_error_curve,
    zeta_alternating,
)
from roughvol.moments import cubic_scheme
from roughvol.scheme import build_scheme_law

F_ID = FunctionSpec("affine", (0.0, 1.0), role="diffusion")
B_ZERO = FunctionSpec("constant", (0.0,), role="drift")


# ------------------------------------------------------------------- zeta ----


def test_zeta_open_interval_values():
    # high-precision references for the three arguments the diagnostics use
    assert zeta_alternating(0.5) == pytest.approx(-1.4603545088095868129, rel=1e-14)
    assert zeta_alternating(0.3) == pytest.approx(-0.90455925725398399001, rel=1e-14)
    assert zeta_alternating(0.7) == pytest.approx(-2.7783884455536960528, rel=1e-14)


def test_zeta_domain():
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            zeta_alternating(s)


# --------------------------------------------------------------- v_n branches


def test_theoretical_rate_branches():
    assert theoretical_rate(0.8, 100) == pytest.approx(0.01, rel=1e-15)
    assert theoretical_rate(0.6, 100) == pytest.approx(100.0**-0.8, rel=1e-15)
    assert theoretical_rate(2.0 / 3.0, 100) == pytest.approx(
        math.log(100.0) / 100.0, rel=1e-15
    )


def test_theoretical_rate_continuous_across_critical_line():
    # the two power branches glue continuously: crossing 2/3 by 1e-3 moves
    # v_n by a factor n^{3e-3}, well under 5% at practical grid sizes
    for n in (64, 1024, 16384):
        lo = theoretical_rate(2.0 / 3.0 - 1e-3, n)
        hi = theoretical_rate(2.0 / 3.0 + 1e-3, n)
        assert abs(lo / hi - 1.0) < 0.05


def test_theoretical_rate_domain():
    for a in (0.5, 1.0, 0.2):
        with pytest.raises(ValidationError):
            theoretical_rate(a, 64)
    with pytest.raises(ValidationError):
        theoretical_rate(0.75, 1)
    with pytest.raises(ValidationError):
        theoretical_rate(0.75, 64.0)


# -------------------------------------------------------------------- fits ----


def test_fit_loglog_recovers_synthetic_slopes():
    ns = (16, 32, 64, 128, 256)
    for q in (0.6, 0.8, 1.0):
        errs = [3.0 * n ** (-q) for n in ns]
        decay, intercept, r2 = fit_loglog(ns, errs)
        assert decay == pytest.approx(q, abs=1e-9)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        fit_loglog((64,), (0.1,))


def test_fit_rate_power_branches():
    ns = (16, 32, 64, 128)
    fit = fit_rate(ErrorCurve("var_X", ns, tuple(0.5 / n for n in ns)), 0.75)
    assert fit.passed and fit.theoretical == "n^-1"
    assert fit.slope == pytest.approx(1.0, abs=1e-9)

    fit = fit_rate(ErrorCurve("var_X", ns, tuple(n**-0.8 for n in ns)), 0.6)
    assert fit.passed and fit.slope == pytest.approx(0.8, abs=1e-9)
    assert fit.theoretical == "n^-0.8"

    off = fit_rate(ErrorCurve("var_X", ns, tuple(n**-0.5 for n in ns)), 0.75)
    assert not off.passed


def test_fit_rate_log_branch_is_flat_on_rate():
    ns = (16, 32, 64, 128)
    errs = tuple(2.0 * math.log(n) / n for n in ns)
    fit = fit_rate(ErrorCurve("var_X", ns, errs), 2.0 / 3.0)
    assert fit.theoretical == "log(n)/n"
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.passed
    # a clean 1/n curve on the critical line drifts off flat by ~log log n
    drift = fit_rate(ErrorCurve("var_X", ns, tuple(1.0 / n for n in ns)), 2.0 / 3.0)
    assert abs(drift.slope) > 0.0


def test_fit_rate_validation():
    with pytest.raises(ValidationError):
        fit_rate(ErrorCurve("var_X", (16, 32, 64), (1e-2, 1e-3, 1e-4)), 0.75)
    with pytest.raises(ValidationError):
        fit_rate(ErrorCurve("var_X", (16, 32, 64, 128), (1e-2, 1e-3, 0.0, 1e-5)), 0.75)
    with pytest.raises(ValidationError):
        fit_rate(
            ErrorCurve("var_X", (16, 32, 64, 128), (1e-2, 1e-3, 1e-4, 1e-19)), 0.75
        )
    with pytest.raises(ValidationError):
        fit_rate(ErrorCurve("var_X", (16, 32, 64, 128), (1.0,) * 4), 0.45)


def test_mc_result_validation():
    with pytest.raises(ValidationError):
        MCResult(1.0, -0.1, 100, 1, TimeGrid(4, 1.0))


# -------------------------------------------------------- freeze-gap curve ---


def test_kernel_freeze_gap_positive_and_matching():
    a = 0.75
    ratios = []
    for n in (16, 64, 256, 1024):
        gap, asym = kernel_freeze_gap(TimeGrid(n, 1.0), a)
        assert gap > 0.0 and asym > 0.0
        ratios.append(gap / asym)
    # the ratio climbs monotonically toward 1 from below
    assert all(b > a_ for a_, b in zip(ratios, ratios[1:]))
    assert 0.95 < ratios[-1] < 1.0
    assert ratios[-1] == pytest.approx(0.9893, abs=2e-4)


def test_kernel_freeze_gap_asymptote_formula():
    from math import gamma as G

    for a, n in ((0.6, 128), (0.85, 64)):
        _, asym = kernel_freeze_gap(TimeGrid(n, 1.0), a)
        ref = -zeta_alternating(2.0 * (1.0 - a)) / (G(a) ** 2 * n ** (2.0 * a - 1.0))
        assert asym == pytest.approx(ref, rel=1e-13)


def test_kernel_freeze_gap_horizon_scaling():
    a = 0.7
    g1, a1 = kernel_freeze_gap(TimeGrid(128, 1.0), a)
    g2, a2 = kernel_freeze_gap(TimeGrid(128, 2.0), a)
    scale = 2.0 ** (2.0 * a - 1.0)
    assert g2 == pytest.approx(scale * g1, rel=1e-12)
    assert a2 == pytest.approx(scale * a1, rel=1e-12)
    with pytest.raises(ValidationError):
        kernel_freeze_gap(TimeGrid(64, 1.0), 0.5)


# ------------------------------------------------------------ strong error ---


def test_strong_error_zero_without_reversion(params):
    p = dataclasses.replace(params, kappa2=0.0)
    assert strong_error_exact(TimeGrid(64, p.T), p) == 0.0


@pytest.mark.parametrize(
    "alpha,n,expected",
    [
        (0.55, 8, 5.97934117055731e-01),
        (0.55, 32, 2.86836655582759e-01),
        (0.75, 8, 1.19358021937985e-01),
        (0.75, 32, 3.86751229326125e-02),
        (0.9, 8, 5.56292142083014e-02),
        (0.9, 32, 1.46030715938386e-02),
        # frozen from the per-cell loop that built the whole scheme law
        # (commit 039e179), to guard the table form at large n
        (0.55, 512, 6.904283230097451e-02),
        (0.55, 4096, 2.343049942470135e-02),
        (0.75, 512, 4.420470949738364e-03),
        (0.75, 4096, 9.002473545975775e-04),
    ],
)
def test_strong_error_frozen_values(params, alpha, n, expected):
    # n <= 32: frozen against an independent closed-form route (Mittag-Leffler
    # double series for every piece) agreeing to ~2e-12
    p = dataclasses.replace(params, alpha=alpha)
    rel = 1e-12 if n > 32 else 1e-10
    assert strong_error_exact(TimeGrid(n, 1.0), p) == pytest.approx(expected, rel=rel)


def test_strong_error_quadrature_saturated(params):
    a = strong_error_exact(TimeGrid(16, 1.0), params, npts=20)
    b = strong_error_exact(TimeGrid(16, 1.0), params, npts=40)
    assert a == pytest.approx(b, rel=1e-10)


def test_strong_error_strong_reversion(params):
    p = dataclasses.replace(params, kappa2=-8.0)
    got = strong_error_exact(TimeGrid(16, 1.0), p)
    assert got == pytest.approx(0.478788606322883, rel=1e-9)


def test_strong_error_decreases(params):
    vals = [strong_error_exact(TimeGrid(n, 1.0), params) for n in (8, 16, 32, 64)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    decay, _, r2 = fit_loglog((8, 16, 32, 64), vals)
    # integrated-kernel freezing only touches the drift: the L^2 gap decays
    # near n^-alpha, much faster than the n^{a-1/2} noise gap of the
    # kernel-evaluated variant
    assert 0.6 < decay < 0.9
    assert r2 > 0.999


# ------------------------------------------------------------- weak curves ---


def test_weak_curve_mean_exact_when_drift_is_constant(params):
    p = dataclasses.replace(params, kappa2=0.0)
    curve = weak_error_curve("mean_X", 0.75, p, (8, 16, 32))
    assert max(curve.errors) <= 1e-14


def test_weak_curve_cov_contracts(params):
    curve = weak_error_curve("cov_X", 0.75, params, (64, 512))
    assert curve.errors[0] >= 5.0 * curve.errors[1]


def test_weak_curve_classical_limit(params):
    # alpha = 1 is the classical constant-kernel case; first-order decay
    curve = weak_error_curve("mean_X", 1.0, params, (16, 32, 64, 128))
    decay, _, _ = fit_loglog(curve.n_values, curve.errors)
    assert decay == pytest.approx(1.0, abs=0.2)


def test_weak_curve_positive_and_nearly_monotone(params):
    curve = weak_error_curve("var_X", 0.75, params, (16, 32, 64, 128, 256))
    assert min(curve.errors) > 0.0
    ups = sum(b > a for a, b in zip(curve.errors, curve.errors[1:]))
    assert ups <= 1


def test_weak_curve_validation(params):
    with pytest.raises(ValidationError):
        weak_error_curve("skew_X", 0.75, params, (16, 32))
    with pytest.raises(ValidationError):
        weak_error_curve("cov_X", 0.75, params, (15, 32))
    with pytest.raises(ValidationError):
        weak_error_curve("mean_X", 0.75, params, (32, 16))
    with pytest.raises(ValidationError):
        weak_error_curve("mean_X", 0.75, params, ())
    with pytest.raises(ValidationError):
        weak_error_curve("mean_X", 0.75, params, (16, 16))


# ------------------------------------------------------- common random MC ----


def test_mc_identical_grids_cancel_exactly(params):
    phi = FunctionSpec("polynomial", (0.0, 0.0, 0.0, 1.0), role="test")
    cmp_ = mc_weak_error(phi, B_ZERO, F_ID, params, 64, 64, 500, 7)
    assert cmp_.difference == 0.0
    assert cmp_.difference_se == 0.0
    assert cmp_.coarse.estimate == cmp_.fine.estimate


def test_mc_reproducible_and_consistent_with_cubic_gap(params):
    phi = FunctionSpec("polynomial", (0.0, 0.0, 0.0, 1.0), role="test")
    a = mc_weak_error(phi, B_ZERO, F_ID, params, 32, 128, 20_000, 13)
    b = mc_weak_error(phi, B_ZERO, F_ID, params, 32, 128, 20_000, 13)
    assert a.difference == b.difference
    assert a.fine.estimate == b.fine.estimate

    det = cubic_scheme(
        build_scheme_law(TimeGrid(32, params.T), params), params, F_ID
    ) - cubic_scheme(build_scheme_law(TimeGrid(128, params.T), params), params, F_ID)
    z = (a.difference - det) / a.difference_se
    assert abs(z) < 3.5
    # CRN pairing must beat the naive two-run error bar by a wide margin
    naive_se = math.hypot(a.coarse.std_error, a.fine.std_error)
    assert a.difference_se < 0.5 * naive_se


def test_mc_validation(params):
    phi = FunctionSpec("polynomial", (0.0, 1.0), role="test")
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 16, 64, 0, 1)
    for block_size in (0, -5):
        with pytest.raises(ValidationError):
            mc_weak_error(phi, B_ZERO, F_ID, params, 16, 64, 100, 1, block_size=block_size)
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 16, 64, 1, 1)
    with pytest.raises(ValidationError):
        mc_weak_error(
            FunctionSpec("exponential-affine", (1.0, 1.0)),
            B_ZERO,
            F_ID,
            params,
            16,
            64,
            100,
            1,
        )
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 24, 64, 100, 1)
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 0, 64, 100, 1)
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 64, 32, 100, 1)
    with pytest.raises(ValidationError):
        mc_weak_error(phi, B_ZERO, F_ID, params, 2049, 2049, 100, 1)
