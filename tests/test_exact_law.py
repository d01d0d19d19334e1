import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvol import (
    GaussianLaw,
    ModelParams,
    TimeGrid,
    ValidationError,
    cov_exact,
    driver_law,
    grid_law_exact,
    malliavin_exact,
    mean_exact,
    sample,
    stationary_variance,
)
from roughvol.kernels import graded_panels, jacobi_rule, legendre_rule


def mean_series(p, t, terms=200):
    """Picard series x0 + (k1 + k2 x0) sum_j k2^j t^(a(j+1)) / Gamma(a(j+1)+1)."""
    with mp.workdps(40):
        a, k2 = mp.mpf(p.alpha), mp.mpf(p.kappa2)
        total = mp.mpf(p.x0)
        lead = mp.mpf(p.kappa1) + k2 * p.x0
        for j in range(terms):
            total += lead * k2**j * mp.mpf(t) ** (a * (j + 1)) / mp.gamma(a * (j + 1) + 1)
        return float(total)


def var_series(p, t, terms=220):
    """sigma^2 sum_m k2^m B_m t^(2a-1+am)/(2a-1+am) with
    B_m = sum_{j=0}^m 1/(Gamma(a(j+1)) Gamma(a(m-j+1)))."""
    with mp.workdps(40):
        a, k2 = mp.mpf(p.alpha), mp.mpf(p.kappa2)
        total = mp.mpf(0)
        for m in range(terms):
            B = sum(
                1 / (mp.gamma(a * (j + 1)) * mp.gamma(a * (m - j + 1)))
                for j in range(m + 1)
            )
            total += k2**m * B * mp.mpf(t) ** (2 * a - 1 + a * m) / (2 * a - 1 + a * m)
        return float(p.sigma**2 * total)


def quad_pair_covariance(p, t1, t2):
    """int_0^min D_u X_{t1} D_u X_{t2} du by graded panels + an endpoint
    Jacobi rule on the singular cell (alpha >= 0.7 keeps this trustworthy)."""
    lo_t = min(t1, t2)
    total = 0.0
    panels = graded_panels(0.0, lo_t, n_levels=30, toward="hi")
    for k, (lo, hi) in enumerate(panels):
        if k == len(panels) - 1 and t1 != t2:
            nodes, weights = jacobi_rule(32, p.alpha - 1.0, 0.0, lo, hi)
            sing = max(t1, t2)
            vals = np.array(
                [
                    malliavin_exact(p, s, sing)
                    * (lo_t - s) ** (1.0 - p.alpha)
                    * malliavin_exact(p, s, lo_t)
                    for s in nodes
                ]
            )
        elif k == len(panels) - 1:
            nodes, weights = jacobi_rule(32, 2.0 * p.alpha - 2.0, 0.0, lo, hi)
            vals = np.array(
                [
                    malliavin_exact(p, s, t1)
                    * malliavin_exact(p, s, t2)
                    * (lo_t - s) ** (2.0 - 2.0 * p.alpha)
                    for s in nodes
                ]
            )
        else:
            nodes, weights = legendre_rule(24, lo, hi)
            vals = np.array(
                [malliavin_exact(p, s, t1) * malliavin_exact(p, s, t2) for s in nodes]
            )
        total += float(np.sum(weights * vals))
    return total


# ----------------------------------------------------------- ModelParams ----


def test_params_validation():
    good = dict(x0=0.2, kappa1=0.3, kappa2=-1.0, sigma=1.0, rho=0.7, alpha=0.75, T=1.0)
    ModelParams(**good)
    for field, bad in [
        ("alpha", 0.5),
        ("alpha", 1.01),
        ("sigma", 0.0),
        ("rho", 1.2),
        ("T", 0.0),
        ("x0", math.inf),
    ]:
        with pytest.raises(ValidationError):
            ModelParams(**{**good, field: bad})


def test_params_kappa2_zero_flag(params):
    assert not params.kappa2_is_zero
    assert dataclasses.replace(params, kappa2=0.0).kappa2_is_zero


# ------------------------------------------------------------ mean_exact ----


def test_mean_no_reversion_closed_form(params):
    p = dataclasses.replace(params, kappa2=0.0)
    for t in (0.1, 0.5, 1.0):
        ref = p.x0 + p.kappa1 * t**p.alpha / math.gamma(p.alpha + 1.0)
        assert mean_exact(p, t) == pytest.approx(ref, rel=1e-13)
    assert mean_exact(p, 0.0) == p.x0


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
def test_mean_matches_picard_series(params, alpha):
    p = dataclasses.replace(params, alpha=alpha)
    for t in (0.25, 1.0, 3.0):
        assert mean_exact(p, t) == pytest.approx(mean_series(p, t), rel=1e-11)


def test_mean_alpha_one_is_classical_ou(params):
    # alpha = 1: dX = (k1 + k2 X) dt + ... with mean
    # x0 e^(k2 t) + (k1/k2)(e^(k2 t) - 1)
    p = dataclasses.replace(params, alpha=1.0)
    for t in (0.3, 2.0):
        ref = p.x0 * math.exp(p.kappa2 * t) + p.kappa1 / p.kappa2 * (
            math.exp(p.kappa2 * t) - 1.0
        )
        assert mean_exact(p, t) == pytest.approx(ref, rel=1e-11)


def test_mean_validation(params):
    with pytest.raises(ValidationError):
        mean_exact(params, -0.1)
    # Mittag-Leffler working range guards very large horizons
    with pytest.raises(ValidationError):
        mean_exact(params, 1e6)


# ------------------------------------------------------- malliavin_exact ----


def test_malliavin_formula_and_domain(params):
    p = params
    s, t = 0.3, 0.9
    u = t - s
    ml = 0.0
    with mp.workdps(40):
        for i in range(200):
            ml += float(
                mp.mpf(p.kappa2 * u**p.alpha) ** i / mp.gamma(p.alpha * (i + 1))
            )
    assert malliavin_exact(p, s, t) == pytest.approx(
        p.sigma * u ** (p.alpha - 1.0) * ml, rel=1e-11
    )
    with pytest.raises(ValidationError):
        malliavin_exact(p, 0.9, 0.9)
    with pytest.raises(ValidationError):
        malliavin_exact(p, -0.1, 0.5)


def test_malliavin_no_reversion_is_bare_kernel(params):
    p = dataclasses.replace(params, kappa2=0.0)
    s, t = 0.25, 1.0
    ref = p.sigma * (t - s) ** (p.alpha - 1.0) / math.gamma(p.alpha)
    assert malliavin_exact(p, s, t) == pytest.approx(ref, rel=1e-12)


# -------------------------------------------------------------- cov_exact ----


@pytest.mark.parametrize("alpha", [0.55, 0.6667, 0.75, 0.9])
def test_variance_against_independent_series(params, alpha):
    p = dataclasses.replace(params, alpha=alpha)
    for t in (0.5, 1.0):
        assert cov_exact(p, t, t) == pytest.approx(var_series(p, t), rel=5e-12)
    if alpha == 0.75:
        # |kappa2| t^alpha = 5.6: past the |v| <= 1 Horner switch of the
        # array Mittag-Leffler, so the scalar evaluator serves most nodes
        assert cov_exact(p, 10.0, 10.0) == pytest.approx(var_series(p, 10.0), rel=5e-12)


def test_cov_symmetry_and_zero_edge(params):
    assert cov_exact(params, 0.4, 1.0) == pytest.approx(
        cov_exact(params, 1.0, 0.4), rel=1e-13
    )
    assert cov_exact(params, 0.0, 1.0) == 0.0
    assert cov_exact(params, 1.0, 0.0) == 0.0


def test_cov_matches_quadrature_on_random_pairs(params, rng):
    # Ito-isometry route: Cov(X_t1, X_t2) = int_0^min D_u X_t1 D_u X_t2 du
    for _ in range(10):
        alpha = float(rng.uniform(0.7, 0.95))
        p = dataclasses.replace(params, alpha=alpha)
        t1, t2 = np.sort(rng.uniform(0.2, 1.5, size=2))
        ref = quad_pair_covariance(p, float(t1), float(t2))
        assert cov_exact(p, float(t1), float(t2)) == pytest.approx(ref, rel=1e-6)


def test_cov_offdiagonal_against_mp_double_series(params):
    # expand both Mittag-Leffler factors and integrate each power pair in
    # closed form: int_0^s v^(P-1) (t-s+v)^(Q-1) dv
    #   = s^P t^(Q-1) / P * 2F1(1-Q, 1; P+1; s/t),  P = a(i+1), Q = a(j+1)
    cases = [
        (params.alpha, 0.4, 1.0, 1e-9),
        # near-diagonal pairs, where R(t-s+v) varies on the scale t-s
        (0.55, 0.3, 0.3 + 1e-9, 1e-12),
        (0.55, 0.7, 0.7 + 1e-12, 1e-12),
    ]
    for alpha, t1, t2, rel in cases:
        p = dataclasses.replace(params, alpha=alpha)
        with mp.workdps(40):
            a, k2 = mp.mpf(alpha), mp.mpf(p.kappa2)
            s, t = mp.mpf(t1), mp.mpf(t2)
            total = mp.mpf(0)
            for i in range(60):
                for j in range(60 - i):
                    P, Q = a * (i + 1), a * (j + 1)
                    total += (
                        k2 ** (i + j)
                        / (mp.gamma(P) * mp.gamma(Q))
                        * s**P
                        * t ** (Q - 1)
                        / P
                        * mp.hyp2f1(1 - Q, 1, P + 1, s / t)
                    )
            ref = float(p.sigma**2 * total)
        assert cov_exact(p, t1, t2) == pytest.approx(ref, rel=rel), (alpha, t1, t2)


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(min_value=0.05, max_value=2.0),
    t2=st.floats(min_value=0.05, max_value=2.0),
)
def test_cov_is_positive_semidefinite_pairwise(t1, t2):
    p = ModelParams(x0=0.2, kappa1=0.3, kappa2=-1.0, sigma=1.0, rho=0.0, alpha=0.8, T=1.0)
    v11 = cov_exact(p, t1, t1)
    v22 = cov_exact(p, t2, t2)
    v12 = cov_exact(p, t1, t2)
    assert v11 > 0 and v22 > 0
    # 2x2 Gram determinant of a genuine covariance
    assert v11 * v22 - v12 * v12 >= -1e-12 * v11 * v22


# ------------------------------------------------------------- stationary ----


def test_stationary_variance_magnitude(params):
    # head integral on [0, 30] with a series Mittag-Leffler in mp; the tail
    # beyond is O(1e-5) relative and bounded by the leading asymptotic term
    p = params
    with mp.workdps(30):
        a, k2 = mp.mpf(p.alpha), mp.mpf(p.kappa2)

        def ml_aa(z):
            total, term_i = mp.mpf(0), 0
            while term_i < 400:
                term = z**term_i / mp.gamma(a * (term_i + 1))
                total += term
                if term_i > 5 and abs(term) < mp.mpf(10) ** -25:
                    break
                term_i += 1
            return total

        head = mp.quad(
            lambda s: s ** (2 * a - 2) * ml_aa(k2 * s**a) ** 2, [0, 1, 5, 30]
        )
        head = float(p.sigma**2 * head)
    tail_bound = 30.0 ** (-2.0 * p.alpha - 0.5) / abs(math.gamma(-p.alpha)) ** 2
    got = stationary_variance(p)
    assert abs(got - head) < 3.0 * tail_bound
    assert got > head > 0.0  # tail contribution is positive


def test_stationary_is_long_time_variance_limit(params):
    p = params
    limit = stationary_variance(p)
    gaps = [abs(cov_exact(p, t, t) - limit) / limit for t in (10.0, 20.0, 40.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def plancherel_variance(p, terms=200):
    """sigma^2 int_0^inf R^2 by Plancherel: R has Laplace transform
    1/(w^a - k2), and in u = w^a the integral is

        (sigma^2 / (pi a)) int_0^inf u^(1/a-1) du / (u^2 + 2 k u cos(pi a/2) + k^2),

    k = -k2: mp quadrature on [0, 2k], beyond it the Chebyshev expansion
    1/(1 - 2xt + t^2) = sum U_n(x) t^n in t = k/u <= 1/2, integrated
    term by term."""
    with mp.workdps(30):
        a, k = mp.mpf(p.alpha), -mp.mpf(p.kappa2)
        c = mp.cos(mp.pi * a / 2)
        head = mp.quad(lambda u: u ** (1 / a - 1) / (u**2 + 2 * k * u * c + k**2), [0, k, 2 * k])
        x, big = -c, 2 * k
        u_prev, u_n, tail = mp.mpf(0), mp.mpf(1), mp.mpf(0)
        for n in range(terms):
            tail += u_n * k**n * big ** (1 / a - 2 - n) / (n + 2 - 1 / a)
            u_prev, u_n = u_n, 2 * x * u_n - u_prev
        return float(p.sigma**2 * (head + tail) / (mp.pi * a))


@pytest.mark.parametrize("alpha", [0.51, 0.55, 0.6, 0.75, 0.9, 0.999])
def test_stationary_variance_against_plancherel_integral(params, alpha):
    p = dataclasses.replace(params, alpha=alpha, kappa2=-0.7, sigma=1.3)
    assert stationary_variance(p) == pytest.approx(plancherel_variance(p), rel=1e-12)


def test_stationary_variance_at_and_near_one(params):
    # alpha = 1 is the Ornstein-Uhlenbeck process, variance sigma^2/(2|k2|);
    # the closed form carries no 0/0 cancellation on the way there
    p = dataclasses.replace(params, alpha=1.0, kappa2=-0.7, sigma=1.3)
    ou = p.sigma**2 / (2.0 * 0.7)
    assert stationary_variance(p) == pytest.approx(ou, rel=1e-14)
    near = stationary_variance(dataclasses.replace(p, alpha=1.0 - 1e-10))
    assert near == pytest.approx(ou, rel=1e-9)


def test_stationary_requires_mean_reversion(params):
    with pytest.raises(ValidationError):
        stationary_variance(dataclasses.replace(params, kappa2=0.0))
    with pytest.raises(ValidationError):
        stationary_variance(dataclasses.replace(params, kappa2=0.5))


# ---------------------------------------------------- joint laws, sampling ----


def test_grid_law_consistency(params):
    g = TimeGrid(12, params.T)
    law = grid_law_exact(params, g)
    assert law.dim == 12
    for k in (1, 5, 12):
        assert law.mean[k - 1] == pytest.approx(mean_exact(params, g.times[k]), rel=1e-12)
        assert law.cov[k - 1, k - 1] == pytest.approx(
            cov_exact(params, g.times[k], g.times[k]), rel=1e-10
        )
    assert law.cov[2, 7] == pytest.approx(
        cov_exact(params, g.times[3], g.times[8]), rel=1e-10
    )


def test_grid_law_size_cap(params):
    with pytest.raises(ValidationError):
        grid_law_exact(params, TimeGrid(1025, params.T))


def test_driver_law_blocks(params):
    g = TimeGrid(6, params.T)
    law = driver_law(params, g)
    n = g.n
    assert law.dim == 2 * n
    cov = law.cov
    # Brownian increments: independent with variance dt
    np.testing.assert_allclose(cov[:n, :n], g.dt * np.eye(n), atol=1e-15)
    # Var G_k = t_k^(2a-1) / ((2a-1) Gamma(a)^2)
    for k in range(1, n + 1):
        t_k = g.times[k]
        ref = t_k ** (2 * params.alpha - 1.0) / (
            (2 * params.alpha - 1.0) * math.gamma(params.alpha) ** 2
        )
        assert cov[n + k - 1, n + k - 1] == pytest.approx(ref, rel=1e-10)
    # increment/G coupling vanishes for cells at or beyond the grid point
    assert cov[3, n + 2] == 0.0
    assert cov[2, n + 2] != 0.0


def test_sample_reproducible_and_moment_consistent(params):
    g = TimeGrid(4, params.T)
    law = grid_law_exact(params, g)
    a = sample(law, 40_000, seed=123)
    b = sample(law, 40_000, seed=123)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (40_000, 4)
    se_mean = np.sqrt(np.diag(law.cov) / 40_000)
    assert np.all(np.abs(a.mean(axis=0) - law.mean) < 5.0 * se_mean)
    sample_cov = np.cov(a.T)
    assert np.allclose(sample_cov, law.cov, atol=5.0 * np.max(np.diag(law.cov)) / np.sqrt(40_000))


def test_sample_validation(params):
    law = grid_law_exact(params, TimeGrid(2, params.T))
    with pytest.raises(ValidationError):
        sample(law, 0, seed=1)
    for block_size in (0, -5):
        with pytest.raises(ValidationError):
            sample(law, 10, seed=1, block_size=block_size)


def test_gaussian_law_validation():
    with pytest.raises(ValidationError):
        GaussianLaw(("a", "b"), np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValidationError):
        GaussianLaw(("a", "b"), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValidationError):
        GaussianLaw(("a",), np.zeros(2), np.eye(2))
