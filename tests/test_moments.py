import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvol import (
    FunctionSpec,
    GaussianLaw,
    ModelParams,
    TimeGrid,
    ValidationError,
    build_scheme_law,
    cov_exact,
    cubic_exact,
    cubic_scheme,
    enumerate_words,
    gaussian_moment,
    mean_exact,
    moment_via_words,
    second_moment_L,
)
from roughvol import moments
from roughvol.exact_law import driver_law
from roughvol.kernels import toeplitz_upper
from roughvol.moments import Word

F_ID = FunctionSpec("affine", (0.0, 1.0), role="diffusion")
B_ZERO = FunctionSpec("constant", (0.0,), role="drift")
B_POLY = FunctionSpec("polynomial", (0.1, 0.0, 0.3), role="drift")


# ------------------------------------------------------------------ words ----


def test_word_census_and_order():
    counts = [len(enumerate_words(N)) for N in (1, 2, 3, 4)]
    assert counts == [1, 3, 7, 17]
    assert [str(w) for w in enumerate_words(2)] == ["J", "IK", "KK"]
    for N in (1, 2, 3, 4):
        for w in enumerate_words(N):
            assert w.weight == N
            assert w.letters[-1] != "I"


def test_word_constants():
    assert Word(("I", "J")).constant(0.5) == pytest.approx(3.0 * 0.5)
    assert Word(("J",)).constant(0.9) == pytest.approx(1.0)  # 2^-1 * 2!
    assert Word(("K",)).constant(-0.3) == pytest.approx(1.0)
    # IIK: two I's, no J, weight 3 -> rho^2 * 3!
    assert Word(("I", "I", "K")).constant(0.7) == pytest.approx(6.0 * 0.49)


def test_word_validation():
    with pytest.raises(ValidationError):
        Word(())
    with pytest.raises(ValidationError):
        Word(("I", "Q"))
    for bad in (0, 5, 2.0, True):
        with pytest.raises(ValidationError):
            enumerate_words(bad)


# ------------------------------------------------------ Gaussian moments ----


def test_gaussian_moment_isserlis():
    law1 = GaussianLaw(("z",), np.array([0.0]), np.array([[2.0]]))
    assert gaussian_moment({(4,): 1.0}, law1) == pytest.approx(3.0 * 4.0)
    assert gaussian_moment({(3,): 1.0}, law1) == 0.0
    shifted = GaussianLaw(("z",), np.array([1.5]), np.array([[2.0]]))
    assert gaussian_moment({(2,): 1.0}, shifted) == pytest.approx(1.5**2 + 2.0)

    cov = np.array([[1.0, 0.4], [0.4, 2.0]])
    pair = GaussianLaw(("a", "b"), np.zeros(2), cov)
    assert gaussian_moment({(1, 1): 1.0}, pair) == pytest.approx(0.4)
    # E[a^2 b^2] = va*vb + 2 c^2 for centered jointly Gaussian coordinates
    assert gaussian_moment({(2, 2): 1.0}, pair) == pytest.approx(
        1.0 * 2.0 + 2.0 * 0.4**2
    )
    combo = gaussian_moment({(2, 0): 0.5, (0, 1): 3.0, (1, 1): -1.0}, pair)
    assert combo == pytest.approx(0.5 * 1.0 + 0.0 - 0.4)


def test_gaussian_moment_validation():
    law = GaussianLaw(("a", "b"), np.zeros(2), np.eye(2))
    with pytest.raises(ValidationError):
        gaussian_moment({(1,): 1.0}, law)
    with pytest.raises(ValidationError):
        gaussian_moment({(1, -1): 1.0}, law)
    with pytest.raises(ValidationError):
        gaussian_moment({(5, 4): 1.0}, law)
    wide = GaussianLaw(tuple("abcdefghi"), np.zeros(9), np.eye(9))
    with pytest.raises(ValidationError):
        gaussian_moment({(1,) * 9: 1.0}, wide)


# -------------------------------------------- brute-force scheme oracle -----


def _poly_mul(u, v, dim):
    out = {}
    for pa, ca in u.items():
        for pb, cb in v.items():
            key = tuple(pa[i] + pb[i] for i in range(dim))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_pow(u, n, dim):
    out = {(0,) * dim: 1.0}
    for _ in range(n):
        out = _poly_mul(out, u, dim)
    return out


def brute_scheme_moment(N, p, grid, b):
    """E[(L-check_T)^N] at tiny n by expanding the discrete sum as a
    polynomial in the jointly Gaussian vector (X_1..X_{n-1}, dB_0..dB_{n-1})
    and applying the Isserlis evaluator.  Completely independent of the word
    expansion's simplex integrals."""
    n = grid.n
    law = build_scheme_law(grid, p)
    drv = driver_law(p, grid)
    W = toeplitz_upper(law.omega)[1:, 1:]
    S = p.sigma * W  # centered X_k = sum_l S[l-1, k-1] G_l
    cov_xx = S.T @ drv.cov[n:, n:] @ S
    cov_xw = S.T @ drv.cov[:n, n:].T  # [k-1, j] = Cov(Xc_k, dW_j)
    dim = (n - 1) + n
    mean = np.concatenate([law.mean[1:n], np.zeros(n)])
    cov = np.zeros((dim, dim))
    cov[: n - 1, : n - 1] = cov_xx[: n - 1, : n - 1]
    cov[: n - 1, n - 1 :] = p.rho * cov_xw[: n - 1, :]
    cov[n - 1 :, : n - 1] = cov[: n - 1, n - 1 :].T
    cov[n - 1 :, n - 1 :] = grid.dt * np.eye(n)
    joint = GaussianLaw(tuple(range(dim)), mean, 0.5 * (cov + cov.T))

    b0, b1, b2 = (tuple(b.coefficients) + (0.0, 0.0, 0.0))[:3]
    zero = (0,) * dim

    def xvar(k):
        e = [0] * dim
        e[k - 1] = 1
        return tuple(e)

    def bvar(j):
        e = [0] * dim
        e[(n - 1) + j] = 1
        return tuple(e)

    increment = {zero: (b0 + b1 * p.x0 + b2 * p.x0**2) * grid.dt}
    increment[bvar(0)] = p.x0
    for k in range(1, n):
        xk, xk2 = xvar(k), tuple(2 * e for e in xvar(k))
        increment[zero] += b0 * grid.dt
        increment[xk] = increment.get(xk, 0.0) + b1 * grid.dt
        increment[xk2] = increment.get(xk2, 0.0) + b2 * grid.dt
        cross = tuple(a + c for a, c in zip(xk, bvar(k)))
        increment[cross] = increment.get(cross, 0.0) + 1.0
    return gaussian_moment(_poly_pow(increment, N, dim), joint)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [B_ZERO, B_POLY], ids=["b0", "bpoly"])
def test_scheme_words_match_brute_force(params, N, b):
    grid = TimeGrid(4, params.T)
    got = moment_via_words(N, params, b, which="scheme", grid=grid)
    ref = brute_scheme_moment(N, params, grid, b)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([0.5001, 0.51, 1.0]) | st.floats(0.5001, 1.0),
    rho=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
    kappa2=st.sampled_from([0.0, -5.0, 1.0]) | st.floats(-5.0, 1.0),
    n=st.integers(2, 4),
    N=st.integers(1, 4),
    b=st.sampled_from([B_ZERO, B_POLY]),
)
def test_scheme_moment_matches_brute_force_at_edges(alpha, rho, kappa2, n, N, b):
    # alpha -> 1/2+, alpha = 1, kappa2 = 0 and |rho| = 1 are drawn first
    p = ModelParams(x0=0.2, kappa1=0.3, kappa2=kappa2, sigma=1.0, rho=rho, alpha=alpha, T=1.0)
    grid = TimeGrid(n, p.T)
    got = moment_via_words(N, p, b, which="scheme", grid=grid)
    ref = brute_scheme_moment(N, p, grid, b)
    scale = brute_scheme_moment(2, p, grid, b) ** (N / 2)  # odd moments may cancel to 0
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-13 * scale)


# ----------------------------------------------------- first two moments ----


def test_first_moment_constant_drift(params):
    b = FunctionSpec("constant", (0.37,), role="drift")
    assert moment_via_words(1, params, b) == pytest.approx(0.37 * params.T, rel=1e-13)
    grid = TimeGrid(32, params.T)
    got = moment_via_words(1, params, b, which="scheme", grid=grid)
    assert got == pytest.approx(0.37 * params.T, rel=1e-13)


def test_first_moment_general_drift(params):
    # E[L_T] = int_0^T (b0 + b1 m(t) + b2 (m(t)^2 + v(t))) dt
    b0, b1, b2 = 0.2, -0.4, 0.15
    b = FunctionSpec("polynomial", (b0, b1, b2), role="drift")

    def integrand(t):
        t = float(t)
        if t == 0.0:
            m, v = params.x0, 0.0
        else:
            m, v = mean_exact(params, t), cov_exact(params, t, t)
        return b0 + b1 * m + b2 * (m * m + v)

    ref = float(mp.quad(integrand, [0.0, 0.25, 1.0]))
    assert moment_via_words(1, params, b) == pytest.approx(ref, rel=1e-8)

    grid = TimeGrid(6, params.T)
    law = build_scheme_law(grid, params)
    m, v = law.mean[:6], np.diag(law.cov)[:6]
    ref_scheme = float(np.sum(b0 + b1 * m + b2 * (m * m + v)) * grid.dt)
    got = moment_via_words(1, params, b, which="scheme", grid=grid)
    assert got == pytest.approx(ref_scheme, rel=1e-11)


def test_second_moment_consistency(params):
    exact = second_moment_L(params, F_ID)
    words = moment_via_words(2, params, B_ZERO)
    assert words == pytest.approx(exact, rel=1e-8)
    grid = TimeGrid(64, params.T)
    scheme_direct = second_moment_L(params, F_ID, which="scheme", grid=grid)
    scheme_words = moment_via_words(2, params, B_ZERO, which="scheme", grid=grid)
    assert scheme_words == pytest.approx(scheme_direct, rel=1e-12)


def test_second_moment_quadrature_oracle(params):
    # independent route: tanh-sinh on E[X_t^2] with an explicit split point
    def integrand(t):
        t = float(t)
        if t == 0.0:
            return params.x0**2
        m = mean_exact(params, t)
        return m * m + cov_exact(params, t, t)

    ref = params.L0**2 + float(mp.quad(integrand, [0.0, 0.1, 0.5, 1.0]))
    assert second_moment_L(params, F_ID) == pytest.approx(ref, rel=1e-7)


def test_second_moment_affine_f(params):
    f = FunctionSpec("affine", (0.4, -1.2), role="diffusion")

    def integrand(t):
        t = float(t)
        m = params.x0 if t == 0.0 else mean_exact(params, t)
        v = 0.0 if t == 0.0 else cov_exact(params, t, t)
        return (0.4 - 1.2 * m) ** 2 + 1.2**2 * v

    ref = float(mp.quad(integrand, [0.0, 0.1, 0.5, 1.0]))
    assert second_moment_L(params, f) == pytest.approx(ref, rel=1e-7)


def test_second_moment_validation(params):
    with pytest.raises(ValidationError):
        second_moment_L(params, FunctionSpec("polynomial", (0.0, 0.0, 1.0)))
    with pytest.raises(ValidationError):
        second_moment_L(params, F_ID, which="scheme")
    with pytest.raises(ValidationError):
        second_moment_L(params, F_ID, which="series")


# ------------------------------------------------------------ third moment ---


def test_cubic_engines_agree_with_words(params):
    exact = cubic_exact(params, F_ID)
    words = moment_via_words(3, params, B_ZERO)
    assert words == pytest.approx(exact, rel=2e-5)
    grid = TimeGrid(64, params.T)
    law = build_scheme_law(grid, params)
    direct = cubic_scheme(law, params, F_ID)
    scheme_words = moment_via_words(3, params, B_ZERO, which="scheme", grid=grid)
    assert scheme_words == pytest.approx(direct, rel=1e-12)


def test_cubic_frozen_values(params):
    assert cubic_exact(params, F_ID) == pytest.approx(5.457041241199e-01, rel=1e-9)
    law = build_scheme_law(TimeGrid(256, params.T), params)
    assert cubic_scheme(law, params, F_ID) == pytest.approx(
        0.5404579124986337, rel=1e-12
    )


@pytest.mark.parametrize("alpha", [0.51, 0.55, 0.75, 1.0])
def test_cubic_exact_without_reversion_closed_form(params, alpha):
    # kappa2 = 0: R(u) = u^(a-1)/Gamma(a) and m_t = x0 + k1 t^a/Gamma(a+1),
    # so the mean part and the covariance part both integrate to powers of T
    p = dataclasses.replace(params, kappa2=0.0, alpha=alpha, T=1.3)
    a, T, x0, k1 = alpha, p.T, p.x0, p.kappa1
    g = math.gamma
    mean_part = (
        x0**2 * T ** (a + 1) / ((a + 1) * g(a + 1))
        + x0 * k1 * T ** (2 * a + 1) / (2 * a + 1) * (1 / g(a + 1) ** 2 + 1 / g(2 * a + 1))
        + k1**2 * T ** (3 * a + 1) / ((3 * a + 1) * g(2 * a + 1) * g(a + 1))
    )
    cov_part = p.sigma**2 * T ** (3 * a) / (g(a) * g(2 * a) * (3 * a - 1) * 3 * a)
    expected = 6 * p.rho * p.sigma * (mean_part + cov_part)
    assert cubic_exact(p, F_ID) == pytest.approx(expected, rel=1e-12)


def test_cubic_degenerate_cases(params):
    assert cubic_exact(dataclasses.replace(params, rho=0.0), F_ID) == 0.0
    const_f = FunctionSpec("constant", (0.8,), role="diffusion")
    assert cubic_exact(params, const_f) == 0.0
    law = build_scheme_law(TimeGrid(8, params.T), params)
    assert cubic_scheme(law, dataclasses.replace(params, rho=0.0), F_ID) == 0.0


def test_rho_flip_symmetry(params):
    # with b = 0 the law of L is symmetric in rho -> -rho up to sign of odd
    # moments: even moments invariant, odd moments flip
    flipped = dataclasses.replace(params, rho=-params.rho)
    grid = TimeGrid(16, params.T)
    for N in (2, 4):
        a = moment_via_words(N, params, B_ZERO, which="scheme", grid=grid)
        b = moment_via_words(N, flipped, B_ZERO, which="scheme", grid=grid)
        assert a == pytest.approx(b, rel=1e-13)
    a3 = moment_via_words(3, params, B_ZERO)
    b3 = moment_via_words(3, flipped, B_ZERO)
    assert a3 == pytest.approx(-b3, rel=1e-13)


def test_exact_branch_is_scheme_limit(params):
    # the two branches use disjoint machinery (continuum quadrature vs one
    # grid quadratic form); the scheme value must approach the exact one as n grows
    exact = moment_via_words(2, params, B_POLY)
    e64 = abs(moment_via_words(2, params, B_POLY, which="scheme", grid=TimeGrid(64, 1.0)) - exact)
    e256 = abs(moment_via_words(2, params, B_POLY, which="scheme", grid=TimeGrid(256, 1.0)) - exact)
    assert e256 < 0.5 * e64
    assert e256 < 5e-3 * abs(exact)


def test_word_detail_decomposition(params):
    total, parts = moment_via_words(3, params, B_ZERO, detail=True)
    assert set(parts) == {str(w) for w in enumerate_words(3)}
    assert total == pytest.approx(sum(parts.values()), rel=1e-14)
    for name in ("JK", "KJ", "IIK", "IKK", "KIK", "KKK"):
        assert parts[name] == 0.0  # every K-word vanishes when b = 0
    assert parts["IJ"] != 0.0


def test_exact_branch_frozen_values(params, monkeypatch):
    # the word quadrature at its fixed budgets, drift b = 0.1 + 0.3 x^2.
    # Words of one length share one node mesh, so each mean and covariance
    # is evaluated once per call; one mesh per word sends 120576 pairs at N = 2
    sent = []
    cov_pairs = moments._cov_pairs

    def counting(p, t_small, t_big):
        sent.append(np.size(t_small))
        return cov_pairs(p, t_small, t_big)

    monkeypatch.setattr(moments, "_cov_pairs", counting)
    total, parts = moment_via_words(2, params, B_POLY, detail=True)
    monkeypatch.undo()
    assert 0 < sum(sent) <= 60_000
    assert list(parts) == ["J", "IK", "KK"]  # canonical word order
    expected = {"J": 0.5683560166164987, "IK": 0.10914102184428413, "KK": 0.08662765886460361}
    for name, value in expected.items():
        assert parts[name] == pytest.approx(value, rel=1e-13)
    assert total == pytest.approx(0.7641246973253863, rel=1e-13)
    total, parts = moment_via_words(3, params, B_POLY, detail=True)
    assert total == pytest.approx(1.4168373736901327, rel=1e-13)
    expected = {"IJ": 0.5457051092214206, "IIK": 0.11000116343814893, "KKK": 0.03436062634006369}
    for name, value in expected.items():
        assert parts[name] == pytest.approx(value, rel=1e-13)


def test_moment_via_words_validation(params):
    with pytest.raises(ValidationError):
        moment_via_words(3, params, B_ZERO, which="scheme")  # grid missing
    with pytest.raises(ValidationError):  # the 2n x 2n form caps N >= 2 at n <= 2048
        moment_via_words(
            3, params, B_ZERO, which="scheme", grid=TimeGrid(2049, params.T)
        )
    with pytest.raises(ValidationError):  # one quadratic form: no per-word view
        moment_via_words(
            3, params, B_ZERO, which="scheme", grid=TimeGrid(8, params.T), detail=True
        )
    with pytest.raises(ValidationError):
        moment_via_words(2, params, FunctionSpec("exponential-affine", (1.0, 1.0)))
    with pytest.raises(ValidationError):
        moment_via_words(2, dataclasses.replace(params, L0=0.5), B_ZERO)
    with pytest.raises(ValidationError):
        moment_via_words(2, params, B_ZERO, which="mc")
