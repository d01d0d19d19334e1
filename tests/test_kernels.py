import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from roughvol import TimeGrid, ValidationError, beta_convolution, c_matrix, c_weight, cross_kernel_integral
from roughvol.kernels import (
    _reference_rule,
    c_weight_diffs,
    cross_kernel_table,
    graded_panels,
    jacobi_rule,
    legendre_rule,
)


# ------------------------------------------------------------- TimeGrid ----


def test_grid_basics():
    g = TimeGrid(8, 2.0)
    assert g.dt == pytest.approx(0.25)
    assert g.times[0] == 0.0 and g.times[-1] == 2.0
    assert len(g.times) == 9
    np.testing.assert_allclose(np.diff(g.times), g.dt)


def test_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(0, 1.0)
    with pytest.raises(ValidationError):
        TimeGrid(8, 0.0)
    with pytest.raises(ValidationError):
        TimeGrid(8, -1.0)


# ------------------------------------------------------------- c weights ----


def test_c_weight_against_quadrature():
    g = TimeGrid(6, 1.5)
    alpha = 0.72
    for i, k in [(0, 1), (0, 3), (2, 5), (4, 6)]:
        if i == k - 1:
            continue  # singular cell handled below via the exact power form
        ref = mp.quad(
            lambda u: (g.times[k] - u) ** (alpha - 1) / mp.gamma(alpha),
            [g.times[i], g.times[i + 1]],
        )
        assert c_weight(i, k, g, alpha) == pytest.approx(float(ref), rel=1e-12)


def test_c_weight_last_cell_closed_form():
    # the cell touching t_k carries mass dt^alpha / Gamma(alpha+1)
    g = TimeGrid(5, 1.0)
    for alpha in (0.55, 0.75, 1.0):
        got = c_weight(3, 4, g, alpha)
        assert got == pytest.approx(g.dt**alpha / math.gamma(alpha + 1.0), rel=1e-13)


@settings(max_examples=60)
@given(
    alpha=st.floats(min_value=0.501, max_value=1.0),
    n=st.integers(min_value=1, max_value=40),
    horizon=st.floats(min_value=0.1, max_value=10.0),
)
def test_c_weights_telescope_to_full_kernel_mass(alpha, n, horizon):
    # sum_{i<k} c_{i,k} = t_k^alpha / Gamma(alpha+1) exactly (the cells tile
    # [0, t_k] and each cell integral is evaluated in closed form)
    g = TimeGrid(n, horizon)
    k = n
    total = sum(c_weight(i, k, g, alpha) for i in range(k))
    assert total == pytest.approx(g.times[k] ** alpha / math.gamma(alpha + 1.0), rel=1e-11)


def test_c_weight_validation():
    g = TimeGrid(4, 1.0)
    with pytest.raises(ValidationError):
        c_weight(2, 2, g, 0.75)
    with pytest.raises(ValidationError):
        c_weight(-1, 2, g, 0.75)
    with pytest.raises(ValidationError):
        c_weight(0, 5, g, 0.75)
    with pytest.raises(ValidationError):
        c_weight(0, 2, g, 0.4)


def test_c_matrix_matches_entries():
    g = TimeGrid(7, 1.3)
    alpha = 0.66
    C = c_matrix(g, alpha)
    assert C.shape == (8, 8)
    for i in range(8):
        for k in range(8):
            if i < k:
                assert C[i, k] == pytest.approx(c_weight(i, k, g, alpha), rel=1e-14)
            else:
                assert C[i, k] == 0.0


def test_c_weight_diffs_gap_structure():
    g = TimeGrid(9, 2.0)
    d = c_weight_diffs(g, 0.8)
    assert d[0] == 0.0
    # weights depend on the gap only and decrease with it (kernel decays)
    assert np.all(np.diff(d[1:]) < 0.0)
    assert d[3] == pytest.approx(c_weight(2, 5, g, 0.8), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.51, 0.55, 0.75, 0.999])
def test_c_weight_diffs_far_gaps_against_mpmath(alpha):
    # j^a - (j-1)^a by plain subtraction is 4.7e-12 off at j = 65536, a = 0.55
    n = 65536
    d = c_weight_diffs(TimeGrid(n, float(n)), alpha)  # dt = 1
    with mp.workdps(40):
        a = mp.mpf(alpha)
        for j in (2, 64, 4096, 65536):
            ref = (mp.mpf(j) ** a - mp.mpf(j - 1) ** a) / mp.gamma(a + 1)
            assert d[j] == pytest.approx(float(ref), rel=1e-15, abs=0.0), j


# --------------------------------------------------- cross-kernel integral ----


def jacobi_oracle(a, b, c, alpha, npts=60):
    """int_0^c (a-s)^(alpha-1)(b-s)^(alpha-1) ds with the singular factor
    (min-side) absorbed into a raw scipy Jacobi weight; the remaining factor
    is analytic on [0, c] so the rule converges spectrally."""
    m, M = min(a, b), max(a, b)
    assert c == m, "oracle is for the closed-form branch"
    x, w = roots_jacobi(npts, alpha - 1.0, 0.0)
    half = 0.5 * m
    s = half * (x + 1.0)
    weights = w * half**alpha
    return float(np.sum(weights * (M - s) ** (alpha - 1.0)))


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.95])
def test_cross_kernel_closed_form(alpha):
    for a, b in [(0.5, 1.0), (1.0, 0.5), (0.25, 2.0), (1.7, 1.9)]:
        m = min(a, b)
        got = cross_kernel_integral(a, b, m, alpha)
        assert got == pytest.approx(jacobi_oracle(a, b, m, alpha), rel=1e-11)


def test_cross_kernel_equal_arguments():
    # a = b: int_0^a (a-s)^(2alpha-2) ds = a^(2alpha-1)/(2alpha-1)
    for alpha in (0.6, 0.8):
        a = 1.7
        got = cross_kernel_integral(a, a, a, alpha)
        assert got == pytest.approx(a ** (2 * alpha - 1) / (2 * alpha - 1), rel=1e-13)


def test_cross_kernel_partial_upper_limit():
    # c < min(a,b): integrand smooth on [0,c]; compare to mp quadrature
    alpha = 0.65
    a, b, c = 1.0, 1.4, 0.75
    ref = mp.quad(lambda s: (a - s) ** (alpha - 1) * (b - s) ** (alpha - 1), [0, c])
    got = cross_kernel_integral(a, b, c, alpha)
    assert got == pytest.approx(float(ref), rel=1e-10)


def test_cross_kernel_validation():
    with pytest.raises(ValidationError):
        cross_kernel_integral(1.0, 2.0, 1.2, 0.75)  # c > min(a,b)
    with pytest.raises(ValidationError):
        cross_kernel_integral(1.0, 2.0, 0.0, 0.75)


def test_cross_kernel_table_consistency():
    g = TimeGrid(5, 1.0)
    alpha = 0.75
    K = cross_kernel_table(g, alpha)
    assert np.allclose(K, K.T)
    assert np.all(K[0, :] == 0.0)
    t = g.times
    for i in range(1, 6):
        for j in range(i, 6):
            ref = cross_kernel_integral(t[i], t[j], min(t[i], t[j]), alpha)
            assert K[i, j] == pytest.approx(ref, rel=1e-10), (i, j)


@pytest.mark.parametrize("alpha,pair", [(0.75, (450, 500)), (0.6, (387, 430))])
def test_cross_kernel_table_against_mpmath(alpha, pair):
    # K[i, j] = dt^(2a-1) m^a M^(a-1)/a 2F1(1-a, 1; a+1; m/M) in index units;
    # the named pairs sit at z = m/M = 0.9, plus random off-diagonal entries
    n = 512
    K = cross_kernel_table(TimeGrid(n, 1.0), alpha)
    rng = np.random.default_rng(11)
    pairs = [pair] + [tuple(sorted(rng.choice(np.arange(1, n + 1), 2, replace=False))) for _ in range(12)]
    with mp.workdps(30):
        a = mp.mpf(alpha)
        for i, j in pairs:
            m, M = mp.mpf(int(i)), mp.mpf(int(j))
            ref = mp.mpf(n) ** (1 - 2 * a) * m**a * M ** (a - 1) / a * mp.hyp2f1(1 - a, 1, a + 1, m / M)
            assert K[i, j] == pytest.approx(float(ref), rel=1e-14, abs=0.0), (i, j)


# ------------------------------------------------------- beta convolution ----


def test_beta_convolution_identity_by_quadrature():
    # int_s^t (u-s)^(a-1)(t-u)^(b-1) du / (Gamma(a)Gamma(b)) against a raw
    # two-sided Jacobi rule with unit smooth factor; absolute 1e-8 bound
    for a, b, s, t in [(0.75, 0.6, 0.0, 1.0), (0.55, 1.0, 0.3, 1.9), (0.9, 0.9, -1.0, 2.5)]:
        x, w = roots_jacobi(40, b - 1.0, a - 1.0)
        half = 0.5 * (t - s)
        quad = float(np.sum(w)) * half ** (a + b - 1.0) / (math.gamma(a) * math.gamma(b))
        assert abs(beta_convolution(s, t, a, b) - quad) < 1e-8


def test_beta_convolution_symmetry_and_scaling():
    assert beta_convolution(0.0, 1.0, 0.6, 0.9) == pytest.approx(
        beta_convolution(0.0, 1.0, 0.9, 0.6), rel=1e-14
    )
    # value depends on t - s only
    assert beta_convolution(2.0, 3.5, 0.7, 0.7) == pytest.approx(
        beta_convolution(-1.5, 0.0, 0.7, 0.7), rel=1e-14
    )


def test_beta_convolution_validation():
    with pytest.raises(ValidationError):
        beta_convolution(1.0, 1.0, 0.7, 0.7)
    with pytest.raises(ValidationError):
        beta_convolution(0.0, 1.0, 0.0, 0.7)


# ------------------------------------------------------------ quadrature ----


def test_jacobi_rule_moments():
    # int_lo^hi (hi-x)^p (x-lo)^q x^k dx has a closed Beta-moment form
    lo, hi, p, q = 0.3, 1.1, -0.25, -0.4
    nodes, weights = jacobi_rule(12, p, q, lo, hi)
    width = hi - lo
    for k in range(4):
        got = float(np.sum(weights * nodes**k))
        ref = mp.quad(
            lambda x: (hi - x) ** mp.mpf(p) * (x - lo) ** mp.mpf(q) * x**k, [lo, hi]
        )
        assert got == pytest.approx(float(ref), rel=1e-11), k
    assert np.all(nodes > lo) and np.all(nodes < hi)
    assert width > 0


def test_jacobi_rule_validation():
    with pytest.raises(ValidationError):
        jacobi_rule(8, -1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("npts", [10, 16, 20, 48])
def test_jacobi_rule_beta_moments_against_mpmath(npts):
    # every moment the rule is exact for: int_0^1 (1-y)^a y^k dy = B(a+1, k+1),
    # k < 2 npts, at the exponents the package uses (a = alpha - 1)
    for alpha in (0.51, 0.75, 0.999, 1.0):
        a = alpha - 1.0
        y, w = jacobi_rule(npts, a, 0.0, 0.0, 1.0)
        with mp.workdps(40):
            ref = [float(mp.beta(mp.mpf(a) + 1, k + 1)) for k in range(2 * npts)]
        got = np.vander(y, 2 * npts, increasing=True).T @ w
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0, err_msg=f"alpha={alpha}")
        x_ref, _ = roots_jacobi(npts, a, 0.0)
        np.testing.assert_allclose(_reference_rule(npts, (a, 0.0))[0], x_ref, rtol=0.0, atol=1e-14)


def test_cached_reference_rules_are_read_only():
    for x, w in (_reference_rule(8), _reference_rule(8, (-0.25, 0.0))):
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # the per-call affine map still hands out fresh, writable arrays
    nodes, weights = legendre_rule(8, 0.0, 1.0)
    nodes[0] = weights[0] = 0.0
    assert legendre_rule(8, 0.0, 1.0)[0][0] > 0.0


def test_legendre_rule_polynomial_exactness():
    nodes, weights = legendre_rule(6, -0.5, 2.0)
    for k in range(12):  # exact through degree 2*6 - 1
        got = float(np.sum(weights * nodes**k))
        ref = (2.0 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-13), k


def test_graded_panels_partition():
    for toward in ("lo", "hi", "both"):
        panels = graded_panels(0.25, 1.75, n_levels=12, toward=toward)
        assert panels[0][0] == pytest.approx(0.25)
        assert panels[-1][1] == pytest.approx(1.75)
        for (l0, h0), (l1, h1) in zip(panels, panels[1:]):
            assert h0 == pytest.approx(l1)
            assert h0 > l0 and h1 > l1


def test_graded_panels_resolve_endpoint_singularity():
    # compound 24-point Legendre on graded panels vs exact int_0^1 x^(-0.4) dx;
    # the only error left is the raw singular mass of the first panel,
    # ~ (2^-levels)^0.6, so doubling the levels must crush it
    def compound(levels):
        total = 0.0
        for lo, hi in graded_panels(0.0, 1.0, n_levels=levels, toward="lo"):
            nodes, weights = legendre_rule(24, lo, hi)
            total += float(np.sum(weights * nodes ** (-0.4)))
        return total

    exact = 1.0 / 0.6
    err40 = abs(compound(40) - exact)
    err20 = abs(compound(20) - exact)
    assert err40 < 1e-7 * exact
    assert err40 < 1e-3 * err20


def test_graded_panels_validation():
    with pytest.raises(ValidationError):
        graded_panels(1.0, 1.0)
