"""Deterministic (Monte-Carlo-free) moment engines for the log-price.

Three independent routes to E[L_T^N] for the drift-augmented stochastic
integral L_t = L0 + int_0^t b(X) du + int_0^t f(X) dB:

* ``second_moment_L`` -- N=2, b == 0, via the Ito isometry:
  E[L_T^2] = L0^2 + int_0^T E[f(X_t)^2] dt.

* ``cubic_exact`` / ``cubic_scheme`` -- N=3, b == 0, L0 = 0, via the
  Clark-Ocone double integral

      E[L_T^3] = 6 rho int_0^T int_0^t E[f(X_s) (f f')(X_t)] D_s X_t ds dt

  and its grid twin with frozen arguments X-check_{eta(.)}, where the inner
  ds-integral is available in closed form cell by cell so the scheme value
  carries no quadrature error at all.

* ``moment_via_words`` -- any N <= 4 through the word expansion: E[L_T^N]
  is a sum over words w in {I, J, K}* of weight ell(w) = N (last letter
  never I) of iterated integrals over the descending simplex
  T > r_1 > ... > r_m > 0 of

      C_w * sum_{pairings} prod_nu D_{r_{i_nu}} X_{r_{l_nu}}
            * E[ partial_{x_{l_1}} ... partial_{x_{l_k}} (base product) ],

  where the base product carries f^2 per J letter, b per K letter and f per
  I letter (letter at word position l acts on coordinate m - l + 1), each I
  letter at coordinate i pairs with some earlier coordinate l < i, and

      C_w = 2^{-#N_J} * rho^{#N_I} * ell(w)!.

  The engine is restricted to f(x) = x and polynomial b of degree <= 2, so
  every inner expectation is a polynomial moment of a Gaussian vector and
  is evaluated exactly by ``gaussian_moment``'s Isserlis expansion.  On the
  scheme branch the state arguments freeze to grid points, which turns the
  simplex integral into exact sums over weakly decreasing cell tuples: the
  Malliavin kernel integrates in closed form against the polynomial
  cell-volume factors except when two or more paired I coordinates share a
  cell, where a small fixed singular quadrature takes over.

Word contributions are evaluated and summed in canonical word order
(shorter words first, then lexicographic), so results are bit-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .exact_law import (
    GaussianLaw,
    ModelParams,
    _cov_pairs,
    _malliavin_kernel_array,
    _mean_many,
    _ml_entire_array,
)
from .kernels import TimeGrid, graded_panels, jacobi_rule, legendre_rule
from .scheme import (
    FunctionSpec,
    SchemeLaw,
    build_scheme_law,
    cell_integrated_malliavin,
)
from .specfun import gamma

__all__ = [
    "Word",
    "WordTerm",
    "enumerate_words",
    "word_terms",
    "gaussian_moment",
    "second_moment_L",
    "cubic_exact",
    "cubic_scheme",
    "moment_via_words",
]

_MAX_MOMENT_DEGREE = 8
_MAX_MOMENT_DIM = 8
_LETTER_WEIGHT = {"I": 1, "J": 2, "K": 1}
# scheme-branch grid caps: the cell-tuple enumeration grows like n^m
_SCHEME_N_CAP = {1: 4096, 2: 1024, 3: 256, 4: 64}
# exact-branch tensor budget per simplex dimension m:
# (outer levels, outer nodes, inner levels, inner nodes)
_EXACT_BUDGET = {
    1: (24, 12, 0, 0),
    2: (10, 10, 10, 10),
    3: (5, 6, 5, 6),
    4: (4, 5, 4, 5),
}


# --------------------------------------------------------------------------
# Gaussian polynomial moments (Isserlis / Wick)
# --------------------------------------------------------------------------


def _pair_matchings(slots: tuple[int, ...]):
    """All perfect matchings of the slot list as sorted pair tuples."""
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for idx in range(len(rest)):
        pair = (first, rest[idx]) if first <= rest[idx] else (rest[idx], first)
        remaining = rest[:idx] + rest[idx + 1 :]
        for tail in _pair_matchings(remaining):
            yield tuple(sorted((pair,) + tail))


@lru_cache(maxsize=None)
def _centered_terms(powers: tuple[int, ...]):
    """E[prod z_i^{q_i}] for centered Gaussians as Sum count * prod cov^e.

    Returns a tuple of (count, ((i, j, exponent), ...)) entries; empty for
    odd total degree.
    """
    total = sum(powers)
    if total % 2 == 1:
        return ()
    if total == 0:
        return ((1.0, ()),)
    slots = tuple(
        itertools.chain.from_iterable([i] * q for i, q in enumerate(powers))
    )
    counts: dict[tuple, int] = {}
    for matching in _pair_matchings(slots):
        counts[matching] = counts.get(matching, 0) + 1
    out = []
    for matching, count in sorted(counts.items()):
        pair_exps: dict[tuple[int, int], int] = {}
        for pair in matching:
            pair_exps[pair] = pair_exps.get(pair, 0) + 1
        out.append(
            (float(count), tuple((i, j, e) for (i, j), e in sorted(pair_exps.items())))
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _moment_terms(powers: tuple[int, ...]):
    """E[prod Z_i^{p_i}] expanded about the mean.

    Each entry is (coefficient, mean exponents, ((i, j, cov exponent), ...)):
    the binomial shift by the mean times an Isserlis pairing of the centered
    part.
    """
    out = []
    for q in itertools.product(*(range(p + 1) for p in powers)):
        binom = 1.0
        for p, qi in zip(powers, q):
            binom *= math.comb(p, qi)
        for count, cov_terms in _centered_terms(tuple(q)):
            mean_exps = tuple(p - qi for p, qi in zip(powers, q))
            out.append((binom * count, mean_exps, cov_terms))
    return tuple(out)


def _eval_poly_moment(
    poly: Mapping[tuple[int, ...], float],
    means: Sequence,
    covs: Mapping[tuple[int, int], object],
):
    """Evaluate E[poly(Z)] given per-coordinate means and pair covariances.

    ``means[i]`` and ``covs[(i, j)]`` (i <= j) may be floats or broadcastable
    arrays; the result follows their common shape.
    """
    total = 0.0
    for powers, coef in poly.items():
        if coef == 0.0:
            continue
        for count, mean_exps, cov_terms in _moment_terms(powers):
            term = coef * count
            for i, e in enumerate(mean_exps):
                if e:
                    term = term * means[i] ** e
            for i, j, e in cov_terms:
                term = term * covs[(i, j)] ** e
            total = total + term
    return total


def gaussian_moment(poly: Mapping[tuple[int, ...], float], law: GaussianLaw) -> float:
    """Exact E[poly(Z)] for Z ~ law, poly a map {exponent tuple: coefficient}.

    Every exponent tuple must have one entry per law coordinate; total degree
    is capped at 8 and the law dimension at 8 (the Isserlis expansion grows
    factorially beyond that).
    """
    dim = law.dim
    if dim > _MAX_MOMENT_DIM:
        raise ValidationError(
            f"gaussian_moment: law dimension {dim} exceeds cap {_MAX_MOMENT_DIM}"
        )
    clean: dict[tuple[int, ...], float] = {}
    for powers, coef in poly.items():
        powers = tuple(int(e) for e in powers)
        if len(powers) != dim:
            raise ValidationError(
                f"gaussian_moment: exponent tuple {powers} does not match "
                f"law dimension {dim}"
            )
        if any(e < 0 for e in powers):
            raise ValidationError("gaussian_moment: exponents must be >= 0")
        if sum(powers) > _MAX_MOMENT_DEGREE:
            raise ValidationError(
                f"gaussian_moment: total degree {sum(powers)} exceeds cap "
                f"{_MAX_MOMENT_DEGREE}"
            )
        clean[powers] = clean.get(powers, 0.0) + float(coef)
    means = [float(v) for v in law.mean]
    covs = {
        (i, j): float(law.cov[i, j]) for i in range(dim) for j in range(i, dim)
    }
    return float(_eval_poly_moment(clean, means, covs))


# --------------------------------------------------------------------------
# Second moment via the Ito isometry
# --------------------------------------------------------------------------


def _panel_rule(panels, npts: int):
    """Compound Gauss-Legendre nodes and weights over a list of panels."""
    rules = [legendre_rule(npts, lo, hi) for lo, hi in panels]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def second_moment_L(
    p: ModelParams,
    f: FunctionSpec,
    which: str = "exact",
    grid: TimeGrid | None = None,
) -> float:
    """E[L_T^2] for the drift-free log-price via the Ito isometry.

    exact:  L0^2 + int_0^T E[f(X_t)^2] dt by graded Gauss panels;
    scheme: L0^2 + Sum_k E[f(X-check_{t_k})^2] dt, exact given the scheme law.
    Only affine f is supported (the integrand is then a polynomial in the
    marginal mean and variance).
    """
    f0, f1 = f.affine_pair()
    if which == "exact":
        t, w = _panel_rule(graded_panels(0.0, p.T, 26, toward="lo"), 16)
        m = _mean_many(p, t)
        v = _cov_pairs(p, t, t)
        integrand = (f0 + f1 * m) ** 2 + f1**2 * v
        return p.L0**2 + float(np.sum(w * integrand))
    if which == "scheme":
        if grid is None:
            raise ValidationError("second_moment_L: which='scheme' needs a grid")
        law = build_scheme_law(grid, p)
        mk = law.mean[:-1]
        vk = np.diag(law.cov)[:-1]
        vals = (f0 + f1 * mk) ** 2 + f1**2 * vk
        return p.L0**2 + float(np.sum(vals) * grid.dt)
    raise ValidationError(f"second_moment_L: unknown which={which!r}")


# --------------------------------------------------------------------------
# Third moment via Clark-Ocone
# --------------------------------------------------------------------------


def cubic_exact(p: ModelParams, f: FunctionSpec) -> float:
    """E[L_T^3] = 6 rho int_0^T int_0^t E[f(X_s)(ff')(X_t)] D_s X_t ds dt.

    For affine f = f0 + f1 x the expectation is f1 (f0 + f1 m_s)(f0 + f1 m_t)
    + f1^3 Cov(X_s, X_t), and D_s X_t = sigma R(t-s) with the resolvent
    R(u) = u^(a-1) E_{a,a}(k2 u^a).  The mean part keeps the double
    integral; its inner integral substitutes v = (t-s)^alpha, absorbing the
    kernel singularity,

        int_0^t R(t-s) g(s) ds = (1/alpha) int_0^{t^alpha} E_{a,a}(k2 v) g(t - v^{1/a}) dv,

    and graded panels resolve the algebraic endpoint behaviour on both axes.
    The covariance part collapses to one dimension: with Cov(X_s, X_t) =
    sigma^2 int_0^s R(t-r) R(s-r) dr, swapping the order of integration gives

        int int_{s<t} R(t-s) Cov(X_s, X_t) ds dt
            = sigma^2 int_0^T (T - tau) R(tau) (R*R)(tau) dtau,

    where R*R has Laplace transform 1/(p^a - k2)^2, so
    (R*R)(tau) = tau^(2a-1) [E_{a,2a-1} + (1-a) E_{a,2a}](k2 tau^a) / a.
    In y = tau^a its integrand is y^(2-1/a) (T - y^(1/a)) times entire
    functions of y, on graded panels toward 0.  Affine f only.
    """
    f0, f1 = f.affine_pair()
    if p.rho == 0.0 or f1 == 0.0:
        return 0.0
    a = p.alpha
    k2 = p.kappa2
    t, wt = _panel_rule(graded_panels(0.0, p.T, 26, toward="lo"), 12)
    # inner v-rule on [0, 1], scaled to [0, t^a] per t-node
    x, wx = _panel_rule(graded_panels(0.0, 1.0, 22, toward="both"), 10)
    v = np.outer(t**a, x).ravel()
    w = np.outer(wt * t**a, wx).ravel() * _ml_entire_array(a, a, k2 * v)
    g_t = np.repeat(f0 + f1 * _mean_many(p, t), x.size)
    g_s = f0 + f1 * _mean_many(p, np.maximum(np.repeat(t, x.size) - v ** (1.0 / a), 0.0))
    mean_part = float(np.sum(w * g_s * g_t)) / a
    y, wy = _panel_rule(graded_panels(0.0, p.T**a, 40, toward="lo"), 16)
    z = k2 * y
    rr = _ml_entire_array(a, 2.0 * a - 1.0, z) + (1.0 - a) * _ml_entire_array(a, 2.0 * a, z)
    kernel = y ** (2.0 - 1.0 / a) * (p.T - y ** (1.0 / a)) * _ml_entire_array(a, a, z) * rr / a
    cov_part = p.sigma**2 * float(np.sum(wy * kernel)) / a
    return 6.0 * p.rho * p.sigma * f1 * (mean_part + f1 * f1 * cov_part)


def cubic_scheme(law: SchemeLaw, p: ModelParams, f: FunctionSpec) -> float:
    """Scheme third moment, exact to machine precision given the scheme law.

    E[(L-check_T)^3] = 6 rho Sum_k dt Sum_{i<k} phi-check(i, k) M[i, k] with
    M the per-cell integrated scheme Malliavin kernel; no quadrature error.
    """
    f0, f1 = f.affine_pair()
    if p.rho == 0.0 or f1 == 0.0:
        return 0.0
    n = law.n
    m = law.mean
    phi = f1 * (
        f0 * f0
        + f0 * f1 * (m[:, None] + m[None, :])
        + f1 * f1 * (law.cov + np.outer(m, m))
    )
    M = cell_integrated_malliavin(law)
    return 6.0 * p.rho * law.grid.dt * float(np.sum(phi[:n, :n] * M[:, :n]))


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A word over the alphabet {I, J, K}; letters weigh 1, 2, 1."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValidationError("Word: empty letter sequence")
        bad = [ltr for ltr in self.letters if ltr not in _LETTER_WEIGHT]
        if bad:
            raise ValidationError(f"Word: letters must be I/J/K, got {bad}")

    @property
    def m(self) -> int:
        """Number of letters = number of simplex coordinates."""
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(_LETTER_WEIGHT[ltr] for ltr in self.letters)

    def positions(self, letter: str) -> tuple[int, ...]:
        """1-based positions of ``letter`` within the word."""
        return tuple(i + 1 for i, ltr in enumerate(self.letters) if ltr == letter)

    def constant(self, rho: float) -> float:
        """C_w = 2^{-#N_J} rho^{#N_I} ell(w)!."""
        n_j = len(self.positions("J"))
        n_i = len(self.positions("I"))
        return 2.0 ** (-n_j) * rho**n_i * math.factorial(self.weight)

    def __str__(self) -> str:
        return "".join(self.letters)


def enumerate_words(N: int) -> tuple[Word, ...]:
    """All words of weight N whose last letter is not I, in canonical order.

    Canonical order is (length, then lexicographic with I < J < K); the
    trailing-I words are dropped because their integrand vanishes.
    """
    if not isinstance(N, int) or isinstance(N, bool) or not 1 <= N <= 4:
        raise ValidationError(f"enumerate_words: N must be an int in 1..4, got {N!r}")
    found: list[Word] = []

    def extend(prefix: list[str], remaining: int) -> None:
        if remaining == 0:
            if prefix[-1] != "I":
                found.append(Word(tuple(prefix)))
            return
        for letter in ("I", "J", "K"):
            if _LETTER_WEIGHT[letter] <= remaining:
                extend(prefix + [letter], remaining - _LETTER_WEIGHT[letter])

    # seed the recursion letter by letter so prefix is never empty at emit
    for letter in ("I", "J", "K"):
        if _LETTER_WEIGHT[letter] <= N:
            extend([letter], N - _LETTER_WEIGHT[letter])
    found.sort(key=lambda w: (w.m, w.letters))
    return tuple(found)


@dataclass(frozen=True)
class WordTerm:
    """One Malliavin pairing of a word's I letters.

    ``pairing`` maps each I coordinate i (1-based, i = m - position + 1) to
    an earlier coordinate l < i; earlier coordinate means larger time on the
    descending simplex.  The full word contribution sums over all pairings.
    """

    word: Word
    pairing: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        m = self.word.m
        expect = tuple(m - j + 1 for j in self.word.positions("I"))
        got = tuple(i for i, _ in self.pairing)
        if tuple(sorted(got)) != tuple(sorted(expect)):
            raise ValidationError(
                f"WordTerm: pairing keys {got} must be the I coordinates {expect}"
            )
        for i, l in self.pairing:
            if not 1 <= l < i:
                raise ValidationError(
                    f"WordTerm: pairing target {l} must lie in 1..{i - 1}"
                )

    def constant(self, rho: float) -> float:
        return self.word.constant(rho)

    def polynomial(self, b: FunctionSpec) -> dict[tuple[int, ...], float]:
        """The differentiated base product as {exponent tuple: coefficient}.

        Base product (f(x) = x): per letter at word position l acting on
        coordinate m - l + 1, J contributes x^2, K contributes b(x), I
        contributes x; then one partial derivative per paired coordinate
        target.  An empty dict means the term vanishes identically.
        """
        m = self.word.m
        coeffs_b = _poly_coefficients(b)
        poly: dict[tuple[int, ...], float] = {(0,) * m: 1.0}
        for pos, letter in enumerate(self.word.letters, start=1):
            axis = m - pos  # 0-based index of coordinate m - pos + 1
            if letter == "J":
                uni = {2: 1.0}
            elif letter == "I":
                uni = {1: 1.0}
            else:
                uni = {e: c for e, c in enumerate(coeffs_b) if c != 0.0}
            poly = _mul_univariate(poly, axis, uni)
        for _, l in self.pairing:
            poly = _diff(poly, l - 1)
        return poly


def word_terms(word: Word) -> tuple[WordTerm, ...]:
    """All Malliavin pairings of a word (a single empty pairing if no I)."""
    m = word.m
    icoords = [m - j + 1 for j in word.positions("I")]
    ranges = [range(1, i) for i in icoords]
    out = []
    for combo in itertools.product(*ranges):
        out.append(WordTerm(word, tuple(zip(icoords, combo))))
    return tuple(out)


def _poly_coefficients(b: FunctionSpec) -> tuple[float, ...]:
    if not b.is_polynomial:
        raise ValidationError(
            f"word engine: drift must be polynomial, got kind={b.kind!r}"
        )
    coeffs = tuple(b.poly_coefficients())
    if len(coeffs) > 3:
        raise ValidationError(
            f"word engine: drift degree {len(coeffs) - 1} exceeds cap 2"
        )
    return coeffs


def _mul_univariate(poly, axis, uni):
    if not uni:
        return {}
    out: dict[tuple[int, ...], float] = {}
    for exps, coef in poly.items():
        for e, c in uni.items():
            key = exps[:axis] + (exps[axis] + e,) + exps[axis + 1 :]
            out[key] = out.get(key, 0.0) + coef * c
    return {k: v for k, v in out.items() if v != 0.0}


def _diff(poly, axis):
    out: dict[tuple[int, ...], float] = {}
    for exps, coef in poly.items():
        e = exps[axis]
        if e == 0:
            continue
        key = exps[:axis] + (e - 1,) + exps[axis + 1 :]
        out[key] = out.get(key, 0.0) + coef * e
    return {k: v for k, v in out.items() if v != 0.0}


# --------------------------------------------------------------------------
# Word engine, exact branch
# --------------------------------------------------------------------------


def _word_integral_exact(word: Word, p: ModelParams, b: FunctionSpec) -> float:
    """Simplex integral of the word integrand for the continuous model.

    Nested substitution r_1 in (0, T), r_d = r_{d-1} u_d flattens the
    descending simplex onto a box.  An adjacent Malliavin pair (l, l+1)
    contributes exactly (1 - u_{l+1})^{alpha-1}, absorbed by a Gauss-Jacobi
    panel at the u = 1 end; non-adjacent pairs are only corner-singular and
    geometric panel grading toward u = 1 resolves them.
    """
    m = word.m
    terms = word_terms(word)
    polys = [t.polynomial(b) for t in terms]
    if not any(polys):
        return 0.0
    jacobi_dims = {
        i for t in terms for (i, l) in t.pairing if l == i - 1
    }  # coordinate i>=2 whose u-dimension carries the exact (1-u)^(a-1) factor
    lev1, n1, levu, nu = _EXACT_BUDGET[m]
    a = p.alpha

    x, w = _panel_rule(graded_panels(0.0, p.T, lev1, toward="both"), n1)
    nodes_by_dim, weights_by_dim, comp_by_dim = [x], [w], [np.ones_like(x)]
    for d in range(2, m + 1):
        panels = graded_panels(0.0, 1.0, levu, toward="hi")
        xs, ws, comps = [], [], []
        for idx, (lo, hi) in enumerate(panels):
            last = idx == len(panels) - 1
            if last and d in jacobi_dims:
                x, w = jacobi_rule(nu, a - 1.0, 0.0, lo, hi)
                comp = (1.0 - x) ** (1.0 - a)
            else:
                x, w = legendre_rule(nu, lo, hi)
                comp = np.ones_like(x)
            xs.append(x)
            ws.append(w)
            comps.append(comp)
        nodes_by_dim.append(np.concatenate(xs))
        weights_by_dim.append(np.concatenate(ws))
        comp_by_dim.append(np.concatenate(comps))

    mesh = np.meshgrid(*nodes_by_dim, indexing="ij")
    wmesh = np.meshgrid(*weights_by_dim, indexing="ij")
    cmesh = np.meshgrid(*comp_by_dim, indexing="ij")
    r = [mesh[0].ravel()]
    for d in range(1, m):
        r.append(r[d - 1] * mesh[d].ravel())
    wtot = np.ones_like(r[0])
    for d in range(m):
        wtot = wtot * wmesh[d].ravel() * cmesh[d].ravel()
    for d in range(1, m):
        wtot = wtot * r[d - 1]  # Jacobian of r_d = r_{d-1} u_d

    means = [_mean_many(p, r[i]) for i in range(m)]
    covs: dict[tuple[int, int], np.ndarray] = {}
    for i in range(m):
        for j in range(i, m):
            covs[(i, j)] = _cov_pairs(p, r[j], r[i])  # r_j <= r_i for j >= i

    total = 0.0
    for term, poly in zip(terms, polys):
        if not poly:
            continue
        dfac = wtot
        for i, l in term.pairing:
            dfac = dfac * _malliavin_kernel_array(p, r[l - 1] - r[i - 1])
        epart = _eval_poly_moment(poly, means, covs)
        total += float(np.sum(dfac * epart))
    return total


# --------------------------------------------------------------------------
# Word engine, scheme branch
# --------------------------------------------------------------------------


def _tie_patterns(m: int):
    """Compositions of m: all splittings of coordinates 1..m into runs.

    Coordinates in one run share a grid cell; runs carry strictly decreasing
    cells (coordinate order is descending in time).
    """
    out = []
    for cuts in itertools.product((False, True), repeat=m - 1):
        sizes = []
        run = 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        out.append(tuple(sizes))
    return out


def _descending_tuples(n: int, p: int) -> np.ndarray:
    """All strictly decreasing p-tuples over 0..n-1 as an (count, p) array."""
    if p == 1:
        return np.arange(n, dtype=np.int64)[:, None]
    a = np.arange(n)
    mask = np.ones((n,) * p, dtype=bool)
    for i in range(p - 1):
        sh_a = [None] * p
        sh_b = [None] * p
        sh_a[i] = slice(None)
        sh_b[i + 1] = slice(None)
        mask &= a[tuple(sh_a)] > a[tuple(sh_b)]
    return np.argwhere(mask).astype(np.int64)


def _tied_tables(law: SchemeLaw, pmax: int) -> list[np.ndarray]:
    """T_p[i, k] = int_{cell i} D_s X-check_{t_k} (t_{i+1} - s)^p ds, p <= pmax.

    Expanding (t_{i+1}-s)^p in powers of (t_l - s) reduces each w-kernel term
    to elementary power integrals; T_0 equals the plain integrated-Malliavin
    table.
    """
    grid = law.grid
    n = grid.n
    a = law.params.alpha
    t = grid.times
    tl = t[None, :]  # kernel anchors t_l, l = 0..n
    lo = t[:n, None]  # cell left ends t_i
    hi = t[1 : n + 1, None]  # cell right ends t_{i+1}
    out = []
    for pexp in range(pmax + 1):
        V = np.zeros((n, n + 1))
        for rexp in range(pexp + 1):
            pref = math.comb(pexp, rexp) * (-1.0) ** (pexp - rexp)
            gap_hi = np.maximum(tl - hi, 0.0)
            gap_lo = np.maximum(tl - lo, 0.0)
            bracket = (gap_lo ** (a + rexp) - gap_hi ** (a + rexp)) / (a + rexp)
            V += pref * gap_hi ** (pexp - rexp) * bracket
        out.append((law.params.sigma / gamma(a)) * (V @ law.w))
    return out


def _tied_single_factor(tables, c_cells, k_cells, q: int, g: int, dt: float):
    """Closed-form cell factor for one paired I coordinate inside a tied run.

    The q-1 frozen coordinates above it and g-q below contribute ordered
    volumes (t_{c+1}-s)^{q-1}/(q-1)! and (s-t_c)^{g-q}/(g-q)!; expanding the
    latter in (t_{c+1}-s) reduces everything to the T_p tables.
    """
    acc = 0.0
    for j in range(g - q + 1):
        pref = math.comb(g - q, j) * (-1.0) ** j * dt ** (g - q - j)
        acc = acc + pref * tables[q - 1 + j][c_cells, k_cells]
    return acc / (math.factorial(q - 1) * math.factorial(g - q))


class _TiedMultiQuad:
    """Fixed singular quadrature for >= 2 paired I coordinates in one cell.

    For s inside cell c the scheme kernel splits exactly as

        D_s = A * (t_{c+1} - s)^(alpha-1) + R(s),

    with A = (sigma/Gamma(alpha)) w_{c+1,k} and R analytic on the closed
    cell.  Expanding the product over the d paired coordinates gives 2^d
    variants, each a nested integral over 0 < y_d < ... < y_1 < 1 whose only
    non-smooth content is a known power of (1 - y) per level: the level's
    own edge factor (when its slot is singular) plus the width powers of all
    levels nested inside it.  Each variant therefore gets its own cascade of
    Gauss-Jacobi rules with those exact exponents, making every remaining
    integrand factor analytic and the rule spectrally accurate.  R values at
    all reference offsets are precomputed as dense tables so the factor for
    every (cell, targets) combination is a vectorised contraction.
    """

    def __init__(self, law: SchemeLaw, d: int, npts: int):
        a = law.params.alpha
        grid = law.grid
        n = grid.n
        t = grid.times
        sig = law.params.sigma / gamma(a)
        self.d = d
        # own-edge coefficient per (cell, target), dt^(a-1) folded in
        self.edge_coef = sig * law.w[1 : n + 1, :] * grid.dt ** (a - 1.0)
        self.variants = []
        cidx = np.arange(n)
        for sing_flags in itertools.product((True, False), repeat=d):
            # flags in descending-variable order (top y_1 first)
            exps = [0.0] * d
            acc = 0.0
            for lev in range(d):
                beta = (a - 1.0) if sing_flags[lev] else 0.0
                exps[lev] = beta + acc
                acc = exps[lev] + 1.0
            x, w = jacobi_rule(npts, exps[d - 1], 0.0, 0.0, 1.0)
            ys = [x]
            wts = w
            for lev in range(d - 2, -1, -1):
                xr, wr = jacobi_rule(npts, exps[lev], 0.0, 0.0, 1.0)
                nprev = ys[-1].size
                ys = [np.repeat(y, npts) for y in ys]
                parent = ys[-1]
                # width powers are absorbed into the outer exponents, so no
                # per-parent rescaling of the weights is needed
                ys.append(parent + (1.0 - parent) * np.tile(xr, nprev))
                wts = np.repeat(wts, npts) * np.tile(wr, nprev)
            ys.reverse()  # ys[0] is the top variable
            tables = []
            for lev in range(d):
                if sing_flags[lev]:
                    tables.append(None)
                    continue
                y = ys[lev]
                offs = (
                    t[None, None, :]
                    - (cidx[None, :, None] + y[:, None, None]) * grid.dt
                )
                kern = np.where(
                    offs > 0.0, np.maximum(offs, 1e-300) ** (a - 1.0), 0.0
                )
                kern[:, cidx, cidx + 1] = 0.0  # remove the own-edge term
                tables.append(sig * np.einsum("rcl,lk->rck", kern, law.w))
            self.variants.append((sing_flags, ys, wts, tables))

    def factor(self, c_cells, k_lists, ranks, g: int, dt: float):
        """Vectorised factor over combos for ranks q_1 < ... < q_d."""
        gaps = [ranks[0] - 1]
        for i in range(self.d - 1):
            gaps.append(ranks[i + 1] - ranks[i] - 1)
        gaps.append(g - ranks[-1])
        norm = 1.0
        for gap in gaps:
            norm *= math.factorial(gap)
        out = 0.0
        for sing_flags, ys, wts, tables in self.variants:
            edges = [1.0 - ys[0]]
            for i in range(self.d - 1):
                edges.append(ys[i] - ys[i + 1])
            edges.append(ys[-1])
            poly = wts.copy()
            for gap, edge in zip(gaps, edges):
                if gap:
                    poly = poly * edge**gap
            acc = poly[:, None]
            for lev, (table, k_cells) in enumerate(zip(tables, k_lists)):
                if sing_flags[lev]:
                    acc = acc * self.edge_coef[c_cells, k_cells][None, :]
                else:
                    acc = acc * table[:, c_cells, k_cells]
            out = out + acc.sum(axis=0)
        return out * dt**g / norm


def _word_integral_scheme(
    word: Word, law: SchemeLaw, p: ModelParams, b: FunctionSpec
) -> float:
    """Simplex integral of the word integrand for the scheme.

    The frozen arguments eta(r_i) are constant on grid cells, so the simplex
    integral is an exact sum over weakly decreasing cell tuples.  Runs of
    coordinates sharing a cell contribute ordered-volume factors; paired I
    coordinates integrate their Malliavin kernel against those volumes in
    closed form (single pairing per cell) or by the fixed singular quadrature
    (two or more pairings in one cell).
    """
    m = word.m
    n = law.n
    dt = law.grid.dt
    terms = word_terms(word)
    polys = [t.polynomial(b) for t in terms]
    if not any(polys):
        return 0.0
    mean = law.mean
    cov = law.cov

    if m == 1:
        cells = np.arange(n)
        means = [mean[cells]]
        covs = {(0, 0): cov[cells, cells]}
        epart = np.broadcast_to(
            _eval_poly_moment(polys[0], means, covs), cells.shape
        )
        return float(np.sum(epart) * dt)

    need_tables = any(t.pairing for t in terms)
    tables = _tied_tables(law, m - 1) if need_tables else None
    multi_quads: dict[int, _TiedMultiQuad] = {}

    total = 0.0
    for sizes in _tie_patterns(m):
        ngroups = len(sizes)
        combos = _descending_tuples(n, ngroups)
        if combos.size == 0:
            continue
        starts = np.cumsum((0,) + sizes[:-1])  # first coordinate of each run
        group_of = {}
        for gi, (st, sz) in enumerate(zip(starts, sizes)):
            for coord in range(st + 1, st + sz + 1):
                group_of[coord] = gi
        for chunk in range(0, combos.shape[0], 500_000):
            block = combos[chunk : chunk + 500_000]
            cells = [block[:, gi] for gi in range(ngroups)]
            epart_cache: dict[tuple, np.ndarray] = {}
            for term, poly in zip(terms, polys):
                if not poly:
                    continue
                svars_by_group: dict[int, list[tuple[int, int]]] = {}
                skip = False
                for i, l in term.pairing:
                    if group_of[i] == group_of[l]:
                        skip = True  # s lies after the frozen target time
                        break
                    svars_by_group.setdefault(group_of[i], []).append((i, l))
                if skip:
                    continue
                factor = np.ones(block.shape[0])
                for gi, (st, sz) in enumerate(zip(starts, sizes)):
                    svars = svars_by_group.get(gi, [])
                    if not svars:
                        factor = factor * (dt**sz / math.factorial(sz))
                    elif len(svars) == 1:
                        i, l = svars[0]
                        q = i - st
                        factor = factor * _tied_single_factor(
                            tables, cells[gi], cells[group_of[l]], q, sz, dt
                        )
                    else:
                        svars = sorted(svars)
                        d = len(svars)
                        if d not in multi_quads:
                            npts = 8 if d == 2 else 6
                            multi_quads[d] = _TiedMultiQuad(law, d, npts)
                        ranks = [i - st for i, _ in svars]
                        k_lists = [cells[group_of[l]] for _, l in svars]
                        factor = factor * multi_quads[d].factor(
                            cells[gi], k_lists, ranks, sz, dt
                        )
                key = tuple(sorted(poly.items()))
                if key not in epart_cache:
                    means = [mean[cells[group_of[i + 1]]] for i in range(m)]
                    covs = {}
                    for i in range(m):
                        for j in range(i, m):
                            covs[(i, j)] = cov[
                                cells[group_of[i + 1]], cells[group_of[j + 1]]
                            ]
                    epart_cache[key] = _eval_poly_moment(poly, means, covs)
                total += float(np.sum(factor * epart_cache[key]))
    return total


# --------------------------------------------------------------------------
# Public word-expansion entry point
# --------------------------------------------------------------------------


def moment_via_words(
    N: int,
    p: ModelParams,
    b: FunctionSpec,
    which: str = "exact",
    grid: TimeGrid | None = None,
    detail: bool = False,
):
    """E[L_T^N] (exact) or E[(L-check_T)^N] (scheme) by the word expansion.

    Restricted to f(x) = x, polynomial drift b of degree <= 2 and L0 = 0.
    With ``detail=True`` returns (total, {word string: contribution}).
    """
    words = enumerate_words(N)  # validates N
    _poly_coefficients(b)  # validates b
    if p.L0 != 0.0:
        raise ValidationError("moment_via_words: the expansion assumes L0 = 0")
    if which not in ("exact", "scheme"):
        raise ValidationError(f"moment_via_words: unknown which={which!r}")
    law = None
    if which == "scheme":
        if grid is None:
            raise ValidationError("moment_via_words: which='scheme' needs a grid")
        cap = _SCHEME_N_CAP[N]
        if grid.n > cap:
            raise ValidationError(
                f"moment_via_words: scheme branch capped at n <= {cap} for N={N}"
            )
        law = build_scheme_law(grid, p)
    b_zero = all(c == 0.0 for c in _poly_coefficients(b))
    contributions: dict[str, float] = {}
    for word in words:
        if b_zero and "K" in word.letters:
            contributions[str(word)] = 0.0
            continue
        if which == "exact":
            raw = _word_integral_exact(word, p, b)
        else:
            raw = _word_integral_scheme(word, law, p, b)
        contributions[str(word)] = word.constant(p.rho) * raw
    total = 0.0
    for word in words:
        total += contributions[str(word)]
    if detail:
        return total, contributions
    return total
