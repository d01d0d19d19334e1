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

* ``moment_via_words`` -- any N <= 4.  The exact branch uses the word
  expansion: E[L_T^N] is a sum over words w in {I, J, K}* of weight
  ell(w) = N (last letter never I) of iterated integrals over the
  descending simplex T > r_1 > ... > r_m > 0 of

      C_w * sum_{pairings} prod_nu D_{r_{i_nu}} X_{r_{l_nu}}
            * E[ partial_{x_{l_1}} ... partial_{x_{l_k}} (base product) ],

  where the base product carries f^2 per J letter, b per K letter and f per
  I letter (letter at word position l acts on coordinate m - l + 1), each I
  letter at coordinate i pairs with some earlier coordinate l < i, and

      C_w = 2^{-#N_J} * rho^{#N_I} * ell(w)!.

  The engine is restricted to f(x) = x and polynomial b of degree <= 2, so
  every inner expectation is a polynomial moment of a Gaussian vector and
  is evaluated exactly by ``gaussian_moment``'s Isserlis expansion.  Words
  of one length share one tensor node mesh, on which every mean and
  covariance the words read is evaluated once per call; each word then
  integrates over its own sub-grid of that mesh, with its own weights, so
  sharing changes no word's quadrature.  Contributions are summed in
  canonical word order (shorter words first, then lexicographic), so
  results are bit-stable.

  The scheme branch needs no words: with frozen arguments the scheme
  log-price is exactly a quadratic form c + a'Z + Z'SZ in the 2n jointly
  Gaussian variables Z = (X-check_{t_k} - m_k, dB_k), whose cumulants are
  traces of powers of S Cov(Z) (``_scheme_moment``).  It is exact given
  the scheme law, costs one 2n x 2n GEMM for N >= 3, and caps N >= 2 at
  n <= 2048 for memory.
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
)
from .kernels import TimeGrid, graded_panels, jacobi_rule, legendre_rule
from .scheme import (
    FunctionSpec,
    SchemeLaw,
    build_scheme_law,
    cell_integrated_malliavin,
)
from .specfun import ml_array

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
# scheme-branch grid cap for N >= 2: the quadratic form is 2n x 2n
_MAX_FORM_N = 2048
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
    w = np.outer(wt * t**a, wx).ravel() * ml_array(a, a, k2 * v)
    g_t = np.repeat(f0 + f1 * _mean_many(p, t), x.size)
    g_s = f0 + f1 * _mean_many(p, np.maximum(np.repeat(t, x.size) - v ** (1.0 / a), 0.0))
    mean_part = float(np.sum(w * g_s * g_t)) / a
    y, wy = _panel_rule(graded_panels(0.0, p.T**a, 40, toward="lo"), 16)
    z = k2 * y
    rr = ml_array(a, 2.0 * a - 1.0, z) + (1.0 - a) * ml_array(a, 2.0 * a, z)
    kernel = y ** (2.0 - 1.0 / a) * (p.T - y ** (1.0 / a)) * ml_array(a, a, z) * rr / a
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


def _word_integrals_exact(
    words: Sequence[Word], p: ModelParams, b: FunctionSpec
) -> dict[Word, float]:
    """Simplex integrals of the word integrands for the continuous model.

    Nested substitution r_1 in (0, T), r_d = r_{d-1} u_d flattens the
    descending simplex onto a box.  An adjacent Malliavin pair (l, l+1)
    contributes exactly (1 - u_{l+1})^{alpha-1}, absorbed by a Gauss-Jacobi
    panel at the u = 1 end; non-adjacent pairs are only corner-singular and
    geometric panel grading toward u = 1 resolves them.

    Words of one length m share one node mesh.  Dimension 1 is the same
    rule for all of them; each u-dimension d >= 2 holds the common panels
    and then the Legendre and/or Jacobi variant of its last panel, as the
    words need.  mean(r_i) depends on dimensions 1..i+1 and Cov(r_j, r_i),
    j >= i, on dimensions 1..j+1 only, so each is evaluated once, on that
    leading sub-mesh, and broadcast over the rest.  Each word then reads its
    own sub-grid through ``np.ix_`` with its own weights, Jacobi
    compensators and Malliavin factors: the quadrature per word is the one
    of a mesh built for that word alone.
    """
    by_m: dict[int, list] = {}
    out: dict[Word, float] = {}
    for word in words:
        terms = word_terms(word)
        polys = [t.polynomial(b) for t in terms]
        if not any(polys):
            out[word] = 0.0
            continue
        jacobi_dims = {
            i for t in terms for (i, l) in t.pairing if l == i - 1
        }  # coordinate i>=2 whose u-dimension carries the exact (1-u)^(a-1) factor
        by_m.setdefault(word.m, []).append((word, terms, polys, jacobi_dims))
    a = p.alpha
    for m, live in by_m.items():
        lev1, n1, levu, nu = _EXACT_BUDGET[m]
        x, w = _panel_rule(graded_panels(0.0, p.T, lev1, toward="both"), n1)
        nodes, weights, comps = [x], [w], [np.ones_like(x)]
        index = {word: [np.arange(x.size)] for word, *_ in live}
        for d in range(2, m + 1):
            panels = graded_panels(0.0, 1.0, levu, toward="hi")
            hx, hw = _panel_rule(panels[:-1], nu)
            rules = [(hx, hw, np.ones_like(hx))]
            variants = sorted({d in jd for *_, jd in live})  # last panel: Legendre, Jacobi
            for jacobi in variants:
                if jacobi:
                    xl, wl = jacobi_rule(nu, a - 1.0, 0.0, *panels[-1])
                    rules.append((xl, wl, (1.0 - xl) ** (1.0 - a)))
                else:
                    xl, wl = legendre_rule(nu, *panels[-1])
                    rules.append((xl, wl, np.ones_like(xl)))
            for acc, parts in zip((nodes, weights, comps), zip(*rules)):
                acc.append(np.concatenate(parts))
            for word, *_, jd in live:
                lo = hx.size + nu * variants.index(d in jd)
                index[word].append(np.r_[: hx.size, lo : lo + nu])

        # r[i] holds r_{i+1} on the leading sub-mesh of dimensions 1..i+1
        r = [nodes[0]]
        for d in range(1, m):
            r.append(r[d - 1][..., None] * nodes[d])
        means = [_mean_many(p, ri) for ri in r]
        covs: dict[tuple[int, int], np.ndarray] = {}
        for j in range(m):
            for i in range(j + 1):
                # r_{j+1} <= r_{i+1}; r[i] broadcast over dimensions i+2..j+1
                big = np.broadcast_to(r[i].reshape(r[i].shape + (1,) * (j - i)), r[j].shape)
                covs[(i, j)] = _cov_pairs(p, r[j].ravel(), big.ravel()).reshape(r[j].shape)

        for word, terms, polys, _ in live:
            ix = np.ix_(*index[word])  # an array of k leading dimensions reads arr[ix[:k]]
            rw = [ri[ix[: ri.ndim]] for ri in r]
            wtot = 1.0
            for d in range(m):
                wtot = wtot * weights[d][ix[d]] * comps[d][ix[d]]
            for d in range(1, m):
                wtot = wtot * rw[d - 1]  # Jacobian of r_d = r_{d-1} u_d
            mw = [mi[ix[: mi.ndim]] for mi in means]
            cw = {key: c[ix[: c.ndim]] for key, c in covs.items()}
            total = 0.0
            for term, poly in zip(terms, polys):
                if not poly:
                    continue
                dfac = wtot
                for i, l in term.pairing:
                    dfac = dfac * _malliavin_kernel_array(p, rw[l - 1] - rw[i - 1])
                epart = _eval_poly_moment(poly, mw, cw)
                total += float(np.sum(dfac * epart))
            out[word] = total
    return out


# --------------------------------------------------------------------------
# Scheme moments from one Gaussian quadratic form
# --------------------------------------------------------------------------


def _scheme_moment(N: int, law: SchemeLaw, b: FunctionSpec) -> float:
    """E[(L-check_T)^N] for f(x) = x from the cumulants of a quadratic form.

    With Y_k = X-check_{t_k} - m_k (k < n, Y_0 = 0) the scheme log-price is
    L-check_T = c + a'Z + Z'SZ in the centred Gaussian Z = (Y, dB), where
    c = sum_k b(m_k) dt, a = ((b1 + 2 b2 m_k) dt, m_k) and
    S = [[b2 dt I, I/2], [I/2, 0]].  Cov(Z) has the blocks law.cov, dt I and
    Cov(Y_k, dB_j) = rho M[j, k] (M the cell-integrated Malliavin table, zero
    for j >= k).  With P = S Cov(Z) the cumulants are traces (Mathai &
    Provost 1992),

        k_1 = c + tr P,
        k_r = 2^(r-1) (r-1)! tr P^r + 2^(r-3) r! a' (P')^(r-2) Cov(Z) a,

    and E[L^N] = sum_j C(N-1, j-1) k_j E[L^(N-j)].  With A = law.cov[:n, :n]
    and C[k, j] = Cov(Y_k, dB_j) the blocks of P are

        P11 = b2 dt A + C'/2,   P12 = b2 dt C + dt I/2,   P21 = A/2,   P22 = C/2.

    C is strictly lower triangular (M has a zero diagonal), so
    tr P = b2 dt tr A, and tr P^2 = sum(P11*P11') + 2 sum(P12*P21') +
    sum(P22*P22') collapses to b2^2 dt^2 <A, A> + 2 b2 dt <A, C> + dt tr A / 2
    since C*C' = 0 elementwise.  k_2 always comes from these blocks, so
    N <= 2 builds no 2n x 2n array; N >= 3 forms P and one GEMM P^2 for
    k_3 and k_4.
    """
    n = law.n
    dt = law.grid.dt
    b0, b1, b2 = (_poly_coefficients(b) + (0.0, 0.0))[:3]
    m = law.mean[:n]
    A = law.cov[:n, :n]
    kappa = [float(np.sum(b0 + b1 * m + b2 * (m * m + np.diag(A)))) * dt]
    if N >= 2:
        C = law.params.rho * cell_integrated_malliavin(law)[:, :n].T  # C[k, j] = Cov(Y_k, dB_j)
        a_y = (b1 + 2.0 * b2 * m) * dt
        a = np.concatenate((a_y, m))
        u = np.concatenate((A @ a_y + C @ m, C.T @ a_y + dt * m))  # Cov(Z) a
        beta = b2 * dt  # tr P^2 from the blocks, as in the docstring
        trace = (
            beta * beta * np.einsum("ij,ij->", A, A)
            + 2.0 * beta * np.einsum("ij,ij->", A, C)
            + 0.5 * dt * np.trace(A)
        )
        kappa.append(2.0 * float(trace) + float(a @ u))
    if N >= 3:
        P = np.empty((2 * n, 2 * n))
        P[:n, :n] = b2 * dt * A + 0.5 * C.T
        P[:n, n:] = b2 * dt * C
        P[:n, n:][np.diag_indices(n)] += 0.5 * dt
        P[n:, :n] = 0.5 * A
        P[n:, n:] = 0.5 * C
        P2 = P @ P
        u = P.T @ u
        factors = {3: (P2, P), 4: (P2, P2)}  # tr P^r = tr(X Y)
        for r in range(3, N + 1):
            trace = float(np.einsum("ij,ji->", *factors[r]))
            kappa.append(
                2.0 ** (r - 1) * math.factorial(r - 1) * trace
                + 2.0 ** (r - 3) * math.factorial(r) * float(a @ u)
            )
            u = P.T @ u
    raw = [1.0]  # raw[k] = E[L^k]
    for k in range(1, N + 1):
        raw.append(sum(math.comb(k - 1, j) * kappa[j] * raw[k - 1 - j] for j in range(k)))
    return raw[N]


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
    """E[L_T^N] (exact) or E[(L-check_T)^N] (scheme), N in 1..4.

    Restricted to f(x) = x, polynomial drift b of degree <= 2 and L0 = 0.
    The exact branch sums the word expansion; with ``detail=True`` it returns
    (total, {word string: contribution}).  The scheme branch takes the
    cumulants of the scheme log-price as one Gaussian quadratic form in the
    2n scheme variables (``_scheme_moment``), so it has no per-word view:
    ``detail=True`` is refused there, and N >= 2 caps the grid at
    n <= 2048, where each 2n x 2n array is 128 MB (N = 1 keeps the scheme
    law's n <= 4096).
    """
    words = enumerate_words(N)  # validates N
    _poly_coefficients(b)  # validates b
    if p.L0 != 0.0:
        raise ValidationError("moment_via_words: the expansion assumes L0 = 0")
    if which not in ("exact", "scheme"):
        raise ValidationError(f"moment_via_words: unknown which={which!r}")
    if which == "scheme":
        if grid is None:
            raise ValidationError("moment_via_words: which='scheme' needs a grid")
        if detail:
            raise ValidationError("moment_via_words: the scheme branch has no per-word detail")
        if N >= 2 and grid.n > _MAX_FORM_N:
            raise ValidationError(
                f"moment_via_words: scheme branch capped at n <= {_MAX_FORM_N} for N >= 2"
            )
        return _scheme_moment(N, build_scheme_law(grid, p), b)
    b_zero = all(c == 0.0 for c in _poly_coefficients(b))
    integrals = _word_integrals_exact(
        [w for w in words if not (b_zero and "K" in w.letters)], p, b
    )
    contributions = {
        str(w): w.constant(p.rho) * integrals[w] if w in integrals else 0.0 for w in words
    }
    total = sum(contributions.values())  # canonical word order
    if detail:
        return total, contributions
    return total
