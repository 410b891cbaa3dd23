"""Rank weight enumerators and their q-calculus.

The enumerator of a code is W(x,y) = sum_i A_i y^i x^{n-i}.  This module
implements the machinery that makes the rank-metric MacWilliams identity
work: the q-product of homogeneous polynomials with parametric coefficients,
the q-transform, q- and q^{-1}-derivatives (with their Leibniz rules checked
in the tests), generalized Krawtchouk polynomials, the MacWilliams transform
itself (one transform, two kernels), dual-of-vector enumerators, and the
two moment identities of the rank distribution.

All arithmetic is exact.  Coefficients live in the rationals with q-power
denominators (q^{-1}-derivatives introduce them); every enumerator-level
result is asserted integral.  Parametric coefficient families are total over
all integers m -- q-products shift the parameter downward (b_{u-i}(m-i)), so
q^m is evaluated as an exact Fraction when m goes negative.

The normalized polynomials P_j(x;m,n)/P_j(0;m,n) are known to be values of a
basic hypergeometric series; no such closed form is used here.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .rankgeom import alpha, beta, gaussian, q_int_pow, sigma


def as_int(x):
    """Exact conversion to int: an integer, or a Fraction with denominator
    1.  Raises ValueError for any other Fraction and TypeError for any other
    non-integer, a float among them."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integral value {x}")
        return x.numerator
    return operator.index(x)


# ---------------------------------------------------------------------------
# parametric homogeneous polynomials and the q-product
# ---------------------------------------------------------------------------

class ParametricPoly:
    """Homogeneous polynomial sum_u c_u(m) y^u x^{d-u} of fixed degree d whose
    coefficients are exact functions of an integer parameter m.

    The coefficient family must be total over all of Z: q-products evaluate
    operands at shifted parameters (the b_{u-i}(m-i) term), which can push m
    below zero even when only m >= 0 is ever asked for at the top level.
    Coefficient values are ints or Fractions; families are memoized."""

    __slots__ = ("q", "degree", "_fn", "_memo")

    def __init__(self, q, degree, fn):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.q = q
        self.degree = degree
        self._fn = fn
        self._memo = {}

    def coeff(self, u, m):
        if u < 0 or u > self.degree:
            return 0
        key = (u, m)
        if key not in self._memo:
            self._memo[key] = self._fn(u, m)
        return self._memo[key]

    def coeffs(self, m):
        """(c_0(m), ..., c_d(m)) evaluated exactly."""
        return tuple(self.coeff(u, m) for u in range(self.degree + 1))

    def __repr__(self):
        return f"ParametricPoly(q={self.q}, degree={self.degree})"


def from_coeffs(q, coeffs):
    """Constant-in-m polynomial from an explicit coefficient list."""
    coeffs = tuple(coeffs)
    return ParametricPoly(q, len(coeffs) - 1, lambda u, m: coeffs[u])


def poly_scale(f, c):
    return ParametricPoly(f.q, f.degree, lambda u, m: c * f.coeff(u, m))


def poly_add(f, g):
    if f.q != g.q or f.degree != g.degree:
        raise ValueError("sum needs equal q and degree")
    return ParametricPoly(f.q, f.degree,
                          lambda u, m: f.coeff(u, m) + g.coeff(u, m))


def shift_m(f, delta):
    """The family m -> f(x, y; m + delta)."""
    return ParametricPoly(f.q, f.degree, lambda u, m: f.coeff(u, m + delta))


def q_product(a, b):
    """The q-product a * b: degree r+s with
    c_u(m) = sum_i q^{i s} a_i(m) b_{u-i}(m-i)  (s = deg b).

    Not commutative (x * y = yx but y * x = q yx) and distributive only over
    equal-degree sums; constants commute."""
    if a.q != b.q:
        raise ValueError("q mismatch")
    q, s = a.q, b.degree

    def fn(u, m):
        return sum(q ** (i * s) * a.coeff(i, m) * b.coeff(u - i, m - i)
                   for i in range(max(0, u - s), min(u, a.degree) + 1))

    return ParametricPoly(q, a.degree + b.degree, fn)


def q_power(f, l):
    """l-th q-power f^{[l]}: f^{[0]} = 1 and f^{[l]} = f^{[l-1]} * f."""
    out = from_coeffs(f.q, (1,))
    for _ in range(l):
        out = q_product(out, f)
    return out


# closed-form families -------------------------------------------------------

def x_plus_y_base(q):
    """x + (q^m - 1)y, the degree-1 seed of the a_l family."""
    return ParametricPoly(q, 1,
                          lambda u, m: 1 if u == 0 else q_int_pow(q, m) - 1)


def x_minus_y_base(q):
    """x - y, the degree-1 seed of the b_l family."""
    return ParametricPoly(q, 1, lambda u, m: 1 if u == 0 else -1)


def a_family(l, q):
    """a_l = [x+(q^m-1)y]^{[l]} = sum_u [l u] alpha(m,u) y^u x^{l-u}; this is
    the rank weight enumerator of the whole space GF(q^m)^l."""
    return ParametricPoly(
        q, l, lambda u, m: gaussian(l, u, q) * alpha(m, u, q))


def b_family(l, q):
    """b_l = (x-y)^{[l]} = sum_u [l u] (-1)^u q^{sigma_u} y^u x^{l-u}."""
    return ParametricPoly(
        q, l,
        lambda u, m: gaussian(l, u, q) * (-1) ** u * q ** sigma(u))


def y_pow(l, q):
    return ParametricPoly(q, l, lambda u, m: 1 if u == l else 0)


def x_pow(l, q):
    return ParametricPoly(q, l, lambda u, m: 1 if u == 0 else 0)


# transforms and derivatives --------------------------------------------------

def q_transform(f):
    """bar f = sum_i f_i(m) y^[i] * x^[r-i]; since y^[i] = q^{sigma_i} y^i and
    y^i * x^{r-i} = q^{i(r-i)} y^i x^{r-i}, coefficient i picks up the factor
    q^{sigma_i + i(r-i)}."""
    r = f.degree
    return ParametricPoly(
        f.q, r,
        lambda u, m: f.q ** (sigma(u) + u * (r - u)) * f.coeff(u, m))


def q_derivative(f, nu):
    """nu-th q-derivative in x: monomials lose x^nu and gain beta(r-i, nu)
    (from (x^l)^{(nu)} = beta(l,nu) x^{l-nu}); terms with r-i < nu vanish."""
    if not 0 <= nu <= f.degree:
        raise ValueError(f"order {nu} outside [0, {f.degree}]")
    r, q = f.degree, f.q
    return ParametricPoly(
        q, r - nu,
        lambda u, m: f.coeff(u, m) * beta(r - u, nu, q))


def q_inv_derivative(f, nu):
    """nu-th q^{-1}-derivative in y: from
    (y^l)^{{nu}} = q^{nu(1-l)+sigma_nu} beta(l,nu) y^{l-nu},
    the coefficient of y^u in the result is
    f_{u+nu} q^{nu(1-(u+nu))+sigma_nu} beta(u+nu, nu).
    The q-power is negative for most monomials: exact Fractions appear."""
    if not 0 <= nu <= f.degree:
        raise ValueError(f"order {nu} outside [0, {f.degree}]")
    q = f.q

    def fn(u, m):
        l = u + nu
        return (f.coeff(l, m) * q_int_pow(q, nu * (1 - l) + sigma(nu))
                * beta(l, nu, q))

    return ParametricPoly(q, f.degree - nu, fn)


# ---------------------------------------------------------------------------
# rank enumerators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankEnumerator:
    """W(x,y) = sum A_i y^i x^{n-i} for a code in GF(q^m)^n."""

    q: int
    m: int
    n: int
    coeffs: tuple

    def poly(self):
        return from_coeffs(self.q, self.coeffs)


def make_enumerator(q, m, n, coeffs):
    if q < 2 or m < 1:
        raise ValueError(f"field size q^m = {q}^{m} must be at least 2")
    coeffs = tuple(as_int(c) for c in coeffs)
    if len(coeffs) != n + 1:
        raise ValueError(f"need {n + 1} coefficients, got {len(coeffs)}")
    if any(c < 0 for c in coeffs):
        raise ValueError("negative rank count")
    if any(coeffs[i] for i in range(min(m, n) + 1, n + 1)):
        raise ValueError(f"nonzero count beyond rank min(m,n)={min(m, n)}")
    return RankEnumerator(q, m, n, coeffs)


def code_enumerator(code):
    """RankEnumerator of a LinearCode or Codebook by full enumeration."""
    from .codes import rank_distribution
    F = code.field
    return make_enumerator(F.q, F.m, code.n, rank_distribution(code))


# ---------------------------------------------------------------------------
# generalized Krawtchouk polynomials
# ---------------------------------------------------------------------------

def krawtchouk(j, i, m, n, q):
    """P_j(i;m,n) = sum_l [i l][n-i, j-l](-1)^l q^{sigma_l} q^{l(n-i)}
    alpha(m-l, j-l) in integers (a Fraction term only where m - l < 0): the
    expansion coefficients of b_i * a_{n-i}, the MacWilliams kernel."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i},{j}) outside [0, {n}]")
    return as_int(sum(
        gaussian(i, l, q) * gaussian(n - i, j - l, q) * (-1) ** l
        * q ** (sigma(l) + l * (n - i)) * alpha(m - l, j - l, q)
        for l in range(min(i, j) + 1)))


@functools.cache
def krawtchouk_table(q, m, n):
    """P[j][i] for 0 <= i, j <= n from the closed form, cached."""
    return tuple(tuple(krawtchouk(j, i, m, n, q) for i in range(n + 1))
                 for j in range(n + 1))


@functools.cache
def qproduct_table(q, m, n):
    """The same kernel P[j][i] by the q-product: column i holds the
    coefficients of (x-y)^{[i]} * [x+(q^m-1)y]^{[n-i]} at m, cached."""
    cols = [q_product(b_family(i, q), a_family(n - i, q)).coeffs(m)
            for i in range(n + 1)]
    return tuple(tuple(as_int(c) for c in row) for row in zip(*cols))


# ---------------------------------------------------------------------------
# MacWilliams transform
# ---------------------------------------------------------------------------

def _code_dimension(enum):
    """k with sum A_i = q^{mk}; rejects non-power sums (nonlinear input)."""
    total = sum(enum.coeffs)
    order = enum.q ** enum.m
    k = 0
    while total > 1:
        if total % order:
            raise ValueError(f"size {sum(enum.coeffs)} is not a power "
                             f"of q^m = {order}")
        total //= order
        k += 1
    if total != 1:
        raise ValueError("empty distribution")
    return k


def macwilliams(enum, method="krawtchouk"):
    """Rank distribution of the dual code by the one transform
    B_j = q^{-mk} sum_i A_i P[j][i].  The kernel P is Delsarte's Krawtchouk
    closed form (krawtchouk_table) or, with `method="qproduct"`, the paper's
    q-product expansion (qproduct_table); the two agree exactly.  Applying
    the transform twice returns the input."""
    q, m, n = enum.q, enum.m, enum.n
    k = _code_dimension(enum)
    if method == "krawtchouk":
        P = krawtchouk_table(q, m, n)
    elif method == "qproduct":
        P = qproduct_table(q, m, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    size = (q ** m) ** k
    B = [Fraction(sum(a * p for a, p in zip(enum.coeffs, row)), size)
         for row in P]
    try:
        return make_enumerator(q, m, n, B)
    except ValueError as e:
        raise ValueError(f"invalid distribution (dual not realizable): {e}")


# ---------------------------------------------------------------------------
# closed-form enumerators
# ---------------------------------------------------------------------------

def trivial_mrd_enumerator(r, q, m):
    """Rank enumerator of any (r, r-1, 2) MRD code -- equivalently of the
    dual of a single full-rank vector in GF(q^m)^r, the n = r case of
    dual_vector_enumerator: q^{-m} { a_r + (q^m - 1) b_r }."""
    if not 0 <= r <= m:
        raise ValueError(f"rank {r} outside [0, {m}]")
    return dual_vector_enumerator(r, r, q, m)


def dual_vector_enumerator(r, n, q, m):
    """Rank enumerator of span(v)^perp for any v in GF(q^m)^n of rank r --
    it depends on v only through r:
    q^{-m} { a_n + (q^m - 1) b_r * a_{n-r} }."""
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} outside [0, min(m,n)]")
    qm = q ** m  # column 0 of the q-product kernel is a_n itself
    coeffs = [Fraction(row[0] + (qm - 1) * row[r], qm)
              for row in qproduct_table(q, m, n)]
    return make_enumerator(q, m, n, coeffs)


def cartesian_extend(enum, s):
    """Enumerator of C x GF(q^m)^s from the enumerator of C: W * a_s,
    whose coefficients satisfy
    B_{s,u} = sum_i q^{is} B_{0,i} [s, u-i] alpha(m-i, u-i)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    q, m = enum.q, enum.m
    prod = q_product(enum.poly(), a_family(s, q))
    return make_enumerator(q, m, enum.n + s, prod.coeffs(m))


# ---------------------------------------------------------------------------
# moments of the rank distribution
# ---------------------------------------------------------------------------

def _exact(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def moments(A, B, q, m, n, k, nu):
    """Both sides of the two moment identities relating a distribution A of
    an (n,k) code to the distribution B of its dual, at order nu:

      sum_{i<=n-nu} [n-i, nu] A_i
          = q^{m(k-nu)} sum_{j<=nu} [n-j, n-nu] B_j            (first)
      sum_{i>=nu} [i, nu] q^{nu(n-i)} A_i
          = q^{m(k-nu)} sum_{j<=nu} [n-j, n-nu] (-1)^j q^{sigma_j}
            alpha(m-j, nu-j) q^{j(nu-j)} B_j                   (second)

    Returns (lhs1, rhs1, lhs2, rhs2) exactly; each pair is equal for every
    valid MacWilliams pair."""
    A, B = list(A), list(B)
    if not 0 <= nu <= n:
        raise ValueError(f"nu {nu} outside [0, {n}]")
    if sum(A) != (q ** m) ** k or sum(B) != (q ** m) ** (n - k):
        raise ValueError("A, B do not form an (n,k)/(n,n-k) pair")
    lhs1 = sum(gaussian(n - i, nu, q) * A[i] for i in range(n - nu + 1))
    rhs1 = q_int_pow(q, m * (k - nu)) * sum(
        gaussian(n - j, n - nu, q) * B[j] for j in range(nu + 1))
    lhs2 = sum(gaussian(i, nu, q) * q ** (nu * (n - i)) * A[i]
               for i in range(nu, n + 1))
    rhs2 = q_int_pow(q, m * (k - nu)) * sum(
        gaussian(n - j, n - nu, q) * (-1) ** j * q ** (sigma(j) + j * (nu - j))
        * alpha(m - j, nu - j, q) * B[j]
        for j in range(nu + 1))
    return tuple(_exact(v) for v in (lhs1, rhs1, lhs2, rhs2))
