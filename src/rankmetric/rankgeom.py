"""Rank-metric geometry of GF(q^m)^n.

The rank weight of a vector over GF(q^m) is the GF(q)-rank of its m x n
coordinate expansion; the rank distance is the rank of the difference.  This
module provides the weight/distance themselves, the subspace combinatorics
used everywhere else (Gaussian binomials, the alpha/beta product kernels, and
sphere/ball volumes), elementary linear subspaces (ELS: subspaces admitting a
basis of vectors with all coordinates in the base field -- the rank-metric
analog of coordinate supports), and exact ball-intersection volumes (closed
forms where proved, brute force otherwise).  Every exhaustive scan, here and
in codes and oracle, is sized by guard(count, what) against BRUTE_GUARD, and
every vector that comes from outside, here and in codes, oracle and cli,
passes check_vectors(field, rows, n), their one int conversion and check.
Guarded enumerations check and guard at the call, then stream their items.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import _batch, _linalg
from .ffield import make_field

BRUTE_GUARD = 1 << 24  # cap on enumerated ambient size


class NoClosedFormError(ValueError):
    """Raised when no proved closed form covers the requested configuration."""


class GuardExceeded(ValueError):
    """Raised when an enumeration would pass its size guard (BRUTE_GUARD)."""


def guard(count, what):
    """Return count; raise GuardExceeded past BRUTE_GUARD, read per call."""
    if count > BRUTE_GUARD:
        raise GuardExceeded(f"{what} {count} exceeds guard")
    return count


# ---------------------------------------------------------------------------
# combinatorial kernels
# ---------------------------------------------------------------------------

@functools.cache
def gaussian(n, k, q):
    """Gaussian binomial [n k]_q: number of k-dim subspaces of GF(q)^n.

    Returns 0 for k < 0 or k > n.  Exact integer arithmetic (every partial
    product below is itself a Gaussian binomial, hence an integer).
    """
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def q_int_pow(q, e):
    """q^e as an exact int (e >= 0) or Fraction (e < 0)."""
    return q ** e if e >= 0 else Fraction(1, q ** (-e))


@functools.cache
def alpha(m, u, q):
    """alpha(m,u) = prod_{i<u} (q^m - q^i): u-tuples of independent vectors in
    GF(q)^m.  Exact for every integer m: an int for m >= 0, a Fraction for
    m < 0, where the q-products of wenum evaluate it."""
    out = Fraction(1) if m < 0 else 1
    for i in range(u):
        out *= q_int_pow(q, m) - q ** i
    return out


@functools.cache
def beta(m, u, q):
    """beta(m,u) = prod_{i<u} [m-i 1]_q; zero when u > m."""
    out = 1
    for i in range(u):
        out *= gaussian(m - i, 1, q)
    return out


def sigma(i):
    """sigma_i = i(i-1)/2, the q-exponent weight of i."""
    return i * (i - 1) // 2


@functools.cache
def _sigma_q_mp(q):
    """sigma(q) = (1/ln q) * sum_{k>=1} 1/(k(q^k-1)) as an mpmath value.

    The series is cut when the term drops below 10^-30; the tail is dominated
    by a geometric series with ratio 1/q <= 1/2, so the truncation error is
    below the last term, far inside the 1e-12 documented accuracy.
    """
    with mpmath.workdps(50):
        s = mpmath.mpf(0)
        for k in itertools.count(1):
            term = mpmath.mpf(1) / (k * (mpmath.mpf(q) ** k - 1))
            s += term
            if term < mpmath.mpf(10) ** -30:
                return s / mpmath.log(q)


def sigma_q(q):
    """sigma(q), a decreasing function of q with sigma(2) ~ 1.7923; always < 2."""
    return float(_sigma_q_mp(q))


def tau_q(q):
    """tau(q) = log_q(q^2 / (q^2 - 1))."""
    return math.log(q * q / (q * q - 1), q)


def sphere_count(q, m, n, u):
    """N_u(q^m, n) = [n u]_q * alpha(m, u): vectors of rank exactly u."""
    return gaussian(n, u, q) * alpha(m, u, q)


def ball_counts(q, m, n, r):
    """(N_r, V_r): vectors at rank exactly r / at most r in GF(q^m)^n."""
    if not 0 <= r <= min(m, n):
        raise ValueError(f"radius {r} outside [0, min(m,n)={min(m, n)}]")
    nr = sphere_count(q, m, n, r)
    vr = sum(sphere_count(q, m, n, u) for u in range(r + 1))
    return nr, vr


def ball_volume_bounds(q, m, n, r):
    """(lower, upper) with q^{r(m+n-r)} <= V_r < q^{r(m+n-r)+sigma(q)}.

    The lower bound is an exact integer; the upper is an mpmath real (floats
    would overflow at the exponents reachable by the asymptotic checks).
    """
    if not 0 <= r <= min(m, n):
        raise ValueError(f"radius {r} outside [0, min(m,n)={min(m, n)}]")
    e = r * (m + n - r)
    with mpmath.workdps(40):
        upper = mpmath.power(q, e + _sigma_q_mp(q))
    return q ** e, upper


# ---------------------------------------------------------------------------
# rank weight and distance
# ---------------------------------------------------------------------------

def check_vectors(field, rows, n):
    """The rows as tuples of Python ints: the one conversion and check of
    vectors from outside.  An entry goes through operator.index, so numpy
    integers pass and 1.5 or Fraction(1) raise TypeError; a row whose length
    is not n, or with an entry outside [0, q^m), raises ValueError.  Plain
    loops: encode and rank call this on every vector."""
    out = []
    for r in rows:
        r = tuple(map(operator.index, r))
        if len(r) != n:
            raise ValueError(f"vector {r} has length {len(r)}, not {n}")
        for x in r:
            if not 0 <= x < field.order:
                raise ValueError(f"encoding {x} outside GF({field.q}^{field.m})")
        out.append(r)
    return tuple(out)


def rank(field, vec):
    """Rank weight: GF(q)-rank of the m x n expansion of vec, the dimension
    of the GF(q)-span of its entries' digit rows.  A bad entry raises
    check_vectors' TypeError or ValueError.

    The entries go into a basis keyed by leading base-q digit position.  At
    q = 2 an encoding is the bitmask of its digit row, the key its bit
    length, and reducing is XOR.  At odd q the key comes by bisection on the
    powers of q, each basis element has leading digit 1, and x with leading
    digit d is reduced to x - d * basis[k]: by Field.mul and Field.sub on a
    tabled field, in one digit-wise pass without tables."""
    vec, = check_vectors(field, (vec,), len(vec))
    return _rank(field, vec)


def _rank(field, xs):
    """The body of rank, on encodings that check_vectors has passed: rank
    and rank_distance call it after their one check."""
    basis = {}
    if field.q == 2:
        for x in xs:
            while x and x.bit_length() in basis:
                x ^= basis[x.bit_length()]
            if x:
                basis[x.bit_length()] = x
        return len(basis)
    q, mul, sub = field.q, field.mul, field.sub
    # without tables mul is schoolbook, but d is in GF(q): one digit-wise pass
    tabled, digitwise = field._zech is not None, field._digitwise
    powers = field.polynomial_basis()
    for x in xs:
        while x and (k := bisect.bisect_right(powers, x) - 1) in basis:
            d = x // powers[k]
            x = (sub(x, mul(d, basis[k])) if tabled
                 else digitwise(x, basis[k], -d))
        if x:
            d = pow(x // powers[k], -1, q)
            basis[k] = mul(d, x) if tabled else digitwise(0, x, d)
    return len(basis)


def rank_distance(field, u, v):
    """Rank weight of u - v.  Raises ValueError for vectors of different
    lengths or an entry outside [0, q^m); u and v pass check_vectors once,
    and their difference goes to the rank body unchecked."""
    u, v = check_vectors(field, (u, v), len(u))
    return _rank(field, map(field.sub, u, v))


# ---------------------------------------------------------------------------
# elementary linear subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Els:
    """An elementary linear subspace of GF(q^m)^n in canonical form.

    The defining data is a reduced-row-echelon basis over GF(q)^n.  The same
    basis describes "the" ELS for every extension degree m (the subspace is
    the GF(q^m)-span of the rows), so m is not stored; methods that need the
    ambient field take it as an argument.
    """

    q: int
    n: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, field, vec):
        """Membership of a GF(q^m)^n vector: its support ELS, the GF(q)-row
        space of its expansion, must lie inside this ELS."""
        if field.q != self.q:
            raise ValueError("field/ELS base mismatch")
        return self.contains_els(support_els(field, vec))

    def contains_els(self, other):
        """Rank test: other's rows leave the rank of the basis at dim."""
        if (self.q, self.n) != (other.q, other.n):
            raise ValueError("ambient mismatch")
        rows = [*self.basis, *other.basis]
        return _linalg.rank_field(make_field(self.q, 1), rows) == self.dim

    def elements(self, field):
        """All q^{m * dim} vectors: GF(q^m)-combinations of the basis rows."""
        if field.q != self.q:
            raise ValueError("field/ELS base mismatch")
        return (_linalg.lincomb(field, c, self.basis, self.n)
                for c in itertools.product(field.elements(), repeat=self.dim))

    def __repr__(self):
        return f"Els(q={self.q}, n={self.n}, dim={self.dim}, basis={self.basis})"


def make_els(q, n, rows):
    """Canonical ELS spanned by the given integer rows, read mod q
    (row-reduced, deduped).  Raises ValueError for a row not of length n."""
    rows = [[operator.index(x) % q for x in row] for row in rows]
    if any(len(row) != n for row in rows):
        raise ValueError(f"ELS rows must have length n = {n}")
    rref, _ = _linalg.rref_field(make_field(q, 1), rows)
    return Els(q, n, tuple(tuple(r) for r in rref))


def subspaces(q, n, v):
    """The v-dim subspaces of GF(q)^n, that is the ELS's of dimension v, as
    _batch.subspace_chunks streams them.  Refuses at the call a v outside
    [0, n] and, through guard, more than BRUTE_GUARD subspaces."""
    if not 0 <= v <= n:
        raise ValueError(f"dimension {v} outside [0, {n}]")
    guard(gaussian(n, v, q), "ELS count")
    return _batch.subspace_chunks(q, n, v)


def support_els(field, vec):
    """The unique ELS of dimension rank(vec) containing vec: the GF(q)-row
    space of the expansion, lifted back to GF(q^m)^n."""
    vec, = check_vectors(field, (vec,), len(vec))
    return make_els(field.q, len(vec), field.expand(vec))


def complements(els_a, els_v):
    """All ELS's B with A (+) B = V, for A inside V; there are q^{a(v-a)}."""
    if not els_v.contains_els(els_a):
        raise ValueError("A is not contained in V")
    a, v, n, q = els_a.dim, els_v.dim, els_v.n, els_v.q
    F1 = make_field(q, 1)
    # each (v - a)-dim subspace of GF(q)^v, lifted through V's basis
    lifts = ([_linalg.lincomb(F1, c, els_v.basis, n) for c in sub]
             for bases in subspaces(q, v, v - a) for sub in bases.tolist())
    return [make_els(q, n, rows) for rows in lifts
            if _linalg.rank_field(F1, [*els_a.basis, *rows]) == v]


def project(field, u, els_a, els_b):
    """Decompose u = u_A + u_B along the direct sum A (+) B.

    The combined elementary bases stay independent over GF(q^m), so the
    coefficients are found by solving one linear system over the extension
    field.  Raises if u is not in GF(q^m)^n, A and B intersect, or u lies
    outside A+B.
    """
    u, = check_vectors(field, (u,), els_a.n)
    rows = [*els_a.basis, *els_b.basis]
    if _linalg.rank_field(make_field(field.q, 1), rows) < len(rows):
        raise ValueError("A and B intersect nontrivially")
    a, n = els_a.dim, len(u)
    x = _linalg.solve(field, [[r[j] for r in rows] for j in range(n)],
                      [(c,) for c in u])
    if x is None:
        raise ValueError("u does not lie in A + B")
    coeffs = [row[0] for row in x]
    return (_linalg.lincomb(field, coeffs[:a], els_a.basis, n),
            _linalg.lincomb(field, coeffs[a:], els_b.basis, n))


# ---------------------------------------------------------------------------
# ball intersections
# ---------------------------------------------------------------------------

def intersection_volume_closed(q, m, n, r1, r2, dist):
    """|B_r1(c1) ∩ B_r2(c2)| for centers at rank distance dist -- the volume
    depends on the centers only through dist.

    Proved closed forms (anything else raises NoClosedFormError):

    - touching balls, dist == r1 + r2:  q^(r1*r2) * [dist r1]
    - a unit ball at the far rim, r2 == 1 and dist == r1 (or symmetrically):
      1 + (q^m - q^r1)*[r1 1] + (q^r1 - 1)*[n 1]
    """
    if not 0 <= min(r1, r2) <= max(r1, r2) <= min(m, n):
        raise ValueError("radius out of range")
    if not 0 <= dist <= min(m, n):
        raise ValueError("distance out of range")
    if dist == r1 + r2:
        return q ** (r1 * r2) * gaussian(dist, r1, q)
    for a, b in ((r1, r2), (r2, r1)):
        if b == 1 and dist == a:
            return 1 + (q ** m - q ** a) * gaussian(a, 1, q) \
                     + (q ** a - 1) * gaussian(n, 1, q)
    raise NoClosedFormError(
        f"no closed form for radii ({r1},{r2}) at distance {dist}")


def enumerate_vectors(field, n):
    """Every vector of GF(q^m)^n, refused at the call past the guard."""
    guard(field.order ** n, "ambient size")
    return itertools.product(field.elements(), repeat=n)


def intersection_vectors(field, balls):
    """The vectors within the given (center, radius) constraints, yielded by
    full enumeration.  `balls` is a sequence of (center, radius) pairs; each
    center is checked once, past the guard, and each x ranks x - c."""
    balls = list(balls)
    if not balls:
        raise ValueError("need at least one ball")
    n = len(balls[0][0])
    xs = enumerate_vectors(field, n)
    centers = check_vectors(field, (c for c, _ in balls), n)
    return (x for x in xs
            if all(rank(field, tuple(map(field.sub, x, c))) <= r
                   for c, (_, r) in zip(centers, balls)))


def intersection_volume_brute(field, balls):
    """Exact |∩ B_r_i(c_i)| by enumeration; accepts any number of balls."""
    return sum(1 for _ in intersection_vectors(field, balls))


def canonical_rank_vector(field, n, e):
    """(1, g, g^2, ..., g^{e-1}, 0, ..., 0) with g the polynomial generator:
    the canonical vector of rank e (its expansion is an identity block)."""
    if not 0 <= e <= min(field.m, n):
        raise ValueError(f"rank {e} outside [0, min(m,n)]")
    return field.polynomial_basis()[:e] + (0,) * (n - e)


def intersection_volume_at_distance(field, n, r1, r2, dist):
    """Brute-force |B_r1 ∩ B_r2| for centers at rank distance dist.

    The volume depends on the centers only through their distance, so the
    centers are canonicalized to 0 and the canonical rank-dist vector.
    """
    c2 = canonical_rank_vector(field, n, dist)
    return intersection_volume_brute(field, [((0,) * n, r1), (c2, r2)])


def large_diameter_set(q, m, n, r):
    """A set of diameter <= 2r that outgrows every rank ball of radius r.

    S = {x : x_{2r} = ... = x_{n-1} = 0} has q^{2mr} elements (> V_r for the
    admissible parameters) yet any two members differ in at most the first
    2r coordinates, so their distance is at most 2r.
    """
    if not (3 <= n <= m):
        raise ValueError("requires 3 <= n <= m")
    if not 2 <= 2 * r < n:
        raise ValueError("requires 2 <= 2r < n")
    tail = (0,) * (n - 2 * r)
    return (head + tail for head in enumerate_vectors(make_field(q, m), 2 * r))
