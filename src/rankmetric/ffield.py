"""Finite extension fields GF(q^m) over a small prime base field GF(q).

Elements are encoded as plain integers in [0, q^m): the base-q digits of the
encoding are the coordinates in the polynomial basis (1, alpha, ...,
alpha^(m-1)), where alpha is a root of the modulus polynomial.  Consequently
addition is digit-wise mod q, base-field elements occupy the encodings
0..q-1, and alpha itself is the encoding q.

Multiplication uses log/antilog tables for fields up to 2^16 elements
(TABLE_LIMIT) and schoolbook polynomial arithmetic above that (both paths
implemented, and checked against each other in the test suite).  At odd q
the schoolbook product is _poly_mulmod, the one product modulo a monic
polynomial, which Ben-Or's test uses too.  Fields larger than 2^20 are
rejected.  Addition is XOR at q = 2.  At odd q up to TABLE_LIMIT it is a
table lookup too, in the Zech table zech[k] = log(1 + g^k) (a + b =
g^la * (1 + g^(lb - la))), and digit by digit above it.

The modulus defaults to the monic irreducible polynomial of degree m whose
coefficient tuple (c_0, ..., c_m), read as a base-q integer, is smallest.
Irreducibility is certified by Ben-Or's test: gcd(x^(q^i) - x, f) = 1 for
every 1 <= i <= m/2.

The tables come from a doubling walk from the smallest primitive encoding g:
g^B..g^(2B-1) are g^0..g^(B-1) times c = g^B, and x -> c*x is GF(q)-linear,
so one product with the matrix of the m products c*alpha^t maps a block of
digit rows.  The log table is one scatter, and the Zech table reads it at
1 + g^k, which is g^k with digit 0 raised by 1 mod q.

Coordinates in a basis and dual bases are each one _linalg.solve over GF(q),
taken as the field GF(q^1); no unique solution means the given elements are
not a basis, which is_basis tests by the rank of the same digit matrix.
"""
from __future__ import annotations

import functools
import operator

import numpy as np
from mpmath.libmp import isprime

from . import _linalg

SUPPORTED_Q = (2, 3, 5)
MAX_ORDER = 1 << 20   # largest supported field size q^m
TABLE_LIMIT = 1 << 16  # log/antilog tables are built up to this size


def _poly_rem(num, den, q):
    """Remainder of polynomial division over GF(q) (lists, low degree first)."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, q)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * inv_lead % q
        if c:
            for k in range(dn + 1):
                num[i - dn + k] = (num[i - dn + k] - c * den[k]) % q
    while num and num[-1] == 0:
        num.pop()
    return num


def _prime_factors(x):
    """The distinct primes dividing x, by trial division."""
    out, p = [], 2
    while p * p <= x:
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out.append(x)
    return out


def is_prime_power(q):
    """Whether q = p^k for a prime p and k >= 1, i.e. q is a field size.

    The largest k with an integer k-th root gives the base, which must pass
    mpmath's Miller-Rabin test; there is no trial division to hang on.
    """
    for k in range(q.bit_length() - 1, 0, -1):
        lo, hi = 1, 1 << -(-q.bit_length() // k)
        while lo < hi:  # bisect for lo = floor(q^(1/k))
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid ** k <= q else (lo, mid - 1)
        if lo ** k == q:
            return isprime(lo)
    return False


def _poly_mulmod(a, b, f, q):
    """a * b mod the monic f over GF(q) (sequences, low degree first), at
    most deg f coefficients.  Each top coefficient, taken mod q, is
    cancelled by a multiple of f; the rest are taken mod q at the end."""
    m = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i] % q
        if c:
            for k in range(m):
                prod[i - m + k] -= c * f[k]
    return [c % q for c in prod[:m]]


@functools.cache
def is_irreducible(coeffs, q):
    """Irreducibility over GF(q) by Ben-Or's test (monic input expected).

    A monic f of degree m is reducible iff it has a factor of some degree
    i <= m/2, and the monic irreducibles of degree dividing i are the
    factors of x^(q^i) - x.  So f is irreducible iff gcd(x^(q^i) - x, f) = 1
    for every 1 <= i <= m/2.  x^(q^i) mod f comes from x^(q^(i-1)) by one
    q-th power, taken by square-and-multiply.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    f, h = list(coeffs), [0, 1]
    for _ in range(m // 2):
        p = h
        for bit in bin(q)[3:]:
            p = _poly_mulmod(p, p, f, q)
            if bit == "1":
                p = _poly_mulmod(p, h, f, q)
        h = p
        hx = h + [0] * (2 - len(h))  # h - x
        hx[1] = (hx[1] - 1) % q
        a, b = f, _poly_rem(hx, f, q)
        while b:  # Euclid: a ends as gcd(h - x, f)
            a, b = b, _poly_rem(a, b, q)
        if len(a) > 1:
            return False
    return True


@functools.cache
def default_modulus(q, m):
    """Lexicographically smallest monic irreducible of degree m over GF(q).

    "Smallest" means the coefficient tuple read as a base-q integer; e.g. the
    default for GF(4) is x^2 + x + 1 and for GF(8) is x^3 + x + 1.
    """
    for v in range(q ** m):
        coeffs = tuple(v // q ** i % q for i in range(m)) + (1,)
        if is_irreducible(coeffs, q):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(q^m): arithmetic on integer-encoded elements.

    All arithmetic methods take and return plain ints.
    """

    def __init__(self, q, m, modulus=None):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported base field GF({q}); q must be one of {SUPPORTED_Q}")
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        order = q ** m
        if order > MAX_ORDER:
            raise ValueError(f"field size q^m = {order} exceeds the supported limit 2^20")
        self.q = q
        self.m = m
        self.order = order
        if modulus is None:
            modulus = default_modulus(q, m)
        else:
            modulus = tuple(map(operator.index, modulus))
            if len(modulus) != m + 1:
                raise ValueError(f"modulus must have degree {m} ({m + 1} coefficients)")
            if any(not 0 <= c < q for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, q)")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not is_irreducible(modulus, q):
                raise ValueError("modulus is reducible over GF(q)")
        self.modulus = modulus
        if q == 2:
            self._modint = sum(c << i for i, c in enumerate(modulus))
            self._top = 1 << m
        self._exp = None
        self._log = None
        self._zech = None
        self.generator = None
        if order <= TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _build_tables(self):
        """exp[i] = g^i and log inverting it, by the doubling walk: row t of
        lin holds the digits of g^B * alpha^t, and squaring lin doubles B.
        Digits are float32 so each product is one BLAS call, exact: sums
        are at most m(q-1)^2 <= 96 and encodings below 2^16."""
        q, m, order = self.q, self.m, self.order
        # g is primitive iff g^((order-1)/p) != 1 for every prime p | order-1
        cofactors = [(order - 1) // p for p in _prime_factors(order - 1)]
        g = next(g for g in range(1, order)
                 if all(self.pow(g, e) != 1 for e in cofactors))
        lin = np.array([self.digits(self._mul_raw(g, q ** t))
                        for t in range(m)], dtype=np.float32)
        rows = np.zeros((order - 1, m), dtype=np.float32)
        rows[0, 0] = 1
        b = 1
        while b < order - 1:
            k = min(b, order - 1 - b)
            rows[b:b + k] = (rows[:k] @ lin).astype(np.uint8) % q
            lin = lin @ lin % q
            b *= 2
        exp = (rows @ q ** np.arange(m, dtype=np.float32)).astype(np.int64)
        del rows  # 4 MB at 2^16, which would add to the peak of the lists
        log = np.full(order, -1)
        log[exp] = np.arange(order - 1)
        self._log = log.tolist()
        if q != 2:  # 1 + g^k is g^k with digit 0 raised by 1 mod q
            low = exp % q
            # entries of the log list: the Zech list holds no ints of its own
            self._zech = list(map(self._log.__getitem__,
                                  (exp - low + (low + 1) % q).tolist()))
        self._exp, self.generator = exp.tolist(), g

    # -- encoding ------------------------------------------------------------

    def digits(self, x):
        """Base-q digits of x, low to high: coordinates in the polynomial basis."""
        q = self.q
        out = []
        for _ in range(self.m):
            out.append(x % q)
            x //= q
        return tuple(out)

    def from_digits(self, ds):
        q = self.q
        x = 0
        for d in reversed(list(ds)):
            x = x * q + d % q
        return x

    def elements(self):
        return range(self.order)

    # -- arithmetic ----------------------------------------------------------

    def _digitwise(self, a, b, sign):
        """a + sign * b digit by digit mod q: one pass over at most m digits
        (a negative operand never runs out), which stops where both do."""
        q, out, mult = self.q, 0, 1
        while (a or b) and mult < self.order:
            out += (a + sign * b) % q * mult
            a, b, mult = a // q, b // q, mult * q
        return out

    def add(self, a, b):
        """a + b: XOR at q = 2.  At odd q, for encodings in [0, q^m) of a
        tabled field, one lookup in the Zech table zech[k] = log(1 + g^k):
        a + b = g^la * (1 + g^(lb - la)).  Otherwise digit-wise mod q."""
        if self.q == 2:
            return a ^ b
        order = self.order
        if self._zech is None or not (0 <= a < order and 0 <= b < order):
            return self._digitwise(a, b, 1)
        if not a or not b:
            return a or b
        log, n = self._log, order - 1
        la = log[a]
        z = self._zech[(log[b] - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def neg(self, a):
        """-a, as 0 - a: sub already has the XOR branch for q = 2."""
        return self.sub(0, a)

    def sub(self, a, b):
        """a - b on the paths of add: the Zech lookup takes -b as
        g^(lb + (q^m - 1)/2), since -1 = g^((q^m - 1)/2) at odd q."""
        if self.q == 2:
            return a ^ b
        order = self.order
        if self._zech is None or not (0 <= a < order and 0 <= b < order):
            return self._digitwise(a, b, -1)
        if not b:
            return a
        log, n = self._log, order - 1
        lb = log[b] + n // 2
        if not a:
            return self._exp[lb % n]
        la = log[a]
        z = self._zech[(lb - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def _mul_raw(self, a, b):
        """Schoolbook polynomial multiplication with reduction by the modulus:
        a shift-and-xor loop at q = 2, _poly_mulmod at odd q.  A negative
        operand, which q = 2 would shift forever, raises."""
        if a < 0 or b < 0:
            raise ValueError(f"{min(a, b)} is not an element encoding of "
                             f"GF({self.q}^{self.m})")
        if self.q == 2:
            r = 0
            while a:
                if a & 1:
                    r ^= b
                a >>= 1
                b <<= 1
                if b & self._top:
                    b ^= self._modint
            return r
        return self.from_digits(_poly_mulmod(
            self.digits(a), self.digits(b), self.modulus, self.q))

    def mul(self, a, b):
        """a * b for encodings a, b in [0, q^m).  The table path checks
        nothing, for speed, so make_field(3, 2).mul(-1, 1) is 8; without
        tables a negative operand raises ValueError."""
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_raw(a, b)

    def inv(self, a):
        """a^-1 = a^(q^m - 2), as the nonzero elements form a group of
        order q^m - 1; pow has both the table and the schoolbook path."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q^m)")
        return self.pow(a, self.order - 2)

    def pow(self, x, e):
        if e < 0:
            return self.inv(self.pow(x, -e))
        if x == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[self._log[x] * e % (self.order - 1)]
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def frobenius(self, x, a=1):
        """x^(q^a) = pow(x, q^(a mod m)) for any integer a, as x^(q^m) = x."""
        return self.pow(x, self.q ** (a % self.m))

    def trace(self, x):
        """Trace into GF(q): sum of x^(q^i) for i < m.  Returns an int < q."""
        t = 0
        y = x
        for _ in range(self.m):
            t = self.add(t, y)
            y = self.frobenius(y)
        assert t < self.q, "trace landed outside the base field"
        return t

    # -- bases and expansions --------------------------------------------------

    def _basis_digits(self, basis):
        """The m x m matrix over GF(q) whose column k holds the digits of
        basis[k]; ValueError unless there are m elements."""
        basis = list(basis)
        if len(basis) != self.m:
            raise ValueError(f"a basis of GF({self.q}^{self.m}) needs {self.m} elements")
        return list(zip(*map(self.digits, basis)))

    def is_basis(self, basis):
        return _linalg.rank_field(make_field(self.q, 1),
                                  self._basis_digits(basis)) == self.m

    def coords(self, x, basis=None):
        """Coordinates of x over GF(q) with respect to basis (default: polynomial)."""
        return tuple(row[0] for row in self.expand((x,), basis))

    def from_coords(self, cs, basis=None):
        if basis is None:
            return self.from_digits(cs)
        return _linalg.lincomb(self, [c % self.q for c in cs],
                               [(b,) for b in basis], 1)[0]

    def expand(self, vec, basis=None):
        """m x n matrix over GF(q): column j holds the coordinates of vec[j]."""
        cols = [self.digits(v) for v in vec]
        mat = tuple(tuple(col[i] for col in cols) for i in range(self.m))
        if basis is None:
            return mat
        # basis digits times coordinates = vec digits, column by column
        out = _linalg.solve(make_field(self.q, 1), self._basis_digits(basis), mat)
        if out is None:
            raise ValueError("given elements do not form a basis")
        return tuple(map(tuple, out))

    def reassemble(self, mat, basis=None):
        """Inverse of expand: columns of the m x n matrix back to field elements."""
        mat = [list(row) for row in mat]
        if len(mat) != self.m:
            raise ValueError(f"expected {self.m} rows")
        n = len(mat[0]) if mat else 0
        out = []
        for j in range(n):
            col = [mat[i][j] for i in range(self.m)]
            out.append(self.from_coords(col, basis))
        return tuple(out)

    def dual_basis(self, basis):
        """The trace-dual basis P of E: trace(E_i * P_j) = delta_ij.

        Solved as a linear system over GF(q) by writing each P_j in the
        polynomial basis; the trace form is nondegenerate, so the system
        matrix is invertible exactly when E is a basis.
        """
        basis = list(basis)
        if len(basis) != self.m:
            raise ValueError(f"a basis of GF({self.q}^{self.m}) needs {self.m} elements")
        powers = self.polynomial_basis()
        mat = [[self.trace(self.mul(e, p)) for p in powers] for e in basis]
        ident = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
        sol = _linalg.solve(make_field(self.q, 1), mat, ident)
        if sol is None:
            raise ValueError("given elements do not form a basis")
        return tuple(map(self.from_digits, zip(*sol)))  # column j: P_j

    # -- misc ------------------------------------------------------------------

    def polynomial_basis(self):
        """(1, alpha, ..., alpha^(m-1)): encodings are the powers of q."""
        return tuple(self.q ** k for k in range(self.m))

    def descriptor(self):
        """Text form "q m c_0 c_1 ... c_m" (modulus coefficients low to high)."""
        return " ".join(str(x) for x in (self.q, self.m, *self.modulus))

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus))

    def __hash__(self):
        return hash((self.q, self.m, self.modulus))

    def __repr__(self):
        return f"Field(q={self.q}, m={self.m}, modulus={_poly_str(self.modulus)})"


def _poly_str(coeffs, var="x"):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            cs = "" if c == 1 else str(c)
            terms.append(f"{cs}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(terms) if terms else "0"


@functools.lru_cache(maxsize=None)
def _field_cached(q, m, modulus):
    return Field(q, m, modulus)


def make_field(q, m, modulus=None):
    """Construct GF(q^m); modulus defaults to the smallest monic irreducible.

    Fields are immutable, so repeated calls with the same parameters return
    the same object (log/antilog tables are built once).  An explicit modulus
    equal to the default counts as none, so a field read back from a code
    file or a descriptor is the object make_field(q, m) returns.
    """
    if modulus is not None:
        modulus = tuple(map(operator.index, modulus))
        # other q and m are left for Field to reject with its message
        if q in SUPPORTED_Q and m >= 1 and modulus == default_modulus(q, m):
            modulus = None
    return _field_cached(q, m, modulus)


def field_from_descriptor(text):
    """Parse "q m c_0 ... c_m" back into a Field."""
    parts = [int(t) for t in text.split()]
    if len(parts) < 2:
        raise ValueError("descriptor needs at least q and m")
    q, m = parts[0], parts[1]
    rest = parts[2:]
    return make_field(q, m, rest if rest else None)

