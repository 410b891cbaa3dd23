"""Tests for GF(q^m) arithmetic, bases, traces, and expansions."""
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rankmetric
from rankmetric.ffield import (
    Field,
    _poly_rem,
    default_modulus,
    field_from_descriptor,
    is_irreducible,
    is_prime_power,
    make_field,
)


# Frozen by independent hand computation / exhaustive sieve at desk scale.
KNOWN_DEFAULT_MODULI = {
    (2, 1): (0, 1),              # x
    (2, 2): (1, 1, 1),           # x^2+x+1 (the only irreducible quadratic)
    (2, 3): (1, 1, 0, 1),        # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),     # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5+x^2+1
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),           # x^2+1 has no root mod 3
    (5, 2): (2, 0, 1),           # x^2+2: -2 = 3 is not a square mod 5
}


def brute_irreducible(coeffs, q):
    """Independent irreducibility oracle: try every monic divisor directly."""
    m = len(coeffs) - 1
    if m == 1:
        return True

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
        return out

    for d in range(1, m):
        for lower in itertools.product(range(q), repeat=d):
            f = list(lower) + [1]
            for other in itertools.product(range(q), repeat=m - d):
                g = list(other) + [1]
                if mul(f, g) == list(coeffs):
                    return False
    return True


def trial_division_irreducible(coeffs, q):
    """Reference irreducibility test: a monic f of degree m is reducible
    iff a monic polynomial of degree 1..m/2 divides it."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    for d in range(1, m // 2 + 1):
        for lower in itertools.product(range(q), repeat=d):
            if not _poly_rem(coeffs, list(lower) + [1], q):
                return False
    return True


@pytest.mark.parametrize("q,top", [(2, 6), (3, 4), (5, 3)])
def test_ben_or_matches_trial_division(q, top):
    # every monic polynomial of degree 0..top
    for m in range(top + 1):
        for lower in itertools.product(range(q), repeat=m):
            coeffs = (*lower, 1)
            assert is_irreducible(coeffs, q) == trial_division_irreducible(
                coeffs, q), coeffs


def test_default_moduli_frozen():
    for (q, m), want in KNOWN_DEFAULT_MODULI.items():
        assert default_modulus(q, m) == want


def test_default_modulus_is_smallest_irreducible():
    # The chosen modulus must be irreducible and nothing smaller may be.
    for q, m in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        mod = default_modulus(q, m)
        assert brute_irreducible(mod, q)
        chosen = sum(c * q**i for i, c in enumerate(mod[:-1]))
        for v in range(chosen):
            coeffs = []
            t = v
            for _ in range(m):
                coeffs.append(t % q)
                t //= q
            coeffs.append(1)
            assert not brute_irreducible(tuple(coeffs), q)


def test_irreducibility_check_against_oracle():
    for q, m in [(2, 1), (3, 1), (5, 1), (2, 4), (3, 2), (3, 3)]:
        for v in range(q**m):
            coeffs = []
            t = v
            for _ in range(m):
                coeffs.append(t % q)
                t //= q
            coeffs = tuple(coeffs + [1])
            assert is_irreducible(coeffs, q) == brute_irreducible(coeffs, q)


def test_field_rejections():
    with pytest.raises(ValueError):
        make_field(4, 2)  # q must be prime (2, 3, 5)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 > 2^20
    with pytest.raises(ValueError):
        make_field(3, 13)
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 is reducible
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        make_field(3, 2, (4, 0, 1))  # coefficient out of range


def test_gf4_arithmetic_frozen():
    F = make_field(2, 2)
    alpha = 2
    assert F.mul(alpha, alpha) == 3           # alpha^2 = alpha + 1
    assert F.mul(alpha, 3) == 1               # alpha * alpha^2 = 1
    assert F.inv(alpha) == 3
    assert F.add(alpha, 3) == 1
    assert [F.trace(x) for x in range(4)] == [0, 0, 1, 1]
    assert F.generator == alpha               # alpha generates GF(4)*


@pytest.mark.parametrize("q,m", [(2, 4), (2, 8), (3, 3), (5, 2)])
def test_tables_agree_with_schoolbook(q, m):
    F = make_field(q, m)
    step = max(1, F.order // 97)
    for a in range(0, F.order, step):
        for b in range(0, F.order, max(1, step // 3 + 1)):
            assert F.mul(a, b) == F._mul_raw(a, b)


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(q, m):
    F = make_field(q, m)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.q**F.m) == a  # Frobenius fixed point of full tower
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els[:: max(1, len(els) // 5)]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
def test_gf9_properties(a, b, c):
    F = make_field(3, 2)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.sub(F.add(a, b), b) == a


@pytest.fixture(scope="module")
def gf2_16():
    # built once, outside the timed examples of the property test below
    return make_field(2, 16)


@settings(max_examples=30)
@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
def test_gf2_16_table_vs_schoolbook(gf2_16, a, b):
    assert gf2_16.mul(a, b) == gf2_16._mul_raw(a, b)


@pytest.mark.parametrize("q,m,generator", [(2, 16, 3), (3, 8, 38), (3, 10, 34)])
def test_generator_is_smallest_primitive(q, m, generator):
    """Tables and encodings depend on the generator; it stays the smallest
    primitive encoding."""
    F = make_field(q, m)
    assert F.generator == generator == F._exp[1]
    assert len(set(F._exp)) == F.order - 1


def test_large_field_no_tables():
    # mul is _mul_raw here, at odd q the one product modulo a monic
    # polynomial: field identities on 50 seeded elements of each field
    rng = random.Random(5)
    for q, m in [(2, 20), (3, 11), (3, 12), (5, 7), (5, 8)]:
        F = make_field(q, m)
        assert F._log is None
        assert F.frobenius(0, 5) == 0 and F.frobenius(q - 1, 5) == q - 1
        for _ in range(50):
            x, y = rng.randrange(1, F.order), rng.randrange(F.order)
            assert F.mul(x, F.inv(x)) == 1
            assert F.pow(x, F.order - 1) == 1
            assert F.frobenius(x, F.m) == x
            assert F.frobenius(x, -1) == F.frobenius(x, F.m - 1)
            # Frobenius is the q-power map, additive and multiplicative
            assert F.frobenius(x) == functools.reduce(F.mul, [x] * q)
            assert F.frobenius(F.frobenius(F.frobenius(x))) \
                == F.frobenius(x, 3)
            assert F.frobenius(F.add(x, y), 2) == \
                F.add(F.frobenius(x, 2), F.frobenius(y, 2))
            assert F.frobenius(F.mul(x, y), 2) == \
                F.mul(F.frobenius(x, 2), F.frobenius(y, 2))


def test_gf2_tables():
    # GF(2) = {0, 1}: the generator search starts at 1, the only choice
    F = make_field(2, 1)
    assert (F.generator, F._exp, F._log) == (1, [1], [-1, 0])
    assert F.inv(1) == 1 and F.mul(1, 1) == 1
    assert F.frobenius(1, 3) == 1 and F.frobenius(0, 3) == 0


@pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_frobenius_is_field_automorphism(q, m):
    F = make_field(q, m)
    sample = list(range(0, F.order, max(1, F.order // 23)))
    for a in sample:
        for b in sample:
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    for c in range(q):  # base field is fixed pointwise
        assert F.frobenius(c) == c
    for a in sample:  # full tower of iterates returns to identity
        assert F.frobenius(a, m) == a


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (2, 4)])
def test_trace_properties(q, m):
    F = make_field(q, m)
    for a in F.elements():
        t = F.trace(a)
        assert 0 <= t < q
        assert F.trace(F.frobenius(a)) == t
        # direct evaluation of the defining sum
        s = 0
        for i in range(m):
            s = F.add(s, F.pow(a, q**i))
        assert s == t
    # trace is GF(q)-linear and onto GF(q)
    values = {F.trace(a) for a in F.elements()}
    assert values == set(range(q))


def test_dual_basis_gf4_frozen():
    F = make_field(2, 2)
    assert F.dual_basis([1, 2]) == (3, 1)  # dual of (1, alpha) is (alpha^2, 1)


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_dual_basis_biorthogonality(q, m):
    import random

    rng = random.Random(7)
    F = make_field(q, m)
    found = 0
    while found < 5:
        basis = [rng.randrange(1, F.order) for _ in range(m)]
        if not F.is_basis(basis):
            continue
        found += 1
        dual = F.dual_basis(basis)
        for i in range(m):
            for j in range(m):
                assert F.trace(F.mul(basis[i], dual[j])) == (1 if i == j else 0)
        # duality is an involution
        assert F.dual_basis(dual) == tuple(basis)


def test_dual_basis_rejects_non_basis():
    F = make_field(2, 3)
    with pytest.raises(ValueError):
        F.dual_basis([1, 2, 3])  # 3 = 1 + 2: dependent


def test_expand_reassemble_roundtrip():
    F = make_field(2, 2)
    assert F.expand((1, 2, 3)) == ((1, 0, 1), (0, 1, 1))
    for q, m in [(2, 3), (3, 2)]:
        G = make_field(q, m)
        vec = tuple(range(0, G.order, max(1, G.order // 4)))[:3]
        assert G.reassemble(G.expand(vec)) == vec
        # custom basis roundtrip
        basis = G.polynomial_basis()[::-1]
        assert G.reassemble(G.expand(vec, basis), basis) == vec


def test_expand_linearity():
    F = make_field(3, 2)
    u = (1, 5, 7)
    v = (2, 8, 3)
    s = tuple(F.add(a, b) for a, b in zip(u, v))
    eu, ev, es = F.expand(u), F.expand(v), F.expand(s)
    for i in range(F.m):
        for j in range(3):
            assert es[i][j] == (eu[i][j] + ev[i][j]) % 3


def test_coords_against_definition():
    F = make_field(2, 3)
    basis = (3, 5, 7)
    assert F.is_basis(basis)
    assert not F.is_basis((3, 5, 6))  # 6 = 3 + 5
    for x in F.elements():
        cs = F.coords(x, basis)
        acc = 0
        for c, b in zip(cs, basis):
            acc = F.add(acc, F.mul(c, b))
        assert acc == x


def test_descriptor_roundtrip():
    for q, m in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        F = make_field(q, m)
        assert field_from_descriptor(F.descriptor()) is F
    G = field_from_descriptor("2 2 1 1 1")
    assert G.q == 2 and G.m == 2 and G.modulus == (1, 1, 1)
    H = field_from_descriptor("2 3 1 0 1 1")  # x^3 + x^2 + 1, not the default
    assert H is make_field(2, 3, (1, 0, 1, 1)) and H != make_field(2, 3)


def test_is_prime_power_against_trial_division():
    def by_division(q):  # q = p^k iff stripping the least factor leaves 1
        p = next((p for p in range(2, q + 1) if q % p == 0), None)
        while p and q % p == 0:
            q //= p
        return p is not None and q == 1
    assert all(is_prime_power(q) == by_division(q) for q in range(-3, 3000))
    assert is_prime_power(3 ** 200) and is_prime_power((2 ** 61 - 1) ** 3)
    assert not is_prime_power((2 ** 61 - 1) * (2 ** 31 - 1))


def test_pow_edge_cases():
    F = make_field(3, 2)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(4, -1) == F.inv(4)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_digitwise_add_sub_neg_stop_after_m_digits():
    # Field._digitwise once looped forever on a negative operand
    # (-1 // 3 == -1), so this runs in a subprocess under a timeout; it
    # also read past m digits, so add(9, 0) left GF(9)
    code = ("from rankmetric.ffield import make_field\n"
            "F = make_field(3, 2)\n"
            "print(F.sub(-1, 0), F.add(-1, 0), F.neg(-1), F.add(9, 0))\n")
    src = Path(rankmetric.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout == "8 8 4 0\n"


ZECH_SMALL = [(q, m) for q in (3, 5) for m in range(1, 6) if q ** m <= 243]


@pytest.mark.parametrize("q,m", ZECH_SMALL)
def test_zech_add_sub_neg_match_digitwise_on_every_pair(q, m):
    """At odd q the Zech lookups give the digit-wise sums on every pair of
    elements, and zech[k] is log(1 + g^k), -1 where 1 + g^k = 0."""
    F = make_field(q, m)
    assert F._zech is not None
    assert F._zech == [F._log[F._digitwise(1, x, 1)] for x in F._exp]
    for a in F.elements():
        assert F.neg(a) == F._digitwise(0, a, -1)
        for b in F.elements():
            assert F.add(a, b) == F._digitwise(a, b, 1)
            assert F.sub(a, b) == F._digitwise(a, b, -1)


@pytest.mark.parametrize("q,m", [(3, 8), (3, 10), (5, 6)])
def test_zech_add_sub_neg_match_digitwise_on_sampled_pairs(q, m):
    F = make_field(q, m)
    assert F._zech is not None
    rng = random.Random(q * 100 + m)
    for _ in range(20000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.add(a, b) == F._digitwise(a, b, 1)
        assert F.sub(a, b) == F._digitwise(a, b, -1)
        assert F.neg(b) == F._digitwise(0, b, -1)


def test_zech_tables_only_at_odd_q_with_tables():
    # q = 2 adds by XOR and the table-less fields digit by digit
    for q, m in [(2, 4), (2, 16), (3, 11), (5, 7)]:
        assert make_field(q, m)._zech is None


def test_schoolbook_refuses_a_negative_operand():
    # at q = 2 the schoolbook product once shifted a negative operand down
    # forever, so this runs in a subprocess under a timeout; pow and inv
    # above the table limit multiply through the same product
    code = ("from rankmetric.ffield import make_field\n"
            "for q, m in [(2, 17), (3, 11)]:\n"
            "    F = make_field(q, m)\n"
            "    for f in (lambda: F.mul(-1, 2), lambda: F.mul(2, -1),\n"
            "              lambda: F.pow(-1, 3), lambda: F.inv(-1)):\n"
            "        try:\n"
            "            f()\n"
            "        except ValueError as e:\n"
            "            print(e)\n")
    src = Path(rankmetric.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout == (4 * "-1 is not an element encoding of GF(2^17)\n"
                           + 4 * "-1 is not an element encoding of GF(3^11)\n")


def scalar_pow(F, x, e):
    """x^e by square-and-multiply on the schoolbook product alone."""
    r = 1
    while e:
        if e & 1:
            r = F._mul_raw(r, x)
        x, e = F._mul_raw(x, x), e >> 1
    return r


def scalar_generator(F):
    """The smallest encoding whose powers reach every nonzero element."""
    n = F.order - 1
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and all(p % d for d in range(2, p))]
    return next(g for g in range(1, F.order)
                if all(scalar_pow(F, g, n // p) != 1 for p in primes))


def scalar_tables(F):
    """The walk the tables were built by before the doubling walk:
    exp[i+1] = g * exp[i], one schoolbook product at a time."""
    g = scalar_generator(F)
    exp = [1]
    for _ in range(F.order - 2):
        exp.append(F._mul_raw(g, exp[-1]))
    log = [-1] * F.order
    for i, v in enumerate(exp):
        log[v] = i
    return g, exp, log


SMALL_TABLED = [(q, m) for q in (2, 3, 5) for m in range(1, 13)
                if q ** m <= 4096]


@pytest.mark.parametrize("q,m", SMALL_TABLED)
def test_tables_match_scalar_walk(q, m):
    F = make_field(q, m)
    assert (F.generator, F._exp, F._log) == scalar_tables(F)


@pytest.mark.parametrize("q,m", [(2, 16), (3, 8), (3, 10), (5, 6)])
def test_tables_match_scalar_powers_at_sampled_indices(q, m):
    F = make_field(q, m)
    assert F.generator == scalar_generator(F)
    assert len(F._exp) == F.order - 1 and len(F._log) == F.order
    rng = random.Random(f"tables {q} {m}")
    for i in [0, 1, F.order - 2] + rng.sample(range(F.order - 1), 200):
        x = scalar_pow(F, F.generator, i)
        assert F._exp[i] == x and F._log[x] == i, i
    assert F._log[0] == -1


def test_moduli_and_generators_pinned():
    """Moduli and generators fix every encoding in code files and CLI
    output; this hash was taken from the scalar-walk tables."""
    fields = [make_field(q, m) for q in (2, 3, 5) for m in range(1, 17)
              if q ** m <= 1 << 16]
    lines = [f"{F.descriptor()} {F.generator}" for F in fields]
    assert len(lines) == 32
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d222f6a5b8cfb6132dffb9a50f0a6631d3337a9f44112daef24890b2bc31e1ef")


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (5, 4)])
def test_irreducible_counts_match_gauss_formula(q, top):
    # (1/d) sum_{e | d} mu(e) q^(d/e) monic irreducibles of degree d
    for d in range(1, top + 1):
        want = sum(mobius(e) * q ** (d // e)
                   for e in range(1, d + 1) if d % e == 0) // d
        got = sum(is_irreducible((*lower, 1), q)
                  for lower in itertools.product(range(q), repeat=d))
        assert got == want, (q, d)
