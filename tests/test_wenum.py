"""Tests for weight enumerators, q-calculus, and the MacWilliams transform.

Every identity is checked exactly (Fractions throughout), and the transform
itself is oracled against brute force: for random and structured linear
codes, the transform of the enumerated rank distribution must equal the
enumerated rank distribution of the independently constructed dual code.
The Krawtchouk closed form is cross-checked against a recurrence evaluated
independently on the test side.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from rankmetric import codes as cd
from rankmetric import wenum as w
from rankmetric.ffield import make_field
from rankmetric.rankgeom import alpha, beta, gaussian, rank, sigma


def fcoeffs(poly, m):
    """Coefficients at parameter m, normalized to Fractions for comparison."""
    return tuple(Fraction(c) for c in poly.coeffs(m))


def poly_eq(f, g, ms=(-2, -1, 0, 1, 2, 3)):
    return f.degree == g.degree and all(
        fcoeffs(f, m) == fcoeffs(g, m) for m in ms)


def rand_poly(rng, q, deg):
    """Random total coefficient family: each c_u(m) a small polynomial in m."""
    rows = [(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(0, 2))
            for _ in range(deg + 1)]

    def fn(u, m):
        a0, a1, a2 = rows[u]
        return a0 + a1 * m + a2 * m * m

    return w.ParametricPoly(q, deg, fn)


def random_linear_codes(field, n, k, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        G = rng.integers(0, field.order, size=(k, n)).tolist()
        try:
            out.append(cd.make_code(field, G))
        except ValueError:
            continue
    return out


def enum_of(code):
    return w.make_enumerator(code.field.q, code.field.m, code.n,
                             cd.rank_distribution(code))


# ---------------------------------------------------------------------------
# q-product
# ---------------------------------------------------------------------------

def test_q_product_monomials():
    q = 2
    x, y = w.x_pow(1, q), w.y_pow(1, q)
    assert fcoeffs(w.q_product(x, y), 0) == (0, 1, 0)
    # x * y = yx but y * x = q·yx: the product is not commutative
    assert fcoeffs(w.q_product(y, x), 0) == (0, 2, 0)
    assert fcoeffs(w.q_product(x, y), 0) != fcoeffs(w.q_product(y, x), 0)
    # (x*y)*x = q y x^2
    assert fcoeffs(w.q_product(w.q_product(x, y), x), 0) == (0, 2, 0, 0)


def test_q_product_parameter_shift():
    # yx * (q^m-1)y = (q^m-q) y^2 x : the right factor is evaluated at m-1,
    # which is what distinguishes the q-product from plain multiplication.
    q = 2
    yx = w.q_product(w.x_pow(1, q), w.y_pow(1, q))
    cy = w.ParametricPoly(q, 1,
                          lambda u, m: w.q_int_pow(q, m) - 1 if u == 1 else 0)
    prod = w.q_product(yx, cy)
    for m in (0, 1, 2, 3, 5):
        assert fcoeffs(prod, m) == (0, 0, Fraction(w.q_int_pow(q, m) - q), 0)


def test_q_product_constants_commute():
    rng = random.Random(1)
    for q in (2, 3):
        f = rand_poly(rng, q, 3)
        c = w.from_coeffs(q, (5,))
        assert poly_eq(w.q_product(f, c), w.q_product(c, f))
        assert poly_eq(w.q_product(c, f), w.poly_scale(f, 5))


def test_q_product_distributes_over_equal_degree_sums():
    rng = random.Random(2)
    for q in (2, 3):
        f, g = rand_poly(rng, q, 2), rand_poly(rng, q, 2)
        h = rand_poly(rng, q, 3)
        lhs = w.q_product(w.poly_add(f, g), h)
        rhs = w.poly_add(w.q_product(f, h), w.q_product(g, h))
        assert poly_eq(lhs, rhs)
        lhs = w.q_product(h, w.poly_add(f, g))
        rhs = w.poly_add(w.q_product(h, f), w.q_product(h, g))
        assert poly_eq(lhs, rhs)


def test_q_product_q_mismatch():
    with pytest.raises(ValueError):
        w.q_product(w.x_pow(1, 2), w.x_pow(1, 3))


def test_poly_basics():
    f = w.from_coeffs(2, (1, 2, 3))
    assert f.coeff(-1, 0) == 0 and f.coeff(3, 0) == 0
    with pytest.raises(ValueError):
        w.ParametricPoly(2, -1, lambda u, m: 0)
    with pytest.raises(ValueError):
        w.poly_add(w.x_pow(1, 2), w.x_pow(2, 2))


def test_parametric_memoization():
    calls = []

    def fn(u, m):
        calls.append((u, m))
        return u + m

    f = w.ParametricPoly(2, 2, fn)
    f.coeffs(3)
    f.coeffs(3)
    f.coeff(1, 3)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# closed families
# ---------------------------------------------------------------------------

def test_families_match_q_power_recursion():
    for q in (2, 3):
        for l in range(7):
            assert poly_eq(w.a_family(l, q),
                           w.q_power(w.x_plus_y_base(q), l))
            assert poly_eq(w.b_family(l, q),
                           w.q_power(w.x_minus_y_base(q), l))


def test_family_values():
    assert w.a_family(2, 2).coeffs(2) == (1, 9, 6)
    assert w.b_family(2, 2).coeffs(2) == (1, -3, 2)
    # a_l is the rank enumerator of the whole space
    F = make_field(2, 2)
    whole = cd.make_code(F, [[1, 0], [0, 1]])
    assert tuple(cd.rank_distribution(whole)) == (1, 9, 6)
    # total count: a_l(1,1) = q^{ml}
    for q in (2, 3):
        for l in range(5):
            for m in range(4):
                assert sum(w.a_family(l, q).coeffs(m)) == (q ** m) ** l


# ---------------------------------------------------------------------------
# q-transform and derivatives
# ---------------------------------------------------------------------------

def test_q_transform():
    q = 2
    # constants and pure x powers are fixed (sigma_0 = 0)
    assert fcoeffs(w.q_transform(w.from_coeffs(q, (7,))), 0) == (7,)
    assert fcoeffs(w.q_transform(w.x_pow(3, q)), 0) == (1, 0, 0, 0)
    # y^l picks up q^{sigma_l}
    for l in range(1, 5):
        got = w.q_transform(w.y_pow(l, q)).coeffs(0)
        assert got[l] == q ** sigma(l) and sum(got) == got[l]
    # a mixed monomial y x^{r-1} also crosses x^{[r-1]} in the product:
    # bar(y x) = y^[1] * x^[1] = q^{sigma_1} q^{1·1} y x = q·yx
    yx = w.ParametricPoly(q, 2, lambda u, m: 1 if u == 1 else 0)
    assert fcoeffs(w.q_transform(yx), 0) == (0, 2, 0)
    # consistency with the defining expansion: coefficient-wise, the
    # transform of f is sum_i f_i (y^[i] * x^[r-i])
    rng = random.Random(3)
    for trial in range(5):
        f = rand_poly(rng, q, 3)
        acc = None
        for i in range(4):
            mono = w.q_product(w.y_pow(i, q), w.x_pow(3 - i, q))
            term = w.ParametricPoly(
                q, 3,
                lambda u, m, i=i, mono=mono: f.coeff(i, m) * q ** sigma(i)
                * mono.coeff(u, m))
            acc = term if acc is None else w.poly_add(acc, term)
        assert poly_eq(w.q_transform(f), acc)


def test_q_derivative_monomial():
    # (x^3)^(1) = beta(3,1) x^2 = 7 x^2 at q=2
    got = w.q_derivative(w.x_pow(3, 2), 1)
    assert fcoeffs(got, 0) == (7, 0, 0)


def test_q_derivative_family_lemmas():
    # a_l^(nu) = beta(l,nu) a_{l-nu} and b_l^(nu) = beta(l,nu) b_{l-nu}
    for q in (2, 3):
        for l in range(1, 6):
            for nu in range(l + 1):
                c = beta(l, nu, q)
                assert poly_eq(w.q_derivative(w.a_family(l, q), nu),
                               w.poly_scale(w.a_family(l - nu, q), c))
                assert poly_eq(w.q_derivative(w.b_family(l, q), nu),
                               w.poly_scale(w.b_family(l - nu, q), c))


def test_q_inv_derivative_family_lemmas():
    # a_l^{nu} = beta(l,nu) q^{-sigma_nu} alpha(m,nu) a_{l-nu}(x,y;m-nu):
    # the parameter itself shifts, and exact q-power denominators appear.
    for q in (2, 3):
        for l in range(1, 6):
            for nu in range(l + 1):
                lhs = w.q_inv_derivative(w.a_family(l, q), nu)
                shifted = w.shift_m(w.a_family(l - nu, q), -nu)
                for m in range(4):
                    c = (Fraction(beta(l, nu, q), q ** sigma(nu))
                         * w.alpha(m, nu, q))
                    assert fcoeffs(lhs, m) == tuple(
                        c * x for x in fcoeffs(shifted, m))
                # b_l^{nu} = (-1)^nu beta(l,nu) b_{l-nu}
                lhs = w.q_inv_derivative(w.b_family(l, q), nu)
                rhs = w.poly_scale(w.b_family(l - nu, q),
                                   (-1) ** nu * beta(l, nu, q))
                assert poly_eq(lhs, rhs)


def test_derivative_order_validation():
    f = w.x_pow(2, 2)
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            w.q_derivative(f, bad)
        with pytest.raises(ValueError):
            w.q_inv_derivative(f, bad)


def test_q_leibniz_rule():
    # [f*g]^(nu) = sum_l [nu l] q^{(nu-l)(r-l)} f^(l) * g^(nu-l), r = deg f
    rng = random.Random(4)
    for q in (2, 3):
        for trial in range(8):
            r, s = rng.randint(0, 4), rng.randint(0, 4)
            f, g = rand_poly(rng, q, r), rand_poly(rng, q, s)
            prod = w.q_product(f, g)
            for nu in range(min(3, r + s) + 1):
                acc = None
                for l in range(nu + 1):
                    if l > r or nu - l > s:
                        continue
                    term = w.q_product(w.q_derivative(f, l),
                                       w.q_derivative(g, nu - l))
                    term = w.poly_scale(
                        term, gaussian(nu, l, q) * q ** ((nu - l) * (r - l)))
                    acc = term if acc is None else w.poly_add(acc, term)
                assert acc is not None
                assert poly_eq(w.q_derivative(prod, nu), acc)


def test_q_inv_leibniz_rule():
    # [f*g]^{nu} = sum_l [nu l] q^{l(s-nu+l)} f^{l}(;m) * g^{nu-l}(;m-l),
    # s = deg g; the second factor is taken at the shifted parameter.
    rng = random.Random(5)
    for q in (2, 3):
        for trial in range(8):
            r, s = rng.randint(0, 4), rng.randint(0, 4)
            f, g = rand_poly(rng, q, r), rand_poly(rng, q, s)
            prod = w.q_product(f, g)
            for nu in range(min(3, r + s) + 1):
                acc = None
                for l in range(nu + 1):
                    if l > r or nu - l > s:
                        continue
                    term = w.q_product(
                        w.q_inv_derivative(f, l),
                        w.shift_m(w.q_inv_derivative(g, nu - l), -l))
                    term = w.poly_scale(
                        term,
                        gaussian(nu, l, q) * w.q_int_pow(q, l * (s - nu + l)))
                    acc = term if acc is None else w.poly_add(acc, term)
                assert acc is not None
                assert poly_eq(w.q_inv_derivative(prod, nu), acc)


# ---------------------------------------------------------------------------
# Krawtchouk polynomials
# ---------------------------------------------------------------------------

def _kraw_recurrence(j, i, m, n, q, memo):
    """Independent evaluator: P_j(0;m,n) = [n j] alpha(m,j), P_0 = 1, and
    P_j(i;m,n) = q^j P_j(i-1;m-1,n-1) - q^{j-1} P_{j-1}(i-1;m-1,n-1)."""
    key = (q, j, i, m, n)
    if key in memo:
        return memo[key]
    if j == 0:
        out = Fraction(1)
    elif i == 0:
        out = Fraction(gaussian(n, j, q)) * w.alpha(m, j, q)
    else:
        out = (q ** j * _kraw_recurrence(j, i - 1, m - 1, n - 1, q, memo)
               - q ** (j - 1) * _kraw_recurrence(j - 1, i - 1, m - 1, n - 1,
                                                 q, memo))
    memo[key] = out
    return out


def test_krawtchouk_frozen_values():
    assert w.krawtchouk(1, 0, 2, 2, 2) == 9
    assert w.krawtchouk(1, 2, 2, 2, 2) == -3
    assert w.krawtchouk(2, 1, 2, 2, 2) == -2
    assert w.krawtchouk(1, 1, 3, 2, 2) == 5
    assert w.krawtchouk(2, 2, 2, 2, 2) == 2
    assert w.krawtchouk(1, 2, 3, 3, 2) == 1
    assert w.krawtchouk_table(2, 2, 2) == ((1, 1, 1), (9, 1, -3), (6, -2, 2))
    # table object is cached
    assert w.krawtchouk_table(2, 2, 2) is w.krawtchouk_table(2, 2, 2)


def test_qproduct_kernel_equals_krawtchouk_kernel():
    # the paper's q-product expansion and Delsarte's closed form are one
    # MacWilliams kernel: equal in plain ints on every cell, n > m included
    for q in (2, 3, 4, 5):
        for m in range(1, 6):
            for n in range(7):
                P, Q = w.krawtchouk_table(q, m, n), w.qproduct_table(q, m, n)
                assert Q == P, (q, m, n)
                assert {type(p) for T in (P, Q) for row in T for p in row} \
                    == {int}


def test_krawtchouk_initial_conditions():
    for q in (2, 3):
        for n in range(6):
            for m in range(7):
                for i in range(n + 1):
                    assert w.krawtchouk(0, i, m, n, q) == 1
                for j in range(n + 1):
                    assert (w.krawtchouk(j, 0, m, n, q)
                            == gaussian(n, j, q) * alpha(m, j, q))


def test_krawtchouk_closed_form_equals_recurrence():
    memo = {}
    for q in (2, 3):
        for n in range(6):
            for m in range(7):
                for i in range(n + 1):
                    for j in range(n + 1):
                        got = Fraction(w.krawtchouk(j, i, m, n, q))
                        want = _kraw_recurrence(j, i, m, n, q, memo)
                        assert got == want, (q, m, n, i, j)


def test_krawtchouk_index_validation():
    for j, i in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(ValueError):
            w.krawtchouk(j, i, 2, 2, 2)


# ---------------------------------------------------------------------------
# summation lemmas behind the moment identities
# ---------------------------------------------------------------------------

def test_delta_sum_identity():
    # sum_i [j i](-1)^i q^{sigma_i} alpha(m-i,nu)
    #   = alpha(nu,j) alpha(m-j,nu-j) q^{j(m-j)}
    for q in (2, 3):
        for m in range(6):
            for nu in range(6):
                for j in range(6):
                    lhs = sum(
                        Fraction(gaussian(j, i, q)) * (-1) ** i
                        * q ** sigma(i) * w.alpha(m - i, nu, q)
                        for i in range(j + 1))
                    rhs = (Fraction(w.alpha(nu, j, q))
                           * w.alpha(m - j, nu - j, q)
                           * w.q_int_pow(q, j * (m - j)))
                    assert lhs == rhs, (q, m, nu, j)


def test_theta_sum_identity():
    # sum_l [j l][n-j, nu-l] q^{l(n-nu)}(-1)^l q^{sigma_l} alpha(nu-l,j-l)
    #   = (-1)^j q^{sigma_j} [n-j, n-nu]
    for q in (2, 3):
        for n in range(6):
            for nu in range(n + 1):
                for j in range(n + 1):
                    lhs = sum(
                        Fraction(gaussian(j, l, q))
                        * gaussian(n - j, nu - l, q)
                        * q ** (l * (n - nu)) * (-1) ** l * q ** sigma(l)
                        * w.alpha(nu - l, j - l, q)
                        for l in range(j + 1))
                    rhs = Fraction((-1) ** j * q ** sigma(j)
                                   * gaussian(n - j, n - nu, q))
                    assert lhs == rhs, (q, n, nu, j)


# ---------------------------------------------------------------------------
# enumerators and the MacWilliams transform
# ---------------------------------------------------------------------------

def test_make_enumerator_validation():
    with pytest.raises(ValueError):
        w.make_enumerator(2, 2, 2, (1, 0))          # wrong length
    with pytest.raises(ValueError):
        w.make_enumerator(2, 2, 2, (1, -1, 4))      # negative count
    with pytest.raises(ValueError):
        w.make_enumerator(2, 2, 3, (1, 0, 0, 3))    # rank beyond min(m,n)
    with pytest.raises(ValueError):
        w.make_enumerator(2, 2, 2, (1, Fraction(1, 2), 0))
    e = w.make_enumerator(2, 2, 2, (1, 0, 3))
    assert e.coeffs == (1, 0, 3) and e.poly().coeffs(0) == (1, 0, 3)


def test_macwilliams_worked_examples():
    assert w.macwilliams(w.make_enumerator(2, 2, 2, (1, 9, 6))).coeffs \
        == (1, 0, 0)
    assert w.macwilliams(w.make_enumerator(2, 2, 2, (1, 0, 3))).coeffs \
        == (1, 0, 3)
    assert w.macwilliams(w.make_enumerator(2, 2, 2, (1, 0, 0))).coeffs \
        == (1, 9, 6)


def test_macwilliams_rejects_bad_input():
    with pytest.raises(ValueError):
        w.macwilliams(w.make_enumerator(2, 2, 2, (1, 2, 0)))   # size 3
    with pytest.raises(ValueError):
        # size is a power of q^m but no code has this distribution: the
        # transform produces a negative coefficient
        w.macwilliams(w.make_enumerator(2, 2, 2, (0, 4, 0)))
    with pytest.raises(ValueError):
        w.macwilliams(w.make_enumerator(2, 2, 2, (1, 0, 3)), method="fast")


def test_macwilliams_against_brute_dual():
    # the real oracle: transform of the enumerated distribution == the
    # enumerated distribution of the independently constructed dual code
    cases = []
    F = make_field(2, 3)
    cases += random_linear_codes(F, 3, 1, 4, seed=10)
    cases += random_linear_codes(F, 3, 2, 4, seed=11)
    cases += random_linear_codes(F, 4, 2, 3, seed=12)
    g = make_field(2, 3).polynomial_basis()
    cases += [cd.gabidulin(make_field(2, 3), g, k) for k in (1, 2, 3)]
    F4 = make_field(2, 4)
    cases += random_linear_codes(F4, 4, 2, 2, seed=13)
    F9 = make_field(3, 2)
    cases += random_linear_codes(F9, 2, 1, 3, seed=14)
    cases += random_linear_codes(make_field(3, 3), 3, 2, 2, seed=15)
    for code in cases:
        A = enum_of(code)
        B = enum_of(cd.dual(code))
        assert w.macwilliams(A).coeffs == B.coeffs
        assert w.macwilliams(A, method="qproduct").coeffs == B.coeffs


def test_macwilliams_involution():
    F = make_field(2, 4)
    for code in random_linear_codes(F, 3, 2, 5, seed=20):
        A = enum_of(code)
        assert w.macwilliams(w.macwilliams(A)).coeffs == A.coeffs


def test_code_enumerator_helper():
    F = make_field(2, 2)
    e = w.code_enumerator(cd.make_code(F, [[1, 2]]))
    assert (e.q, e.m, e.n, e.coeffs) == (2, 2, 2, (1, 0, 3))
    # nonlinear codebooks enumerate fine but the transform rejects them
    book = cd.make_codebook(F, [(0, 0), (1, 2), (2, 3)])
    bad = w.code_enumerator(book)
    with pytest.raises(ValueError):
        w.macwilliams(bad)


# ---------------------------------------------------------------------------
# closed-form enumerators
# ---------------------------------------------------------------------------

def test_trivial_mrd_enumerator():
    assert w.trivial_mrd_enumerator(2, 2, 2).coeffs == (1, 0, 3)
    # equals the brute-force dual of a full-rank vector span in GF(4)^2
    F = make_field(2, 2)
    v = F.polynomial_basis()
    code = cd.dual(cd.make_code(F, [list(v)]))
    assert w.trivial_mrd_enumerator(2, 2, 2).coeffs \
        == tuple(cd.rank_distribution(code))
    # the brute-force dual of a full-rank g in GF(q^m)^r
    for q, m, r in ((2, 3, 3), (2, 3, 2), (3, 2, 2)):
        F = make_field(q, m)
        g = F.polynomial_basis()[:r]
        assert rank(F, g) == r
        dual = cd.dual(cd.make_code(F, [list(g)]))
        assert w.trivial_mrd_enumerator(r, q, m).coeffs \
            == tuple(cd.rank_distribution(dual)), (q, m, r)
    with pytest.raises(ValueError):
        w.trivial_mrd_enumerator(3, 2, 2)


def test_dual_vector_enumerator_rank_only():
    # span(v)^perp has an enumerator depending on v only through rank(v):
    # exhaustive over every nonzero vector for small shapes
    for (m, n) in ((2, 2), (3, 3), (2, 3)):
        F = make_field(2, m)
        for packed in range(1, F.order ** n):
            v = tuple((packed // F.order ** i) % F.order for i in range(n))
            r = rank(F, v)
            got = cd.rank_distribution(cd.dual(cd.make_code(F, [list(v)])))
            assert tuple(got) == w.dual_vector_enumerator(r, n, 2, m).coeffs, \
                (m, n, v)


def test_dual_vector_enumerator_rank_zero():
    # dual of the zero vector's span is the whole space: a_n
    for q in (2, 3):
        for m in range(1, 4):
            for n in range(4):
                assert (w.dual_vector_enumerator(0, n, q, m).coeffs
                        == tuple(w.a_family(n, q).coeffs(m)))
    with pytest.raises(ValueError):
        w.dual_vector_enumerator(3, 2, 2, 2)


def test_cartesian_extend():
    one = w.make_enumerator(2, 2, 0, (1,))
    assert w.cartesian_extend(one, 2).coeffs == (1, 9, 6)
    base = w.make_enumerator(2, 2, 2, (1, 0, 3))
    assert w.cartesian_extend(base, 0).coeffs == base.coeffs
    with pytest.raises(ValueError):
        w.cartesian_extend(base, -1)
    # closed summation form of the product coefficients
    q, m, s = 2, 2, 2
    ext = w.cartesian_extend(base, s)
    for u in range(ext.n + 1):
        want = sum(q ** (i * s) * base.coeffs[i] * gaussian(s, u - i, q)
                   * w.alpha(m - i, u - i, q)
                   for i in range(max(0, u - s), min(u, base.n) + 1))
        assert ext.coeffs[u] == want
    # single-coordinate step recursion:
    # B_{s,u} = q^u B_{s-1,u} + (q^m - q^{u-1}) B_{s-1,u-1}
    prev = list(base.coeffs) + [0] * s
    for step in range(1, s + 1):
        cur = [prev[u] * q ** u
               + (prev[u - 1] * (q ** m - q ** (u - 1)) if u else 0)
               for u in range(len(prev))]
        prev = cur
        assert (tuple(prev[:base.n + step + 1])
                == w.cartesian_extend(base, step).coeffs)


def test_cartesian_extend_against_brute():
    # C x GF(q^m)^s built explicitly as a code, enumerated directly
    for q, m, G, s in ((2, 2, [[1, 2]], 1), (2, 2, [[1, 2]], 2),
                       (3, 2, [[1, 3]], 1)):
        F = make_field(q, m)
        base = cd.make_code(F, G)
        n = base.n
        rows = [list(g) + [0] * s for g in base.G]
        rows += [[0] * (n + i) + [1] + [0] * (s - 1 - i) for i in range(s)]
        prod = cd.make_code(F, rows)
        assert (w.cartesian_extend(enum_of(base), s).coeffs
                == tuple(cd.rank_distribution(prod)))


# ---------------------------------------------------------------------------
# moment identities
# ---------------------------------------------------------------------------

def test_moments_worked_example():
    A = B = (1, 0, 3)
    l1, r1, l2, r2 = w.moments(A, B, 2, 2, 2, 1, 1)
    assert (l1, r1) == (3, 3) and (l2, r2) == (9, 9)
    l1, r1, l2, r2 = w.moments(A, B, 2, 2, 2, 1, 0)
    assert l1 == r1 == l2 == r2 == sum(A) == 4


def test_moments_validation():
    with pytest.raises(ValueError):
        w.moments((1, 0, 3), (1, 0, 3), 2, 2, 2, 1, 3)
    with pytest.raises(ValueError):
        w.moments((1, 0, 2), (1, 0, 3), 2, 2, 2, 1, 1)


def test_moments_hold_for_macwilliams_pairs():
    cases = []
    cases += random_linear_codes(make_field(2, 3), 3, 1, 3, seed=30)
    cases += random_linear_codes(make_field(2, 3), 4, 2, 3, seed=31)
    cases += random_linear_codes(make_field(3, 2), 3, 2, 3, seed=32)
    for code in cases:
        F, n, k = code.field, code.n, code.k
        A = cd.rank_distribution(code)
        B = cd.rank_distribution(cd.dual(code))
        for nu in range(n + 1):
            l1, r1, l2, r2 = w.moments(A, B, F.q, F.m, n, k, nu)
            assert l1 == r1 and l2 == r2, (F.q, F.m, n, k, nu)


def test_moments_below_dual_distance():
    # for nu < d'_R the dual terms collapse: first identity's right side is
    # q^{m(k-nu)} [n nu] and the second's is q^{m(k-nu)} [n nu] alpha(m,nu)
    F = make_field(2, 3)
    g = F.polynomial_basis()
    for k in (1, 2):
        code = cd.gabidulin(F, g, k)
        dualc = cd.dual(code)
        dprime = cd.min_rank_distance(dualc)
        A = cd.rank_distribution(code)
        B = cd.rank_distribution(dualc)
        assert dprime is not None and dprime >= 2
        for nu in range(dprime):
            l1, r1, l2, r2 = w.moments(A, B, 2, 3, 3, k, nu)
            base = w.q_int_pow(2, 3 * (k - nu)) * gaussian(3, nu, 2)
            assert l1 == r1 == base
            assert l2 == r2 == base * alpha(3, nu, 2)
