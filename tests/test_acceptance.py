"""Acceptance suite: end-to-end checks of every headline claim.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts; timed criteria enforce their runtime caps.  The two published
covering-table cells whose printed values disagree with their own defining
formulas are treated as documented errata: the exact recomputed values are
asserted and the deviations are logged in the criterion output.
"""
import functools
import itertools
import math
import time
from fractions import Fraction

import mpmath

from rankmetric import bounds as bd
from rankmetric import codes as cd
from rankmetric import oracle as oc
from rankmetric import rankgeom as rg
from rankmetric import wenum as we
from rankmetric.ffield import make_field

from test_bounds import ERRATA, PAPER_TABLE, PAPER_TABLE_2, TIE_CELLS, \
    parse_cell


def report(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1-2: published tables
# ---------------------------------------------------------------------------

def test_criterion_01_covering_table():
    t0 = time.monotonic()
    table = bd.covering_table(2, range(2, 8), range(2, 8), range(1, 7))
    logged = []
    problems = []
    for cell, text in PAPER_TABLE.items():
        ltag, lo, hi, utag = parse_cell(text)
        rep = table[cell]
        if cell in ERRATA:
            side, printed, exact = ERRATA[cell]
            assert side == "lower"
            if rep.best_lower == exact:
                logged.append(f"{cell}: published erratum, printed {printed}"
                              f" but formulas give {exact}")
            else:
                problems.append((cell, "erratum value", rep.best_lower))
            lo = exact
        elif rep.best_lower != lo:
            problems.append((cell, f"lower {lo}", rep.best_lower))
        if utag in ("D", "E"):
            if abs(rep.best_upper - hi) > 1:
                problems.append((cell, f"upper {hi}", rep.best_upper))
            elif rep.best_upper != hi:
                logged.append(f"{cell}: rounding deviation {rep.best_upper}"
                              f" vs printed {hi}")
        elif rep.best_upper != hi:
            problems.append((cell, f"upper {hi}", rep.best_upper))
        if rep.best_lower_tag != ltag and not (
                TIE_CELLS.get(cell) == "lower"
                and rep.lower.get(ltag) == rep.best_lower):
            problems.append((cell, f"lower tag {ltag}", rep.best_lower_tag))
        if rep.best_upper_tag != utag and utag not in ("D", "E") and not (
                TIE_CELLS.get(cell) == "upper"
                and rep.upper.get(utag) == rep.best_upper):
            problems.append((cell, f"upper tag {utag}", rep.best_upper_tag))
    anchors = {(2, 2, 1): "3-4", (3, 3, 1): "11-32",
               (4, 4, 2): "10-64", (7, 7, 6): "2-16"}
    for cell, want in anchors.items():
        lo, hi = table[cell].interval()
        if f"{lo}-{hi}" != want:
            problems.append((cell, f"anchor {want}", (lo, hi)))
    dt = time.monotonic() - t0
    for line in logged:
        print(f"  logged deviation: {line}")
    report(1, not problems and dt < 120,
           f"{len(PAPER_TABLE)} cells vs published table, "
           f"{len(logged)} logged deviations (2 documented errata), "
           f"4 anchors, {dt:.1f}s" if not problems else str(problems[:4]))


def test_criterion_02_dimension_table():
    t0 = time.monotonic()
    table = bd.dimension_table(2, range(4, 9), range(4, 9), range(2, 7))
    bad = []
    cells = 0
    for (m, n), row in PAPER_TABLE_2.items():
        for idx, want in enumerate(row):
            rho = idx + 2
            lo, hi = table[(m, n, rho)]
            got = str(lo) if lo == hi else f"{lo}-{hi}"
            cells += 1
            if got != want:
                bad.append((m, n, rho, want, got))
    dt = time.monotonic() - t0
    ok = not bad and table[(6, 6, 2)] == (3, 4) and \
        table[(8, 8, 5)] == (1, 3) and dt < 1.0
    report(2, ok, f"{cells} cells match exactly, {dt:.3f}s"
           if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# 3, 5: MacWilliams oracle corpus and moment identities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _corpus():
    """>= 200 random linear codes over the criterion domain (q in {2,3},
    m, n <= 4, 0 <= k <= n), size-guarded so that both the code and its
    dual stay brute-force enumerable within the runtime cap."""
    shapes = []
    for q, cap in ((2, 1 << 16), (3, 3 ** 9)):
        for m in range(1, 5):
            for n in range(1, 5):
                for k in range(n + 1):
                    if q ** (m * max(k, n - k)) <= cap:
                        shapes.append((q, m, n, k))
    out = []
    for rep in range(2):
        for i, (q, m, n, k) in enumerate(shapes):
            code = oc.random_linear_code(q, m, n, k, seed=1000 * rep + i)
            A = tuple(cd.rank_distribution(code))
            B = tuple(cd.rank_distribution(cd.dual(code)))
            out.append((q, m, n, k, A, B))
    return out


def test_criterion_03_macwilliams_oracle():
    t0 = time.monotonic()
    corpus = _corpus()
    bad = []
    for q, m, n, k, A, B in corpus:
        enA = we.make_enumerator(q, m, n, A)
        if tuple(we.macwilliams(enA).coeffs) != B:
            bad.append(("transform", q, m, n, k))
        if tuple(we.macwilliams(enA, method="qproduct").coeffs) != B:
            bad.append(("qproduct", q, m, n, k))
        if we.macwilliams(we.macwilliams(enA)).coeffs != enA.coeffs:
            bad.append(("involution", q, m, n, k))
    dt = time.monotonic() - t0
    ok = not bad and len(corpus) >= 200 and dt < 60
    report(3, ok, f"{len(corpus)} random codes: transform == brute dual, "
           f"q-product path agrees, double transform is identity, {dt:.1f}s"
           if not bad else str(bad[:4]))


def test_criterion_05_moment_identities():
    corpus = _corpus()
    bad = []
    for q, m, n, k, A, B in corpus:
        dual_dist = min((j for j in range(1, n + 1) if B[j]), default=n + 1)
        for nu in range(n + 1):
            l1, r1, l2, r2 = we.moments(A, B, q, m, n, k, nu)
            if l1 != r1 or l2 != r2:
                bad.append(("identity", q, m, n, k, nu))
                continue
            if nu < dual_dist:
                base = q ** (m * (k - nu)) * rg.gaussian(n, nu, q)
                if l1 != base or l2 != base * rg.alpha(m, nu, q):
                    bad.append(("corollary", q, m, n, k, nu))
    report(5, not bad, f"{len(corpus)} codes x all orders: both identities "
           "exact; simplified forms below the dual distance"
           if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# 4: Krawtchouk closed form vs recurrence
# ---------------------------------------------------------------------------

def _kraw_recurrence(j, i, m, n, q, memo):
    key = (q, j, i, m, n)
    if key not in memo:
        if j == 0:
            out = Fraction(1)
        elif i == 0:
            out = Fraction(rg.gaussian(n, j, q)) * we.alpha(m, j, q)
        else:
            out = (q ** j * _kraw_recurrence(j, i - 1, m - 1, n - 1, q, memo)
                   - q ** (j - 1)
                   * _kraw_recurrence(j - 1, i - 1, m - 1, n - 1, q, memo))
        memo[key] = out
    return memo[key]


def test_criterion_04_krawtchouk_dual_formulation():
    memo = {}
    checked = 0
    bad = []
    for q in (2, 3):
        for n in range(6):
            for m in range(7):
                for i in range(n + 1):
                    for j in range(n + 1):
                        closed = Fraction(we.krawtchouk(j, i, m, n, q))
                        if closed != _kraw_recurrence(j, i, m, n, q, memo):
                            bad.append((q, m, n, i, j))
                        checked += 1
    report(4, not bad, f"{checked} grid points: closed form == recurrence, "
           "exact" if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# 6-7: geometry
# ---------------------------------------------------------------------------

def test_criterion_06_intersection_closed_forms():
    bad = []
    checked = 0
    for m in range(1, 4):
        F = make_field(2, m)
        for n in range(1, 4):
            top = min(m, n)
            for r in range(1, top + 1):
                for dist in range(top + 1):
                    for r1, r2 in itertools.chain(
                            [(r, 1)], [(s, r - s) for s in range(r + 1)]):
                        if max(r1, r2) > top:
                            continue
                        try:
                            closed = rg.intersection_volume_closed(
                                2, m, n, r1, r2, dist)
                        except rg.NoClosedFormError:
                            continue
                        brute = rg.intersection_volume_at_distance(
                            F, n, r1, r2, dist)
                        checked += 1
                        if closed != brute:
                            bad.append((m, n, r1, r2, dist))
    # worked three-ball examples over GF(4)^3, radius-1 balls
    F4 = make_field(2, 2)
    one = rg.intersection_vectors(
        F4, [((0, 0, 0), 1), ((1, 2, 0), 1), ((2, 0, 1), 1)])
    three = rg.intersection_vectors(
        F4, [((0, 0, 0), 1), ((1, 2, 0), 1), ((2, 3, 0), 1)])
    examples_ok = (set(one) == {(3, 0, 0)}
                   and set(three) == {(0, 3, 0), (1, 0, 0), (2, 2, 0)})
    report(6, not bad and examples_ok,
           f"{checked} closed-form intersections == brute counts; "
           "three-ball examples reproduce verbatim"
           if not bad else str(bad[:4]))


def test_criterion_07_ball_volume_bounds():
    bad = []
    checked = 0
    for q in (2, 3):
        for m in range(1, 7):
            for n in range(1, 7):
                for r in range(min(m, n) + 1):
                    lo, hi = rg.ball_volume_bounds(q, m, n, r)
                    _, v = rg.ball_counts(q, m, n, r)
                    checked += 1
                    if not (lo <= v < hi):
                        bad.append((q, m, n, r))
    report(7, not bad, f"{checked} cells: q^(r(m+n-r)) <= V_r < "
           "q^(r(m+n-r)+sigma), exact" if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# 8-9: MRD constructions and covering radii
# ---------------------------------------------------------------------------

def test_criterion_08_gabidulin_mrd():
    bad = []
    checked = 0
    for m in range(1, 5):
        F = make_field(2, m)
        for n in range(1, m + 1):
            g = tuple(2 ** i for i in range(n))
            for k in range(1, n + 1):
                for a in range(1, m + 1):
                    if math.gcd(a, m) != 1:
                        continue
                    code = cd.gabidulin(F, g, k, a)
                    checked += 1
                    if cd.min_rank_distance(code) != n - k + 1:
                        bad.append(("distance", m, n, k, a))
                    if not cd.mrd_els_check(code):
                        bad.append(("els", m, n, k, a))
    report(8, not bad, f"{checked} generalized Gabidulin codes: brute "
           "d_R == n-k+1 and the subspace covering check holds"
           if not bad else str(bad[:4]))


def test_criterion_09_mrd_covering_radii():
    bad = []
    checked = 0
    for m in (2, 3):
        F = make_field(2, m)
        n = m
        g = tuple(2 ** i for i in range(n))
        for k in range(1, n + 1):
            code = cd.gabidulin(F, g, k)
            l = 1
            while 2 ** (m * n * l) <= 2 ** 20:
                prod = cd.cartesian_power(code, l)
                checked += 1
                if cd.covering_radius(prod) != n - k:
                    bad.append((m, k, l))
                l += 1
    # an (n, n - rho) MRD code keeps covering radius rho after embedding
    # into the rho-step larger field: mu = 2, rho = 1, n = 2
    C = cd.gabidulin(make_field(2, 2), (1, 2), 1)
    embedded = cd.embed_code(C, 3)
    embed_ok = cd.covering_radius(embedded) == 1
    report(9, not bad and embed_ok,
           f"{checked} cartesian powers: rho(G^l) == d_R - 1; embedded MRD "
           "code keeps covering radius 1" if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# 10-11: search oracles vs closed forms
# ---------------------------------------------------------------------------

def test_criterion_10_packing_optimality():
    bad = [d for d in range(1, 6)
           if oc.max_code_search(2, 2, 2, d)
           != bd.singleton_max_cardinality(2, 2, 2, d)]
    report(10, not bad, "max-clique search == Singleton maximum for all d"
           if not bad else str(bad))


def test_criterion_11_exhaustive_covering():
    t0 = time.monotonic()
    rep = bd.covering_report(2, 2, 2, 1)
    assert rep.interval() == (3, 4)
    exists3 = oc.exhaustive_min_covering(2, 2, 2, 1, 3)
    exists2 = oc.exhaustive_min_covering(2, 2, 2, 1, 2)
    settled = 3 if exists3.exists and not exists2.exists else None
    consistent = settled is not None and \
        all(v <= settled for v in rep.lower.values() if v is not None) and \
        all(settled <= v for v in rep.upper.values() if v is not None) and \
        oc.is_covering(2, 2, 2, exists3.witness, 1)
    dt = time.monotonic() - t0
    report(11, settled == 3 and consistent and dt < 60,
           f"K_R(2^2, 2, 1) = 3, inside [3, 4] and consistent with every "
           f"bound, {dt:.2f}s")


# ---------------------------------------------------------------------------
# 12-13: subspace combinatorics and the Delsarte bridge
# ---------------------------------------------------------------------------

def _els_of(q, n, v):
    """The ELS's of dimension v, built from the bases subspaces streams."""
    return [rg.Els(q, n, tuple(map(tuple, b)))
            for bases in rg.subspaces(q, n, v) for b in bases.tolist()]


def test_criterion_12_els_combinatorics():
    bad = []
    for n in range(1, 5):
        for v in range(n + 1):
            spaces = _els_of(2, n, v)
            if len(spaces) != rg.gaussian(n, v, 2):
                bad.append(("count", n, v))
            for V in spaces:
                for a in range(v + 1):
                    subs = [A for A in _els_of(2, n, a)
                            if V.contains_els(A)]
                    if len(subs) != rg.gaussian(v, a, 2):
                        bad.append(("subcount", n, v, a))
                    for A in subs:
                        if len(rg.complements(A, V)) != 2 ** (a * (v - a)):
                            bad.append(("complements", n, v, a))
    report(12, not bad, "subspace counts [n v] and complement counts "
           "q^(a(v-a)) exhaustively exact for n <= 4"
           if not bad else str(bad[:4]))


def _matrix_inner(A, B, q):
    return sum(x * y for ra, rb in zip(A, B) for x, y in zip(ra, rb)) % q


def test_criterion_13_delsarte_bridge():
    import random
    rng = random.Random(13)
    bad = []
    count = 0
    shapes = [(m, n, k) for m in (1, 2, 3) for n in (1, 2, 3)
              for k in range(n + 1)]
    while count < 50:
        m, n, k = shapes[count % len(shapes)]
        F = make_field(2, m)
        code = oc.random_linear_code(2, m, n, k, seed=500 + count)
        while True:  # a random basis E, then its trace-dual P
            E = tuple(rng.randrange(1, F.order) for _ in range(m))
            if F.is_basis(E):
                break
        P = F.dual_basis(E)
        dual_mats = set(cd.array_view(cd.dual(code), basis=E))
        span = [tuple(F.expand([F.mul(F.polynomial_basis()[t], x)
                                for x in row], basis=P))
                for row in code.G for t in range(m)]
        ambient = [tuple(tuple(rows[i * n:(i + 1) * n]) for i in range(m))
                   for rows in itertools.product(range(2), repeat=m * n)]
        array_dual = {M for M in ambient
                      if all(_matrix_inner(M, S, 2) == 0 for S in span)}
        count += 1
        if dual_mats != array_dual:
            bad.append((m, n, k, count))
    report(13, not bad, f"{count} random codes with computed dual bases: "
           "expansion of the dual == trace-dual of the expansion, as sets"
           if not bad else str(bad[:4]))


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_convergence():
    # delta values with delta * n integral at n in {6, 12, 18}, so the
    # floor in V_{floor(delta n)} is exact and the finite-size error is
    # the pure o(1) term; it must decrease along the sequence
    bad = []
    for delta in (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                  Fraction(2, 3), Fraction(5, 6)):
        errs = []
        for n in (6, 12, 18):
            _, v = rg.ball_counts(2, n, n, int(delta * n))
            rate = mpmath.log(v) / (n * n * mpmath.log(2))
            errs.append(abs(float(rate) - bd.volume_rate(float(delta), 1)))
        if not errs[0] > errs[1] > errs[2]:
            bad.append((delta, errs))
    report("A", not bad, "volume rate converges monotonically to "
           "v(delta) = delta(1 + b - b delta) at five exact grid points"
           if not bad else str(bad))
