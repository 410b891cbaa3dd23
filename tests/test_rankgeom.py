"""Tests for rank-metric geometry: combinatorics, balls, ELS, intersections.

Closed-form counts are checked against independent brute-force enumeration
oracles wherever the ambient space is desk-scale.
"""
import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankmetric import _batch, _linalg
from rankmetric import rankgeom as rg
from rankmetric.ffield import make_field


# ---------------------------------------------------------------------------
# combinatorial kernels
# ---------------------------------------------------------------------------

def brute_subspace_count(n, k, q):
    """Count k-dim subspaces of GF(q)^n by enumerating echelon bases."""
    return sum(len(bases) for bases in rg.subspaces(q, n, k))


def test_gaussian_small_values():
    assert rg.gaussian(4, 2, 2) == 35
    assert rg.gaussian(4, 2, 2) == brute_subspace_count(4, 2, 2)
    assert rg.gaussian(3, 1, 2) == 7
    assert rg.gaussian(3, 2, 2) == 7
    assert rg.gaussian(3, 1, 3) == brute_subspace_count(3, 1, 3) == 13
    for n in range(5):
        assert rg.gaussian(n, 0, 2) == 1
        assert rg.gaussian(n, n, 3) == 1
    assert rg.gaussian(4, 5, 2) == 0
    assert rg.gaussian(4, -1, 2) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_gaussian_identities(q):
    g = lambda n, k: rg.gaussian(n, k, q)
    for n in range(1, 9):
        for k in range(n + 1):
            # symmetry
            assert g(n, k) == g(n, n - k)
            # the two Pascal recurrences
            assert g(n, k) == q ** k * g(n - 1, k) + g(n - 1, k - 1)
            assert g(n, k) == g(n - 1, k) + q ** (n - k) * g(n - 1, k - 1)
            # ratio forms (exact division)
            if k >= 1:
                assert g(n, k) * (q ** k - 1) == g(n - 1, k - 1) * (q ** n - 1)
            if n - k >= 1:
                assert g(n, k) * (q ** (n - k) - 1) == g(n - 1, k) * (q ** n - 1)
            # transitivity
            for l in range(k + 1):
                assert g(n, k) * rg.gaussian(k, l, q) == \
                    g(n, l) * rg.gaussian(n - l, n - k, q)


@pytest.mark.parametrize("q", [2, 3])
def test_alpha_beta_identities(q):
    # alpha(m,u) counts ordered u-tuples of independent vectors in GF(q)^m
    for m in range(4):
        for u in range(m + 1):
            vecs = list(itertools.product(range(q), repeat=m))
            count = sum(
                1 for tup in itertools.permutations(vecs, u)
                if _linalg.rank_field(make_field(q, 1), [list(v) for v in tup]) == u
            ) if q ** m <= 16 and u <= 2 else None
            if count is not None:
                assert rg.alpha(m, u, q) == count
    for m in range(7):
        for u in range(7):
            assert rg.beta(m, u, q) == rg.gaussian(m, u, q) * rg.beta(u, u, q)
    for m in range(4):
        for u in range(4):
            assert rg.beta(m + u, m + u, q) == \
                rg.gaussian(m + u, u, q) * rg.beta(m, m, q) * rg.beta(u, u, q)


def test_sigma_kernels():
    assert [rg.sigma(i) for i in range(5)] == [0, 0, 1, 3, 6]
    s2 = rg.sigma_q(2)
    assert abs(s2 - 1.7923) < 1e-3
    # independent partial-sum oracle with explicit tail bound
    import math
    partial = sum(1 / (k * (2 ** k - 1)) for k in range(1, 60)) / math.log(2)
    assert abs(s2 - partial) < 1e-12
    qs = [rg.sigma_q(q) for q in (2, 3, 5)]
    assert all(s < 2 for s in qs)
    assert qs[0] > qs[1] > qs[2]
    assert abs(rg.tau_q(2) - math.log(4 / 3, 2)) < 1e-12


# ---------------------------------------------------------------------------
# ball counts and volume bounds
# ---------------------------------------------------------------------------

def brute_ball_counts(q, m, n, r):
    field = make_field(q, m)
    ranks = [rg.rank(field, v) for v in itertools.product(range(q ** m), repeat=n)]
    return sum(1 for x in ranks if x == r), sum(1 for x in ranks if x <= r)


def test_ball_counts_against_enumeration():
    assert rg.ball_counts(2, 2, 2, 1) == (9, 10) == brute_ball_counts(2, 2, 2, 1)
    for q, m, n in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)]:
        for r in range(min(m, n) + 1):
            assert rg.ball_counts(q, m, n, r) == brute_ball_counts(q, m, n, r)


def test_ball_counts_properties():
    assert rg.ball_counts(5, 3, 2, 0) == (1, 1)
    assert rg.ball_counts(2, 2, 2, 2)[1] == 16
    for q, m, n in [(2, 4, 3), (3, 3, 3), (5, 2, 2)]:
        vols = [rg.ball_counts(q, m, n, r)[1] for r in range(min(m, n) + 1)]
        assert vols == sorted(vols)
        assert vols[-1] == q ** (m * n)
    with pytest.raises(ValueError):
        rg.ball_counts(2, 2, 2, 3)
    with pytest.raises(ValueError):
        rg.ball_counts(2, 2, 2, -1)


def test_ball_volume_bounds():
    lo, hi = rg.ball_volume_bounds(2, 2, 2, 1)
    assert lo == 8 and 8 <= 10 < hi and abs(float(hi) - 27.7) < 0.1
    lo, _ = rg.ball_volume_bounds(2, 3, 3, 1)
    assert lo == 32 <= 50
    lo, hi = rg.ball_volume_bounds(3, 4, 2, 0)
    assert lo == 1 and hi > 1
    for q in (2, 3):
        for m in range(1, 5):
            for n in range(1, 5):
                for r in range(min(m, n) + 1):
                    lo, hi = rg.ball_volume_bounds(q, m, n, r)
                    v = rg.ball_counts(q, m, n, r)[1]
                    assert lo <= v < hi


# ---------------------------------------------------------------------------
# rank weight / distance
# ---------------------------------------------------------------------------

def test_rank_examples_gf4():
    F = make_field(2, 2)  # alpha = 2, alpha + 1 = 3
    assert rg.rank(F, (0, 0, 0)) == 0
    assert rg.rank(F, (1, 2, 3)) == 2
    assert rg.rank(F, (1, 1, 1)) == 1
    assert rg.rank_distance(F, (1, 2, 3), (1, 2, 3)) == 0
    assert rg.rank_distance(F, (1, 0, 0), (0, 0, 0)) == 1


@pytest.mark.parametrize("q,m,vec,bad", [
    (2, 3, (99,), 99), (3, 2, (-1, 5), -1), (2, 2, (4, 0), 4),
], ids=["above", "negative", "order"])
def test_rank_rejects_encodings_outside_the_field(q, m, vec, bad):
    F = make_field(q, m)
    with pytest.raises(ValueError, match=f"^encoding {bad} outside field$"):
        rg.rank(F, vec)
    with pytest.raises(ValueError, match=f"^encoding {bad} outside field$"):
        rg.rank_distance(F, (0,) * len(vec), vec)


def test_rank_distance_negative_encoding_terminates():
    # Field.sub loops forever on a negative operand (-1 // 3 == -1), and
    # rank_distance once passed it on, so this runs in a subprocess under a
    # timeout
    code = ("from rankmetric import rankgeom as rg\n"
            "from rankmetric.ffield import make_field\n"
            "try:\n"
            "    rg.rank_distance(make_field(3, 2), (-1,), (0,))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = Path(rg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout == "encoding -1 outside field\n"


def test_rank_distance_rejects_vectors_of_different_lengths():
    F = make_field(2, 3)
    for u, v in (((1, 2), (1,)), ((), (0,)), ((1,), (1, 0))):
        with pytest.raises(ValueError, match="vectors of different lengths"):
            rg.rank_distance(F, u, v)
    # a short center once counted as a ball of a shorter space (22 vectors)
    with pytest.raises(ValueError, match="vectors of different lengths"):
        rg.intersection_volume_brute(F, [((0, 0), 1), ((1,), 1)])


def packed_ranks(m, n):
    """Rank of every GF(2^m)^n vector, indexed by the packed bit encoding."""
    F = make_field(2, m)
    xs = _batch.unpack(F.order, np.arange(F.order ** n), n)
    return F, _batch.rank_words(F, xs)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_rank_invariant_under_gl_action(m, n):
    """Exhaustive: rank(x) == rank(x @ M) for every invertible M over GF(2)."""
    F, table = packed_ranks(m, n)
    xs = np.arange(1 << (m * n), dtype=np.int64)
    coord = [(xs >> (j * m)) & ((1 << m) - 1) for j in range(n)]
    for M in itertools.product(range(2), repeat=n * n):
        rows = [M[i * n:(i + 1) * n] for i in range(n)]
        if _linalg.rank_field(make_field(2, 1), [list(r) for r in rows]) < n:
            continue
        ys = np.zeros_like(xs)
        for j in range(n):
            col = np.zeros_like(xs)
            for i in range(n):
                if rows[i][j]:
                    col ^= coord[i]
            ys |= col << (j * m)
        assert np.array_equal(table[ys], table[xs])


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_rank_invariant_under_expansion_basis(m, n):
    """Rank of the expansion does not depend on the GF(q)-basis used."""
    F = make_field(2, m)
    bases = [F.polynomial_basis()[::-1], F.dual_basis(F.polynomial_basis())]
    for vec in itertools.product(range(F.order), repeat=n):
        r0 = rg.rank(F, vec)
        for b in bases:
            mat = [list(row) for row in F.expand(vec, basis=b)]
            assert _linalg.rank_field(make_field(2, 1), mat) == r0


# ---------------------------------------------------------------------------
# elementary linear subspaces
# ---------------------------------------------------------------------------

def test_enumerate_els_counts():
    for q in (2, 3):
        for n in range(5):
            for v in range(n + 1):
                els = rg.enumerate_els(q, n, v)
                assert len(els) == rg.gaussian(n, v, q)
                assert len({e.basis for e in els}) == len(els)
    assert len(rg.enumerate_els(2, 3, 1)) == 7
    assert len(rg.enumerate_els(2, 3, 2)) == 7
    assert rg.enumerate_els(2, 4, 0) == [rg.make_els(2, 4, [])]
    with pytest.raises(ValueError):
        rg.enumerate_els(2, 3, 4)


def test_enumerate_els_guard(monkeypatch):
    # the guard is lowered so that a missing check fails fast instead of
    # enumerating 2^24 subspaces
    monkeypatch.setattr(rg, "BRUTE_GUARD", 35)
    assert len(rg.enumerate_els(2, 4, 2)) == 35
    monkeypatch.setattr(rg, "BRUTE_GUARD", 34)
    with pytest.raises(ValueError, match="^ELS count 35 exceeds guard$"):
        rg.enumerate_els(2, 4, 2)
    assert len(rg.enumerate_els(2, 4, 1)) == 15


def test_els_membership_and_elements():
    F = make_field(2, 2)
    e = rg.make_els(2, 3, [(1, 0, 1), (0, 1, 1)])
    assert e.dim == 2
    members = set(e.elements(F))
    assert len(members) == F.order ** 2
    for vec in itertools.product(range(4), repeat=3):
        assert e.contains(F, vec) == (vec in members)
    sub = rg.make_els(2, 3, [(1, 1, 0)])
    assert e.contains_els(sub)
    assert not e.contains_els(rg.make_els(2, 3, [(1, 0, 0)]))


@pytest.mark.parametrize("rows", [[[1, 0, 1]], [[1]], [[1, 0], [0, 1, 1]]])
def test_make_els_rejects_rows_not_of_length_n(rows):
    with pytest.raises(ValueError, match="ELS rows must have length n = 2"):
        rg.make_els(2, 2, rows)


def test_support_els():
    F = make_field(2, 2)
    assert rg.support_els(F, (0, 0, 0)).dim == 0
    s = rg.support_els(F, (1, 2, 3))
    assert s.basis == ((1, 0, 1), (0, 1, 1))
    assert s.contains(F, (1, 2, 3))
    # uniqueness: no other dim-2 ELS contains the vector
    hits = [e for e in rg.enumerate_els(2, 3, 2) if e.contains(F, (1, 2, 3))]
    assert hits == [s]


def test_project_and_support_refuse_bad_vectors():
    # project once solved for a short u as if n were shorter and raised
    # IndexError for an encoding past the field; support_els read 99 as 3
    # in GF(2^2)
    F = make_field(2, 3)
    A = rg.make_els(2, 3, [[1, 0, 0]])
    B = rg.make_els(2, 3, [[0, 1, 0], [0, 0, 1]])
    assert rg.project(F, (1, 2, 7), A, B) == ((1, 0, 0), (0, 2, 7))
    for u in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match=f"^u has length {len(u)}, "
                                             "not n = 3$"):
            rg.project(F, u, A, B)
    for u, bad in [((1, 2, 99), 99), ((1, -1, 0), -1), ((8, 0, 0), 8)]:
        with pytest.raises(ValueError, match=f"^encoding {bad} outside field$"):
            rg.project(F, u, A, B)
    with pytest.raises(ValueError, match="^encoding 99 outside field$"):
        rg.support_els(make_field(2, 2), (99,))
    with pytest.raises(ValueError, match="^encoding 4 outside field$"):
        rg.Els(2, 2, ((1, 0),)).contains(make_field(2, 2), (1, 4))


def test_guard_reads_the_cap_at_the_call(monkeypatch):
    assert rg.guard(rg.BRUTE_GUARD, "ambient size") == rg.BRUTE_GUARD
    monkeypatch.setattr(rg, "BRUTE_GUARD", 3)
    assert rg.guard(3, "things") == 3
    with pytest.raises(rg.GuardExceeded, match="^things 4 exceeds guard$"):
        rg.guard(4, "things")


def _guard_uses(path):
    """(module, function) of every read of BRUTE_GUARD and every
    GuardExceeded raised or built in the module at path; <module> for
    module-level code, the innermost def otherwise."""
    uses = set()

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and name(node) == "BRUTE_GUARD"):
            uses.add((path.stem, where))
        if isinstance(node, ast.Call) and name(node.func) == "GuardExceeded":
            uses.add((path.stem, where))
        if isinstance(node, ast.Raise) and node.exc is not None \
                and name(node.exc) == "GuardExceeded":
            uses.add((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_only_guard_reads_the_guard():
    # one size check: every scan calls rankgeom.guard, and no other code
    # in the package reads BRUTE_GUARD or raises GuardExceeded
    package = Path(rg.__file__).resolve().parent
    uses = set().union(*map(_guard_uses, sorted(package.glob("*.py"))))
    assert uses == {("rankgeom", "guard")}


def test_complements_counts():
    v2 = rg.make_els(2, 2, [(1, 0), (0, 1)])
    a0 = rg.make_els(2, 2, [])
    assert rg.complements(a0, v2) == [v2]
    for rows in ([], [(1, 1, 0)], [(1, 0, 1), (0, 1, 1)]):  # A = 0 inside V
        v = rg.make_els(2, 3, rows)
        assert rg.complements(rg.make_els(2, 3, []), v) == [v]
    total_pairs = 0
    for a in rg.enumerate_els(2, 2, 1):
        cs = rg.complements(a, v2)
        assert len(cs) == 2  # q^{a(v-a)} = 2
        for b in cs:
            assert rg.gaussian(2, 1, 2) == 3  # sanity on ambient
            assert _linalg.rank_field(
                make_field(2, 1), [list(r) for r in a.basis + b.basis]) == 2
        total_pairs += len(cs)
    assert total_pairs == 2 * rg.gaussian(2, 1, 2)  # q^{a(v-a)} [v a] = 6

    v3 = rg.make_els(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    a1 = rg.make_els(2, 3, [(1, 1, 0)])
    assert len(rg.complements(a1, v3)) == 4  # q^{1*2}
    with pytest.raises(ValueError):
        rg.complements(rg.make_els(2, 2, [(1, 1)]),
                       rg.make_els(2, 2, [(1, 0)]))


def test_complements_guard(monkeypatch):
    # a line A in a 4-dim V: the complements are found among the
    # [4 3]_2 = 15 subspaces of V of dimension 3, which the guard counts
    v4 = rg.make_els(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (0, 0, 0, 1)])
    a1 = rg.make_els(2, 4, [(1, 1, 0, 0)])
    monkeypatch.setattr(rg, "BRUTE_GUARD", 15)
    assert len(rg.complements(a1, v4)) == 8  # q^{1*3}
    monkeypatch.setattr(rg, "BRUTE_GUARD", 14)
    with pytest.raises(ValueError, match="^ELS count 15 exceeds guard$"):
        rg.complements(a1, v4)


def test_project_basics():
    F = make_field(2, 2)
    A = rg.make_els(2, 3, [(1, 0, 0), (0, 1, 0)])
    B = rg.make_els(2, 3, [(0, 0, 1)])
    u = (1, 2, 0)  # u in A
    assert rg.project(F, u, A, B) == ((1, 2, 0), (0, 0, 0))
    ua, ub = rg.project(F, (1, 2, 3), A, B)
    assert ua == (1, 2, 0) and ub == (0, 0, 3)
    with pytest.raises(ValueError):
        rg.project(F, (1, 0), rg.make_els(2, 2, [(1, 0)]),
                   rg.make_els(2, 2, [(1, 0)]))
    with pytest.raises(ValueError):
        # A + B = {x : x_2 = 0} does not contain (0,0,1)
        rg.project(F, (0, 0, 1), rg.make_els(2, 3, [(1, 0, 0)]),
                   rg.make_els(2, 3, [(0, 1, 0)]))


def test_project_rank_splitting_and_injectivity():
    """For full-rank u and V = A + B, rank(u_A) = dim A, rank(u_B) = dim B,
    and for fixed A the complement determines both projections injectively.
    Exhaustive at q = 2, m = n = 2, dims (1, 1)."""
    F = make_field(2, 2)
    V = rg.make_els(2, 2, [(1, 0), (0, 1)])
    full = [v for v in itertools.product(range(4), repeat=2)
            if rg.rank(F, v) == 2]
    assert len(full) == rg.sphere_count(2, 2, 2, 2)
    for u in full:
        for A in rg.enumerate_els(2, 2, 1):
            seen_a, seen_b = set(), set()
            for B in rg.complements(A, V):
                ua, ub = rg.project(F, u, A, B)
                assert tuple(F.add(x, y) for x, y in zip(ua, ub)) == u
                assert rg.rank(F, ua) == 1 and rg.rank(F, ub) == 1
                assert A.contains(F, ua) and B.contains(F, ub)
                seen_a.add(ua)
                seen_b.add(ub)
            assert len(seen_a) == len(seen_b) == 2  # injective in B


# ---------------------------------------------------------------------------
# ball intersections
# ---------------------------------------------------------------------------

def test_intersection_closed_examples():
    # touching balls: radii (1,1), distance 2
    assert rg.intersection_volume_closed(2, 2, 2, 1, 1, 2) == 6
    # degenerate touching: radius-0 ball at the rim
    assert rg.intersection_volume_closed(2, 3, 3, 0, 2, 2) == 1
    # unit ball centered at distance r from a radius-r ball
    assert rg.intersection_volume_closed(2, 2, 2, 1, 1, 1) == 6
    assert rg.intersection_volume_closed(2, 3, 3, 2, 1, 2) == \
        1 + (8 - 4) * rg.gaussian(2, 1, 2) + 3 * rg.gaussian(3, 1, 2)
    # symmetric argument order
    assert rg.intersection_volume_closed(2, 3, 3, 1, 2, 2) == \
        rg.intersection_volume_closed(2, 3, 3, 2, 1, 2)
    with pytest.raises(rg.NoClosedFormError):
        rg.intersection_volume_closed(2, 3, 3, 2, 2, 1)
    with pytest.raises(ValueError):
        rg.intersection_volume_closed(2, 2, 2, 3, 1, 1)


def distance_volume_scan(m, n):
    """Brute volumes |B_r1(0) ∩ B_r2(c)| for all c, grouped by rank(c).

    Uses the packed q=2 ranks: subtraction is XOR of packed encodings,
    so each volume is one vectorized table lookup.
    """
    F, table = packed_ranks(m, n)
    xs = np.arange(1 << (m * n), dtype=np.int64)
    rmax = min(m, n)
    vols = {}  # (r1, r2, dist) -> set of observed volumes
    for c in range(1 << (m * n)):
        dist = int(table[c])
        d_from_c = table[xs ^ c]
        for r1 in range(rmax + 1):
            near1 = table <= r1
            for r2 in range(rmax + 1):
                v = int(np.count_nonzero(near1 & (d_from_c <= r2)))
                vols.setdefault((r1, r2, dist), set()).add(v)
    return F, vols


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_intersections_exhaustive_gf2(m, n):
    """Exhaustive q=2 scan: distance determines the volume, the volume is
    non-increasing in the distance, unions are non-decreasing, and every
    proved closed form matches the brute count."""
    F, vols = distance_volume_scan(m, n)
    rmax = min(m, n)
    for r1 in range(rmax + 1):
        for r2 in range(rmax + 1):
            series = [vols[(r1, r2, d)] for d in range(rmax + 1)]
            assert all(len(s) == 1 for s in series)  # distance-determined
            flat = [s.pop() for s in series]
            assert flat == sorted(flat, reverse=True)  # monotone in distance
            v1 = rg.ball_counts(2, m, n, r1)[1]
            v2 = rg.ball_counts(2, m, n, r2)[1]
            unions = [v1 + v2 - x for x in flat]
            assert unions == sorted(unions)
            for d, v in enumerate(flat):
                # cross-check the canonicalized-center helper on a sample
                if d == rmax:
                    assert rg.intersection_volume_at_distance(
                        F, n, r1, r2, d) == v
                try:
                    closed = rg.intersection_volume_closed(2, m, n, r1, r2, d)
                except rg.NoClosedFormError:
                    continue
                assert closed == v, (r1, r2, d)


def test_intersection_translation_invariance():
    """Volumes depend only on the difference of the centers (checked with
    off-origin center pairs, exhaustively at q=2, m=n=2)."""
    F, table = packed_ranks(2, 2)
    xs = np.arange(16, dtype=np.int64)
    for c1 in range(16):
        for c2 in range(16):
            direct = int(np.count_nonzero(
                (table[xs ^ c1] <= 1) & (table[xs ^ c2] <= 1)))
            assert direct == int(np.count_nonzero(
                (table <= 1) & (table[xs ^ (c1 ^ c2)] <= 1)))


def test_three_ball_worked_examples():
    """Equal pairwise distances do not determine a three-ball intersection:
    two GF(4)^3 configurations, all pairwise distances 2, different answers."""
    F = make_field(2, 2)  # alpha = 2
    cfg1 = [((0, 0, 0), 1), ((1, 2, 0), 1), ((2, 0, 1), 1)]
    cfg2 = [((0, 0, 0), 1), ((1, 2, 0), 1), ((2, 3, 0), 1)]
    for cfg in (cfg1, cfg2):
        cs = [c for c, _ in cfg]
        assert all(rg.rank_distance(F, cs[i], cs[j]) == 2
                   for i in range(3) for j in range(i + 1, 3))
    assert rg.intersection_vectors(F, cfg1) == [(3, 0, 0)]
    assert sorted(rg.intersection_vectors(F, cfg2)) == \
        [(0, 3, 0), (1, 0, 0), (2, 2, 0)]
    # single ball sanity: count = V_r
    assert rg.intersection_volume_brute(F, [((0, 0, 0), 1)]) == \
        rg.ball_counts(2, 2, 3, 1)[1]


def test_intersection_guard_and_validation():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        rg.intersection_vectors(F, [])
    # GF(2^9)^3 has 2^27 vectors, past BRUTE_GUARD: refused before enumerating
    with pytest.raises(ValueError, match="exceeds guard"):
        rg.intersection_volume_brute(make_field(2, 9), [((0, 0, 0), 1)])


def test_large_diameter_set():
    S = rg.large_diameter_set(2, 3, 3, 1)
    F = make_field(2, 3)
    assert len(S) == 64
    assert len(S) > rg.ball_counts(2, 3, 3, 1)[1] == 50
    assert max(rg.rank_distance(F, x, y)
               for x in S for y in S) <= 2
    with pytest.raises(ValueError):
        rg.large_diameter_set(2, 3, 3, 2)  # 2r >= n
    with pytest.raises(ValueError):
        rg.large_diameter_set(2, 2, 3, 1)  # n > m
    with pytest.raises(ValueError):
        rg.large_diameter_set(2, 2, 2, 1)  # n < 3


def test_canonical_rank_vector():
    F = make_field(2, 3)
    for e in range(4):
        v = rg.canonical_rank_vector(F, 4, e)
        assert rg.rank(F, v) == e
    with pytest.raises(ValueError):
        rg.canonical_rank_vector(F, 4, 4)


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,m,n", [(2, 4, 3), (3, 2, 3), (5, 2, 2)])
def test_batch_rank_words_matches_scalar(q, m, n):
    F = make_field(q, m)
    rng = np.random.default_rng(7)
    words = rng.integers(0, F.order, size=(200, n), dtype=np.int64)
    got = _batch.rank_words(F, words)
    want = [rg.rank(F, tuple(int(x) for x in w)) for w in words]
    assert list(got) == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_batch_rank_digit_mats_matches_elimination(q):
    rng = np.random.default_rng(11)
    mats = rng.integers(0, q, size=(150, 4, 5), dtype=np.int64)
    got = _batch.rank_digit_mats(q, mats)
    want = [_linalg.rank_field(make_field(q, 1), [list(r) for r in mat]) for mat in mats]
    assert list(got) == want


def _reference_ranks(q, mats):
    F1 = make_field(q, 1)
    return [_linalg.rank_field(F1, [[int(x) for x in r] for r in mat])
            for mat in mats]


def _column_encodings(q, mats):
    """(N, n) encodings whose base-q digits are the columns of the (N, m, n)
    mats: the words whose expansions they are."""
    return (mats * q ** np.arange(mats.shape[1])[:, None]).sum(axis=1)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3),
                                 (4, 4)])
def test_batch_kernels_on_rank_deficient_batches(q, m, n):
    # products A B of random m x r and r x n factors have rank at most r,
    # so every rank 0..min(m, n) shows up, unlike in uniform random batches
    rng = np.random.default_rng(100 * q + 10 * m + n)
    mats = np.concatenate([
        rng.integers(0, q, (40, m, r)) @ rng.integers(0, q, (40, r, n)) % q
        for r in range(min(m, n) + 1)])
    rng.shuffle(mats)
    want = _reference_ranks(q, mats)
    assert set(want) == set(range(min(m, n) + 1))
    assert list(_batch.rank_digit_mats(q, mats)) == want
    assert list(_batch.rank_words(make_field(q, m),
                                  _column_encodings(q, mats))) == want
    if q == 2:  # the bit kernel on the rows as well as on the columns
        rows = _column_encodings(2, mats.transpose(0, 2, 1))
        assert list(_batch.rank_bits_gf2(rows)) == want


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("nmat", [0, 7])
def test_batch_kernels_on_empty_and_zero_batches(q, nmat):
    F = make_field(q, 3)
    zeros = [0] * nmat
    assert list(_batch.rank_words(F, np.zeros((nmat, 4), dtype=np.int64))) \
        == zeros
    assert list(_batch.rank_digit_mats(q, np.zeros((nmat, 3, 4)))) == zeros
    assert list(_batch.rank_bits_gf2(np.zeros((nmat, 3)))) == zeros
    # vectors of length 0, the coefficients of the rank-0 shell
    assert list(_batch.rank_words(F, np.zeros((nmat, 0), dtype=np.int64))) \
        == zeros
    assert list(_batch.rank_digit_mats(q, np.zeros((nmat, 3, 0)))) == zeros


def test_batch_rank_words_gf2_16_top_bit():
    # every word has bit 15 set, the top row of its 16 x 4 expansion
    F = make_field(2, 16)
    rng = np.random.default_rng(16)
    words = rng.integers(0, 1 << 15, size=(200, 4)) | (1 << 15)
    words[:50, 1:] = words[:50, :1]      # rank 1
    words[50:100, 2:] = words[50:100, :2]  # rank <= 2
    words[100:150, 3] = words[100:150, 0] ^ words[100:150, 1]  # rank <= 3
    want = [rg.rank(F, w) for w in words]
    assert set(want) == {1, 2, 3, 4}
    assert list(_batch.rank_words(F, words)) == want


@pytest.mark.parametrize("q,m,n", [(2, 3, 3), (3, 2, 3), (5, 2, 2)])
def test_batch_rank_words_whole_ambient(q, m, n):
    F = make_field(q, m)
    words = np.concatenate(list(_batch.vector_chunks(F.order, n)))
    assert list(_batch.rank_words(F, words)) == [rg.rank(F, w) for w in words]


def test_batch_add_sub_refuse_negative_encodings():
    # _batch._digitwise once ran on a negative operand until its digit
    # scale overflowed int64, so this runs in a subprocess under a timeout
    code = ("import numpy as np\n"
            "from rankmetric import _batch\n"
            "from rankmetric.ffield import make_field\n"
            "F = make_field(3, 2)\n"
            "for op in (_batch.add, _batch.sub):\n"
            "    for a, b in (([-1], [0]), ([0], [-1]), ([4, -3], [1, 1])):\n"
            "        try:\n"
            "            print(op(F, np.array(a), np.array(b)))\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
            "print(_batch.add(F, np.array([9, 3 ** 30]), [0, 1]).tolist())\n")
    src = Path(rg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    # packed encodings of any length stay valid operands
    assert proc.stdout == "negative encoding\n" * 6 + f"[9, {3 ** 30 + 1}]\n"


@pytest.mark.parametrize("q,m,n", [(2, 3, 3), (3, 2, 3), (3, 3, 2),
                                   (5, 2, 2)])
def test_batch_add_sub_match_field_on_elements_and_packed_vectors(q, m, n):
    # add and sub work digit by digit, so they equal Field.add and .sub on
    # element encodings, and on packed vectors give the packed result
    F = make_field(q, m)
    rng = np.random.default_rng(q * 100 + m * 10 + n)
    u, v = rng.integers(0, F.order, size=(2, 300, n))
    u[:10] = 0  # zero operands on either side
    v[10:20] = 0
    for op, scalar in ((_batch.add, F.add), (_batch.sub, F.sub)):
        want = [[scalar(a, b) for a, b in zip(x, y)]
                for x, y in zip(u.tolist(), v.tolist())]
        assert op(F, u, v).tolist() == want
        packed = op(F, _batch.pack(F.order, u), _batch.pack(F.order, v))
        assert packed.tolist() == _batch.pack(F.order, want).tolist()
        assert _batch.unpack(F.order, packed, n).tolist() == want


@pytest.mark.parametrize("q,m,n", [(2, 5, 4), (2, 3, 6), (2, 8, 8),
                                   (3, 4, 4), (3, 2, 5), (5, 3, 3),
                                   (5, 2, 4)])
def test_scalar_rank_matches_field_elimination(q, m, n):
    """rank, on integer rows, equals the field elimination of the m x n
    expansion on the zero vector and 500 random vectors, n > m included."""
    F, F1 = make_field(q, m), make_field(q, 1)
    rng = np.random.default_rng(q * 100 + m * 10 + n)
    vectors = [(0,) * n] + rng.integers(0, F.order, size=(500, n)).tolist()
    got = [rg.rank(F, v) for v in vectors]
    assert got == [_linalg.rank_field(F1, [list(r) for r in F.expand(v)])
                   for v in vectors]
    assert got[0] == 0 and max(got) == min(m, n)


def check_shells(q, m, n):
    """_batch.shell(F, n, r) for r = 0..min(m, n) yields every vector of
    GF(q^m)^n once, in (N, n) chunks with N from 1 to CHUNK, each in the
    shell of its scalar rank."""
    F = make_field(q, m)
    shell_of = np.full(F.order ** n, -1)
    count = np.zeros(F.order ** n, dtype=np.int64)
    for r in range(min(m, n) + 1):
        for rows in _batch.shell(F, n, r):
            assert rows.shape[1] == n and 1 <= len(rows) <= _batch.CHUNK
            part = _batch.pack(F.order, rows)
            np.add.at(count, part, 1)
            shell_of[part] = r
    assert (count == 1).all()
    vectors = _batch.unpack(F.order, np.arange(F.order ** n), n).tolist()
    assert shell_of.tolist() == [rg.rank(F, v) for v in vectors]


@pytest.mark.parametrize("q,m,n", [(2, 1, 3), (2, 2, 2), (2, 3, 3), (3, 2, 3),
                                   (5, 2, 2), (2, 4, 4), (3, 3, 3), (2, 3, 5)])
def test_shells_partition_the_ambient(q, m, n):
    check_shells(q, m, n)


def test_shells_partition_with_small_chunks(monkeypatch):
    """With CHUNK = 4 some odometer chunks of coefficient vectors hold no
    vector of full rank, and the shells still partition the ambient."""
    monkeypatch.setattr(_batch, "CHUNK", 4)
    F = make_field(2, 3)
    assert any(not (_batch.rank_words(F, xs) == 2).any()
               for xs in _batch.vector_chunks(F.order, 2))
    check_shells(2, 3, 3)
    check_shells(3, 1, 3)


def test_vector_chunks_of_packed_encodings():
    """Products x G of chosen vectors x, given by packed encodings, are the
    matching rows of the full odometer stream and the scalar x G, and pack
    inverts unpack."""
    F = make_field(3, 2)
    G = np.array([[1, 2], [0, 5], [7, 1]])
    xs = np.concatenate(list(_batch.vector_chunks(F.order, 3)))
    times = _batch.times(F, G)
    full = times(xs)
    packed = np.array([0, 5, 80, 400, 728])
    got = times(_batch.unpack(F.order, packed, 3))
    assert (got == full[packed]).all()
    assert got.tolist() == [list(_linalg.lincomb(F, x, G.tolist(), 2))
                            for x in xs[packed].tolist()]
    assert (_batch.unpack(F.order, packed, 3) == xs[packed]).all()
    assert (_batch.pack(F.order, xs) == np.arange(len(xs))).all()
    assert _batch.pack(F.order, xs[400]) == 400


def test_batch_lut_helpers():
    F = make_field(2, 4)
    dt = _batch.digits_table(F)
    for x in (0, 1, 7, 15):
        assert list(dt[x]) == list(F.digits(x))
    lut = _batch.mul_lut(F, 5)
    for x in range(16):
        assert lut[x] == F.mul(5, x)
    assert _batch.mul_lut(F, 5) is lut  # cached


@pytest.mark.parametrize("q,m", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3),
                                 (2, 17)])
def test_mul_lut_is_scalar_multiplication(q, m):
    """The tables, built linearly from m products, agree with Field.mul on
    every element; GF(2^17) has no log tables, so there mul is schoolbook."""
    F = make_field(q, m)
    for c in {0, 1, F.order - 1, F.order // 3 + 1}:
        assert _batch.mul_lut(F, c).tolist() == [F.mul(c, x)
                                                 for x in range(F.order)]
