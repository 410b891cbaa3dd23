"""Tests for packing/covering bounds and the bound tables.

The published table of best bounds on K_R(2^m, n, rho) is frozen here
cell-by-cell and regenerated from the formula evaluators.  Two cells of the
printed table are arithmetic/typesetting errata (documented below where
they are frozen); for those the exact recomputed values are asserted.
Letter ties (equal bound values under different tags) are asserted as
value-ties rather than letter matches, since the source table breaks ties
inconsistently.
"""
import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import iv, libmp, mp

import rankmetric
from rankmetric import bounds as bd
from rankmetric.rankgeom import ball_counts, gaussian, tau_q

# (m, n, rho) -> printed cell, q=2.  Cells where only letters differ from
# the earliest-letter convention are listed in TIE_CELLS; cells whose
# printed value is wrong are overridden in ERRATA with the exact value.
PAPER_TABLE = {
    (2, 2, 1): "b 3-4 A",
    (3, 2, 1): "b 4 B",
    (3, 3, 1): "b 11-32 C", (3, 3, 2): "a 2-4 C",
    (4, 2, 1): "b 7-8 B",
    (4, 3, 1): "b 40-64 B", (4, 3, 2): "b 4-8 C",
    (4, 4, 1): "c 293-1024 C", (4, 4, 2): "b 10-64 C", (4, 4, 3): "a 2-8 C",
    (5, 2, 1): "b 12-16 B",
    (5, 3, 1): "b 154-256 B", (5, 3, 2): "b 6-8 B",
    (5, 4, 1): "b 2267-4096 B", (5, 4, 2): "b 33-256 C",
    (5, 4, 3): "a 3-8 C",
    (5, 5, 1): "b 34894-131072 C", (5, 5, 2): "b 233-2979 E",
    (5, 5, 3): "b 10-128 C", (5, 5, 4): "a 2-8 C",
    (6, 2, 1): "b 23-32 B",
    (6, 3, 1): "b 601-1024 B", (6, 3, 2): "a 10-16 B",
    (6, 4, 1): "b 17822-32768 B", (6, 4, 2): "b 123-256 B",
    (6, 4, 3): "b 6-16 C",
    (6, 5, 1): "b 550395-1048576 B", (6, 5, 2): "b 1770-16384 C",
    (6, 5, 3): "c 31-256 C", (6, 5, 4): "a 3-16 C",
    (6, 6, 1): "c 17318410-67108864 C", (6, 6, 2): "c 27065-424990 E",
    (6, 6, 3): "c 214-4299 E", (6, 6, 4): "c 9-181 D",
    (6, 6, 5): "a 2-16 C",
    (7, 2, 1): "b 44-64 B",
    (7, 3, 1): "b 2372-4096 B", (7, 3, 2): "a 19-32 B",
    (7, 4, 1): "b 141231-262144 B", (7, 4, 2): "c 484-1024 B",
    (7, 4, 3): "b 10-16 B",
    (7, 5, 1): "b 8735289-16777216 B", (7, 5, 2): "b 13835-32768 B",
    (7, 5, 3): "b 112-1024 C", (7, 5, 4): "a 5-16 C",
    (7, 6, 1): "b 549829402-1073741824 B", (7, 6, 2): "c 42229-4194304 C",
    (7, 6, 3): "b 1584-32768 C", (7, 6, 4): "b 31-746 E",
    (7, 6, 5): "a 3-16 C",
    (7, 7, 1): "b 34901004402-137438953472 C",
    (7, 7, 2): "c 13205450-244855533 E", (7, 7, 3): "b 23978-596534 E",
    (7, 7, 4): "c 203-5890 E", (7, 7, 5): "a 8-242 D",
    (7, 7, 6): "a 2-16 C",
}

# cells where the printed letter differs but the printed tag's value equals
# the best value (tie): ours reports the earliest letter
TIE_CELLS = {
    (3, 3, 1): "lower", (7, 7, 3): "lower",
    (4, 3, 2): "upper", (5, 4, 2): "upper",
    (6, 4, 3): "upper", (7, 5, 3): "upper",
}

# printed-value errata: exact integer arithmetic disagrees with the source.
# (7,6,2): printed 42229 is below the cell's own sphere-covering bound
# (421863), impossible for a best lower bound; the exact excess bound is
# ceil(2^42*8011 / (10425304*8011 - 8*10417302)) = 422285 (digit dropped in
# print).  (7,7,1): the Cohen-style value is ceil(562743794991104/16124)
# whose remainder is 13256, so it rounds UP to 34901004403; the printed
# ...402 is an off-by-one (every neighboring cell matches the ceil
# convention).
ERRATA = {
    (7, 6, 2): ("lower", 42229, 422285),
    (7, 7, 1): ("lower", 34901004402, 34901004403),
}


def parse_cell(text):
    """'b 3-4 A' -> ('b', 3, 4, 'A'); 'b 4 B' -> ('b', 4, 4, 'B')."""
    ltag, span, utag = text.split()
    lo, _, hi = span.partition("-")
    return ltag, int(lo), int(hi or lo), utag


# ---------------------------------------------------------------------------
# packing side
# ---------------------------------------------------------------------------

def test_singleton_max_cardinality():
    assert bd.singleton_max_cardinality(2, 2, 2, 3) == 1
    assert bd.singleton_max_cardinality(2, 2, 2, 2) == 4
    assert bd.singleton_max_cardinality(2, 3, 3, 3) == 8
    assert bd.singleton_max_cardinality(2, 4, 2, 2) == 2 ** 4
    # transposition symmetry of the two Singleton branches
    for m, n, d in itertools.product(range(1, 6), range(1, 6), range(1, 6)):
        assert (bd.singleton_max_cardinality(2, m, n, d)
                == bd.singleton_max_cardinality(2, n, m, d))
    with pytest.raises(ValueError):
        bd.singleton_max_cardinality(2, 2, 2, 0)


def test_packing_asymptote():
    assert bd.packing_asymptote(0, 3) == 1
    assert bd.packing_asymptote(0.3, 1) == pytest.approx(0.7)
    assert bd.packing_asymptote(0.3, 2) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        bd.packing_asymptote(0.6, 2)   # above 1/b
    with pytest.raises(ValueError):
        bd.packing_asymptote(0.5, 0)


def test_covering_asymptotes():
    assert bd.volume_rate(0.5, 1) == pytest.approx(0.75)
    assert bd.covering_rate(0.5, 1) == pytest.approx(0.25)
    assert bd.covering_rate(0, 5) == 1
    assert bd.volume_rate(0, 2) == 0
    with pytest.raises(ValueError):
        bd.covering_rate(-0.1, 1)
    with pytest.raises(ValueError):
        bd.volume_rate(0.7, 2)


# ---------------------------------------------------------------------------
# individual covering bounds
# ---------------------------------------------------------------------------

def test_lower_bounds_worked_examples():
    assert bd.covering_lower(2, 2, 2, 1) == {"a": 2, "b": 3, "c": 2}
    assert bd.covering_lower(2, 3, 3, 1)["b"] == 11
    assert bd.covering_lower(2, 4, 4, 1)["c"] == 293
    assert bd.covering_lower(2, 6, 5, 3)["c"] == 31
    assert bd.covering_lower(2, 6, 6, 4)["c"] == 9
    with pytest.raises(ValueError):
        bd.covering_lower(2, 2, 2, 0)
    with pytest.raises(ValueError):
        bd.covering_lower(2, 2, 2, 2)


def test_excess_parameters():
    assert bd.excess_parameters(2, 2, 2, 1) == (2, 12)
    eps, delta = bd.excess_parameters(2, 7, 6, 2)
    assert (eps, delta) == (8, 8011)
    # eps is the least nonnegative residue: 0 <= eps < q^rho [rho+1 1]
    for m in range(2, 7):
        for n in range(2, m + 1):
            for rho in range(1, n):
                eps, _ = bd.excess_parameters(2, m, n, rho)
                assert 0 <= eps < 2 ** rho * gaussian(rho + 1, 1, 2)


def test_cohen_inapplicable_when_denominator_nonpositive():
    lows = bd.covering_lower(2, 6, 6, 4)
    assert lows["b"] is None
    _, v4 = ball_counts(2, 6, 6, 4)
    assert v4 - 2 ** 16 * gaussian(8, 4, 2) <= 0


def test_excess_inapplicable_when_eps_zero():
    assert bd.excess_parameters(2, 5, 5, 1)[0] == 0
    assert bd.covering_lower(2, 5, 5, 1)["c"] is None
    assert bd.excess_parameters(2, 5, 3, 2)[0] == 0
    assert bd.covering_lower(2, 5, 3, 2)["c"] is None


def test_upper_bounds_worked_examples():
    assert bd.covering_upper(2, 3, 3, 1) == {
        "A": 64, "B": 64, "C": 32, "D": 61, "E": 50}
    ups = bd.covering_upper(2, 2, 2, 1)
    assert (ups["A"], ups["B"], ups["C"], ups["D"], ups["E"]) \
        == (4, 4, 4, 3, 5)
    assert bd.covering_upper(2, 5, 5, 1)["C"] == 2 ** 17
    assert bd.covering_upper(2, 5, 5, 2)["E"] == 2979
    assert bd.covering_upper(2, 6, 6, 4)["D"] == 181
    assert bd.covering_upper(2, 4, 4, 2)["C"] == 64


def test_probabilistic_bound_against_exact_scan():
    # independent oracle: direct smallest-K scan with exact integer powers;
    # from 3 or 8 bits the intervals also straddle non-integer t
    cells = ((2, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (2, 4, 3, 2),
             (2, 4, 4, 3), (2, 3, 2, 1), (3, 2, 2, 1), (3, 3, 2, 1),
             (3, 3, 3, 2), (3, 4, 3, 2), (3, 4, 4, 3))
    for (q, m, n, rho), prec in itertools.product(cells, (None, 3, 8)):
        _, v = ball_counts(q, m, n, rho)
        got = bd._probabilistic_bound(q, m, n, v, prec=prec)
        Q, W = q ** (m * n), q ** (m * n) - v
        K = 2
        while W ** K >= Q ** (K - 1):
            K += 1
        assert got == K, (q, m, n, rho, prec)
    for prec in (None, 3, 8):   # W = 1
        assert bd._probabilistic_bound(2, 2, 1, 3, prec=prec) == 2


@pytest.mark.parametrize("q,m,n,V,want", [
    (2, 2, 1, 2, 3),     # Q=4, W=2: t = 2 exactly
    (2, 4, 1, 8, 5),     # Q=16, W=8: t = 4
    (2, 3, 2, 56, 3),    # Q=64, W=8: t = 2
    (3, 2, 2, 72, 3),    # Q=81, W=9: t = 2
    (4, 1, 1, 2, 3),     # Q=4, W=2: t = 2 divides e*m*n = 2, not m*n
    (4, 3, 1, 32, 7),    # Q=2^6, W=2^5: t = 6 = e*m*n, the largest
])
def test_probabilistic_bound_integer_t(monkeypatch, q, m, n, V, want):
    # t = lnQ/(lnQ - lnW) is an integer here, so its interval straddles
    # at the start precision and the exact powers decide
    Q, W = q ** (m * n), q ** (m * n) - V
    ends, floors = [], bd._t_floors

    def recorded(Q, W, prec):
        ends.append(floors(Q, W, prec))
        return ends[-1]
    monkeypatch.setattr(bd, "_t_floors", recorded)
    assert bd._probabilistic_bound(q, m, n, V) == want
    assert ends == [(want - 2, want - 1)]


def _mp_floor(x, dps=600):
    """floor(x()) with plain (not interval) mpmath at dps digits."""
    with mp.workdps(dps):
        return int(mp.floor(x()))


def test_jsl_bound_against_high_precision_floor():
    # independent oracle: plain mpmath floor at a fixed 600 digits, over
    # twice the 230 or so that Q <= 5^16 needs
    for q, top in ((2, 7), (3, 5), (5, 4)):
        for m in range(2, top + 1):
            for n in range(2, m + 1):
                for rho in range(1, n):
                    _, v = ball_counts(q, m, n, rho)
                    Q = q ** (m * n)
                    want = _mp_floor(
                        lambda: mp.mpf(Q) / v * (1 + mp.log(v)))
                    assert bd._jsl_bound(q, m, n, v) == want, \
                        (q, m, n, rho)


@pytest.mark.parametrize("q,m,n,rho", [
    (2, 10, 9, 3), (2, 16, 16, 8), (2, 7, 5, 2), (3, 6, 4, 2), (3, 5, 5, 1),
    (5, 4, 4, 1)])
def test_jsl_bound_doubles_a_straddling_precision(monkeypatch, q, m, n, rho):
    # at the start precision the interval never straddles an integer on
    # the tables' grids, so the doubling only runs from a start of 3 bits;
    # each precision takes ln V twice, rounded down and up
    _, v = ball_counts(q, m, n, rho)
    Q = q ** (m * n)
    want = _mp_floor(lambda: mp.mpf(Q) / v * (1 + mp.log(v)))
    tried, log = [], bd.mpf_log

    def recorded(x, prec, rnd):
        tried.append(prec)
        return log(x, prec, rnd)
    monkeypatch.setattr(bd, "mpf_log", recorded)
    assert bd._jsl_bound(q, m, n, v, prec=3) == want
    assert tried[::2] == tried[1::2]
    assert tried[::2][:2] == [3, 6]
    assert tried[::2] == [3 * 2 ** i for i in range(len(tried) // 2)]


@pytest.mark.parametrize("q,m,n,rho", [(2, 10, 9, 3), (2, 16, 16, 8)])
def test_probabilistic_bound_doubles_from_a_tiny_precision(q, m, n, rho):
    # from 3 bits the interval for t is unbounded, then straddles; with
    # t near 10^14 an exact power walk from the low end would never end,
    # so this runs in a subprocess under a timeout
    _, v = ball_counts(q, m, n, rho)
    Q, W = q ** (m * n), q ** (m * n) - v
    want = _mp_floor(lambda: mp.log(Q) / (mp.log(Q) - mp.log(W))) + 1
    code = ("from rankmetric import bounds as bd\n"
            "tried, floors = [], bd._t_floors\n"
            "def recorded(Q, W, prec):\n"
            "    tried.append(prec)\n"
            "    return floors(Q, W, prec)\n"
            "bd._t_floors = recorded\n"
            f"print(bd._probabilistic_bound({q}, {m}, {n}, {v}, prec=3))\n"
            "print(tried)\n")
    src = Path(rankmetric.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    got, tried = proc.stdout.splitlines()
    assert int(got) == want
    tried = ast.literal_eval(tried)
    assert tried == [3 * 2 ** i for i in range(len(tried))]
    assert len(tried) > 1


def _iv_reference(q, m, n, V):
    """D and E as the bounds layer computed them with mpmath.iv intervals
    at 60 + 2*digits(Q) decimal digits, before it called mpmath.libmp."""
    Q = q ** (m * n)
    W = Q - V
    saved, iv.dps = iv.dps, 60 + 2 * len(str(Q))
    try:
        t = 1 / (1 - iv.log(iv.mpf(W)) / iv.log(iv.mpf(Q)))
        e = iv.mpf(Q) / iv.mpf(V) * (1 + iv.log(iv.mpf(V)))
    finally:
        iv.dps = saved
    (t_lo, t_hi), (e_lo, e_hi) = (
        [libmp.to_int(end, libmp.round_floor) for end in x._mpi_]
        for x in (t, e))
    assert e_lo == e_hi and t_hi - t_lo <= 1
    K = t_lo + 1
    if t_lo != t_hi:   # a straddle: the exact powers decide
        while W ** K >= Q ** (K - 1):
            K += 1
    return K, e_lo


@pytest.mark.parametrize("q,ms", [
    (4, range(2, 9)), (5, range(2, 9)), (2, range(17, 21))])
def test_certified_bounds_against_interval_reference(q, ms):
    # grids outside the golden table1 files: q = 4 (q = p^e, e > 1), q = 5
    # and q = 2 past m = 16
    for m in ms:
        for n in range(2, m + 1):
            for rho in range(1, n):
                _, v = ball_counts(q, m, n, rho)
                got = (bd._probabilistic_bound(q, m, n, v),
                       bd._jsl_bound(q, m, n, v))
                assert got == _iv_reference(q, m, n, v), (q, m, n, rho)


def test_probabilistic_bound_refuses_a_covering_ball():
    # V = Q: one ball is the whole space, and no K has (Q - V)^K < Q^(K-1)
    with pytest.raises(ValueError, match="^ball covers the whole space$"):
        bd._probabilistic_bound(2, 1, 1, 2)


def test_mixed_bound_against_split_enumeration():
    # independent oracle: enumerate every split as (first part) x (rest)
    def brute_gain(m, n, rho):
        if (n, rho) == (0, 0):
            return 0
        best = None
        for a in range(1, n + 1):
            for r in range(0, min(a, rho) + 1):
                if a + r > m:
                    continue
                rest = brute_gain(m, n - a, rho - r)
                if rest is None:
                    continue
                cand = r * (a - r) + rest
                if best is None or cand > best:
                    best = cand
        return best

    for m in range(2, 6):
        for n in range(1, 6):
            for rho in range(0, n + 1):
                assert bd._gain_row(m, n)[rho] \
                    == brute_gain(m, n, rho), (m, n, rho)


def test_split_gains_one_dp_per_m():
    # a DP row reads only the rows above it, so the cached rows of one m
    # answer every n, in any order of asking, as a DP to n alone does
    def gains_alone(m, n):
        best = [[-1] * (n + 1) for _ in range(n + 1)]
        best[0][0] = 0
        for used_n in range(1, n + 1):
            for used_r in range(used_n + 1):
                best[used_n][used_r] = max(
                    (best[used_n - a][used_r - r] + r * (a - r)
                     for a in range(1, used_n + 1)
                     for r in range(min(a, used_r, m - a) + 1)
                     if best[used_n - a][used_r - r] >= 0), default=-1)
        return tuple(None if g < 0 else g for g in best[n])

    bd._gain_row.cache_clear()
    for m in range(1, 21):
        for n in [3, 1, m, m + 4, 2, m + 2]:
            assert bd._gain_row(m, n) == gains_alone(m, n), (m, n)
    # each (m, row) pair is built once: rows 0..m for every m in 2..24
    bd._gain_row.cache_clear()
    for m in range(2, 25):
        for n in range(2, m + 1):
            bd._gain_row(m, n)
    assert bd._gain_row.cache_info().misses == sum(
        m + 1 for m in range(2, 25))


def test_split_gains_grows_only_to_the_n_asked():
    # a narrow n under a large m costs what a DP to n alone costs
    bd._gain_row.cache_clear()
    bd._gain_row(60, 3)
    assert bd._gain_row.cache_info().misses == 4
    bd._gain_row(60, 5)
    assert bd._gain_row.cache_info().misses == 6


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_selection_and_format():
    rep = bd.covering_report(2, 2, 2, 1)
    assert rep.interval() == (3, 4)
    assert (rep.best_lower_tag, rep.best_upper_tag) == ("b", "A")
    # D=3 equals the best lower bound and is excluded from interval closing
    assert rep.upper["D"] == 3
    assert bd.format_report(rep) == "b 3-4 A"
    rep = bd.covering_report(2, 3, 2, 1)
    assert bd.format_report(rep) == "b 4 B"


def test_report_specials():
    rep = bd.covering_report(2, 4, 3, 3)
    assert rep.exact and rep.interval() == (1, 1)
    assert bd.format_report(rep) == "1"
    assert bd.covering_report(2, 4, 3, 5).interval() == (1, 1)
    rep = bd.covering_report(2, 3, 2, 0)
    assert rep.exact and rep.interval() == (2 ** 6, 2 ** 6)
    with pytest.raises(ValueError):
        bd.covering_report(2, 0, 2, 1)
    with pytest.raises(ValueError):
        bd.covering_report(2, 2, 2, -1)


def test_report_transpose_invariance():
    for (m, n, rho) in ((2, 3, 1), (3, 5, 2), (4, 6, 3)):
        assert bd.covering_report(2, m, n, rho) \
            == bd.covering_report(2, n, m, rho)


def test_full_published_table():
    table = bd.covering_table(2, range(2, 8), range(2, 8), range(1, 7))
    problems = []
    for cell, text in PAPER_TABLE.items():
        ltag, lo, hi, utag = parse_cell(text)
        rep = table[cell]
        side, printed, exact = ERRATA.get(cell, (None, None, None))
        want_lo = exact if side == "lower" else lo
        want_hi = exact if side == "upper" else hi
        if rep.best_lower != want_lo or rep.best_upper != want_hi:
            problems.append((cell, text, bd.format_report(rep)))
            continue
        if rep.best_lower_tag != ltag:
            # acceptable only at a documented value tie
            if not (TIE_CELLS.get(cell) == "lower"
                    and rep.lower[ltag] == rep.best_lower):
                problems.append((cell, f"lower tag {ltag}",
                                 rep.best_lower_tag))
        if rep.best_upper_tag != utag:
            if not (TIE_CELLS.get(cell) == "upper"
                    and rep.upper[utag] == rep.best_upper):
                problems.append((cell, f"upper tag {utag}",
                                 rep.best_upper_tag))
    assert not problems, problems


def test_diagonal_cells_exact():
    table = bd.covering_table(2, range(2, 8), range(2, 8), range(1, 7))
    for m in range(2, 8):
        for n in range(2, min(m, 6) + 1):
            assert table[(m, n, n)].interval() == (1, 1)


def test_grid_invariants():
    # every applicable lower <= every applicable upper; b and c are at
    # least as tight as the sphere bound; C <= min(A, B) when feasible;
    # cohen applicability implies rho(m+n-3rho) >= -tau(q)
    for q in (2, 3):
        for m in range(2, 7):
            for n in range(2, m + 1):
                for rho in range(1, n):
                    lows = bd.covering_lower(q, m, n, rho)
                    ups = bd.covering_upper(q, m, n, rho)
                    lvals = [v for v in lows.values() if v is not None]
                    uvals = [v for v in ups.values() if v is not None]
                    assert max(lvals) <= min(uvals), (q, m, n, rho)
                    if lows["b"] is not None:
                        assert lows["b"] >= lows["a"]
                        assert (rho * (m + n - 3 * rho) >= -tau_q(q))
                    if lows["c"] is not None:
                        assert lows["c"] >= lows["a"]
                    if ups["C"] is not None:
                        assert ups["C"] <= min(ups["A"], ups["B"])


def test_super_multiplicativity_of_uppers():
    # composable constructions: K(n+n', rho+rho') <= K(n,rho) K(n',rho').
    # Checked on the mixed bound by construction and on final best_upper
    # values whenever every tag involved is constructive (A/B/C or exact).
    q, M = 2, 7
    reports = {}
    for n in range(1, M + 1):
        for rho in range(0, n + 1):
            reports[(n, rho)] = bd.covering_report(q, M, n, rho)
    violations = []
    for (n1, r1), (n2, r2) in itertools.combinations_with_replacement(
            sorted(reports), 2):
        n, r = n1 + n2, r1 + r2
        if n > M or (n, r) not in reports:
            continue
        a, b, c = reports[(n1, r1)], reports[(n2, r2)], reports[(n, r)]
        if any(rep.best_upper_tag in ("D", "E") for rep in (a, b, c)):
            continue
        if c.best_upper > a.best_upper * b.best_upper:
            violations.append(((n1, r1), (n2, r2)))
        ca = a.upper.get("C") or a.best_upper
        cb = b.upper.get("C") or b.best_upper
        cc = c.upper.get("C") or c.best_upper
        if cc > ca * cb:
            violations.append((("C", n1, r1), ("C", n2, r2)))
    assert not violations, violations


# ---------------------------------------------------------------------------
# linear dimension bounds
# ---------------------------------------------------------------------------

PAPER_TABLE_2 = {
    (4, 4): ("1-2", "1", "0"),
    (5, 4): ("1-2", "1", "0"),
    (5, 5): ("2-3", "1-2", "1", "0"),
    (6, 4): ("2", "1", "0"),
    (6, 5): ("2-3", "1-2", "1", "0"),
    (6, 6): ("3-4", "2-3", "1-2", "1", "0"),
    (7, 4): ("2", "1", "0"),
    (7, 5): ("2-3", "1-2", "1", "0"),
    (7, 6): ("3-4", "2-3", "1-2", "1", "0"),
    (7, 7): ("4-5", "3-4", "2-3", "1-2", "1"),
    (8, 4): ("2", "1", "0"),
    (8, 5): ("3", "2", "1", "0"),
    (8, 6): ("3-4", "2-3", "1-2", "1", "0"),
    (8, 7): ("4-5", "3-4", "2-3", "1-2", "1"),
    (8, 8): ("5-6", "3-5", "2-4", "1-3", "1-2"),
}


def test_linear_dim_bounds_worked_examples():
    assert bd.linear_dim_bounds(2, 6, 6, 2) == (3, 4)
    assert bd.linear_dim_bounds(2, 8, 8, 4) == (2, 4)
    assert bd.linear_dim_bounds(2, 8, 8, 5) == (1, 3)
    # rho in {0, 1, n-1, n} pins the dimension outright
    for m in range(4, 9):
        for n in range(2, m + 1):
            assert bd.linear_dim_bounds(2, m, n, 0) == (n, n)
            assert bd.linear_dim_bounds(2, m, n, 1) == (n - 1, n - 1)
            assert bd.linear_dim_bounds(2, m, n, n - 1) == (1, 1)
            assert bd.linear_dim_bounds(2, m, n, n) == (0, 0)
    with pytest.raises(ValueError):
        bd.linear_dim_bounds(2, 4, 5, 2)
    with pytest.raises(ValueError):
        bd.linear_dim_bounds(2, 4, 4, 5)
    with pytest.raises(ValueError):
        bd.linear_dim_bounds(1, 4, 4, 2)


@pytest.mark.parametrize("fn", [bd.covering_report, bd.covering_lower,
                                bd.covering_upper, bd.linear_dim_bounds,
                                bd.excess_parameters])
@pytest.mark.parametrize("q", [1, 0])
def test_field_size_below_two_refused(fn, q):
    # covering_report(1, 2, 2, 1) once raised ZeroDivisionError from the
    # Gaussian binomial [n 1]_1
    with pytest.raises(ValueError, match=f"^field size {q} must be >= 2$"):
        fn(q, 2, 2, 1)


def test_negative_field_size_refused_without_hanging():
    # covering_upper(-2, 2, 2, 1) once ran the directed-rounding loop of
    # bound D forever, so this runs in a subprocess under a timeout
    code = ("from rankmetric import bounds as bd\n"
            "for fn in (bd.covering_report, bd.covering_lower,\n"
            "           bd.covering_upper, bd.linear_dim_bounds,\n"
            "           bd.excess_parameters):\n"
            "    try:\n"
            "        print(fn(-2, 2, 2, 1))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = Path(rankmetric.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout == "field size -2 must be >= 2\n" * 5


def test_covering_table_refuses_field_size_one():
    with pytest.raises(ValueError, match="^field size 1 must be >= 2$"):
        bd.covering_table(1, range(2, 4), range(2, 4), range(0, 3))
    # the exact radii, which use no Gaussian binomial, are refused too
    with pytest.raises(ValueError, match="^field size 1 must be >= 2$"):
        bd.covering_report(1, 2, 2, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_linear_dim_bounds_against_high_precision_floor(q):
    # the defining formulas with sigma(q) summed at 100 digits, independent
    # of the integer rewrite through ceil(sigma(q))
    with mp.workdps(100):
        sig = mp.nsum(lambda k: 1 / (k * (mp.mpf(q) ** k - 1)),
                      [1, mp.inf]) / mp.log(q)
        for m in range(1, 41):
            for n in range(1, m + 1):
                for rho in range(n + 1):
                    k_upper = n - rho
                    if rho in (0, 1, n - 1, n) or rho * (n - rho) <= m - sig:
                        want = (k_upper, k_upper)
                    else:
                        low = int(mp.floor(n - rho - (rho * (n - rho) + sig)
                                           / m)) + 1
                        want = (max(low, 0), k_upper)
                    assert bd.linear_dim_bounds(q, m, n, rho) == want, \
                        (q, m, n, rho)


def test_full_published_dimension_table():
    for (m, n), cells in PAPER_TABLE_2.items():
        for idx, want in enumerate(cells):
            rho = idx + 2
            lo, hi = bd.linear_dim_bounds(2, m, n, rho)
            got = str(lo) if lo == hi else f"{lo}-{hi}"
            assert got == want, (m, n, rho, want, got)


def test_dimension_table_generator():
    table = bd.dimension_table(2, range(4, 9), range(4, 9), range(2, 7))
    assert table[(6, 6, 2)] == (3, 4)
    assert all(lo <= hi for lo, hi in table.values())
    assert (5, 6, 2) not in table   # n > m filtered out
