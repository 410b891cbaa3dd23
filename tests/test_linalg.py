"""Tests for the one Gauss-Jordan elimination, over GF(q) = GF(q^1)."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rankmetric import _linalg
from rankmetric.ffield import make_field


def row_space_size(q, rows):
    """Independent oracle: count the distinct GF(q)-combinations of rows."""
    n = len(rows[0])
    return len({tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q
                      for j in range(n))
                for coeffs in itertools.product(range(q), repeat=len(rows))})


@st.composite
def small_matrices(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    entry = st.integers(0, q - 1)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    return q, mat


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_rank_over_base_field_is_log_of_row_space_size(case):
    q, mat = case
    # rank = log_q |row space|, compared exactly as q^rank = |row space|
    assert q ** _linalg.rank_field(make_field(q, 1), mat) == \
        row_space_size(q, mat)



def test_lincomb_refuses_unequal_lengths():
    # zip once dropped the extra coefficients or rows without a word
    F = make_field(3, 2)
    assert _linalg.lincomb(F, (1, 2), [(1, 0), (0, 1)], 2) == (1, 2)
    for coeffs, rows in [((1, 1), [(1, 0)]), ((1,), [(1, 0), (0, 1)])]:
        with pytest.raises(ValueError):
            _linalg.lincomb(F, coeffs, rows, 2)


@st.composite
def small_systems(draw):
    """A over GF(2), GF(3), GF(5), GF(4) or GF(9), up to 3 x 3, and B with
    as many rows and one or two columns."""
    F = make_field(*draw(st.sampled_from(((2, 1), (3, 1), (5, 1),
                                          (2, 2), (3, 2)))))
    rows = draw(st.integers(1, 3))
    entry = st.integers(0, F.order - 1)

    def matrix(cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    return F, matrix(draw(st.integers(1, 3))), matrix(draw(st.integers(1, 2)))


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_solve_returns_the_unique_solution_or_none(case):
    F, A, B = case
    k = len(A[0])
    # every x in F^k, grouped by A x; the X with A X = B are the products of
    # the solutions for each column of B
    by_image = {}
    for x in itertools.product(range(F.order), repeat=k):
        ax = _linalg.lincomb(F, x, list(zip(*A)), len(A))
        by_image.setdefault(ax, []).append(list(x))
    per_col = [by_image.get(b, []) for b in zip(*B)]
    got = _linalg.solve(F, A, B)
    if all(len(sols) == 1 for sols in per_col):
        assert got == [list(r) for r in zip(*(sols[0] for sols in per_col))]
    else:  # no X, or several
        assert got is None
