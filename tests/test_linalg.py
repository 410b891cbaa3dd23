"""Tests for the one Gauss-Jordan elimination, over GF(q) = GF(q^1)."""
import itertools

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

