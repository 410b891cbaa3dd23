"""Guarded enumerations stream: the tracemalloc peak of consuming one does
not grow with the number of items it yields.  Each test consumes the same
enumeration at two sizes 16x apart or more, with _batch.CHUNK lowered so
that a chunked one spans many chunks at both, and allows the larger a peak
1.5x the smaller's.  A list of the items would grow with them."""
import argparse
import tracemalloc

import pytest

from rankmetric import _batch, cli
from rankmetric import codes as cd
from rankmetric import rankgeom as rg
from rankmetric.ffield import make_field


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(_batch, "CHUNK", 4)


def consumed_peak(make):
    """tracemalloc peak, in bytes, of making and consuming an enumeration."""
    tracemalloc.start()
    try:
        for _ in make():
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_flat(small, large):
    """The large enumeration peaks at most 1.5x as high as the small one.
    Both are consumed once first, the large one first, so that the caches
    they share (fields, tables, CPython's free lists) are full."""
    for make in (large, small):
        for _ in make():
            pass
    lo, hi = consumed_peak(small), consumed_peak(large)
    assert hi <= 1.5 * lo, (lo, hi)


def test_intersection_volume_brute_counts_a_stream():
    def count(m):  # GF(2^2)^4 and GF(2^3)^4: 256 and 4096 vectors
        return [rg.intersection_volume_brute(make_field(2, m), [((0,) * 4, 4)])]
    assert_flat(lambda: count(2), lambda: count(3))
    assert count(3) == [2 ** 12]


def test_large_diameter_set_streams():
    # 2^10 and 2^20 vectors over one field: itertools.product holds the q^m
    # field elements once, so GF(2^4) against GF(2^6) would compare pools
    assert_flat(lambda: rg.large_diameter_set(2, 5, 3, 1),
                lambda: rg.large_diameter_set(2, 5, 5, 2))


def test_array_view_streams():
    # systematic codes over GF(2^4)^4 of dimension 2 and 3: 256 and 4096
    # words, through the same one multiplication table
    F = make_field(2, 4)
    small, large = (cd.make_code(F, [(1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0)][:k]) for k in (2, 3))
    assert_flat(lambda: cd.array_view(small), lambda: cd.array_view(large))
    assert len(list(cd.array_view(large))) == 4096


def test_els_list_text_streams():
    def lines(n):  # [5 2]_2 = 155 and [7 2]_2 = 2667 bases
        args = argparse.Namespace(q=2, n=n, v=2, list=True, format="text")
        return cli.cmd_els(args).lines
    assert_flat(lambda: lines(5), lambda: lines(7))
    assert sum(1 for _ in lines(7)) == 1 + rg.gaussian(7, 2, 2)
