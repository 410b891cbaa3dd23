"""Refusals of bad arguments across the library, each pinned by exception
type and exact message, and the library's reprs."""
import numpy as np
import pytest

from rankmetric import _batch
from rankmetric import codes as cd
from rankmetric import oracle as oc
from rankmetric import rankgeom as rg
from rankmetric import wenum as we
from rankmetric.ffield import Field, field_from_descriptor, make_field

F8 = make_field(2, 3)
F9 = make_field(3, 2)
E3 = rg.make_els(2, 3, [(1, 0, 0)])
E4 = rg.make_els(2, 4, [(1, 0, 0, 0)])
BOOK = cd.make_codebook(F8, [(0, 0), (1, 2)])
NEEDS3 = "a basis of GF(2^3) needs 3 elements"

REFUSALS = [
    ("ball_volume_bounds", lambda: rg.ball_volume_bounds(2, 3, 3, 4),
     ValueError, "radius 4 outside [0, min(m,n)=3]"),
    ("intersection_volume_closed",
     lambda: rg.intersection_volume_closed(2, 3, 3, 1, 1, 4),
     ValueError, "distance out of range"),
    ("Els.contains", lambda: E3.contains(F9, (1, 0, 0)),
     ValueError, "field/ELS base mismatch"),
    ("Els.elements", lambda: list(E3.elements(F9)),
     ValueError, "field/ELS base mismatch"),
    ("Els.contains_els", lambda: E3.contains_els(E4),
     ValueError, "ambient mismatch"),
    ("make_enumerator", lambda: we.make_enumerator(1, 2, 1, [1, 0]),
     ValueError, "field size q^m = 1^2 must be at least 2"),
    ("macwilliams",
     lambda: we.macwilliams(we.make_enumerator(2, 2, 2, [0, 0, 0])),
     ValueError, "empty distribution"),
    ("Field", lambda: Field(2, 0),
     ValueError, "extension degree m must be >= 1"),
    ("field_from_descriptor", lambda: field_from_descriptor("2"),
     ValueError, "descriptor needs at least q and m"),
    ("is_basis", lambda: F8.is_basis([1, 2]), ValueError, NEEDS3),
    ("dual_basis", lambda: F8.dual_basis([1, 2]), ValueError, NEEDS3),
    ("expand", lambda: F8.expand((1, 2), basis=[1, 2, 3]),
     ValueError, "given elements do not form a basis"),
    ("reassemble", lambda: F8.reassemble([[1, 0]]),
     ValueError, "expected 3 rows"),
    ("cartesian_power", lambda: cd.cartesian_power(BOOK, 2),
     TypeError, "cartesian_power needs a LinearCode"),
    ("mrd_els_check", lambda: cd.mrd_els_check(BOOK),
     TypeError, "mrd_els_check needs a LinearCode"),
    ("format_code", lambda: cd.format_code(BOOK),
     TypeError, "only linear codes have a generator file format"),
    ("is_covering", lambda: oc.is_covering(2, 0, 1, [(0,)], 0),
     ValueError, "need m, n >= 1"),
    # a negative digit never runs out, so the odd-q array sum refuses it
    ("_batch.add", lambda: _batch.add(F9, np.array([-1]), np.array([0])),
     ValueError, "negative encoding"),
    # without tables, mul is schoolbook, which would shift -1 forever
    ("Field.mul", lambda: make_field(2, 17).mul(-1, 3),
     ValueError, "-1 is not an element encoding of GF(2^17)"),
]


@pytest.mark.parametrize("call, exc, message",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


def test_reprs():
    F = make_field(3, 2, [2, 2, 1])
    assert repr(F) == "Field(q=3, m=2, modulus=x^2 + 2x + 2)"
    assert repr(cd.make_code(F8, [(1, 2, 4), (0, 1, 2)])) == \
        "LinearCode(q=2, m=3, n=3, k=2)"
    assert repr(BOOK) == "Codebook(q=2, m=3, n=2, size=2)"
    poly = we.ParametricPoly(2, 2, lambda u, m: 1)
    assert repr(poly) == "ParametricPoly(q=2, degree=2)"
