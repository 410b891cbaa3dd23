"""Exact arithmetic for rank-metric codes over GF(q^m).

Submodules:

- ffield:   finite extension fields GF(q^m), traces, dual bases, expansions
- rankgeom: rank weight/distance, elementary linear subspaces, ball volumes
- codes:    linear rank-metric codes, Gabidulin/MRD constructions
- bounds:   packing and covering bounds, bound tables, asymptotes
- wenum:    q-products of parameterized polynomials, MacWilliams transform
- oracle:   brute-force search oracles (exact covering/packing at desk scale)
- cli:      command-line interface over all of the above
"""
from __future__ import annotations

__version__ = "0.1.0"

from .ffield import Field, make_field, field_from_descriptor

__all__ = [
    "Field",
    "make_field",
    "field_from_descriptor",
    "__version__",
]
