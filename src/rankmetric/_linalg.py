"""Exact Gauss-Jordan elimination over a finite field.

There is one elimination, rref_field, and one solve on it: the unique X
with A X = B, or None when there is none or several, since every caller
needs uniqueness (inverses and basis changes are square, and project checks
independence first).  One test decides both cases: the pivots of the
reduced [A | B] must be exactly A's columns.  An inconsistent equation
always leaves a pivot in B's columns, so no solution is re-checked.  The
routines take a Field and use its arithmetic, so they work over any GF(q^m);
GF(q) itself is the field GF(q^1) (make_field(q, 1)), whose encodings
0..q-1 are the residues mod q.  Matrices are lists of row lists of field
encodings.  This module does not import ffield, which imports it.
"""
from __future__ import annotations


def rref_field(field, rows):
    """Reduced row echelon form over GF(q^m); returns (rref_rows, pivot_cols).

    rref_rows contains only the nonzero rows.  Input rows are not modified.
    """
    mul, sub = field.mul, field.sub
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [sub(x, mul(f, y)) if y else x
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_field(field, rows):
    return len(rref_field(field, rows)[0])


def lincomb(field, coeffs, rows, n):
    """sum_i coeffs[i] * rows[i] over GF(q^m), as a tuple of n encodings;
    ValueError if coeffs and rows differ in length."""
    vec = [0] * n
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            for j, b in enumerate(row):
                if b:
                    vec[j] = field.add(vec[j], field.mul(c, b))
    return tuple(vec)


def solve(field, A, B):
    """The unique X with A X = B over the field, or None when no X or more
    than one exists.  A has k columns and as many rows as B."""
    k = len(A[0]) if A else 0
    aug = [list(a) + list(b) for a, b in zip(A, B, strict=True)]
    rref, pivots = rref_field(field, aug)
    if pivots != list(range(k)):
        return None
    return [row[k:] for row in rref]
