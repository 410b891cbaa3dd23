"""Exact Gauss-Jordan elimination over a finite field.

There is one elimination, rref_field, and it serves every field: the
routines take a Field object and use its arithmetic, so they work over any
GF(q^m).  GF(q) itself is the field GF(q^1) (make_field(q, 1)), whose
encodings 0..q-1 are the residues mod q.  Matrices are lists of row lists
of field encodings.  This module does not import ffield, which imports it;
callers pass the field.
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


def invert(field, mat):
    """Inverse of a square matrix over the field, or None if singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    rref, pivots = rref_field(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref[:n]]


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


def solve_field(field, rows, rhs):
    """Coefficients x with sum_i x_i * rows[i] = rhs over GF(q^m), or None.

    Free coefficients (if the rows are dependent) are set to zero.  rows[i]
    and rhs are sequences of field encodings of equal length.
    """
    nrows = len(rows)
    ncols = len(rhs)
    # Augmented system A x = b with A = rows^T (ncols equations).
    aug = [[rows[i][j] for i in range(nrows)] + [rhs[j]] for j in range(ncols)]
    rref, pivots = rref_field(field, aug)
    x = [0] * nrows
    for row, p in zip(rref, pivots):
        if p == nrows:  # pivot in the constant column: inconsistent
            return None
        x[p] = row[nrows]
    # Verify (guards against inconsistency hidden past the last pivot).
    if lincomb(field, x, rows, ncols) != tuple(rhs):
        return None
    return x
