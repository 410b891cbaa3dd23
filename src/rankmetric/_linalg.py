"""Exact Gaussian elimination over GF(q) (q prime) and over extension fields.

Matrices are lists of row lists with small-int entries.  The mod-q routines
work directly on Python ints; the field routines take a Field object and use
its arithmetic, so they work over any GF(q^m).
"""
from __future__ import annotations


def rref_mod_q(rows, q):
    """Reduced row echelon form over GF(q).

    Returns (rref_rows, pivot_cols) where rref_rows contains only the nonzero
    rows.  Input rows are not modified.
    """
    mat = [[int(x) % q for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, q)
        mat[r] = [x * inv % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % q for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def rank_mod_q(rows, q):
    return len(rref_mod_q(rows, q)[0])


def invert_mod_q(mat, q):
    """Inverse of a square matrix over GF(q), or None if singular."""
    n = len(mat)
    aug = [[x % q for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    rref, pivots = rref_mod_q(aug, q)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref[:n]]


def matvec_mod_q(mat, vec, q):
    return [sum(a * b for a, b in zip(row, vec)) % q for row in mat]


def in_rowspace_mod_q(rref_rows, pivots, vec, q):
    """Membership of vec in the row space described by an RREF basis."""
    v = [x % q for x in vec]
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            f = v[p]
            v = [(x - f * y) % q for x, y in zip(v, row)]
    return not any(v)


def rref_field(field, rows):
    """Reduced row echelon form over GF(q^m); returns (rref_rows, pivot_cols)."""
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
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def rank_field(field, rows):
    return len(rref_field(field, rows)[0])


def lincomb(field, coeffs, rows, n):
    """sum_i coeffs[i] * rows[i] over GF(q^m), as a tuple of n encodings."""
    vec = [0] * n
    for c, row in zip(coeffs, rows):
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
