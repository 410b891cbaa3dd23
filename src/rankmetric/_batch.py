"""Vectorized (numpy) rank kernels over GF(q) and the chunked scans built on them.

rank_words is the one rank entry point for scans over many vectors of
GF(q^m)^n.  It eliminates the m x n expansions of a batch in lockstep,
keeping one pivot row per leading column and per sample: on base-q digit
arrays for odd q, and on bitmask rows for q = 2.  A missing pivot is a zero
row, and reducing by a zero row changes nothing, so every elimination step
is one unconditional array operation on all samples.  Scans feed it CHUNK
vectors at a time from vector_chunks, so their peak memory does not grow
with the ambient size; rank_table caches the ranks of a whole ambient.

balls is the one rank-ball builder: the translates c + o of offsets o (a
ball, or one shell of it read off rank_table) around many centers c, for
the covering radius and the covering searches alike.

Vectors are encoded either as (N, n) arrays of element encodings or packed
into one integer sum_j x_j * order^j.  In both forms the base-q digits are
the coordinates over GF(q), so add and sub work digit-wise on either.
"""
from __future__ import annotations

import functools

import numpy as np

CHUNK = 1 << 16       # vectors per kernel call in every scan
CACHE_SIZE = 8        # tables kept per builder; a guard-sized rank table is 16 MB
BALL_CHUNK = 1 << 12  # encodings per block of balls: 32 KB per temporary

# The cached tables are shared by every caller, so they are made read-only.


@functools.lru_cache(maxsize=CACHE_SIZE)
def digits_table(field):
    """(order, m) uint8 array: base-q digits of every element encoding."""
    xs = np.arange(field.order, dtype=np.int64)
    arr = np.empty((field.order, field.m), dtype=np.uint8)
    for i in range(field.m):
        arr[:, i] = xs % field.q
        xs //= field.q
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=CACHE_SIZE)
def mul_lut(field, c):
    """(order,) int64 lookup array for multiplication by the constant c."""
    lut = np.array([field.mul(c, x) for x in range(field.order)],
                   dtype=np.int64)
    lut.flags.writeable = False
    return lut


def _digitwise(q, a, b, sign):
    """a + sign * b digit by digit in base q, until both run out of digits."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64))
    out = np.zeros(a.shape, dtype=np.int64)
    scale = 1
    while a.any() or b.any():
        out += (a + sign * b) % q * scale
        a, b, scale = a // q, b // q, scale * q
    return out


def add(field, a, b):
    """Elementwise a + b on integer arrays of encodings (xor at q=2)."""
    return a ^ b if field.q == 2 else _digitwise(field.q, a, b, 1)


def sub(field, a, b):
    """Elementwise a - b on integer arrays of encodings (xor at q=2)."""
    return a ^ b if field.q == 2 else _digitwise(field.q, a, b, -1)


def vector_chunks(field, k, G=None, packed=None):
    """Every vector x of GF(q^m)^k in odometer order, or only those in the
    int64 array packed of packed encodings, CHUNK at a time.

    Vector v has coordinates x_i = (v // order^i) mod order.  Yields (N, k)
    int64 arrays of encodings, or with a (k, n) integer array G the (N, n)
    products x G: the codewords of messages x, or the syndromes of vectors
    x when G is a transposed parity-check matrix.
    """
    total = field.order ** k if packed is None else len(packed)
    scale = field.order ** np.arange(k, dtype=np.int64)
    luts = {} if G is None else {(i, j): mul_lut(field, int(g))
                                 for (i, j), g in np.ndenumerate(G) if g}
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total), dtype=np.int64) \
            if packed is None else packed[start:start + CHUNK]
        xs = idx[:, None] // scale % field.order
        if G is None:
            yield xs
            continue
        out = np.zeros((len(idx), G.shape[1]), dtype=np.int64)
        for (i, j), lut in luts.items():
            out[:, j] = add(field, out[:, j], lut[xs[:, i]])
        yield out


def balls(field, offsets, centers):
    """Packed encodings c + o, BALL_CHUNK at a time: one row per center c,
    one column per offset o.  The offsets must not be empty."""
    centers = np.asarray(centers, dtype=np.int64)
    step = max(1, BALL_CHUNK // len(offsets))
    for i in range(0, len(centers), step):
        yield add(field, centers[i:i + step, None], offsets)


def rank_digit_mats(q, mats):
    """Ranks of N matrices over GF(q); mats is (N, m, n) with entries in [0, q).

    Pivot slot c holds a row led by a 1 in column c, or zeros, so the step
    cur + (q - cur_c) * piv[c] clears column c where a pivot exists and
    adds 0 mod q elsewhere (also where cur_c = 0, as q * piv[c] = 0 mod q).
    In uint8 every intermediate is at most (q-1) + q(q-1) < 256.
    """
    mats = np.asarray(mats, dtype=np.uint8)
    nmat, m, n = mats.shape
    inv = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=np.uint8)
    piv = np.zeros((n, nmat, n), dtype=np.uint8)
    ranks = np.zeros(nmat, dtype=np.uint8)
    for r in range(m):
        cur = mats[:, r, :].copy()
        for c in range(n):
            cur = (cur + (q - cur[:, c, None]) * piv[c]) % q
        idx = np.flatnonzero(cur.any(axis=1))
        rows = cur[idx]
        lead = np.argmax(rows != 0, axis=1)
        rows = rows * inv[rows[np.arange(len(idx)), lead]][:, None] % q
        piv[lead, idx] = rows
        ranks[idx] += 1
    return ranks


def rank_bits_gf2(rows):
    """Ranks of N binary matrices given as (N, m) arrays of row bitmasks.

    Pivot slot b holds a row led by bit b, or 0.  XOR with it flips bit b
    and keeps the higher bits, so min(cur, cur ^ piv[b]) clears bit b where
    it is set and a pivot exists, and keeps cur elsewhere.  Leading bits
    come from frexp, exact below 2^53.
    """
    rows = np.asarray(rows, dtype=np.uint32)
    nmat, m = rows.shape
    piv = np.zeros((int(rows.max(initial=0)).bit_length(), nmat),
                   dtype=np.uint32)
    ranks = np.zeros(nmat, dtype=np.uint8)
    for r in range(m):
        cur = rows[:, r].copy()
        for b in range(len(piv) - 1, -1, -1):
            np.minimum(cur, cur ^ piv[b], out=cur)
        idx = np.flatnonzero(cur)
        vals = cur[idx]
        piv[np.frexp(vals)[1] - 1, idx] = vals
        ranks[idx] += 1
    return ranks


def rank_words(field, words):
    """Rank weights of N vectors given as an (N, n) array of element encodings."""
    words = np.asarray(words, dtype=np.int64)
    if field.q == 2:
        # a q=2 encoding is the bitmask of its column of the m x n
        # expansion, and rank(A) = rank(A^T): rank the n columns as rows
        return rank_bits_gf2(words.astype(np.uint32))
    mats = digits_table(field)[words].transpose(0, 2, 1)  # (N, m, n)
    return rank_digit_mats(field.q, mats)


@functools.lru_cache(maxsize=CACHE_SIZE)
def rank_table(field, n):
    """uint8 rank weights of every vector of GF(q^m)^n, indexed by its
    packed encoding sum_j x_j * order^j."""
    table = np.concatenate([rank_words(field, xs)
                            for xs in vector_chunks(field, n)])
    table.flags.writeable = False
    return table
