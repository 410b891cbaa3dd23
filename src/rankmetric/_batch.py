"""Vectorized (numpy) rank kernels over GF(q) and the chunked scans built on them.

pack, unpack, vector_chunks and times are the one vector layer.  A vector
of GF(q^m)^n is an (n,) row of element encodings or one packed integer
sum_j x_j * order^j: pack and unpack convert, vector_chunks streams the
space in odometer order (position = packed encoding), and times(field, G)
is the one x G, its tables built once for every chunk.  In both forms the
base-q digits are the coordinates over GF(q), so add and sub work
digit-wise on either.  The first three take the order
q^m, or any base: subspace_chunks fills the RREF bases of the subspaces of
GF(q)^n, the ELS's, from the odometer of vector_chunks(q, .).

rank_words is the one rank entry point for scans over many vectors.  It
eliminates the m x n expansions of a batch in lockstep, keeping one pivot
row per leading column and per sample: on base-q digit arrays for odd q,
and on bitmask rows for q = 2.  A missing pivot is a zero row, and reducing
by a zero row changes nothing, so every elimination step is one
unconditional array operation on all samples.  Scans feed it CHUNK vectors
at a time, so their peak memory does not grow with the ambient size;
shell streams the rank-r vectors of an ambient from the ELS walk.

balls is the one rank-ball builder: the translates c + o of offsets o (a
ball, or one chunk of a shell) around many centers c, for the covering
radius and the covering searches alike.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

CHUNK = 1 << 16  # vectors per kernel call in every scan
CACHE_SIZE = 8   # tables kept per builder: digits, multiplication, duals

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
    """(order,) int64 array of c x for every x.  x -> c x is GF(q)-linear:
    digit s of c x is the digit row of x times column s of the m x m matrix
    whose row t holds the digits of c alpha^t, in uint8: m (q-1)^2 < 256."""
    q, digits = field.q, digits_table(field)
    rows = np.array([field.digits(field.mul(c, q ** t))
                     for t in range(field.m)], dtype=np.uint8)
    lut = np.zeros(field.order, dtype=np.int64)
    for s in reversed(range(field.m)):  # Horner, digit m-1 first
        lut = lut * q + digits @ rows[:, s] % q
    lut.flags.writeable = False
    return lut


def _digitwise(q, a, b, sign):
    """a + sign * b digit by digit in base q, until both run out of digits.
    A negative operand never runs out, so it is refused."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64))
    if (a < 0).any() or (b < 0).any():
        raise ValueError("negative encoding")
    out = np.zeros(a.shape, dtype=np.int64)
    top, scale = int(max(a.max(initial=0), b.max(initial=0))), 1
    while scale <= top:
        out += (a // scale + sign * (b // scale)) % q * scale
        scale *= q
    return out


def add(field, a, b):
    """Elementwise a + b on integer arrays of encodings (xor at q=2)."""
    return a ^ b if field.q == 2 else _digitwise(field.q, a, b, 1)


def sub(field, a, b):
    """Elementwise a - b on integer arrays of encodings (xor at q=2)."""
    return a ^ b if field.q == 2 else _digitwise(field.q, a, b, -1)


def pack(order, xs):
    """Packed encodings of the rows of an (N, n) array, or of one vector."""
    xs = np.asarray(xs, dtype=np.int64)
    return xs @ order ** np.arange(xs.shape[-1], dtype=np.int64)


def unpack(order, packed, n):
    """(N, n) int64 array of the vectors of GF(q^m)^n packed as packed."""
    xs = np.asarray(packed, dtype=np.int64)[:, None] // \
        order ** np.arange(n, dtype=np.int64)
    xs %= order  # in place: one (N, n) array at a time
    return xs


def vector_chunks(order, k):
    """Every vector of GF(q^m)^k in odometer order, the vector with packed
    encoding v at position v: (N, k) int64 arrays, CHUNK at a time."""
    total = order ** k
    for start in range(0, total, CHUNK):
        yield unpack(order, np.arange(start, min(start + CHUNK, total)), k)


def subspace_chunks(q, n, v):
    """The v-dim subspaces of GF(q)^n as RREF bases, (N, v, n) uint32 arrays
    of at most CHUNK: pivots in combinations order, last free entry fastest."""
    for pivots in itertools.combinations(range(n), v):
        # free entries: right of their row's pivot, outside pivot columns
        rows, cols = np.nonzero((np.arange(n) > np.array(pivots)[:, None])
                                & ~np.isin(range(n), pivots))
        for values in vector_chunks(q, len(rows)):
            bases = np.zeros((len(values), v, n), dtype=np.uint32)
            bases[:, range(v), pivots] = 1
            bases[:, rows, cols] = values[:, ::-1]
            yield bases


def shell(field, n, r):
    """The rank-r vectors of GF(q^m)^n as (N, n) arrays of encodings, N at
    most CHUNK: by the ELS lemma, x B once for each r-dim RREF basis B and
    x of rank r.  Coordinate j of x B is sum_t B[t, j] x_t, read off the
    rows c x_t (c < q) of a (q, r, len(xs)) table, one row per (B, t, j)."""
    luts = np.stack([mul_lut(field, c) for c in range(field.q)])  # [c, x]: c x
    for xs in vector_chunks(field.order, r):
        xs = xs[rank_words(field, xs) == r]
        scaled = luts[:, xs.T]
        step = CHUNK // max(1, len(xs))  # at least 1: xs came in one chunk
        for bases in subspace_chunks(field.q, n, r) if len(xs) else ():
            for B in np.split(bases, range(step, len(bases), step)):
                out = np.zeros((len(B), n, len(xs)), dtype=np.int64)
                for t in range(r):
                    out = add(field, out, scaled[:, t][B[:, t]])
                yield out.transpose(0, 2, 1).reshape(-1, n)


def times(field, G):
    """The map x -> x G on (N, k) arrays x of encodings, for a (k, n)
    integer array G: the codewords of messages x, or the syndromes of
    vectors x when G is a transposed parity-check matrix.  The table of
    each nonzero entry of G is looked up once, not once per call."""
    terms = [(i, j, mul_lut(field, int(g)))
             for (i, j), g in np.ndenumerate(G) if g]

    def apply(xs):
        out = np.zeros((len(xs), G.shape[1]), dtype=np.int64)
        for i, j, lut in terms:
            out[:, j] = add(field, out[:, j], lut[xs[:, i]])
        return out
    return apply


def balls(field, offsets, centers):
    """Packed encodings c + o, CHUNK at a time: one row per center c, one
    column per offset o.  The offsets must not be empty."""
    centers = np.asarray(centers, dtype=np.int64)
    step = max(1, CHUNK // len(offsets))
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
    for r in range(m if n else 0):  # no columns, no pivots
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
