"""Brute-force search oracles for covering and packing claims.

Everything here is independent of the closed-form machinery on purpose:
searches run over integer-encoded vectors with bitmask set arithmetic and
certify their own output, so they can cross-check the bound and geometry
modules at desk scales.  Budgets keep every search sound — an answer, when
returned, is exact; a search that would blow its budget raises
InconclusiveSearch instead of guessing.

Vectors in GF(q^m)^n are encoded as integers sum_i c_i * (q^m)^i, the same
odometer convention the code enumerators use, and rank weights come from
one table indexed by that encoding (_batch.rank_table).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _batch
from .codes import make_code, make_codebook, make_zero_code
from .ffield import make_field
from .rankgeom import rank


class InconclusiveSearch(RuntimeError):
    """A search hit its budget before the answer was settled."""


# Caps that keep searches sound rather than wrong: the ambient size q^{mn}
# of covering scans and of maximum-clique packing searches, and the default
# number of branch-and-bound expansions (the practical stand-in for a
# binomial(q^{mn}, K) subset count), which callers may set per search.
MAX_SPACE = 1 << 20
CLIQUE_SPACE = 1 << 8
MAX_NODES = 1 << 22


@dataclass(frozen=True)
class CoveringDecision:
    """Outcome of a fixed-size covering search; witness is a sorted tuple
    of codewords when one exists."""
    exists: bool
    witness: Optional[tuple] = None


def _decode(order, n, v):
    return tuple((v // order ** i) % order for i in range(n))


def _ball_offsets(field, n, rho):
    """Encodings of every vector of rank at most rho (the ball around 0)."""
    return np.flatnonzero(_batch.rank_table(field, n) <= rho)


def _balls(field, offsets, centers):
    """Rank balls around the centers, CHUNK entries at a time: rows of
    encodings c + o, one row per center c, one column per offset o."""
    centers = np.asarray(centers, dtype=np.int64)
    step = max(1, _batch.CHUNK // len(offsets))
    for i in range(0, len(centers), step):
        yield _batch.add(field, centers[i:i + step, None], offsets)


def _bitmask(flags):
    """Integer with bit i set where flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


def _check_params(q, m, n, rho):
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if rho < 0:
        raise ValueError("negative radius")


def is_covering(q, m, n, centers, rho):
    """Independent verification scan: every vector of GF(q^m)^n lies within
    rank distance rho of some center.  Deliberately avoids the bitmask
    machinery the searches use."""
    _check_params(q, m, n, rho)
    F = make_field(q, m)
    centers = [tuple(int(x) for x in c) for c in centers]
    for v in range(F.order ** n):
        w = _decode(F.order, n, v)
        if all(rank(F, tuple(F.sub(a, b) for a, b in zip(w, c))) > rho
               for c in centers):
            return False
    return True


def exhaustive_min_covering(q, m, n, rho, K, *, max_nodes=MAX_NODES):
    """Decide whether K balls of rank-radius rho can cover GF(q^m)^n.

    Exact branch-and-bound set cover: covering is translation invariant, so
    the zero vector is fixed as a center, and the search branches on the
    centers able to cover the first uncovered vector.  Monotone in K; the
    minimum covering size is settled by scanning K upward from a lower
    bound.  Raises InconclusiveSearch when the node budget runs out.
    """
    _check_params(q, m, n, rho)
    F = make_field(q, m)
    Q = F.order ** n
    if Q > MAX_SPACE:
        raise InconclusiveSearch(f"ambient size {Q} exceeds budget")
    if K < 1:
        return CoveringDecision(False)

    offsets = _ball_offsets(F, n, rho)
    V = len(offsets)
    full = (1 << Q) - 1
    masks = {}

    def ball(c):
        if c not in masks:
            flags = np.zeros(Q, dtype=bool)
            flags[next(_balls(F, offsets, [c]))] = True
            masks[c] = _bitmask(flags)
        return masks[c]

    nodes = 0
    chosen = [0]

    def extend(covered, depth):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise InconclusiveSearch(f"node budget {max_nodes} hit")
        if covered == full:
            return True
        if depth == K:
            return False
        remaining = Q - covered.bit_count()
        if (K - depth) * V < remaining:
            return False
        u = (~covered & full).bit_length() - 1  # an uncovered vector
        # the centers covering u are the members of the ball around u
        cands = sorted(_bits(ball(u)),
                       key=lambda c: (-(ball(c) & ~covered).bit_count(), c))
        for c in cands:
            chosen.append(c)
            if extend(covered | ball(c), depth + 1):
                return True
            chosen.pop()
        return False

    if extend(ball(0), 1):
        words = sorted(_decode(F.order, n, c) for c in chosen)
        return CoveringDecision(True, tuple(words))
    return CoveringDecision(False)


def greedy_covering(q, m, n, rho):
    """Covering code built by the greedy heuristic (largest new coverage,
    ties to the smallest vector encoding).  The result is a verified
    covering, hence a certified upper bound witness for K_R."""
    _check_params(q, m, n, rho)
    F = make_field(q, m)
    Q = F.order ** n
    if Q > MAX_SPACE:
        raise InconclusiveSearch(f"ambient size {Q} exceeds budget")

    # gains[c] counts the uncovered vectors in the ball around c; covering
    # u lowers the gain of every center in the ball around u by one
    offsets = _ball_offsets(F, n, rho)
    unc = np.ones(Q, dtype=bool)
    gains = np.full(Q, len(offsets), dtype=np.int64)
    centers = []
    while unc.any():
        c = int(gains.argmax())  # argmax takes the first, smallest index
        centers.append(c)
        ball = next(_balls(F, offsets, [c]))[0]
        new = ball[unc[ball]]
        unc[new] = False
        for near in _balls(F, offsets, new):
            np.subtract.at(gains, near.ravel(), 1)

    words = [_decode(F.order, n, c) for c in centers]
    if not is_covering(q, m, n, words, rho):
        raise AssertionError("greedy produced a non-covering; bug")
    return make_codebook(F, words)


def max_code_search(q, m, n, d, *, max_nodes=MAX_NODES):
    """Exact maximum cardinality of a code in GF(q^m)^n with minimum rank
    distance >= d, by maximum clique over the rank-distance graph.

    Translation invariance pins the zero vector into the code, so the
    clique search runs over the vectors of rank weight >= d with edges at
    pairwise distance >= d (Bron-Kerbosch with pivoting).
    """
    _check_params(q, m, n, 0)
    if d < 1:
        raise ValueError("distance must be positive")
    F = make_field(q, m)
    Q = F.order ** n
    if Q > CLIQUE_SPACE:
        raise InconclusiveSearch(f"ambient size {Q} exceeds clique budget")

    tab = _batch.rank_table(F, n)
    verts = np.flatnonzero(tab >= d)  # the zero vector has rank 0 < d
    far = tab[_batch.sub(F, verts[:, None], verts)] >= d
    adj = [_bitmask(row) for row in far]  # the diagonal has distance 0

    best = 0
    nodes = 0

    def bk(size, P, X):
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise InconclusiveSearch(f"node budget {max_nodes} hit")
        if P == 0 and X == 0:
            best = max(best, size)
            return
        if size + P.bit_count() <= best:
            return
        # pivot on the candidate dominating the most of P
        pivot = max(((P & adj[i]).bit_count(), i) for i in _bits(P | X))[1]
        for i in _bits(P & ~adj[pivot]):
            bit = 1 << i
            bk(size + 1, P & adj[i], X & adj[i])
            P &= ~bit
            X |= bit

    bk(0, (1 << len(adj)) - 1, 0)
    return best + 1  # the pinned zero vector


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_linear_code(q, m, n, k, seed=0):
    """Uniformly random (n, k) linear code over GF(q^m): rejection-sample
    k x n generator matrices until the rows are independent.  Deterministic
    per seed."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    F = make_field(q, m)
    if k == 0:
        return make_zero_code(F, n)
    rng = random.Random(seed)
    while True:
        G = [[rng.randrange(F.order) for _ in range(n)] for _ in range(k)]
        try:
            return make_code(F, G)
        except ValueError:
            continue
