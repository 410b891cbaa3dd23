"""Brute-force search oracles for covering and packing claims.

Everything here is independent of the closed-form machinery on purpose:
searches run over integer-encoded vectors with numpy arrays or bitmask set
arithmetic and certify their own output, so they can cross-check the bound
and geometry modules at desk scales.  Budgets keep every search sound — an
answer, when returned, is exact; a search that would blow its budget raises
InconclusiveSearch, saying how far it got, instead of guessing.

The exact covering search prunes by two rules that lose no covering:

- symmetry: covering is invariant under translations and under the linear
  rank isometries X -> AXB (A, B invertible over GF(q)), and the latter fix
  0.  Any covering with two or more centers therefore maps to one holding
  0 and the canonical vector of some rank r in 1..min(m, n), whose
  expansion is [I_r 0; 0 0].
- top gains: j more centers cover at most the sum of the j largest
  numbers of still-uncovered vectors in one ball, so a branch whose sum
  falls short of what is left uncovered holds no covering.

Vectors in GF(q^m)^n are packed into integers by _batch.pack, the odometer
convention the code enumerators use; a covering search ranks its own
ambient with _batch.rank_words, keeping the ball around 0 of the last two
shapes searched (_ball), and builds balls with _batch.balls, shared with
the covering radius.  Every witness is re-checked by is_covering,
which stays independent of _batch and numpy: it ranks one vector per class
{a*v : a in GF(q^m)*} with scalar rankgeom.rank, since rank(a*v) = rank(v),
and marks the balls around the centers in a byte map.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _batch
from .codes import make_code, make_codebook, make_zero_code
from .ffield import make_field
from .rankgeom import canonical_rank_vector, check_vectors, guard, rank


class InconclusiveSearch(RuntimeError):
    """A search hit its budget before the answer was settled."""


class _Budget:
    """Node count of one search, and how far the search got: the deepest
    node and the best score (coverage, code size) of any node visited,
    reported through the template best_text."""

    def __init__(self, max_nodes, goal, best_text):
        self.max_nodes, self.goal, self.best_text = max_nodes, goal, best_text
        self.nodes = self.depth = self.best = 0

    def visit(self, depth, score):
        """Count one node; raise InconclusiveSearch once the budget is spent."""
        if self.nodes == self.max_nodes:
            raise self.inconclusive(f"node budget {self.max_nodes}")
        self.nodes += 1
        self.depth = max(self.depth, depth)
        self.best = max(self.best, score)

    def inconclusive(self, limit):
        """InconclusiveSearch for a search stopped by limit, with its progress."""
        return InconclusiveSearch(
            f"{limit} hit for {self.goal}: {self.nodes} nodes expanded, "
            f"deepest depth {self.depth}, " + self.best_text.format(self.best))


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


@functools.lru_cache(maxsize=2)
def _ball(q, m, n, rho):
    """The ball of radius rho around 0 in GF(q^m)^n as packed encodings, a
    read-only array: a minimum-covering scan asks for it once per K."""
    F = make_field(q, m)
    offsets = np.flatnonzero(np.concatenate([
        _batch.rank_words(F, xs) for xs in _batch.vector_chunks(F.order, n)]) <= rho)
    offsets.flags.writeable = False
    return offsets


def _covering_state(q, m, n, rho):
    """Start of a covering search: the field, the ambient size Q, the ball
    of radius rho around 0 as encodings, every vector uncovered, and every
    center's gain (the uncovered vectors in its ball) at the ball volume."""
    _check_params(q, m, n, rho)
    F = make_field(q, m)
    Q = F.order ** n
    if Q > MAX_SPACE:
        raise InconclusiveSearch(f"ambient size {Q} exceeds budget")
    offsets = _ball(q, m, n, rho)
    gains = np.full(Q, len(offsets), dtype=np.int64)
    return F, Q, offsets, np.ones(Q, dtype=bool), gains


def _retally(field, offsets, gains, vectors, step):
    """Add step to gains[c] once for each of the vectors inside the ball
    around c: the change in every center's gain when they change state."""
    for near in _batch.balls(field, offsets, vectors):
        np.add.at(gains, near.ravel(), step)


def _cover(field, offsets, unc, gains, c):
    """Mark the ball around c covered and lower the gains to match; returns
    the vectors it newly covered."""
    new = _batch.add(field, offsets, c)
    new = new[unc[new]]
    unc[new] = False
    _retally(field, offsets, gains, new, -1)
    return new


def _top_sum(gains, j):
    """Sum of the j largest gains (of all of them when j exceeds their count)."""
    k = max(len(gains) - j, 0)
    return int(np.partition(gains, k)[k:].sum())


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
    rank distance rho of some center.

    Deliberately avoids the array machinery the searches use: it needs only
    scalar rankgeom.rank and Field arithmetic.  It rests on one fact,
    rank(a*v) = rank(v) for every a != 0 in GF(q^m): multiplying by a is a
    GF(q)-linear bijection of GF(q^m), so it multiplies the m x n expansion
    of v on the left by an invertible matrix.  The scan therefore ranks one
    representative per class {a*v : a != 0}, the vector whose first nonzero
    coordinate is 1, and where that rank is at most rho marks c + a*v for
    every a != 0 and every center c, after marking each c itself.  That is
    (q^{mn} - 1)/(q^m - 1) ranks and K * V_rho marks in a map of q^{mn}
    bytes, indexed by the base-q^m digits of a vector.

    Guarded by the ambient size q^{mn}.  Raises ValueError for a center
    whose length is not n or with an entry outside [0, q^m).
    """
    _check_params(q, m, n, rho)
    F = make_field(q, m)
    guard(F.order ** n, "ambient size")
    centers = [tuple(int(x) for x in c) for c in centers]
    check_vectors(F, centers, n)
    Q = F.order

    def index(v):
        i = 0
        for x in v:
            i = i * Q + x
        return i

    covered = bytearray(Q ** n)
    for c in centers:
        covered[index(c)] = 1
    for lead in range(n):
        for tail in itertools.product(F.elements(), repeat=n - lead - 1):
            rep = (0,) * lead + (1,) + tail
            if rank(F, rep) <= rho:
                for a in range(1, Q):
                    v = [F.mul(a, x) for x in rep]
                    for c in centers:
                        covered[index(map(F.add, c, v))] = 1
    return 0 not in covered


def _verified(F, n, centers, rho, search):
    """The packed centers as sorted vectors, which is_covering must accept."""
    words = sorted(map(tuple, _batch.unpack(F.order, centers, n).tolist()))
    if not is_covering(F.q, F.m, n, words, rho):
        raise AssertionError(f"{search} produced a non-covering; bug")
    return words


def exhaustive_min_covering(q, m, n, rho, K, *, max_nodes=MAX_NODES):
    """Decide whether K balls of rank-radius rho can cover GF(q^m)^n.

    Exact branch-and-bound set cover.  Two symmetries fix the first two
    centers.  Covering is translation invariant, so one center can be moved
    to 0.  The linear rank isometries X -> AXB fix 0 and map any vector of
    rank r to rankgeom.canonical_rank_vector(F, n, r), so a second center
    can then be moved to one of those min(m, n) vectors.  The search fixes
    0, branches over the canonical vectors at depth 1, and from then on
    over the centers able to cover the first uncovered vector.

    The gain of a center is the number of uncovered vectors in its ball.
    The next j centers cover at most the j largest gains together, so a
    node with j = K - depth centers left is pruned when its j largest
    gains add up to less than the uncovered count.  The gains of all
    q^{mn} centers live in one array that is lowered as a center is placed
    and raised again when it is taken back.

    Monotone in K; the minimum covering size is settled by scanning K
    upward from a lower bound.  Raises InconclusiveSearch, saying how far
    the search got, when the node budget runs out.
    """
    F, Q, offsets, unc, gains = _covering_state(q, m, n, rho)
    if K < 1:
        return CoveringDecision(False)
    second = [int(_batch.pack(F.order, canonical_rank_vector(F, n, r)))
              for r in range(1, min(m, n) + 1)]
    budget = _Budget(max_nodes, f"K={K}", f"best coverage {{}} of {Q} vectors")
    chosen = [0]

    def visit(remaining):
        """Count the node at len(chosen) centers with remaining vectors
        uncovered; an iterator over the centers to try next, empty where
        nothing is left uncovered or the node is pruned."""
        depth = len(chosen)
        budget.visit(depth, Q - remaining)
        left = K - depth
        if remaining == 0 or left == 0 or _top_sum(gains, left) < remaining:
            return iter(())
        if depth == 1:
            return iter(second)
        # the centers covering u are the members of the ball around u;
        # try the largest gain first, ties to the smallest encoding c,
        # by sorting the keys c - Q * gain, from which k % Q gives c
        ball = _batch.add(F, offsets, int(unc.argmax()))
        return iter([k % Q for k in sorted((ball - Q * gains[ball]).tolist())])

    # depth-first over an explicit stack: one candidate iterator per open
    # node, and the vectors newly covered by each center placed after 0
    remaining = Q - len(_cover(F, offsets, unc, gains, 0))
    stack, placed = [visit(remaining)], []
    while remaining and stack:
        c = next(stack[-1], None)
        if c is None:  # every candidate tried: close the node
            stack.pop()
            if placed:  # take back the center that opened it
                chosen.pop()
                new = placed.pop()
                remaining += len(new)
                _retally(F, offsets, gains, new, 1)
                unc[new] = True
            continue
        new = _cover(F, offsets, unc, gains, c)
        chosen.append(c)
        placed.append(new)
        remaining -= len(new)
        stack.append(visit(remaining))
    if remaining == 0:
        return CoveringDecision(
            True, tuple(_verified(F, n, chosen, rho, "exhaustive search")))
    return CoveringDecision(False)


def greedy_covering(q, m, n, rho):
    """Covering code built by the greedy heuristic (largest new coverage,
    ties to the smallest vector encoding).  The result is a verified
    covering, hence a certified upper bound witness for K_R."""
    # covering u lowers the gain of every center in the ball around u by one
    F, Q, offsets, unc, gains = _covering_state(q, m, n, rho)
    centers = []
    while unc.any():
        c = int(gains.argmax())  # argmax takes the first, smallest index
        centers.append(c)
        _cover(F, offsets, unc, gains, c)

    return make_codebook(F, _verified(F, n, centers, rho, "greedy"))


def _colour_classes(P, adj):
    """Greedy colouring of the vertex set P (a bitmask): each class takes
    the lowest uncoloured vertex not adjacent to those already in it.
    Returns (v, colour) in order of rising colour, colours from 1."""
    order, colour = [], 0
    while P:
        colour += 1
        free = P
        while free:
            low = free & -free
            v = low.bit_length() - 1
            order.append((v, colour))
            P ^= low
            free &= ~adj[v] & ~low
    return order


def _max_clique(adj, budget):
    """Size of a largest clique of the graph in which adj[v] is the bitmask
    of the neighbours of v (no loops): Tomita and Seki's branch and bound.

    A vertex set coloured with c independent classes holds no clique of
    more than c vertices.  So a node holding a clique of size s and the
    candidates P colours P greedily, walks P from the highest colour down,
    and returns as soon as s plus a vertex's colour cannot beat the best
    clique found; else it branches on the vertex and drops it from P.
    Where every vertex of P gets its own colour, P is a clique and the
    node adds all of it at once.  Each node is counted on budget.
    """
    best = 0

    def expand(size, P):
        nonlocal best
        classes = _colour_classes(P, adj)
        if classes and classes[-1][1] == len(classes):
            # one vertex per colour: P is a clique, as each class kept only
            # its lowest vertex, to which every later vertex is adjacent
            size, classes = size + len(classes), []
        # max_code_search's code is the clique plus the pinned zero vector
        budget.visit(size, size + 1)
        best = max(best, size)
        for v, colour in reversed(classes):
            if size + colour <= best:
                return
            expand(size + 1, P & adj[v])
            P &= ~(1 << v)

    expand(0, (1 << len(adj)) - 1)
    return best


def max_code_search(q, m, n, d, *, max_nodes=MAX_NODES):
    """Exact maximum cardinality of a code in GF(q^m)^n with minimum rank
    distance >= d, by maximum clique over the rank-distance graph.

    Transposing the m x n expansions keeps every rank distance, so the
    search runs on the n <= m orientation, where the clique search is
    shortest.  Translation invariance pins the zero vector into the code,
    so the clique search runs over the vectors of rank weight >= d with
    edges at pairwise distance >= d, pruned by a greedy-colouring bound
    (_max_clique).  No bound from the bounds module enters the search.
    """
    _check_params(q, m, n, 0)
    if d < 1:
        raise ValueError("distance must be positive")
    if n > m:
        m, n = n, m
    F = make_field(q, m)
    Q = F.order ** n
    if Q > CLIQUE_SPACE:
        raise InconclusiveSearch(f"ambient size {Q} exceeds clique budget")

    tab = _batch.rank_words(F, _batch.unpack(F.order, np.arange(Q), n))
    verts = np.flatnonzero(tab >= d)  # the zero vector has rank 0 < d
    far = tab[_batch.sub(F, verts[:, None], verts)] >= d
    adj = [_bitmask(row) for row in far]  # the diagonal has distance 0
    budget = _Budget(max_nodes, f"d={d}", "largest code found {}")
    return _max_clique(adj, budget) + 1  # the pinned zero vector


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
