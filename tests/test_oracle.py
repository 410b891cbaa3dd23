"""Tests for the brute-force search oracles."""
import functools
import itertools
import random

import numpy as np
import pytest

from rankmetric import _linalg
from rankmetric import bounds as bd
from rankmetric import oracle as oc
from rankmetric import rankgeom as rg
from rankmetric.codes import (codewords, covering_radius, make_code,
                              min_rank_distance)
from rankmetric.ffield import make_field
from rankmetric.rankgeom import rank


def test_exhaustive_covering_settles_smallest_case():
    # the published table leaves K_R(2^2, 2, 1) in [3, 4]; the exhaustive
    # search closes it to exactly 3
    rep = bd.covering_report(2, 2, 2, 1)
    assert rep.interval() == (3, 4)
    assert not oc.exhaustive_min_covering(2, 2, 2, 1, 2).exists
    dec = oc.exhaustive_min_covering(2, 2, 2, 1, 3)
    assert dec.exists
    assert oc.is_covering(2, 2, 2, dec.witness, 1)
    assert len(dec.witness) == 3
    assert (0, 0) in dec.witness  # canonicalized: zero is a center


def test_exhaustive_covering_monotone_in_K():
    results = [oc.exhaustive_min_covering(2, 2, 2, 1, K).exists
               for K in range(1, 6)]
    assert results == [False, False, True, True, True]


def test_exhaustive_covering_trivia():
    # a single ball of radius n covers everything, as does one of a radius
    # above min(m, n)
    for q, m, n, rho in ((2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 2),
                         (2, 2, 2, 9), (3, 1, 2, 5)):
        dec = oc.exhaustive_min_covering(q, m, n, rho, 1)
        assert dec.exists and dec.witness == (((0,) * n),)
    assert not oc.exhaustive_min_covering(2, 2, 2, 1, 0).exists
    with pytest.raises(ValueError):
        oc.exhaustive_min_covering(2, 2, 2, -1, 3)
    # a negative size once read as "no covering"
    with pytest.raises(ValueError, match="^negative covering size$"):
        oc.exhaustive_min_covering(2, 2, 2, 1, -1)


def test_exhaustive_covering_more_centers_than_vectors():
    # K - 1 > q^{mn} centers left at the root: the top-gains bound must sum
    # every gain rather than wrap around
    for K in (4, 5, 6, 9):
        assert oc.exhaustive_min_covering(2, 1, 2, 0, K).exists == (K >= 4)


def test_exhaustive_covering_budgets():
    with pytest.raises(oc.InconclusiveSearch):
        oc.exhaustive_min_covering(2, 5, 5, 1, 3)  # 2^25 > MAX_SPACE
    # K = 12 at (m, n, rho) = (3, 3, 1) passes the top-gains prune, so the
    # search must actually branch -- and give up at a tiny node budget,
    # saying how far it got
    with pytest.raises(oc.InconclusiveSearch) as exc:
        oc.exhaustive_min_covering(2, 3, 3, 1, 12, max_nodes=50)
    msg = str(exc.value)
    assert "node budget 50 hit for K=12: 50 nodes expanded" in msg
    assert "deepest depth" in msg and "of 512 vectors" in msg
    with pytest.raises(oc.InconclusiveSearch) as exc:
        oc.max_code_search(2, 2, 4, 2, max_nodes=100)
    msg = str(exc.value)
    assert "node budget 100 hit for d=2: 100 nodes expanded" in msg
    assert "deepest depth" in msg and "largest code found" in msg


def test_greedy_covering_verified_and_bounded():
    book = oc.greedy_covering(2, 2, 2, 1)
    assert oc.is_covering(2, 2, 2, book.words, 1)
    assert book.size == 3
    book = oc.greedy_covering(2, 3, 3, 1)
    assert oc.is_covering(2, 3, 3, book.words, 1)
    rep = bd.covering_report(2, 3, 3, 1)
    assert rep.best_lower <= book.size
    assert book.size <= 32  # never worse than the table's best upper bound


def test_greedy_covering_deterministic():
    a = oc.greedy_covering(2, 3, 3, 2)
    b = oc.greedy_covering(2, 3, 3, 2)
    assert a.words == b.words


def test_greedy_covering_radius_n_single_word():
    assert oc.greedy_covering(3, 2, 2, 2).words == ((0, 0),)
    assert oc.greedy_covering(2, 3, 3, 3).words == ((0, 0, 0),)
    # radii above min(m, n)
    assert oc.greedy_covering(2, 1, 3, 2).words == ((0, 0, 0),)
    assert oc.greedy_covering(3, 2, 1, 4).words == ((0,),)


def test_greedy_covering_nonbinary():
    book = oc.greedy_covering(3, 2, 2, 1)
    assert oc.is_covering(3, 2, 2, book.words, 1)
    assert bd.covering_report(3, 2, 2, 1).best_lower <= book.size


def test_max_code_search_matches_singleton():
    # every shape within CLIQUE_SPACE, decided within 200,000 nodes; the
    # search uses no bound, so agreeing with Singleton is a real check.
    # Bron-Kerbosch with pivoting left (2,4,2,2) and (2,2,4,2) undecided
    shapes = [(q, m, n) for q in (2, 3, 5) for m in range(1, 9)
              for n in range(1, 9) if q ** (m * n) <= oc.CLIQUE_SPACE]
    cells = [(*shape, d) for shape in shapes
             for d in range(1, min(shape[1:]) + 2)]
    assert sum(d <= min(m, n) for q, m, n, d in cells) == 41
    for cell in cells:
        assert oc.max_code_search(*cell, max_nodes=200_000) \
            == bd.singleton_max_cardinality(*cell), cell


def test_max_code_search_antitone_and_nonbinary():
    vals = [oc.max_code_search(2, 2, 2, d) for d in (1, 2, 3)]
    assert vals == sorted(vals, reverse=True)
    assert oc.max_code_search(3, 1, 2, 1) == 9
    assert oc.max_code_search(3, 2, 1, 1) == 9
    assert oc.max_code_search(3, 2, 1, 2) == bd.singleton_max_cardinality(
        3, 2, 1, 2)
    with pytest.raises(ValueError):
        oc.max_code_search(2, 2, 2, 0)
    with pytest.raises(oc.InconclusiveSearch):
        oc.max_code_search(2, 3, 3, 2)


def _brute_max_clique(adj):
    """Largest clique size by a pass over every vertex subset S: S is a
    clique iff S minus its lowest vertex v is one and lies in adj[v]."""
    clique = [True]
    for S in range(1, 1 << len(adj)):
        v, rest = (S & -S).bit_length() - 1, S & (S - 1)
        clique.append(clique[rest] and rest & ~adj[v] == 0)
    return max(bin(S).count("1") for S, ok in enumerate(clique) if ok)


def test_max_clique_against_brute_force():
    for seed in range(50):
        rng = random.Random(seed)
        nv, density = rng.randint(0, 12), 0.3 + 0.6 * seed / 49
        adj = [0] * nv
        for u, v in itertools.combinations(range(nv), 2):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        budget = oc._Budget(oc.MAX_NODES, "test", "{}")
        assert oc._max_clique(adj, budget) == _brute_max_clique(adj), seed


@pytest.mark.parametrize("q,m,n,d,value,nodes", [
    (2, 2, 2, 2, 4, 2), (2, 2, 3, 2, 8, 10), (2, 3, 2, 2, 8, 10),
    (3, 2, 2, 2, 9, 5), (2, 4, 2, 2, 16, 579), (2, 2, 4, 2, 16, 579)])
def test_max_code_search_node_counts(q, m, n, d, value, nodes):
    # the n <= m orientation, the vertex order and the colouring fix the
    # number of nodes a search expands
    assert _recorded(oc.max_code_search, q, m, n, d) == (value, [nodes])


def test_covering_searches_share_one_read_only_ball():
    # a minimum-covering scan asks for the same ball once per K: it is
    # ranked once and kept read-only, while the state a search changes is
    # made fresh on every call
    oc._ball.cache_clear()
    F, Q, offsets, unc, gains = oc._covering_state(3, 2, 2, 1)
    assert not offsets.flags.writeable
    assert oc.greedy_covering(3, 2, 2, 1).size >= 5
    again = oc._covering_state(3, 2, 2, 1)
    assert again[2] is offsets and again[3].all()
    assert (again[4] == len(offsets)).all()
    assert oc._ball.cache_info().maxsize == 2


@pytest.mark.parametrize("q,m,n", [(2, 1, 8), (2, 2, 4), (3, 2, 2)])
def test_max_code_search_complete_graph_in_one_node(q, m, n):
    # at d = 1 every pair of vertices is adjacent, so the first colouring
    # gives each vertex its own colour and the root takes the whole clique
    assert oc.max_code_search(q, m, n, 1, max_nodes=1) == q ** (m * n)


def test_max_code_search_witnessless_value_vs_known_mrd():
    # a Gabidulin (2, 1) code over GF(4) meets the packing optimum, and the
    # clique search must not beat the Singleton ceiling
    assert oc.max_code_search(2, 2, 2, 2) == 4


def test_random_linear_code():
    c1 = oc.random_linear_code(2, 3, 4, 2, seed=7)
    c2 = oc.random_linear_code(2, 3, 4, 2, seed=7)
    assert c1.G == c2.G
    assert c1.k == 2 and c1.n == 4
    assert oc.random_linear_code(2, 3, 4, 2, seed=8).G != c1.G
    assert oc.random_linear_code(2, 2, 3, 0).size == 1
    full = oc.random_linear_code(2, 2, 3, 3, seed=1)
    assert full.size == 2 ** 6
    with pytest.raises(ValueError):
        oc.random_linear_code(2, 2, 3, 4)
    # sampled codes really have independent rows: distance is positive
    for seed in range(5):
        c = oc.random_linear_code(3, 2, 3, 2, seed=seed)
        assert min_rank_distance(c) >= 1


def test_exhaustive_covering_nonbinary_settles():
    # K_R(3^2, 2, 1) = 5: strictly inside the formula interval [4, 9]
    rep = bd.covering_report(3, 2, 2, 1)
    assert rep.interval() == (4, 9)
    assert not oc.exhaustive_min_covering(3, 2, 2, 1, 4).exists
    dec = oc.exhaustive_min_covering(3, 2, 2, 1, 5)
    assert dec.exists
    assert oc.is_covering(3, 2, 2, dec.witness, 1)
    # re-verify the witness by direct distance scan with the public rank
    F = make_field(3, 2)
    for v in range(81):
        w = (v % 9, v // 9)
        assert min(rank(F, tuple(F.sub(a, b) for a, b in zip(w, c)))
                   for c in dec.witness) <= 1


def _min_covering(q, m, n, rho):
    """The searched minimum K_R; its witness is re-verified on the way."""
    for K in range(1, (q ** m) ** n + 1):
        dec = oc.exhaustive_min_covering(q, m, n, rho, K)
        if dec.exists:
            assert len(dec.witness) == K
            assert oc.is_covering(q, m, n, dec.witness, rho)
            return K


@functools.cache
def _recorded(search, *args):
    """search(*args) and the node count of each search budget it opened.
    Cached, so the 43,944-node decision of (2, 4, 2, 1, K=8) runs once for
    the tests that read it."""
    budgets = []

    class Recorded(oc._Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oc, "_Budget", Recorded)
        out = search(*args)
    return out, [b.nodes for b in budgets]


def test_exhaustive_covering_settles_frontier_cell():
    # the published table leaves K_R(2^4, 2, 1) in [7, 8]
    assert bd.covering_report(2, 4, 2, 1).interval() == (7, 8)
    assert not oc.exhaustive_min_covering(2, 4, 2, 1, 7).exists
    dec = _recorded(oc.exhaustive_min_covering, 2, 4, 2, 1, 8)[0]
    assert dec.exists and len(dec.witness) == 8
    assert oc.is_covering(2, 4, 2, dec.witness, 1)


def test_exhaustive_covering_raises_lower_bound():
    # the published table gives K_R(2^4, 3, 2) >= 4; four balls do not cover
    assert bd.covering_report(2, 4, 3, 2).interval() == (4, 8)
    assert not oc.exhaustive_min_covering(2, 4, 3, 2, 4).exists


def test_exhaustive_covering_settles_upper_end():
    # the published table leaves K_R(2^3, 3, 2) in [2, 4]
    assert bd.covering_report(2, 3, 3, 2).interval() == (2, 4)
    assert _min_covering(2, 3, 3, 2) == 4


@pytest.mark.parametrize("q,m,n,rho", [
    (2, 2, 2, 1), (2, 3, 2, 1), (2, 2, 3, 1), (3, 2, 2, 1)])
def test_exhaustive_covering_against_brute_force(q, m, n, rho):
    # every cell with at most 81 vectors: no (K_R - 1)-subset of the ambient
    # covers it, by plain set unions over scalar ranks.  Covering is
    # translation invariant, so the subsets may all contain 0.
    K = _min_covering(q, m, n, rho)
    F = make_field(q, m)
    space = list(itertools.product(range(F.order), repeat=n))
    ball = {v: frozenset(i for i, w in enumerate(space) if rank(
        F, tuple(F.sub(a, b) for a, b in zip(v, w))) <= rho) for v in space}
    zero, rest = space[0], space[1:]
    assert not any(len(ball[zero].union(*(ball[c] for c in more)))
                   == len(space)
                   for more in itertools.combinations(rest, K - 2))


@pytest.mark.parametrize("q,m,n,rho,K", [
    (2, 2, 2, 1, 3), (3, 2, 2, 1, 5), (2, 4, 2, 1, 8), (2, 3, 3, 2, 4)])
def test_is_covering_rejects_a_minimum_covering_minus_one(q, m, n, rho, K):
    # K = K_R here, so dropping any one center of a minimum covering
    # leaves some vector uncovered
    words = _recorded(oc.exhaustive_min_covering, q, m, n, rho, K)[0].witness
    assert oc.is_covering(q, m, n, words, rho)
    for i in range(K):
        assert not oc.is_covering(q, m, n, words[:i] + words[i + 1:], rho)


def test_is_covering_guard(monkeypatch):
    # GF(2^2)^2 has 16 vectors; with the guard lowered below that the scan
    # is refused instead of run
    monkeypatch.setattr(rg, "BRUTE_GUARD", 16)
    assert oc.is_covering(2, 2, 2, [(0, 0)], 2)
    monkeypatch.setattr(rg, "BRUTE_GUARD", 15)
    with pytest.raises(ValueError, match="^ambient size 16 exceeds guard$"):
        oc.is_covering(2, 2, 2, [(0, 0)], 2)


def test_covering_witnesses_are_reverified(monkeypatch):
    """Both covering searches hand their witness to is_covering before
    returning it, and refuse to return a witness it rejects."""
    checked = []
    real = oc.is_covering

    def spy(q, m, n, centers, rho):
        checked.append((q, m, n, tuple(centers), rho))
        return real(q, m, n, centers, rho)
    monkeypatch.setattr(oc, "is_covering", spy)
    dec = oc.exhaustive_min_covering(2, 3, 3, 2, 4)
    book = oc.greedy_covering(2, 2, 2, 1)
    assert checked == [(2, 3, 3, dec.witness, 2), (2, 2, 2, book.words, 1)]
    assert not oc.exhaustive_min_covering(2, 2, 2, 1, 2).exists
    assert len(checked) == 2  # no witness, nothing to check

    monkeypatch.setattr(oc, "is_covering", lambda *args: False)
    with pytest.raises(AssertionError,
                       match="^exhaustive search produced a non-covering; bug$"):
        oc.exhaustive_min_covering(2, 2, 2, 1, 3)
    with pytest.raises(AssertionError,
                       match="^greedy produced a non-covering; bug$"):
        oc.greedy_covering(2, 2, 2, 1)


def _covers_pairwise(q, m, n, centers, rho):
    """Scalar reference: the rank distance of every (vector, center) pair,
    as the GF(q)-rank of the difference's m x n expansion."""
    F = make_field(q, m)
    dists = [[_expansion_distance(F, v, c) for c in centers]
             for v in itertools.product(range(F.order), repeat=n)]
    return all(min(row) <= rho for row in dists)


# the same center sets come back for every chunk size
_covers_pairwise_once = functools.cache(_covers_pairwise)


def _expansion_distance(F, u, v):
    """The GF(q)-rank of the m x n expansion of u - v."""
    return _linalg.rank_field(make_field(F.q, 1), F.expand(
        tuple(F.sub(a, b) for a, b in zip(u, v))))


PAIRWISE_SHAPES = pytest.mark.parametrize("q,m,n,rho,trials", [
    (2, 2, 2, 1, 24), (2, 3, 2, 1, 12), (3, 2, 2, 1, 12), (5, 2, 2, 1, 6),
    (2, 1, 3, 0, 6), (2, 2, 3, 1, 9), (3, 2, 3, 1, 3), (2, 3, 3, 2, 6),
    (2, 2, 2, 2, 3)])


@PAIRWISE_SHAPES
def test_is_covering_matches_pairwise_scan(q, m, n, rho, trials):
    # random sets around the greedy size: plain samples, the greedy covering
    # with one center swapped for a random vector, and with one added; then
    # no centers, a repeated center and numpy-integer centers
    rng = random.Random(1000 * q + 10 * m + n)
    order = q ** m
    greedy = list(oc.greedy_covering(q, m, n, rho).words)

    def vector():
        return tuple(rng.randrange(order) for _ in range(n))

    seen = set()
    for t in range(trials):
        if t % 3 == 0:
            centers = [vector() for _ in range(rng.randint(1, len(greedy)))]
        elif t % 3 == 1:
            centers = greedy[:]
            centers[rng.randrange(len(centers))] = vector()
        else:
            centers = greedy + [vector()]
        want = _covers_pairwise_once(q, m, n, tuple(centers), rho)
        assert oc.is_covering(q, m, n, centers, rho) == want
        assert oc.is_covering(q, m, n, np.array(centers), rho) == want
        seen.add(want)
    short = greedy[:-1] + greedy[:1]  # one center dropped, one repeated
    want = _covers_pairwise_once(q, m, n, tuple(short), rho)
    assert oc.is_covering(q, m, n, short, rho) == want
    seen.add(want)
    # at rho = min(m, n) one ball is everything, so only no centers fails
    assert seen == ({True} if rho == min(m, n) else {True, False})
    assert not oc.is_covering(q, m, n, [], rho)


@PAIRWISE_SHAPES
def test_is_covering_matches_pairwise_scan_in_small_chunks(
        monkeypatch, q, m, n, rho, trials):
    # chunks of one coordinate and of one vector mark each ball vector on
    # its own, and 2n + 1 every third one, so that the ball chunk and the
    # centers each end up the smaller side
    for cap in (1, n, 2 * n + 1):
        monkeypatch.setattr(oc, "COVER_CHUNK", cap)
        test_is_covering_matches_pairwise_scan(q, m, n, rho, trials)


@pytest.mark.parametrize("q,m,n", [(2, 1, 4), (2, 2, 3), (3, 1, 3), (5, 2, 2)])
def test_is_covering_radius_zero_needs_every_vector(monkeypatch, q, m, n):
    # at rho = 0 the ball is {0}, smaller than the centers: every vector
    # covers, and every vector but one leaves exactly that one uncovered
    space = list(itertools.product(range(q ** m), repeat=n))
    for cap in (1, n, 2 * n + 1, oc.COVER_CHUNK):
        monkeypatch.setattr(oc, "COVER_CHUNK", cap)
        assert oc.is_covering(q, m, n, space, 0)
        for i in (0, 1, len(space) // 2, len(space) - 1):
            assert not oc.is_covering(q, m, n, space[:i] + space[i + 1:], 0)
        assert oc.is_covering(q, m, n, space[::-1], 0)


def _systematic_code(q, m, n, k, seed):
    """Seeded linear code over GF(q^m) with generator [I_k | R]."""
    F = make_field(q, m)
    rng = random.Random(seed)
    return make_code(F, [[int(i == j) for j in range(k)]
                         + [rng.randrange(F.order) for _ in range(n - k)]
                         for i in range(k)])


@pytest.mark.parametrize("q,m,n,k,seed", [(3, 3, 3, 1, 5), (2, 4, 4, 2, 11)])
def test_is_covering_agrees_with_array_covering_radius(q, m, n, k, seed):
    # past the pairwise scan's reach: the codewords of a seeded code cover
    # at its covering radius, which the array kernels compute, and not one
    # below it
    code = _systematic_code(q, m, n, k, seed)
    words = list(codewords(code))
    assert len(words) == q ** (m * k)
    rho = covering_radius(code)
    assert rho >= 1
    assert oc.is_covering(q, m, n, words, rho)
    assert not oc.is_covering(q, m, n, words, rho - 1)


def test_is_covering_rejects_malformed_centers():
    # zip once cut the short center (0,) to nothing, so it passed as a
    # covering of GF(4)^2, which no single ball of radius 1 is
    assert not oc.is_covering(2, 2, 2, [(0, 0)], 1)
    with pytest.raises(ValueError, match=r"^vector \(0,\) has length 1, "
                                         r"not 2$"):
        oc.is_covering(2, 2, 2, [(0,)], 1)
    with pytest.raises(ValueError, match="has length 3, not 2"):
        oc.is_covering(2, 2, 2, [(0, 0), (1, 2, 3)], 2)
    # encodings outside GF(4) once aliased: 4 read as 0, -1 as 3
    for bad in (4, -1, 7):
        with pytest.raises(ValueError,
                           match=rf"^encoding {bad} outside GF\(2\^2\)$"):
            oc.is_covering(2, 2, 2, [(0, 0), (bad, 1)], 2)


class _Unusable:
    """Stands in for a module; every attribute lookup fails."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"is_covering used {self.name}.{attr}")


@pytest.mark.parametrize("q,m,n,rho", [(2, 3, 2, 1), (3, 2, 2, 1)])
def test_is_covering_independent_of_array_kernels(monkeypatch, q, m, n, rho):
    # is_covering and the scalar rankgeom.rank, rank_distance and
    # enumerate_vectors it rests on check the array kernels, so they must
    # not run on them
    greedy = list(oc.greedy_covering(q, m, n, rho).words)
    monkeypatch.setattr(oc, "_batch", _Unusable("_batch"))
    monkeypatch.setattr(oc, "np", _Unusable("np"))
    monkeypatch.setattr(rg, "_batch", _Unusable("rankgeom._batch"))
    assert oc.is_covering(q, m, n, greedy, rho)
    for centers in (greedy[1:], greedy[:-1], greedy[::2]):
        assert oc.is_covering(q, m, n, centers, rho) == _covers_pairwise(
            q, m, n, centers, rho)
    F = make_field(q, m)
    vectors = list(rg.enumerate_vectors(F, n))
    assert len(vectors) == F.order ** n
    assert [rg.rank_distance(F, v, greedy[-1]) for v in vectors] == [
        _expansion_distance(F, v, greedy[-1]) for v in vectors]


@pytest.mark.parametrize("q,m,n,rho,K,exists,nodes", [
    (2, 4, 2, 1, 7, False, 95), (2, 4, 2, 1, 8, True, 43944),
    (3, 2, 2, 1, 4, False, 36), (2, 3, 3, 2, 3, False, 4)])
def test_exhaustive_covering_node_counts(q, m, n, rho, K, exists, nodes):
    # the candidate order, the two pruning rules and the undo fix the
    # number of nodes a decision expands
    dec, budget_nodes = _recorded(oc.exhaustive_min_covering, q, m, n, rho, K)
    assert dec.exists == exists
    assert budget_nodes == [nodes]
