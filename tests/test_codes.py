"""Tests for code construction, duality, and brute-force evaluation.

Every closed-form or structural claim is checked against independent
enumeration: scalar rank computations oracle the vectorized rank kernel,
and covering radii are recomputed by a direct python double loop.
"""
import itertools
import time

import numpy as np
import pytest

from rankmetric import _batch
from rankmetric import codes as cd
from rankmetric import rankgeom as rg
from rankmetric.ffield import make_field


def brute_covering_radius(code):
    """Independent oracle: direct max-min scan over the whole ambient."""
    F, n = code.field, code.n
    words = list(cd.codewords(code))
    return max(
        min(rg.rank(F, tuple(F.sub(a, b) for a, b in zip(x, c)))
            for c in words)
        for x in itertools.product(range(F.order), repeat=n)
    )


def random_linear_codes(field, n, k, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        G = rng.integers(0, field.order, size=(k, n)).tolist()
        try:
            out.append(cd.make_code(field, G))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# construction and enumeration
# ---------------------------------------------------------------------------

def test_make_code_validation():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        cd.make_code(F, [(1, 2), (2, 3)])  # (2,3) = alpha*(1,2): dependent
    with pytest.raises(ValueError):
        cd.make_code(F, [(1, 2), (1,)])
    with pytest.raises(ValueError, match="^encoding 4 outside field$"):
        cd.make_code(F, [(1, 4)])
    with pytest.raises(ValueError):
        cd.make_code(F, [])


def test_make_codebook_validation():
    F = make_field(2, 2)
    # encodings outside GF(4) are refused as make_code refuses them, not
    # ranked as if their high bits were digits
    with pytest.raises(ValueError, match="^encoding 5 outside field$"):
        cd.make_codebook(F, [(0, 0), (5, 6)])
    with pytest.raises(ValueError, match="^encoding -1 outside field$"):
        cd.make_codebook(make_field(3, 1), [(0, 2), (-1, 0)])
    with pytest.raises(ValueError, match="^ragged codewords$"):
        cd.make_codebook(F, [(0, 0), (1,)])
    with pytest.raises(ValueError, match="^empty codebook$"):
        cd.make_codebook(F, [])
    assert cd.make_codebook(F, [(3, 0), (0, 3), (3, 0)]).words == \
        ((0, 3), (3, 0))


def test_codeword_stream():
    F = make_field(2, 2)
    C = cd.make_code(F, [(1, 2)])
    # message-odometer order is frozen
    assert list(cd.codewords(C)) == [(0, 0), (1, 2), (2, 3), (3, 1)]
    whole = cd.make_code(F, [(1, 0), (0, 1)])
    assert len(set(cd.codewords(whole))) == 16
    zero = cd.make_zero_code(F, 3)
    assert list(cd.codewords(zero)) == [(0, 0, 0)]
    assert zero.k == 0 and zero.size == 1


@pytest.mark.parametrize("q,m,n,k", [(2, 2, 4, 3), (3, 2, 3, 2)])
def test_encode_matches_codeword_stream(q, m, n, k):
    # codeword w of the stream is the codeword of message w in
    # message-odometer order, msg_i = (w // order^i) mod order
    F = make_field(q, m)
    C = random_linear_codes(F, n, k, 1, seed=q)[0]
    words = list(cd.codewords(C))
    assert len(words) == F.order ** k
    for w, word in enumerate(words):
        assert C.encode([w // F.order ** i % F.order for i in range(k)]) == word


def test_contains():
    F = make_field(2, 3)
    C = cd.gabidulin(F, F.polynomial_basis(), 2)
    words = set(cd.codewords(C))
    for x in itertools.product(range(8), repeat=3):
        assert C.contains(x) == (x in words)


# ---------------------------------------------------------------------------
# distribution / distances
# ---------------------------------------------------------------------------

def test_rank_distribution_examples():
    F = make_field(2, 2)
    C = cd.make_code(F, [(1, 2)])
    assert cd.rank_distribution(C) == (1, 0, 3)
    assert cd.min_rank_distance(C) == 2
    whole = cd.make_code(F, [(1, 0), (0, 1)])
    n1 = rg.sphere_count(2, 2, 2, 1)
    n2 = rg.sphere_count(2, 2, 2, 2)
    assert cd.rank_distribution(whole) == (1, n1, n2)
    assert cd.min_rank_distance(cd.make_zero_code(F, 2)) is None


def scalar_distribution(code, weight):
    """Independent oracle: weight(word) of every codeword, one at a time."""
    counts = [0] * (code.n + 1)
    for w in cd.codewords(code):
        counts[weight(w)] += 1
    return tuple(counts)


def check_rank_distribution(C):
    F, n = C.field, C.n
    dist = cd.rank_distribution(C)
    assert sum(dist) == C.size
    assert dist[0] == 1
    assert all(dist[i] == 0 for i in range(min(F.m, n) + 1, n + 1))
    # oracle: rank every codeword with the scalar path
    assert dist == scalar_distribution(C, lambda w: rg.rank(F, w))


@pytest.mark.parametrize("q,m,n,k", [
    (2, 3, 3, 2), (3, 2, 2, 1), (2, 4, 3, 2), (5, 2, 2, 1),
    (2, 2, 3, 0), (3, 2, 2, 0),             # k = 0
    (2, 2, 2, 2), (5, 1, 2, 2),             # k = n
    (2, 2, 4, 2), (3, 2, 3, 2),             # n > m
    (2, 1, 5, 3), (3, 1, 4, 2), (5, 1, 3, 2),  # m = 1
])
def test_rank_distribution_invariants(q, m, n, k):
    F = make_field(q, m)
    codes = [cd.make_zero_code(F, n)] if k == 0 else \
        random_linear_codes(F, n, k, 3, seed=q * 100 + m)
    for C in codes:
        check_rank_distribution(C)


@pytest.mark.parametrize("q,m,n,k", [(2, 4, 4, 2), (3, 3, 3, 2), (5, 2, 2, 1)])
def test_rank_distribution_gabidulin(q, m, n, k):
    F = make_field(q, m)
    check_rank_distribution(cd.gabidulin(F, F.polynomial_basis()[:n], k))


def mrd_distribution(q, m, n, d):
    """Closed-form rank distribution of an MRD code with n <= m and minimum
    distance d (Gabidulin 1985), from Gaussian binomials."""
    def gauss(a, b):
        out = 1
        for i in range(b):
            out = out * (q ** (a - i) - 1) // (q ** (i + 1) - 1)
        return out
    return (1,) + tuple(
        0 if r < d else gauss(n, r) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * gauss(r, j)
            * (q ** (m * (r - d - j + 1)) - 1)
            for j in range(r - d + 1))
        for r in range(1, n + 1))


def test_rank_distribution_mrd_closed_form():
    # the formula against the scalar oracle on small codes first
    for q, m, n, k in [(2, 3, 3, 2), (2, 4, 3, 1), (3, 3, 3, 2)]:
        F = make_field(q, m)
        C = cd.gabidulin(F, F.polynomial_basis()[:n], k)
        assert mrd_distribution(q, m, n, n - k + 1) == scalar_distribution(
            C, lambda w: rg.rank(F, w))
    # 2^27 codewords, past the guard on codewords but not on scalar classes
    F = make_field(2, 9)
    C = cd.gabidulin(F, F.polynomial_basis(), 3)
    assert cd.rank_distribution(C) == mrd_distribution(2, 9, 9, 7)


def test_rank_distribution_class_guard():
    F = make_field(2, 8)
    C = cd.gabidulin(F, F.polynomial_basis(), 4)
    assert (F.order ** 4 - 1) // (F.order - 1) == 16_843_009 > rg.BRUTE_GUARD
    with pytest.raises(ValueError, match="exceeds guard"):
        cd.rank_distribution(C)


@pytest.mark.parametrize("as_book", [False, True])
def test_rank_distribution_ranks_one_word_per_class(monkeypatch, as_book):
    F = make_field(3, 2)
    C = random_linear_codes(F, 3, 2, 1, seed=11)[0]
    expected = cd.rank_distribution(C)
    if as_book:
        C = cd.make_codebook(F, cd.codewords(C))
    ranked = []
    kernel = _batch.rank_words

    def counting(field, words):
        ranked.append(len(words))
        return kernel(field, words)
    monkeypatch.setattr(_batch, "rank_words", counting)
    assert cd.rank_distribution(C) == expected
    if as_book:
        assert sum(ranked) == C.size == 81
    else:
        assert sum(ranked) == (F.order ** 2 - 1) // (F.order - 1) == 10


def test_code_scans_read_the_rankgeom_guard(monkeypatch):
    # rankgeom.BRUTE_GUARD, read when a scan starts, bounds all five scans
    F = make_field(2, 3)
    C = cd.gabidulin(F, F.polynomial_basis(), 2)  # 64 words in 9 classes
    monkeypatch.setattr(rg, "BRUTE_GUARD", 9)
    assert cd.rank_distribution(C) == (1, 0, 49, 14)
    monkeypatch.setattr(rg, "BRUTE_GUARD", 8)
    with pytest.raises(ValueError,
                       match="^scalar class count 9 exceeds guard$"):
        cd.rank_distribution(C)
    for scan in (cd.codewords, cd.transpose_code, cd.array_view):
        with pytest.raises(ValueError, match="exceeds guard$"):
            list(scan(C))
    # the covering radius of a linear code marks its q^{m(n-k)} = 8 syndromes
    assert cd.covering_radius(C) == 1
    monkeypatch.setattr(rg, "BRUTE_GUARD", 7)
    with pytest.raises(ValueError, match="^syndrome space 8 exceeds guard$"):
        cd.covering_radius(C)


def test_codewords_refuses_at_the_call(monkeypatch):
    # codewords once was a generator function, so a code past the guard
    # raised only at the first next(); now the call itself refuses
    F = make_field(2, 3)
    C = cd.gabidulin(F, F.polynomial_basis(), 2)  # 64 words
    monkeypatch.setattr(rg, "BRUTE_GUARD", 63)
    with pytest.raises(rg.GuardExceeded,
                       match="^codebook size 64 exceeds guard$"):
        cd.codewords(C)
    with pytest.raises(rg.GuardExceeded,
                       match="^codebook size 64 exceeds guard$"):
        cd.array_view(C)
    monkeypatch.setattr(rg, "BRUTE_GUARD", 64)
    # message w has symbols (w mod 8, w div 8): message-odometer order
    assert list(cd.codewords(C)) == [C.encode((w % 8, w // 8))
                                     for w in range(64)]
    book = cd.make_codebook(F, cd.codewords(C))
    monkeypatch.setattr(rg, "BRUTE_GUARD", 1)  # a codebook is not scanned
    assert list(cd.codewords(book)) == list(book.words)


def test_scalar_code_api_refuses_bad_vectors():
    # encode, contains and dot once truncated or padded a vector of the
    # wrong length, and read an encoding outside the field
    F = make_field(2, 3)
    C = cd.gabidulin(F, (1, 2, 4), 2)
    assert C.encode((1, 2)) == (3, 1, 3)  # (1, 2, 4) + 2 (1, 4, 6)
    assert C.contains(C.encode((1, 2)))
    assert not C.contains((1, 0, 0))
    for word in [(0, 0), (0, 0, 0, 5)]:
        with pytest.raises(ValueError, match=f"^word has length {len(word)}, "
                                             "not n = 3$"):
            C.contains(word)
    for word, bad in [((0, 0, 8), 8), ((0, -1, 0), -1)]:
        with pytest.raises(ValueError, match=f"^encoding {bad} outside field$"):
            C.contains(word)
    for msg in [(1,), (1, 2, 3), ()]:
        with pytest.raises(ValueError, match=r"^zip\(\) argument"):
            C.encode(msg)
    for msg, bad in [((1, -1), -1), ((1, 99), 99)]:
        with pytest.raises(ValueError, match=f"^encoding {bad} outside field$"):
            C.encode(msg)
    with pytest.raises(ValueError, match=r"^zip\(\) argument"):
        cd.dot(F, (1, 2), (1,))
    # a full-length code has no parity checks, yet still checks its words
    full = cd.make_code(F, [(1, 0), (0, 1)])
    assert full.contains((5, 6))
    with pytest.raises(ValueError, match="^word has length 3, not n = 2$"):
        full.contains((5, 6, 0))


def test_min_distance_nonlinear_pairs():
    F = make_field(2, 2)
    book = cd.make_codebook(F, [(0, 0), (1, 2), (2, 3)])
    ds = [rg.rank_distance(F, u, v)
          for u, v in itertools.combinations(book.words, 2)]
    assert cd.min_rank_distance(book) == min(ds)
    single = cd.make_codebook(F, [(1, 1)])
    assert cd.min_rank_distance(single) is None


def test_min_distance_codebook_ranks_chunks(monkeypatch):
    """A Codebook ranks its differences _batch.CHUNK at a time, with the
    same distances as the pairwise scalar scan."""
    books = []
    for q, m, n in ((2, 2, 2), (3, 1, 3), (5, 1, 2)):
        F = make_field(q, m)
        rng = np.random.default_rng(q)
        books.append(cd.make_codebook(
            F, rng.integers(0, F.order, size=(9, n)).tolist()))
    F8 = make_field(2, 3)
    books.append(cd.make_codebook(  # 8 words at distance 3
        F8, cd.codewords(cd.gabidulin(F8, F8.polynomial_basis(), 1))))
    expected = [min(rg.rank_distance(b.field, u, v)
                    for u, v in itertools.combinations(b.words, 2))
                for b in books]
    assert expected[-1] == 3
    kernel = _batch.rank_words

    def bounded(field, words):
        assert len(words) <= 3
        return kernel(field, words)
    monkeypatch.setattr(_batch, "CHUNK", 3)
    monkeypatch.setattr(_batch, "rank_words", bounded)
    assert [cd.min_rank_distance(b) for b in books] == expected


@pytest.mark.parametrize("q,m,n,k", [(2, 3, 4, 2), (3, 2, 3, 2), (5, 1, 4, 2)])
def test_hamming_distribution_against_per_word_count(q, m, n, k):
    F = make_field(q, m)
    hamming = lambda w: sum(1 for x in w if x)  # noqa: E731
    for C in random_linear_codes(F, n, k, 3, seed=q * 7 + n):
        assert cd.hamming_distribution(C) == scalar_distribution(C, hamming)
    book = cd.make_codebook(F, [(0,) * n, (1,) + (0,) * (n - 1),
                                (1,) * n, (0, 2 % F.order) + (1,) * (n - 2)])
    assert cd.hamming_distribution(book) == scalar_distribution(book, hamming)


def test_rank_vs_hamming_distance():
    F = make_field(2, 3)
    for C in [cd.gabidulin(F, F.polynomial_basis(), k) for k in (1, 2)] + \
            random_linear_codes(F, 3, 2, 3, seed=5):
        h = cd.hamming_distribution(C)
        d_h = next(i for i in range(1, 4) if h[i])
        assert cd.min_rank_distance(C) <= d_h


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_example():
    F = make_field(2, 2)
    C = cd.make_code(F, [(1, 2)])
    D = cd.dual(C)
    assert D.G == ((2, 1),)
    whole = cd.make_code(F, [(1, 0), (0, 1)])
    assert cd.dual(whole).k == 0
    assert cd.dual(cd.make_zero_code(F, 2)).k == 2


def test_dual_cache_is_bounded():
    F = make_field(2, 2)
    C = cd.make_code(F, [(1, 2)])
    assert cd.dual(C) is cd.dual(cd.make_code(F, [(1, 2)]))
    for a in range(1, 4):
        for b in range(4):
            cd.dual(cd.make_code(F, [(a, b, 1)]))
    info = cd.dual.cache_info()
    assert info.maxsize == _batch.CACHE_SIZE
    assert info.currsize <= _batch.CACHE_SIZE


@pytest.mark.parametrize("q,m,n,k", [(2, 2, 3, 1), (2, 3, 2, 1), (3, 2, 3, 2)])
def test_dual_properties_random(q, m, n, k):
    F = make_field(q, m)
    for C in random_linear_codes(F, n, k, 15, seed=q + m + n):
        D = cd.dual(C)
        assert D.k == n - k
        for g in C.G:
            for h in D.G:
                assert cd.dot(F, g, h) == 0
        # biduality as codeword sets
        assert set(cd.codewords(cd.dual(D))) == set(cd.codewords(C))


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------

def test_covering_radius_trivial():
    F = make_field(2, 2)
    assert cd.covering_radius(cd.make_code(F, [(1, 0), (0, 1)])) == 0
    assert cd.covering_radius(cd.make_zero_code(F, 2)) == 2
    F8 = make_field(2, 3)
    assert cd.covering_radius(cd.make_zero_code(F8, 3)) == 3
    F9 = make_field(3, 2)
    assert cd.covering_radius(cd.make_zero_code(F9, 2)) == 2  # odd q


@pytest.mark.parametrize("q,m,n,k", [(2, 2, 2, 1), (2, 2, 3, 1),
                                     (2, 3, 2, 1), (2, 3, 3, 2),
                                     (3, 2, 2, 1), (3, 1, 3, 1),
                                     (5, 1, 2, 1)])
def test_covering_radius_paths_agree(q, m, n, k):
    """Shell growth over syndromes, shell growth over translates, and the
    direct python loop all compute the same covering radius."""
    F = make_field(q, m)
    for C in random_linear_codes(F, n, k, 4, seed=17 * m + n):
        rho = cd.covering_radius(C)
        book = cd.make_codebook(F, cd.codewords(C))
        assert cd.covering_radius(book) == rho
        assert brute_covering_radius(C) == rho


@pytest.mark.parametrize("as_book", [False, True])
def test_distribution_past_word_packing_limits(as_book):
    """Long words: m * n = 72 bits (past one int64) and n = 40 coordinates
    (past one uint32 bit row) are ranked exactly."""
    F = make_field(2, 9)
    C = cd.gabidulin(F, F.polynomial_basis()[:8], 1)
    F1 = make_field(2, 1)
    D = cd.make_code(F1, [(0,) * 39 + (1,)])
    if as_book:
        C = cd.make_codebook(F, cd.codewords(C))
        D = cd.make_codebook(F1, cd.codewords(D))
    assert cd.rank_distribution(C) == (1, 0, 0, 0, 0, 0, 0, 0, 511)
    assert cd.rank_distribution(D) == (1, 1) + (0,) * 39
    assert cd.min_rank_distance(C) == 8
    assert cd.min_rank_distance(D) == 1


@pytest.mark.parametrize("q,m,n", [(2, 2, 2), (2, 3, 2), (2, 2, 3),
                                   (3, 2, 2), (3, 1, 3), (5, 1, 2)])
def test_covering_radius_nonlinear_codebooks(q, m, n):
    """Random codebooks without the zero word, and single words, against
    the direct python loop."""
    F = make_field(q, m)
    rng = np.random.default_rng(31 * q + 7 * m + n)
    for size in (1, 1, 2, 3, 5):
        words = [w for w in rng.integers(0, F.order, size=(size, n)).tolist()
                 if any(w)] or [[1] * n]
        book = cd.make_codebook(F, words)
        rho = cd.covering_radius(book)
        assert rho == brute_covering_radius(book)
        if book.size == 1:
            assert rho == min(m, n)


def test_covering_radius_codebooks_past_one_chunk():
    """Ambients of 2^20 vectors hold shells of many _batch.CHUNK chunks,
    while the rank-0 shell is the one vector 0."""
    F = make_field(2, 5)
    assert F.order ** 4 == 16 * _batch.CHUNK
    G = cd.gabidulin(F, F.polynomial_basis()[:4], 2)
    book = cd.make_codebook(F, cd.codewords(G))
    assert cd.covering_radius(book) == 2  # MRD: n - k
    # two balls of radius 3 miss a vector: 2 V_3 < 2^20
    assert 2 * rg.ball_counts(2, 5, 4, 3)[1] < F.order ** 4
    pair = cd.make_codebook(F, [(0, 0, 0, 0), (1, 2, 4, 8)])
    assert cd.covering_radius(pair) == 4


def test_covering_radius_reads_shells_in_chunks(monkeypatch):
    """With a small _batch.CHUNK every shell slice stays that small, the
    empty ones are skipped, and the radii do not change."""
    F = make_field(2, 3)
    codes = random_linear_codes(F, 3, 1, 2, seed=3) + [
        cd.gabidulin(F, F.polynomial_basis(), 2)]
    codes += [cd.make_codebook(F, cd.codewords(C)) for C in codes]
    expected = [cd.covering_radius(C) for C in codes]
    assert expected[2] == 1
    builder, shell = _batch.balls, _batch.shell

    def bounded_balls(field, offsets, centers):
        assert 1 <= len(offsets) <= 64
        return builder(field, offsets, centers)

    def bounded_shell(field, n, r):
        for rows in shell(field, n, r):
            assert 1 <= len(rows) <= 64
            yield rows
    monkeypatch.setattr(_batch, "CHUNK", 64)
    monkeypatch.setattr(_batch, "balls", bounded_balls)
    monkeypatch.setattr(_batch, "shell", bounded_shell)
    assert [cd.covering_radius(C) for C in codes] == expected


@pytest.mark.parametrize("q", [2, 3, 5])
def test_covering_radius_of_length_zero(q):
    # GF(q^m)^0 holds one vector, the code; odd q once failed ranking it
    F = make_field(q, 2)
    assert cd.covering_radius(cd.make_codebook(F, [()])) == 0
    assert cd.covering_radius(cd.make_zero_code(F, 0)) == 0


def test_covering_radius_guard():
    F = make_field(2, 20)
    with pytest.raises(ValueError, match=f"^syndrome space {2 ** 40} exceeds"):
        cd.covering_radius(cd.make_zero_code(F, 2))
    with pytest.raises(ValueError, match=f"^ambient size {2 ** 40} exceeds"):
        cd.covering_radius(cd.make_codebook(F, [(0, 0)]))


def test_covering_radius_shell_guard(monkeypatch):
    """A (4, 1) code over GF(2^3) has 2^9 syndromes, but its rank-2 shell
    holds [4 2]_2 (8 - 1)(8 - 2) = 1470 vectors; the radius is at least 2,
    as the rank-1 ball of 106 vectors reaches fewer than 512 syndromes."""
    F = make_field(2, 3)
    C = random_linear_codes(F, 4, 1, 1, seed=5)[0]
    assert rg.ball_counts(2, 3, 4, 1)[1] < 2 ** 9
    assert rg.sphere_count(2, 3, 4, 2) == 1470
    monkeypatch.setattr(rg, "BRUTE_GUARD", 2 ** 9)
    with pytest.raises(ValueError, match="^rank-2 shell size 1470 exceeds"):
        cd.covering_radius(C)
    monkeypatch.setattr(rg, "BRUTE_GUARD", 1470)
    assert cd.covering_radius(C) == brute_covering_radius(C) == 2


@pytest.mark.parametrize("m,n,k", [(5, 4, 1), (5, 4, 2), (3, 3, 1)])
def test_covering_radius_stops_below_the_redundancy(monkeypatch, m, n, k):
    """An MRD code has radius n - k, the redundancy bound, which is then
    returned without generating the rank-(n - k) shell."""
    F = make_field(2, m)
    C = cd.gabidulin(F, F.polynomial_basis()[:n], k)
    asked, shell = [], _batch.shell

    def recording_shell(field, length, r):
        asked.append(r)
        return shell(field, length, r)
    monkeypatch.setattr(_batch, "shell", recording_shell)
    assert cd.covering_radius(C) == n - k
    assert asked == list(range(n - k))


def _agreeing_codes():
    F4, F8, F9 = make_field(2, 2), make_field(2, 3), make_field(3, 2)
    return {
        "mrd-8-3-1": cd.gabidulin(F8, F8.polynomial_basis(), 1),
        "mrd-8-3-2": cd.gabidulin(F8, F8.polynomial_basis(), 2),
        "random-4-3-1": random_linear_codes(F4, 3, 1, 1, seed=2)[0],
        "random-4-3-2": random_linear_codes(F4, 3, 2, 1, seed=2)[0],
        "random-9-2-1": random_linear_codes(F9, 2, 1, 1, seed=2)[0],
        "full-4-3": cd.make_code(F4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "full-9-2": cd.make_code(F9, [(1, 4), (0, 1)]),
        "zero-4-3": cd.make_zero_code(F4, 3),
        "zero-8-2": cd.make_zero_code(F8, 2),
        "zero-9-2": cd.make_zero_code(F9, 2),
    }


@pytest.mark.parametrize("name", list(_agreeing_codes()))
def test_covering_radius_linear_codebook_and_brute_agree(name):
    """The syndrome walk stopped at min(m, n - k), the translate walk of the
    same words up to min(m, n), and the direct double loop agree."""
    C = _agreeing_codes()[name]
    rho = cd.covering_radius(C)
    assert cd.covering_radius(cd.make_codebook(C.field, cd.codewords(C))) \
        == brute_covering_radius(C) == rho
    assert rho <= min(C.field.m, C.n - C.k)


# ---------------------------------------------------------------------------
# Gabidulin codes
# ---------------------------------------------------------------------------

def test_gabidulin_validation():
    F = make_field(2, 3)
    with pytest.raises(ValueError):
        cd.gabidulin(F, (1, 2, 4, 5), 1)  # n > m
    with pytest.raises(ValueError):
        cd.gabidulin(F, (1, 2, 3), 1)  # rank 2 < n
    with pytest.raises(ValueError):
        cd.gabidulin(F, (1, 2, 4), 4)
    F4 = make_field(2, 4)
    with pytest.raises(ValueError):
        cd.gabidulin(F4, (1, 2, 4), 1, a=2)  # gcd(2,4) != 1


def test_gabidulin_is_mrd_exhaustive():
    """d_R = n - k + 1 for q=2, m <= 4, n <= m, k <= n (brute force)."""
    for m in range(1, 5):
        F = make_field(2, m)
        g_full = F.polynomial_basis()
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                C = cd.gabidulin(F, g_full[:n], k)
                assert cd.min_rank_distance(C) == n - k + 1, (m, n, k)


def test_gabidulin_frobenius_power():
    F = make_field(2, 3)
    C = cd.gabidulin(F, F.polynomial_basis(), 2, a=2)
    assert cd.min_rank_distance(C) == 2
    assert C.G[1] == tuple(F.frobenius(x, 2) for x in F.polynomial_basis())


def els_scan_size(q, m, n, k):
    """Vectors the element scan visits: [n, n-k]_q ELS's of q^{m(n-k)}."""
    return rg.gaussian(n, n - k, q) * q ** (m * (n - k))


def els_scan_mrd(code):
    """Independent reference: enumerate every member of every ELS of
    dimension n - k and look for a nonzero one passing the parity checks."""
    F, n, k = code.field, code.n, code.k
    H = cd.dual(code).G
    for els in rg.enumerate_els(F.q, n, n - k):
        for v in els.elements(F):
            if any(v) and all(cd.dot(F, h, v) == 0 for h in H):
                return False
    return True


def test_mrd_els_check():
    F8 = make_field(2, 3)
    assert cd.mrd_els_check(cd.gabidulin(F8, F8.polynomial_basis(), 2))
    F4 = make_field(2, 2)
    assert not cd.mrd_els_check(cd.make_code(F4, [(1, 0)]))
    assert cd.mrd_els_check(cd.make_code(F4, [(1, 0), (0, 1)]))
    with pytest.raises(ValueError):
        cd.mrd_els_check(cd.make_code(F4, [(1, 0, 0)]))  # n > m
    # agreement with the distance characterization on random codes
    for C in random_linear_codes(F8, 3, 2, 10, seed=3):
        assert cd.mrd_els_check(C) == (cd.min_rank_distance(C) == 2)
    # the rank test against the element scan: random codes of every shape
    # over q=2, m <= 4 and q=3, m <= 3, then every Gabidulin code over a
    # field of at most 64 elements whose scan visits at most 2^16 vectors
    verdicts = []
    for q, top in ((2, 4), (3, 3)):
        for m in range(1, top + 1):
            F = make_field(q, m)
            for n in range(1, m + 1):
                for k in range(1, n + 1):
                    for C in random_linear_codes(F, n, k, 3,
                                                 seed=100 * q + 10 * m + n + k):
                        verdicts.append(cd.mrd_els_check(C))
                        assert verdicts[-1] == els_scan_mrd(C), C.G
    assert verdicts.count(False) >= 10  # both answers are exercised
    for q, top in ((2, 6), (3, 3), (5, 2)):
        for m in range(1, top + 1):
            F = make_field(q, m)
            for n in range(1, m + 1):
                for k in range(1, n + 1):
                    if els_scan_size(q, m, n, k) <= 1 << 16:
                        C = cd.gabidulin(F, F.polynomial_basis()[:n], k)
                        assert cd.mrd_els_check(C) and els_scan_mrd(C), C


@pytest.mark.parametrize("q, m, n, k", [(2, 6, 6, 3), (3, 4, 4, 2)])
def test_mrd_els_check_past_element_scan(q, m, n, k):
    # an element scan visits 2^28.4 and 2^19.7 vectors here; the rank test
    # runs one elimination for each of the 1395 and 130 ELS's
    F = make_field(q, m)
    C = cd.gabidulin(F, F.polynomial_basis()[:n], k)
    start = time.perf_counter()
    assert cd.mrd_els_check(C) is True
    assert time.perf_counter() - start < 1.0


def test_mrd_els_check_guard():
    F = make_field(2, 10)
    C = cd.gabidulin(F, F.polynomial_basis(), 5)
    assert rg.gaussian(10, 5, 2) > rg.BRUTE_GUARD
    with pytest.raises(ValueError, match="ELS count"):
        cd.mrd_els_check(C)


# ---------------------------------------------------------------------------
# cartesian products, transposes, embeddings
# ---------------------------------------------------------------------------

def test_cartesian_power():
    F = make_field(2, 2)
    C = cd.gabidulin(F, F.polynomial_basis(), 1)
    assert set(cd.codewords(cd.cartesian_power(C, 1))) == set(cd.codewords(C))
    C2 = cd.cartesian_power(C, 2)
    assert (C2.n, C2.k) == (4, 2)
    assert C2.size == 16
    assert cd.min_rank_distance(C2) == cd.min_rank_distance(C) == 2
    with pytest.raises(ValueError):
        cd.cartesian_power(C, 0)


def test_cartesian_covering_radius():
    """rho(G^l) >= d_R - 1 always, with equality when n = m."""
    for m, l in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        F = make_field(2, m)
        for k in range(1, m + 1):
            C = cd.gabidulin(F, F.polynomial_basis(), k)
            d = cd.min_rank_distance(C)
            rho = cd.covering_radius(cd.cartesian_power(C, l))
            assert rho == d - 1, (m, l, k)


def test_transpose_code():
    F = make_field(2, 2)
    # {0} transposes to {0}
    Z = cd.transpose_code(cd.make_zero_code(F, 3))
    assert Z.words == ((0, 0),) and Z.field.m == 3
    # rank preservation, q=2, m=3, n=2
    F8 = make_field(2, 3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        w = tuple(int(x) for x in rng.integers(0, 8, size=2))
        T = cd.transpose_code(cd.make_codebook(F8, [w]))
        assert rg.rank(T.field, T.words[0]) == rg.rank(F8, w)
    # covering radius preservation
    C = cd.make_code(F, [(1, 2)])
    T = cd.transpose_code(C)
    assert T.field.m == 2 and T.n == 2
    assert cd.covering_radius(T) == cd.covering_radius(C) == 1
    G31 = cd.gabidulin(F8, F8.polynomial_basis(), 1)
    assert cd.covering_radius(cd.transpose_code(G31)) == \
        cd.covering_radius(G31) == 2


def transpose_by_expansion(code):
    """Reference: expand each word to its m x n matrix over GF(q), transpose
    it and reassemble the n x m matrix over GF(q^n), one word at a time."""
    F, n = code.field, code.n
    out = make_field(F.q, n)
    words = []
    for w in cd.codewords(code):
        mat = F.expand(w)
        words.append(out.reassemble([[mat[i][j] for i in range(F.m)]
                                     for j in range(n)]))
    return cd.make_codebook(out, words)


@pytest.mark.parametrize("q,m,n,k", [(2, 4, 4, 2), (3, 3, 2, 1),
                                     (5, 2, 3, 1), (2, 3, 5, 2),
                                     (3, 2, 3, 2)])
def test_transpose_code_against_expansion(q, m, n, k):
    F = make_field(q, m)
    for code in random_linear_codes(F, n, k, 2, seed=q * 100 + m * 10 + n):
        T = cd.transpose_code(code)
        assert T == transpose_by_expansion(code)
        assert (T.field.m, T.n) == (n, m)
        book = cd.make_codebook(F, list(cd.codewords(code))[::3])
        assert cd.transpose_code(book) == transpose_by_expansion(book)


def test_embed_code():
    F4 = make_field(2, 2)
    C = cd.gabidulin(F4, F4.polynomial_basis(), 1)  # (2,1) MRD, rho = 1
    # rho = 0: isomorphic copy
    same = cd.embed_code(C, 2)
    assert cd.covering_radius(same) == cd.covering_radius(C) == 1
    # rho = 1: into GF(8)^2, covering radius stays 1
    E = cd.embed_code(C, 3)
    assert E.size == 4 and E.field.order == 8
    assert cd.covering_radius(E) == 1
    assert brute_covering_radius(E) == 1
    # rank preservation of the injection on all of GF(4)^2
    F8 = make_field(2, 3)
    for w in itertools.product(range(4), repeat=2):
        assert rg.rank(F4, w) == rg.rank(F8, w)
    with pytest.raises(ValueError):
        cd.embed_code(C, 1)


# ---------------------------------------------------------------------------
# linear covering-dimension facts
# ---------------------------------------------------------------------------

def test_dimension_determined_by_covering_radius():
    """For n <= m and rho in {0, 1, n-1, n}, and for Gabidulin and ELS
    codes, the dimension is forced: k = n - rho."""
    F8 = make_field(2, 3)
    # over GF(8)^3 every rho lies in {0,1,n-1,n}, so k = n - rho always
    codes = [cd.gabidulin(F8, F8.polynomial_basis(), k) for k in (1, 2, 3)]
    codes += random_linear_codes(F8, 3, 1, 3, seed=9)
    codes += random_linear_codes(F8, 3, 2, 3, seed=10)
    codes.append(cd.make_zero_code(F8, 3))
    for C in codes:
        assert cd.covering_radius(C) == 3 - C.k
    # ELS codes: rho = n - dim
    for v in range(3):
        for els in rg.enumerate_els(2, 3, v):
            assert cd.covering_radius(cd.els_code(F8, els)) == 3 - v


# ---------------------------------------------------------------------------
# array view and trace duality
# ---------------------------------------------------------------------------

def matrix_inner(A, B, q):
    return sum(a * b for ra, rb in zip(A, B) for a, b in zip(ra, rb)) % q


@pytest.mark.parametrize("q,m,n,k", [(2, 2, 2, 1), (2, 3, 3, 2), (3, 2, 2, 1)])
def test_array_view_trace_duality(q, m, n, k):
    """With dual bases E, P: the E-expansion of the dual code equals the
    trace-inner-product dual of the P-expansion of the code."""
    F = make_field(q, m)
    E = F.polynomial_basis()
    P = F.dual_basis(E)
    C = (cd.gabidulin(F, F.polynomial_basis()[:n], k)
         if n <= m else cd.make_code(F, [(1,) * n]))
    mats_dual_E = cd.array_view(cd.dual(C), basis=E)
    mats_C_P = cd.array_view(C, basis=P)
    assert len(mats_C_P) == F.order ** k
    for A in mats_dual_E:
        for B in mats_C_P:
            assert matrix_inner(A, B, q) == 0
    # inclusion + cardinality: |dual(C)_E| = q^{m(n-k)} = |(C_P)^perp|
    assert len(set(mats_dual_E)) == q ** (m * (n - k))


def test_array_view_basics():
    F = make_field(2, 2)
    Z = cd.array_view(cd.make_zero_code(F, 2))
    assert Z == [((0, 0), (0, 0))]
    with pytest.raises(ValueError):
        cd.array_view(cd.make_zero_code(F, 2), basis=(1, 1))  # dependent
    C = cd.make_code(F, [(1, 2)])
    assert len(cd.array_view(C)) == 4


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_code_file_roundtrip(tmp_path):
    F = make_field(2, 3)
    C = cd.gabidulin(F, F.polynomial_basis(), 2)
    p = tmp_path / "code.txt"
    cd.write_code(p, C)
    R = cd.read_code(p)
    assert R == C
    assert R.field.modulus == F.modulus
    Z = cd.make_zero_code(make_field(3, 2), 4)
    cd.write_code(p, Z)
    assert cd.read_code(p) == Z


def test_code_format_errors():
    with pytest.raises(ValueError):
        cd.parse_code("2 2\n")
    with pytest.raises(ValueError):
        cd.parse_code("2 2 2 1 1 1 1\n1 2\n3 1\n")  # extra row
    with pytest.raises(ValueError):
        cd.parse_code("2 2 2 1 1 1 1\n1 2 3\n")  # wrong row length
    # comments and blank lines are tolerated
    C = cd.parse_code("# header\n2 2 2 1 1 1 1\n\n1 2\n")
    assert C.G == ((1, 2),)
