"""Rank-metric codes over GF(q^m)^n: construction and brute-force evaluation.

A LinearCode is a generator matrix over GF(q^m); a Codebook is an explicit
codeword set (the transpose and field-embedding constructions need not stay
linear over their new ambient field, so they return Codebooks).  Exhaustive
quantities (rank distribution, minimum distance, covering radius) stream
codewords or ambient vectors in fixed-size chunks through the vectorized
rank kernel of _batch, for every q, and rankgeom.guard refuses one whose
words, scalar classes, syndromes, ambient or shell pass its cap.

The covering radius grows the rank ball around the code shell by shell
(_batch.shell, _batch.balls) until it reaches every syndrome of a linear
code, or every vector around a codebook.

Weight distributions of a linear code rank one codeword per scalar class:
x -> a x is a GF(q)-linear bijection of GF(q^m) for every nonzero a, so the
q^m - 1 nonzero multiples of a codeword share its rank and Hamming weights,
and (q^{mk} - 1)/(q^m - 1) words stand for the q^{mk}.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _batch, _linalg, rankgeom
from .ffield import Field, make_field


# ---------------------------------------------------------------------------
# code types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearCode:
    """An (n, k) linear code given by a k x n generator matrix of encodings."""

    field: Field
    n: int
    G: tuple  # k rows, each a tuple of n encodings

    @property
    def k(self):
        return len(self.G)

    @property
    def size(self):
        return self.field.order ** self.k

    def encode(self, msg):
        """Codeword sum_i msg_i * G_i of a message of k encodings; any other
        message raises ValueError."""
        msg, = rankgeom.check_vectors(self.field, (msg,), self.k)
        return _linalg.lincomb(self.field, msg, self.G, self.n)

    def contains(self, word):
        """Membership via the parity checks H . word = 0; a word not in
        GF(q^m)^n raises ValueError."""
        word, = rankgeom.check_vectors(self.field, (word,), self.n)
        return all(dot(self.field, h, word) == 0 for h in dual(self).G)

    def __repr__(self):
        return (f"LinearCode(q={self.field.q}, m={self.field.m}, "
                f"n={self.n}, k={self.k})")


@dataclass(frozen=True)
class Codebook:
    """An explicit (possibly nonlinear) set of codewords over one field."""

    field: Field
    words: tuple  # tuple of coordinate tuples, deduplicated

    @property
    def n(self):
        return len(self.words[0]) if self.words else 0

    @property
    def size(self):
        return len(self.words)

    def __repr__(self):
        return (f"Codebook(q={self.field.q}, m={self.field.m}, "
                f"n={self.n}, size={self.size})")


def make_code(field, G):
    """LinearCode from generator rows; rejects dependent rows."""
    G = tuple(G)
    if not G:
        raise ValueError("empty generator needs an explicit length; "
                         "use make_zero_code")
    G = rankgeom.check_vectors(field, G, len(G[0]))
    if _linalg.rank_field(field, [list(r) for r in G]) < len(G):
        raise ValueError("generator rows are dependent")
    return LinearCode(field, len(G[0]), G)


def make_zero_code(field, n):
    """The (n, 0) code {0}."""
    return LinearCode(field, n, ())


def make_codebook(field, words):
    words = sorted(set(map(tuple, words)))
    if not words:
        raise ValueError("empty codebook")
    return Codebook(field, rankgeom.check_vectors(field, words, len(words[0])))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def codewords(code):
    """An iterator over all codewords, refused at the call past the guard.
    Linear codes stream in message-odometer order: message w in
    [0, q^{mk}) has symbols msg_i = (w // order^i) mod order."""
    if isinstance(code, Codebook):
        return iter(code.words)
    rankgeom.guard(code.size, "codebook size")
    return itertools.chain.from_iterable(
        map(tuple, words.tolist()) for words in _word_chunks(code))


def _slices(array):
    """Views of array, _batch.CHUNK entries at a time."""
    return (array[i:i + _batch.CHUNK]
            for i in range(0, len(array), _batch.CHUNK))


def _word_chunks(code):
    """(N, n) arrays of all codewords, _batch.CHUNK at a time; linear codes
    in message-odometer order."""
    if isinstance(code, Codebook):
        return _slices(np.array(code.words, dtype=np.int64))
    G = np.array(code.G, dtype=np.int64).reshape(code.k, code.n)
    return map(_batch.times(code.field, G),
               _batch.vector_chunks(code.field.order, code.k))


def _class_chunks(code):
    """(N, n) arrays of one codeword per GF(q^m)* scalar class of a linear
    code's nonzero words: the messages whose first nonzero symbol is 1, that
    is G[j] + x G[j+1:] for each row j and every x in GF(q^m)^{k-j-1}."""
    F = code.field
    G = np.array(code.G, dtype=np.int64).reshape(code.k, code.n)
    for j in range(code.k):
        times = _batch.times(F, G[j + 1:])
        for xs in _batch.vector_chunks(F.order, code.k - j - 1):
            yield _batch.add(F, times(xs), G[j])


def _weight_distribution(code, weights):
    """Codeword counts by weights(field, words), a weight nonzero scalars
    keep: every word of a Codebook, or one per scalar class of a linear
    code times the class size q^m - 1.  Guarded by the words counted."""
    F, n = code.field, code.n
    linear = isinstance(code, LinearCode)
    count = (code.size - 1) // (F.order - 1) if linear else code.size
    rankgeom.guard(count, "scalar class count" if linear else "codebook size")
    counts = np.zeros(n + 1, dtype=np.int64)
    for words in (_class_chunks if linear else _word_chunks)(code):
        counts += np.bincount(weights(F, words), minlength=n + 1)
    if not linear:
        return tuple(int(c) for c in counts)
    return (1,) + tuple((F.order - 1) * int(c) for c in counts[1:])


def rank_distribution(code):
    """(A_0, ..., A_n): codeword counts by rank weight, exact.

    A nonzero scalar is a GF(q)-linear bijection of GF(q^m), so it keeps the
    rank of the m x n expansion: a linear code ranks one word per GF(q^m)*
    scalar class, (q^{mk} - 1)/(q^m - 1) words instead of q^{mk}."""
    return _weight_distribution(code, _batch.rank_words)


def min_rank_distance(code):
    """Minimum rank distance over distinct codeword pairs.

    For a linear code this is the minimum nonzero codeword rank; a Codebook
    ranks the differences from each codeword to the later ones, CHUNK at a
    time, refused through guard past BRUTE_GUARD pairs.  Codes with fewer
    than two words have no pairs and return None.
    """
    if isinstance(code, LinearCode):
        dist = rank_distribution(code)
        return next((i for i in range(1, len(dist)) if dist[i]), None)
    if code.size < 2:
        return None
    rankgeom.guard(code.size * (code.size - 1) // 2, "codeword pair count")
    F = code.field
    words = np.array(code.words, dtype=np.int64)
    best = code.n
    for i in range(len(words) - 1):
        for later in _slices(words[i + 1:]):
            diffs = _batch.sub(F, later, words[i])
            best = min(best, int(_batch.rank_words(F, diffs).min()))
            if best == 1:
                return best
    return best


def hamming_distribution(code):
    """Codeword counts by Hamming weight (for d_R <= d_H comparisons)."""
    return _weight_distribution(
        code, lambda F, words: (words != 0).sum(axis=1))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_batch.CACHE_SIZE)
def dual(code):
    """The dual under the standard inner product sum_i u_i v_i over GF(q^m).

    Computed from the reduced echelon form of G: each free column f yields
    the parity row h with h[f] = 1 and h[p_i] = -R[i][f] at the pivots.
    Cached by the code's (field, n, G), which is its hash and equality.
    """
    F, n = code.field, code.n
    rref, pivots = _linalg.rref_field(F, [list(r) for r in code.G])
    free = [c for c in range(n) if c not in pivots]
    H = []
    for f in free:
        h = [0] * n
        h[f] = 1
        for i, p in enumerate(pivots):
            h[p] = F.neg(rref[i][f])
        H.append(tuple(h))
    return LinearCode(F, n, tuple(H))


def dot(field, u, v):
    u, v = rankgeom.check_vectors(field, (u, v), len(u))
    return _linalg.lincomb(field, u, [(b,) for b in v], 1)[0]


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------

def covering_radius(code):
    """max over the ambient space of the rank distance to the code, exact.

    Grows the rank ball around the code shell by shell (_batch.shell) in one
    boolean mask; the first rho that fills it is the radius, else top.  A
    linear code marks the syndromes of the shell (every coset then has a
    leader of rank <= rho), a codebook the translates c + x of the shell
    around its codewords c.

    For a codebook top = min(m, n), and the ambient size q^{mn} is guarded.
    For a linear code top = min(m, n - k): the n - k columns of H that form
    an invertible submatrix give every syndrome a leader of Hamming weight,
    so of rank, at most n - k.  Its guards are the syndrome space
    q^{m(n-k)} and, before each shell is generated, the shell size.
    """
    F, n = code.field, code.n
    if isinstance(code, LinearCode):
        top = min(F.m, n - code.k)
        hit = np.zeros(rankgeom.guard(F.order ** (n - code.k),
                                      "syndrome space"), dtype=bool)
        HT = np.array(dual(code).G, dtype=np.int64).reshape(n - code.k, n).T
        times = _batch.times(F, HT)

        def reach(vectors):
            return [_batch.pack(F.order, times(vectors))]
    else:
        top = min(F.m, n)
        hit = np.zeros(rankgeom.guard(F.order ** n, "ambient size"),
                       dtype=bool)
        centers = _batch.pack(F.order, code.words)

        def reach(vectors):
            return _batch.balls(F, _batch.pack(F.order, vectors), centers)
    for rho in range(top):
        rankgeom.guard(rankgeom.sphere_count(F.q, F.m, n, rho),
                       f"rank-{rho} shell size")
        for vectors in _batch.shell(F, n, rho):
            for idx in reach(vectors):
                hit[idx] = True
        if hit.all():
            return rho
    return top


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def gabidulin(field, g, k, a=1):
    """Generalized Gabidulin code: generator row i is (g_0^[i], ..., g_{n-1}^[i])
    with [i] the a*i-fold Frobenius x -> x^{q^{ai}}.  Requires n <= m,
    gcd(a, m) = 1 and g of full rank n; the result is MRD (d_R = n - k + 1).
    """
    n = len(g)
    if n > field.m:
        raise ValueError(f"length {n} exceeds extension degree {field.m}")
    if math.gcd(a, field.m) != 1:
        raise ValueError(f"Frobenius power {a} not coprime to m={field.m}")
    g, = rankgeom.check_vectors(field, (g,), n)
    if rankgeom.rank(field, g) < n:
        raise ValueError("generator vector must have full rank n")
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} outside [1, {n}]")
    G = tuple(tuple(field.frobenius(x, a * i) for x in g) for i in range(k))
    return LinearCode(field, n, G)


def cartesian_power(code, l):
    """The l-fold cartesian product: block-diagonal generator, length n*l,
    dimension k*l, and the same minimum distance."""
    if not isinstance(code, LinearCode):
        raise TypeError("cartesian_power needs a LinearCode")
    if l < 1:
        raise ValueError("l must be >= 1")
    n = code.n
    G = tuple(
        (0,) * (n * b) + row + (0,) * (n * (l - 1 - b))
        for b in range(l)
        for row in code.G
    )
    return LinearCode(code.field, n * l, G)


def transpose_code(code):
    """The transpose code over GF(q^n) of length m: each codeword's m x n
    expansion is transposed and reassembled.  Rank and covering radius are
    preserved, but linearity over the new field generally is not, so the
    result is an explicit Codebook.  Both ambients use polynomial bases.
    """
    F, n = code.field, code.n
    rankgeom.guard(F.order ** n, "ambient size")
    digits = _batch.digits_table(F)
    words = []
    for chunk in _word_chunks(code):
        # digits[chunk][w, j, i] is entry (i, j) of word w's expansion; row i,
        # packed over GF(q), becomes symbol i of the transposed word
        words += _batch.pack(F.q, digits[chunk].transpose(0, 2, 1)).tolist()
    return make_codebook(make_field(F.q, n), words)


def embed_code(code, target_m):
    """Image of a code over GF(q^mu) in GF(q^{target_m}) under the injection
    aligning the polynomial bases (beta_i -> alpha_i).

    Base-q digit vectors zero-extend, so the injection is the identity on
    integer encodings; ranks are preserved.  When the input is an
    (n, n - rho) MRD code and target_m = mu + rho, the image has covering
    radius exactly rho in the larger ambient.
    """
    F = code.field
    if target_m < F.m:
        raise ValueError("target extension degree smaller than the source")
    out_field = make_field(F.q, target_m)
    return make_codebook(out_field, list(codewords(code)))


def els_code(field, els):
    """The ELS itself as an (n, dim) linear code (generator = elementary basis)."""
    return make_code(field, els.basis) if els.basis else \
        make_zero_code(field, els.n)


def mrd_els_check(code):
    """True iff C (+) V = GF(q^m)^n for every ELS V of dimension n - k.

    The members of V are c.B for its elementary basis B, and c.B lies in C
    iff (H.B^T) c = 0 for the parity checks H, so the sum is direct iff
    H.B^T has rank n - k: one product per chunk of bases B (entries 0..q-1
    encode GF(q)) gives every B.H^T to rank.  Agrees with min_rank_distance
    == n - k + 1, the MRD property.  Guarded by the ELS count [n, n-k]_q.
    """
    if not isinstance(code, LinearCode):
        raise TypeError("mrd_els_check needs a LinearCode")
    F, n, k = code.field, code.n, code.k
    if n > F.m:
        raise ValueError("requires n <= m")
    chunks = rankgeom.subspaces(F.q, n, n - k)
    times = _batch.times(
        F, np.array(dual(code).G, dtype=np.int64).reshape(-1, n).T)
    return all(
        _linalg.rank_field(F, mat) == n - k
        for bases in chunks
        for mat in times(bases.reshape(-1, n)).reshape(
            len(bases), n - k, n - k).tolist())


def array_view(code, basis=None):
    """Yields each codeword's m x n GF(q) expansion (an array codebook)."""
    F = code.field
    if basis is not None and not F.is_basis(basis):
        raise ValueError("dependent basis")
    return (F.expand(w, basis=basis) for w in codewords(code))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def format_code(code):
    """Text format: header "q m n k c_0 ... c_m" (modulus coefficients
    low-to-high), then k generator rows of n encodings."""
    if not isinstance(code, LinearCode):
        raise TypeError("only linear codes have a generator file format")
    F = code.field
    head = [F.q, F.m, code.n, code.k, *F.modulus]
    lines = [" ".join(map(str, head))]
    lines += [" ".join(map(str, row)) for row in code.G]
    return "\n".join(lines) + "\n"


def ints(tokens, where):
    """The integers the tokens spell; a token that spells none raises
    ValueError naming where it came from."""
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ValueError(f"{where}: {t!r} is not an integer") from None
    return tuple(out)


def parse_code(text):
    # (line number, entries) of each line that is not blank or a comment;
    # the number counts every line of the file
    lines = [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("code file has no header line")
    head = ints(lines[0][1], f"code file line {lines[0][0]}")
    if len(head) < 4:
        raise ValueError("header needs q m n k [modulus]")
    q, m, n, k = head[:4]
    if not 0 <= k <= n:
        raise ValueError(f"header needs 0 <= k <= n, got n={n} k={k}")
    modulus = head[4:] if len(head) > 4 else None
    field = make_field(q, m, modulus)
    if len(lines) != 1 + k:
        raise ValueError(f"expected {k} generator rows, got {len(lines) - 1}")
    rows = [ints(tokens, f"code file line {i}") for i, tokens in lines[1:]]
    rankgeom.check_vectors(field, rows, n)
    if k == 0:
        return make_zero_code(field, n)
    return make_code(field, rows)


def write_code(path, code):
    with open(path, "w") as fh:
        fh.write(format_code(code))


def read_code(path):
    with open(path) as fh:
        return parse_code(fh.read())
