"""The four benchmark workloads and the checks on every answer.

A workload is a list of jobs generated from the seed.  Each job calls
rankmetric's public entry points through the tracer and records one or more
ops: an op is one checked answer, and it fails on a wrong answer, a failed
check or an exception (InconclusiveSearch included).  The checks use closed
forms, the paper's MRD results, the scalar reference certifiers
(rankgeom.rank, oracle.is_covering) and recorded digests, never the fast
kernels they check.
"""
from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass

from rankmetric import make_field
from rankmetric import bounds as bd
from rankmetric import codes as cd
from rankmetric import oracle as oc
from rankmetric import rankgeom as rg
from rankmetric import wenum as we

SAMPLE_WORDS = 128       # codewords per code re-ranked with scalar rank
SAMPLE_POINTS = 4        # ambient vectors per covering-radius certificate
DUAL_CHECK_SIZE = 1 << 16  # largest dual enumerated against MacWilliams

# SHA-256 of the sorted covering cells "q m n rho <format_report>" of the
# q=2 (2 <= n <= m <= 12) and q=3 (2 <= n <= m <= 8) grids, 1 <= rho <= n,
# and of the sorted dimension cells "m n rho k_lo k_hi" of the q=2 grid
# 2 <= n <= m <= 40, 1 <= rho <= n, as computed by the seed commit.  The
# grids do not depend on the benchmark seed, which only reorders them.
COVERING_DIGEST = "9dabed948f896f18c7fcf9fdd7e22e745ead86a56a2238a8eff22f4751ab56a9"
DIMENSION_DIGEST = "fef499c4c58eb6573a145de137d2c9cb0810b1275bc9b639f8678386229f2ae2"

# The published q=2 cells (m, n, rho) that `rankmetric verify` also checks.
ANCHORS = {(2, 2, 1): "b 3-4 A", (3, 2, 1): "b 4 B", (3, 3, 1): "a 11-32 C",
           (7, 7, 6): "a 2-16 C", (4, 4, 2): "b 10-64 C"}


@dataclass(frozen=True)
class Job:
    name: str
    fields: tuple     # (q, m) pairs the job needs, built during set-up
    inputs: dict      # echoed in the run record
    run: object       # callable(Pass)


class Pass:
    """One pass over a workload: the tracer, the built fields and the ops."""

    def __init__(self, tracer, seed, fields):
        self.tr = tracer
        self.seed = seed
        self.fields = fields
        self.ops = []      # (name, ok, detail)
        self.store = {}    # results shared between jobs of one pass

    def rng(self, name):
        return random.Random(f"{self.seed}:{name}")

    @contextmanager
    def op(self, name):
        """Record one op; the body appends a message for each failed check."""
        bad = []
        try:
            with self.tr.span("bench", name):
                yield bad
        except Exception as exc:  # any error in the op is its failure
            bad.append(f"{type(exc).__name__}: {exc}")
        self.ops.append((name, not bad, "; ".join(bad)))

    def last_ok(self):
        return self.ops[-1][1]


def need(bad, ok, message):
    if not ok:
        bad.append(message)


# ---------------------------------------------------------------------------
# input generation (independent of rankmetric)
# ---------------------------------------------------------------------------

def _rank_mod_q(rows, q):
    """Rank over GF(q) of integer rows, by plain Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [v * inv % q for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def full_rank_vector(rng, q, m, n):
    """n elements of GF(q^m) linearly independent over GF(q)."""
    while True:
        g = [rng.randrange(1, q ** m) for _ in range(n)]
        digits = [[(x // q ** i) % q for i in range(m)] for x in g]
        if _rank_mod_q(digits, q) == n:
            return tuple(g)


def systematic_generator(rng, q, m, n, k):
    """A k x n generator [I_k | R] with R uniform over GF(q^m)."""
    return tuple(tuple(int(i == j) for j in range(k))
                 + tuple(rng.randrange(q ** m) for _ in range(n - k))
                 for i in range(k))


# ---------------------------------------------------------------------------
# scan ops
# ---------------------------------------------------------------------------

def _kind(field):
    return "gf2" if field.q == 2 else "odd"


def _codewords(code):
    return list(cd.codewords(code))


def distribution_op(ps, label, code, mrd):
    """rank_distribution plus its MacWilliams transform, checked by sizes,
    MRD distances, the dual distribution and scalar ranks of sampled words."""
    tr, F, n, k = ps.tr, code.field, code.n, code.k
    with ps.op(f"{label}.distribution") as bad:
        A = tr.call("codes", cd.rank_distribution, code,
                    kind=_kind(F), words=code.size)
        need(bad, len(A) == n + 1, f"{len(A)} weights for length {n}")
        need(bad, sum(A) == code.size, f"sum A = {sum(A)} != |C| = {code.size}")
        if mrd:
            d = next((r for r in range(1, n + 1) if A[r]), None)
            need(bad, d == n - k + 1, f"d = {d} != n-k+1 = {n - k + 1}")
        enum = tr.call("wenum", we.make_enumerator, F.q, F.m, n, A)
        B = tr.call("wenum", we.macwilliams, enum).coeffs
        dual_size = F.order ** (n - k)
        need(bad, B[0] == 1 and sum(B) == dual_size,
             f"dual distribution {B} is not a code of size {dual_size}")
        if mrd:
            need(bad, not any(B[1:k + 1]), f"dual MRD has B_1..B_{k} = {B[1:k + 1]}")
        if dual_size <= DUAL_CHECK_SIZE:
            dual = tr.call("codes", cd.dual, code)
            BD = tr.call("codes", cd.rank_distribution, dual,
                         kind=_kind(F), words=dual.size)
            need(bad, BD == B, f"dual scan {BD} != MacWilliams {B}")
            BQ = tr.call("wenum", we.macwilliams, enum,
                         kw={"method": "qproduct"}).coeffs
            need(bad, BQ == B, f"q-product transform {BQ} != Krawtchouk {B}")
        rng = ps.rng(label)
        for _ in range(SAMPLE_WORDS):
            msg = [rng.randrange(F.order) for _ in range(k)]
            word = tr.call("codes", code.encode, msg)
            r = tr.call("rankgeom", rg.rank, F, word)
            if not A[r]:
                bad.append(f"codeword {word} has rank {r} but A_{r} = 0")
                break


def covering_op(ps, label, code, mrd):
    """covering_radius, checked by the MRD result (n - k) or by the sphere
    covering and redundancy bounds plus sampled scalar distances."""
    tr, F, n, k = ps.tr, code.field, code.n, code.k
    with ps.op(f"{label}.covering_radius") as bad:
        rho = tr.call("codes", cd.covering_radius, code,
                      kind=_kind(F), vectors=F.order ** n)
        if mrd:
            need(bad, rho == n - k, f"MRD covering radius {rho} != n-k = {n - k}")
            return
        ambient = F.order ** n
        lower = next(r for r in range(n + 1)
                     if code.size * tr.call("rankgeom", rg.ball_counts,
                                            F.q, F.m, n, r)[1] >= ambient)
        need(bad, lower <= rho <= n - k,
             f"radius {rho} outside [sphere bound {lower}, n-k = {n - k}]")
        words = tr.call("codes", _codewords, code)
        rng = ps.rng(label)
        for _ in range(SAMPLE_POINTS):
            x = tuple(rng.randrange(F.order) for _ in range(n))
            dist = min(tr.call("rankgeom", rg.rank_distance, F, x, c) for c in words)
            need(bad, dist <= rho, f"vector {x} at distance {dist} > radius {rho}")


def transpose_op(ps, label, code):
    """Covering radius of the transposed codebook equals the original's."""
    tr = ps.tr
    with ps.op(f"{label}.covering_radius") as bad:
        book = tr.call("codes", cd.transpose_code, code)
        got = tr.call("codes", cd.covering_radius, book, kind=_kind(book.field),
                      vectors=book.field.order ** book.n)
        want = tr.call("codes", cd.covering_radius, code, kind=_kind(code.field),
                       vectors=code.field.order ** code.n)
        need(bad, book.size == code.size, f"transpose has {book.size} words")
        need(bad, got == want, f"transposed radius {got} != radius {want}")


def els_op(ps, label, code, mrd):
    with ps.op(f"{label}.mrd_els_check") as bad:
        ok = ps.tr.call("codes", cd.mrd_els_check, code)
        need(bad, ok is mrd, f"mrd_els_check gave {ok}")


def gabidulin_job(rng, q, m, n, k, ops):
    """A Gabidulin code on a seeded generator vector; ops from the three above."""
    g = full_rank_vector(rng, q, m, n)
    label = f"gabidulin({q},{m},{n},{k})"

    def run(ps):
        code = ps.tr.call("codes", cd.gabidulin, ps.fields[q, m], g, k)
        for op in ops:
            op(ps, label, code, mrd=True)
    return Job(label, ((q, m),),
               {"g": list(g), "ops": [op.__name__ for op in ops]}, run)


def random_job(rng, q, m, n, k):
    """A seeded systematic code: distribution and covering radius."""
    G = systematic_generator(rng, q, m, n, k)
    label = f"random({q},{m},{n},{k})"

    def run(ps):
        code = ps.tr.call("codes", cd.make_code, ps.fields[q, m], G)
        distribution_op(ps, label, code, mrd=False)
        covering_op(ps, label, code, mrd=False)
    return Job(label, ((q, m),), {"G": [list(r) for r in G]}, run)


def transpose_job(rng, q, m, n, k):
    G = systematic_generator(rng, q, m, n, k)
    label = f"transpose({q},{m},{n},{k})"

    def run(ps):
        code = ps.tr.call("codes", cd.make_code, ps.fields[q, m], G)
        transpose_op(ps, label, code)
    return Job(label, ((q, m), (q, n)), {"G": [list(r) for r in G]}, run)


def scan_gf2_jobs(rng):
    D, C, E = distribution_op, covering_op, els_op
    return [
        gabidulin_job(rng, 2, 7, 7, 3, (D,)),
        gabidulin_job(rng, 2, 6, 6, 3, (D,)),
        gabidulin_job(rng, 2, 5, 4, 2, (D, C, E)),
        gabidulin_job(rng, 2, 10, 8, 2, (D,)),
        gabidulin_job(rng, 2, 16, 2, 1, (D,)),
        random_job(rng, 2, 4, 4, 2),
        random_job(rng, 2, 5, 4, 1),
        transpose_job(rng, 2, 4, 4, 2),
    ]


def scan_odd_jobs(rng):
    D, C, E = distribution_op, covering_op, els_op
    return [
        gabidulin_job(rng, 3, 4, 4, 2, (D,)),
        gabidulin_job(rng, 5, 3, 3, 2, (D,)),
        gabidulin_job(rng, 3, 8, 2, 1, (D,)),
        gabidulin_job(rng, 3, 3, 2, 1, (C,)),
        gabidulin_job(rng, 3, 3, 3, 1, (E,)),
        random_job(rng, 3, 3, 2, 1),
        random_job(rng, 3, 2, 3, 1),
    ]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _grid(ms, ns, rhos):
    return [(m, n, rho) for m in ms for n in ns if n <= m for rho in rhos if rho <= n]


def covering_table_job(rng, q, top):
    ms, ns, rhos = (rng.sample(range(lo, top + 1), top + 1 - lo)
                    for lo in (2, 2, 1))

    def run(ps):
        tr = ps.tr
        with ps.op(f"covering_table(q={q})") as bad:
            cells = len(_grid(ms, ns, rhos))
            reports = tr.call("bounds", bd.covering_table, q, ms, ns, rhos,
                              kw={"workers": 1}, cells=cells)
            need(bad, len(reports) == cells, f"{len(reports)} of {cells} cells")
            text = {key: tr.call("bounds", bd.format_report, r)
                    for key, r in reports.items()}
            crossed = [key for key, r in reports.items() if r.best_lower > r.best_upper]
            need(bad, not crossed, f"lower > upper at {crossed[:4]}")
            if q == 2:
                wrong = {key: text.get(key) for key, want in ANCHORS.items()
                         if text.get(key) != want}
                need(bad, not wrong, f"published anchors differ: {wrong}")
            ps.store[q] = text
    return Job(f"covering_table(q={q})", (),
               {"q": q, "m": ms, "n": ns, "rho": rhos}, run)


def _digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def covering_digest(ps):
    with ps.op("covering_table.digest") as bad:
        got = _digest(f"{q} {m} {n} {rho} {cell}"
                      for q in (2, 3) for (m, n, rho), cell in ps.store[q].items())
        need(bad, got == COVERING_DIGEST, f"covering cells digest {got}")


def dimension_table_job(rng, top):
    ms, ns, rhos = (rng.sample(range(lo, top + 1), top + 1 - lo)
                    for lo in (2, 2, 1))

    def run(ps):
        with ps.op("dimension_table(q=2)") as bad:
            dims = ps.tr.call("bounds", bd.dimension_table, 2, ms, ns, rhos)
            need(bad, len(dims) == len(_grid(ms, ns, rhos)), f"{len(dims)} cells")
            crossed = [key for key, (lo, hi) in dims.items() if lo > hi]
            need(bad, not crossed, f"k_lower > k_upper at {crossed[:4]}")
            need(bad, dims.get((6, 6, 2)) == (3, 4) and dims.get((8, 8, 5)) == (1, 3),
                 "published dimension anchors differ")
            got = _digest(f"{m} {n} {rho} {lo} {hi}" for (m, n, rho), (lo, hi) in dims.items())
            need(bad, got == DIMENSION_DIGEST, f"dimension cells digest {got}")
    return Job("dimension_table(q=2)", (), {"m": ms, "n": ns, "rho": rhos}, run)


def tables_jobs(rng):
    return [covering_table_job(rng, 2, 12), covering_table_job(rng, 3, 8),
            Job("covering_table.digest", (), {}, covering_digest),
            dimension_table_job(rng, 40)]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _decision(ps, q, m, n, rho, K, lo, hi):
    """One exhaustive decision; a witness is re-verified independently.
    True when a covering of size K was found and checked."""
    tr = ps.tr
    found = False
    with ps.op(f"decision({q},{m},{n},{rho},K={K})") as bad:
        dec = tr.call("oracle", oc.exhaustive_min_covering, q, m, n, rho, K)
        found = dec.exists
        if found:
            need(bad, tr.call("oracle", oc.is_covering, q, m, n, dec.witness, rho),
                 f"witness {dec.witness} does not cover")
            need(bad, lo <= len(dec.witness) <= K,
                 f"witness of size {len(dec.witness)} outside [{lo}, {K}]")
            need(bad, lo <= K <= hi, f"first K = {K} outside [{lo}, {hi}]")
        else:
            need(bad, K < hi, f"no covering of size {K} but upper bound {hi}")
    return found and ps.last_ok()


def min_covering_job(q, m, n, rho):
    def run(ps):
        rep = ps.tr.call("bounds", bd.covering_report, q, m, n, rho)
        lo, hi = rep.interval()
        for K in range(lo, hi + 1):
            if _decision(ps, q, m, n, rho, K, lo, hi) or not ps.last_ok():
                return
    return Job(f"min_covering({q},{m},{n},{rho})", ((q, m),),
               {"search": "min_covering", "q": q, "m": m, "n": n, "rho": rho}, run)


def frontier_job(q, m, n, rho, K):
    def run(ps):
        rep = ps.tr.call("bounds", bd.covering_report, q, m, n, rho)
        _decision(ps, q, m, n, rho, K, *rep.interval())
    return Job(f"decision({q},{m},{n},{rho},K={K})", ((q, m),),
               {"search": "decision", "q": q, "m": m, "n": n, "rho": rho, "K": K}, run)


def greedy_job(q, m, n, rho):
    def run(ps):
        tr = ps.tr
        with ps.op(f"greedy({q},{m},{n},{rho})") as bad:
            book = tr.call("oracle", oc.greedy_covering, q, m, n, rho)
            need(bad, tr.call("oracle", oc.is_covering, q, m, n, book.words, rho),
                 "greedy result does not cover")
            lo = tr.call("bounds", bd.covering_report, q, m, n, rho).best_lower
            need(bad, book.size >= lo, f"greedy size {book.size} < lower bound {lo}")
    return Job(f"greedy({q},{m},{n},{rho})", ((q, m),),
               {"search": "greedy", "q": q, "m": m, "n": n, "rho": rho}, run)


def maxcode_job(q, m, n, d):
    def run(ps):
        with ps.op(f"maxcode({q},{m},{n},{d})") as bad:
            got = ps.tr.call("oracle", oc.max_code_search, q, m, n, d)
            want = ps.tr.call("bounds", bd.singleton_max_cardinality, q, m, n, d)
            need(bad, got == want, f"max code {got} != Singleton/MRD {want}")
    return Job(f"maxcode({q},{m},{n},{d})", ((q, m),),
               {"search": "maxcode", "q": q, "m": m, "n": n, "d": d}, run)


def search_jobs(rng):
    jobs = [min_covering_job(*p) for p in
            ((2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (2, 3, 3, 2))]
    jobs.append(frontier_job(2, 4, 2, 1, 7))
    jobs += [greedy_job(*p) for p in ((2, 3, 3, 1), (3, 3, 2, 1), (5, 2, 2, 1))]
    jobs += [maxcode_job(*p) for p in
             ((2, 2, 2, 2), (2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2))]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"tables": tables_jobs, "scan-gf2": scan_gf2_jobs,
             "scan-odd": scan_odd_jobs, "search": search_jobs}


def make_jobs(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def build_fields(tracer, jobs):
    """Set-up: every field the jobs use, built once, in a fixed order."""
    needed = sorted({f for job in jobs for f in job.fields})
    return {(q, m): tracer.call("ffield", make_field, q, m) for q, m in needed}
