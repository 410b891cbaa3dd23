"""Packing and covering bounds for rank-metric codes.

K_R(q^m, n, rho) is the minimum cardinality of a code in GF(q^m)^n with
rank covering radius rho.  This module evaluates every known lower bound
(tags a-c: sphere covering, the maximal-subcode refinement, the excess
bound) and upper bound (tags A-E: trivial/Hamming, embedded-MRD, mixed
cartesian products, probabilistic existence, Johnston-Stein-Lovasz) in
exact arithmetic, selects the best applicable pair per parameter set, and
generates the full bound tables.  It also carries the Singleton packing
bound A_R, dimension bounds for linear covering codes, and the asymptotic
rate formulas.

Everything is exact integer/rational arithmetic except the two bounds that
are genuinely transcendental (D and E are floors of logarithmic terms);
those are certified by mpmath.libmp steps rounded outward as mpmath.iv
rounds them, down for the low end and up for the high one, at a precision
in bits scaled to the operands that doubles while the floor is ambiguous.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from mpmath.libmp import (fone, from_int, mpf_add, mpf_div, mpf_log, mpf_mul,
                          mpf_sign, mpf_sub, round_ceiling as CEIL,
                          round_floor as FLOOR, to_int)

from .rankgeom import ball_counts, gaussian

LOWER_TAGS = ("a", "b", "c")
UPPER_TAGS = ("A", "B", "C", "D", "E")


def singleton_max_cardinality(q, m, n, d):
    """A_R(q^m, n, d): the exact maximum cardinality of a code with minimum
    rank distance d -- min{q^{m(n-d+1)}, q^{n(m-d+1)}}, met by MRD codes for
    every parameter set, and 1 once d exceeds min(m, n)."""
    if d < 1:
        raise ValueError(f"distance {d} must be >= 1")
    if d > min(m, n):
        return 1
    return min(q ** (m * (n - d + 1)), q ** (n * (m - d + 1)))


def packing_asymptote(delta, b):
    """a(delta) = min{1 - delta, 1 - b*delta}: the asymptotic maximum rate
    of codes with relative rank distance delta when n/m -> b."""
    _check_rate_domain(delta, b)
    return min(1 - delta, 1 - b * delta)


def volume_rate(delta, b):
    """v(delta) = delta(1 + b - b*delta): the asymptotic normalized log
    volume of a ball of relative radius delta when n/m -> b."""
    _check_rate_domain(delta, b)
    return delta * (1 + b - b * delta)


def covering_rate(r, b):
    """k(r) = (1 - r)(1 - b*r): the exact asymptotic rate of optimal
    rank-covering codes of relative radius r when n/m -> b."""
    _check_rate_domain(r, b)
    return (1 - r) * (1 - b * r)


def _check_rate_domain(x, b):
    if b <= 0:
        raise ValueError("aspect ratio b must be positive")
    if not 0 <= x <= min(1, 1 / b):
        raise ValueError(f"argument {x} outside [0, min(1, 1/b)]")


# ---------------------------------------------------------------------------
# lower bounds (0 < rho < n, n <= m orientation)
# ---------------------------------------------------------------------------

def _ceil_div(a, b):
    return -(-a // b)


def covering_lower(q, m, n, rho):
    """The three lower bounds on K_R(q^m, n, rho) as {'a','b','c'} -> value,
    with None for an inapplicable bound.

    a: sphere covering floor(q^{mn}/V_rho) + 1 (the +1 is strict: nontrivial
       perfect rank-metric codes do not exist);
    b: ceil((q^{mn} - A_R(q^m,n,2rho+1) W) / (V_rho - W)) with
       W = q^{rho^2} [2rho rho], applicable iff the denominator is positive
       (a maximal 2rho+1-separated subcode double-counts at most W per word);
    c: the excess bound ceil(q^{mn} / (V_rho - (eps/delta) N_rho)),
       applicable iff eps > 0."""
    _check_rho(q, n, rho)
    Q = q ** (m * n)
    N_rho, V_rho = ball_counts(q, m, n, rho)
    out = {"a": Q // V_rho + 1, "b": None, "c": None}

    W = q ** (rho * rho) * gaussian(2 * rho, rho, q)
    denom = V_rho - W
    if denom > 0:
        A = singleton_max_cardinality(q, m, n, 2 * rho + 1)
        out["b"] = _ceil_div(Q - A * W, denom)

    eps, delta = excess_parameters(q, m, n, rho)
    if eps > 0:
        den = V_rho * delta - eps * N_rho
        if den > 0:
            out["c"] = _ceil_div(Q * delta, den)
    return out


def excess_parameters(q, m, n, rho):
    """(eps, delta) of the excess lower bound.  eps is the least residue of
    (q^m - q^rho)([rho 1] - [n 1]) modulo q^rho [rho+1 1] -- the minimum
    excess any radius-1 ball centered at distance rho from the code must
    receive; delta = V_1 - q^{rho-1}[rho 1] - 1 + 2 eps."""
    _check_rho(q, n, rho)
    modulus = q ** rho * gaussian(rho + 1, 1, q)
    shortfall = (q ** m - q ** rho) * (gaussian(n, 1, q) - gaussian(rho, 1, q))
    eps = -shortfall % modulus
    _, v1 = ball_counts(q, m, n, 1)
    delta = v1 - q ** (rho - 1) * gaussian(rho, 1, q) - 1 + 2 * eps
    return eps, delta


def _check_q(q):
    if q < 2:
        raise ValueError(f"field size {q} must be >= 2")


def _check_rho(q, n, rho):
    _check_q(q)
    if not 0 < rho < n:
        raise ValueError(f"covering radius {rho} outside (0, {n})")


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def covering_upper(q, m, n, rho):
    """The five upper bounds on K_R(q^m, n, rho) as {'A'..'E'} -> value,
    None when inapplicable.

    A: q^{m(n-rho)} (any (n, n-rho) linear code);
    B: q^{max(m-rho,n)(n-rho)} (an MRD code over the subfield tower member
       GF(q^mu), mu = max(m-rho, n), embedded coordinate-wise);
    C: min over all splits n = sum n_i, rho = sum rho_i with rho_i <= n_i,
       n_i + rho_i <= m of q^{m(n-rho) - sum rho_i(n_i - rho_i)} (cartesian
       products of embedded MRD codes);
    D: smallest K with (Q - V_rho)^K < Q^{K-1}, Q = q^{mn} (a random code of
       that size leaves some vector uncovered with probability < 1);
    E: floor((Q/V_rho)(1 + ln V_rho)) (Johnston-Stein-Lovasz applied to the
       coverage incidence matrix)."""
    _check_rho(q, n, rho)
    Q = q ** (m * n)
    _, V_rho = ball_counts(q, m, n, rho)
    gain = _split_gains(m, n)[rho]
    return {
        "A": q ** (m * (n - rho)),
        "B": q ** (max(m - rho, n) * (n - rho)),
        "C": None if gain is None else q ** (m * (n - rho) - gain),
        "D": _probabilistic_bound(q, m, n, V_rho),
        "E": _jsl_bound(q, m, n, V_rho),
    }


def _split_gains(m, n):
    """rho -> max sum rho_i (n_i - rho_i) over the feasible splits of (n,
    rho), None if there are none.  One DP over (length, radius) for every
    rho; parts are unordered so compositions and partitions coincide.  A
    row reads only the rows above it, so each m keeps one table and grows
    it only as far as the largest n asked for."""
    best = _gain_rows(m)
    for used_n in range(len(best), n + 1):
        best.append([max(
            (best[used_n - a][used_r - r] + r * (a - r)
             for a in range(1, used_n + 1)
             for r in range(max(0, used_r - used_n + a),
                            min(a, used_r, m - a) + 1)
             if best[used_n - a][used_r - r] >= 0), default=-1)
            for used_r in range(used_n + 1)])
    return tuple(None if g < 0 else g for g in best[n])


@functools.lru_cache(maxsize=64)
def _gain_rows(m):
    """The DP rows of _split_gains for one m, grown in place by it; row
    used_n holds used_r = 0..used_n, -1 where no split exists."""
    return [[0]]


def _t_floors(Q, W, prec):
    """Floors of the certified ends of t = lnQ/(lnQ - lnW); None if inf."""
    (q_lo, q_hi), (w_lo, w_hi) = (
        [mpf_log(from_int(x), prec, r) for r in (FLOOR, CEIL)] for x in (Q, W))
    lo = mpf_div(q_lo, mpf_sub(q_hi, w_lo, prec, CEIL), prec, FLOOR)
    den = mpf_sub(q_lo, w_hi, prec, FLOOR)
    hi = mpf_div(q_hi, den, prec, CEIL) if mpf_sign(den) > 0 else None
    return to_int(lo, FLOOR), None if hi is None else to_int(hi, FLOOR)


def _probabilistic_bound(q, m, n, V, prec=None):
    """Smallest K with (Q-V)^K < Q^{K-1}: floor(t) + 1 for t = lnQ/(lnQ -
    lnW), W = Q-V, certified from prec bits (2 log2 Q + 64 by default: the
    denominator cancels).  An integer t has W^t = Q^{t-1}, so t | e*m*n for
    q = p^e, below log2 Q; exact powers decide a straddle of one."""
    Q = q ** (m * n)
    W = Q - V
    if W < 1:
        raise ValueError("ball covers the whole space")
    prec = prec or 2 * Q.bit_length() + 64
    while True:
        lo, hi = _t_floors(Q, W, prec)
        if lo == hi:
            return lo + 1
        if hi == lo + 1 and hi < Q.bit_length():
            return hi if W ** hi < Q ** (hi - 1) else hi + 1
        prec *= 2


def _jsl_bound(q, m, n, V, prec=None):
    """floor((Q/V)(1 + ln V)), certified from prec bits (log2 Q + 64 by
    default); ln V is transcendental for V > 1, so the doubling ends."""
    Q = q ** (m * n)
    prec = prec or Q.bit_length() + 64
    Q, V = from_int(Q), from_int(V)
    while True:
        lo, hi = (to_int(mpf_div(mpf_mul(Q, mpf_add(fone, mpf_log(
            V, prec, r), prec, r)), V, prec, r), FLOOR) for r in (FLOOR, CEIL))
        if lo == hi:
            return lo
        prec *= 2


# ---------------------------------------------------------------------------
# reports and tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (q, m, n, rho), with the best applicable
    pair selected.  `exact` marks the degenerate radii (rho = 0 and
    rho >= n) where K_R is known outright and the per-bound dicts are
    empty.  Ties in best value go to the earliest tag letter."""

    q: int
    m: int
    n: int
    rho: int
    lower: dict
    upper: dict
    best_lower: int
    best_lower_tag: str | None
    best_upper: int
    best_upper_tag: str | None
    exact: bool = False

    def interval(self):
        return self.best_lower, self.best_upper


def covering_report(q, m, n, rho):
    """BoundReport for K_R(q^m, n, rho).

    The parameters are canonicalized to n <= m first (K_R is transposition
    invariant).  rho = 0 and rho >= n are exact specials.  The existence
    bounds D and E only enter best_upper when they exceed the best lower
    bound: at degenerate sizes they can collapse the interval below
    constructive knowledge, and the published tables treat them as
    asymptotic indicators rather than interval-closers."""
    _check_q(q)
    if m < 1 or n < 1 or rho < 0:
        raise ValueError("need m, n >= 1 and rho >= 0")
    if n > m:
        m, n = n, m
    if rho >= n:
        return BoundReport(q, m, n, rho, {}, {}, 1, None, 1, None, True)
    if rho == 0:
        size = q ** (m * n)
        return BoundReport(q, m, n, rho, {}, {}, size, None, size, None,
                           True)
    lower = covering_lower(q, m, n, rho)
    upper = covering_upper(q, m, n, rho)
    best_lower, lower_tag = max(
        ((v, t) for t, v in lower.items() if v is not None),
        key=lambda pair: (pair[0], -LOWER_TAGS.index(pair[1])))
    candidates = [(v, t) for t, v in upper.items() if v is not None
                  and (t not in ("D", "E") or v > best_lower)]
    best_upper, upper_tag = min(
        candidates, key=lambda pair: (pair[0], UPPER_TAGS.index(pair[1])))
    return BoundReport(q, m, n, rho, lower, upper,
                       best_lower, lower_tag, best_upper, upper_tag)


def format_report(report):
    """Table-style cell: 'b 3-4 A', collapsed to 'b 4 B' when the interval
    is a point, or the bare exact value for degenerate radii."""
    if report.exact:
        return str(report.best_lower)
    lo, hi = report.best_lower, report.best_upper
    span = str(lo) if lo == hi else f"{lo}-{hi}"
    return f"{report.best_lower_tag} {span} {report.best_upper_tag}"


def covering_table(q, m_range, n_range, rho_range, workers=None):
    """BoundReports for every (m, n, rho) in the given ranges with n <= m,
    rho <= n, keyed by (m, n, rho).  `workers` is accepted for existing
    callers and ignored: every cell is certified and cheap, so a process
    pool costs more than it saves."""
    return {(m, n, rho): covering_report(q, m, n, rho)
            for m in m_range for n in n_range if n <= m
            for rho in rho_range if rho <= n}


def linear_dim_bounds(q, m, n, rho):
    """(k_lower, k_upper) for the dimension of an (n, k) linear code over
    GF(q^m), n <= m, with rank covering radius rho:
    floor(n - rho - (rho(n-rho) + sigma(q))/m) + 1 <= k <= n - rho,
    collapsed to k = n - rho exactly when rho is 0, 1, n-1, or n, or when
    rho(n - rho) <= m - sigma(q).

    Both tests compare an integer with sigma(q), so they hold exactly with
    sigma(q) replaced by s = ceil(sigma(q)): 2 for q = 2 (sigma ~ 1.792)
    and 1 for q >= 3 (sigma is decreasing, sigma(3) ~ 0.53).  Then
    k_lower = n - rho + 1 - ceil((rho(n-rho) + s)/m) in integers."""
    _check_q(q)
    if n > m:
        raise ValueError(f"need n <= m, got n={n} > m={m}")
    if not 0 <= rho <= n:
        raise ValueError(f"covering radius {rho} outside [0, {n}]")
    k_upper = n - rho
    excess = rho * (n - rho) + (2 if q == 2 else 1)
    if rho in (0, 1, n - 1, n) or excess <= m:
        return k_upper, k_upper
    return max(k_upper + 1 - _ceil_div(excess, m), 0), k_upper


def dimension_table(q, m_range, n_range, rho_range):
    """(m, n, rho) -> (k_lower, k_upper) over the grid, n <= m, rho <= n."""
    return {(m, n, rho): linear_dim_bounds(q, m, n, rho)
            for m in m_range for n in n_range if n <= m
            for rho in rho_range if rho <= n}
