"""Command-line front end for the rank-metric toolkit.

Subcommands::

    field rank ball els code gabidulin bounds
    table1 table2 macwilliams moments search verify

Ranges are written "2..7" (inclusive).  Every command returns an
``Answer`` and prints nothing; only ``main`` prints it, through ``emit``,
once the command has returned, so a command that fails leaves stdout
empty.  Lines may be any iterable (``els --list`` text is a generator made
past every guard), and ``main`` lifts Python's 4300-digit int/str limit
while a command runs.  Machine formats (csv, json) echo the fully resolved
run configuration: CSV output starts with a versioned comment line
``# rankmetric-table v1 config: ...`` and JSON output carries a ``config``
object.  Plain text output stays minimal for human use.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 inconclusive (a search or scan gave up at its budget).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, NamedTuple

from . import bounds as bd
from . import codes as cd
from . import oracle as oc
from . import rankgeom as rg
from . import wenum as we
from .ffield import is_prime_power, make_field

TABLE_VERSION = "rankmetric-table v1"

CSV_COLUMNS_1 = ("m", "n", "rho", "a", "b", "c", "A", "B", "C", "D", "E",
                 "best_lower", "lower_tag", "best_upper", "upper_tag")
CSV_COLUMNS_2 = ("m", "n", "rho", "k_lower", "k_upper")


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def make_config(command, **options):
    """The resolved run parameters echoed into machine-format output."""
    return {"command": command, **dict(sorted(options.items()))}


class Answer(NamedTuple):
    """A command's whole result: its text lines (any iterable), the config
    and payload that --format json prints instead, and its exit status."""
    lines: Iterable
    config: dict = None
    payload: dict = None
    status: int = 0


def emit(args, answer):
    """Print the answer: config and payload as JSON under --format json,
    else its lines (rank, gabidulin and verify have no --format)."""
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"config": answer.config, **answer.payload},
                         sort_keys=True))
    else:
        for line in answer.lines:
            print(line)


def parse_range(text):
    """'2..7' -> range(2, 8); '3' -> range(3, 4)."""
    lo, dots, hi = text.partition("..")
    try:
        r = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"bad range {text!r}; use N or LO..HI") from None
    if len(r) == 0:
        raise ValueError(f"empty range {text!r}")
    return r


def echo_range(r):
    return str(r.start) if len(r) == 1 else f"{r.start}..{r.stop - 1}"


def parse_ints(text, option):
    """The integers of an option's value, split at commas or spaces."""
    return cd.ints(text.replace(",", " ").split(), option)


def prime_power(text):
    """argparse type of --q: a field size, i.e. a prime power >= 2."""
    q = int(text)
    if not is_prime_power(q):
        raise argparse.ArgumentTypeError(
            f"q must be a prime power >= 2, got {text}")
    return q


def int_at_least(lo):
    """argparse type: an integer >= lo."""
    def parse(text):
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lo}, got {text}")
        return v
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


# ---------------------------------------------------------------------------
# simple queries
# ---------------------------------------------------------------------------

def _field_from_args(args):
    modulus = (None if args.modulus is None
               else parse_ints(args.modulus, "--modulus"))
    return make_field(args.q, args.m, modulus)


def cmd_field(args):
    F = _field_from_args(args)
    modulus = " ".join(map(str, F.modulus))
    return Answer([f"GF({F.q}^{F.m}), order {F.order}",
                   f"modulus: {modulus} (low to high)",
                   f"descriptor: {F.descriptor()}"],
                  make_config("field", q=F.q, m=F.m, modulus=modulus),
                  {"order": F.order, "descriptor": F.descriptor(),
                   "polynomial_basis": list(F.polynomial_basis())})


def cmd_rank(args):
    F = _field_from_args(args)
    vec = parse_ints(args.vec, "--vec")
    if args.vec2 is None:
        return Answer([rg.rank(F, vec)])
    return Answer([rg.rank_distance(F, vec, parse_ints(args.vec2, "--vec2"))])


def cmd_ball(args):
    q, m, n, r = args.q, args.m, args.n, args.r
    sphere, ball = rg.ball_counts(q, m, n, r)
    lo, hi = rg.ball_volume_bounds(q, m, n, r)
    return Answer([f"sphere N_{r} = {sphere}", f"ball   V_{r} = {ball}",
                   f"bounds {lo} <= V <= {hi}"],
                  make_config("ball", q=q, m=m, n=n, r=r),
                  {"sphere": sphere, "ball": ball, "lower": int(lo),
                   "upper": float(hi)})


def cmd_els(args):
    if args.v is not None and not 0 <= args.v <= args.n:
        raise ValueError(f"dimension {args.v} outside [0, {args.n}]")
    dims = range(args.n + 1) if args.v is None else (args.v,)
    counts = {v: rg.gaussian(args.n, v, args.q) for v in dims}
    payload = {"counts": {str(v): c for v, c in counts.items()}}
    # every walk refuses at the call, before a line is made or printed
    walks = {v: rg.subspaces(args.q, args.n, v) for v in dims if args.list}
    if walks and args.format == "json":
        payload["bases"] = {str(v): [b for bs in walk for b in bs.tolist()]
                            for v, walk in walks.items()}

    def lines():
        for v in dims if args.format == "text" else ():
            yield f"dim {v}: {counts[v]} subspaces"
            yield from ("  [" + "; ".join(" ".join(map(str, r)) for r in b)
                        + "]" for bs in walks.get(v, ()) for b in bs.tolist())
    return Answer(lines(), make_config("els", q=args.q, n=args.n,
                                       v="all" if args.v is None else args.v),
                  payload)


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def cmd_code(args):
    code = cd.read_code(args.file)
    F = code.field
    if args.dual:
        return Answer(cd.format_code(cd.dual(code)).splitlines())
    dist = cd.rank_distribution(code)
    d = next((r for r in range(1, code.n + 1) if dist[r]), None)
    payload = {"n": code.n, "k": code.k, "size": code.size,
               "min_rank_distance": d, "rank_distribution": list(dist)}
    lines = [f"(n, k) = ({code.n}, {code.k}) over GF({F.q}^{F.m}), "
             f"size {code.size}",
             f"min rank distance: {d}",
             f"rank distribution: {tuple(dist)}"]
    if args.radius:
        try:
            radius = payload["covering_radius"] = cd.covering_radius(code)
            lines.append(f"covering radius: {radius}")
        except rg.GuardExceeded as exc:  # report and continue
            payload["covering_radius"] = None
            payload["covering_radius_skipped"] = str(exc)
            lines.append(f"covering radius: skipped ({exc})")
    return Answer(lines, make_config("code", file=args.file, q=F.q, m=F.m,
                                     n=code.n, k=code.k), payload)


def cmd_gabidulin(args):
    F = make_field(args.q, args.m)
    if args.g is not None:
        g = parse_ints(args.g, "--g")
        rg.check_vectors(F, (g,), args.n)
    else:
        g = tuple(F.q ** i for i in range(args.n))  # polynomial basis slice
    code = cd.gabidulin(F, g, args.k, args.a)
    lines, ok = [], True
    if args.check:
        d, bound = cd.min_rank_distance(code), code.n - code.k + 1
        mrd = cd.mrd_els_check(code)
        lines = [f"# min_rank_distance: {d} (Singleton: {bound})",
                 f"# mrd_els_check: {mrd}"]
        ok = d == bound and mrd
    return Answer(lines + cd.format_code(code).splitlines(),
                  status=0 if ok else 2)


# ---------------------------------------------------------------------------
# bounds and tables
# ---------------------------------------------------------------------------

def cmd_bounds(args):
    q, m, n, rho = args.q, args.m, args.n, args.rho
    rep = bd.covering_report(q, m, n, rho)
    dims = bd.linear_dim_bounds(q, max(m, n), min(m, n), rho) \
        if rho <= min(m, n) else (0, 0)
    summary = bd.format_report(rep)
    lines = [f"K_R({q}^{m}, {n}, {rho}): {summary}"]
    if rep.lower:
        lines += [f"{side}: " + " ".join(f"{t}={v}" for t, v in vals.items()
                                         if v is not None)
                  for side, vals in (("lower", rep.lower),
                                     ("upper", rep.upper))]
    lines.append(f"linear dimension k: {dims[0]}..{dims[1]}")
    return Answer(lines, make_config("bounds", q=q, m=m, n=n, rho=rho),
                  {**_report_fields(rep), "summary": summary,
                   "k_lower": dims[0], "k_upper": dims[1]})


def _report_fields(rep):
    """A BoundReport's JSON fields, as bounds and table1 print them."""
    return {"lower": rep.lower, "upper": rep.upper, "exact": rep.exact,
            "best_lower": rep.best_lower, "lower_tag": rep.best_lower_tag,
            "best_upper": rep.best_upper, "upper_tag": rep.best_upper_tag}


def _grid(args):
    """A table command's (m, n, rho) ranges and its config echo."""
    m_range = parse_range(args.m)
    n_range = parse_range(args.n) if args.n is not None else m_range
    rho_range = parse_range(args.rho)
    if min(m_range.start, n_range.start) < 1 or rho_range.start < 0:
        raise ValueError("need m, n >= 1 and rho >= 0")
    cfg = make_config(args.command, q=args.q, m=echo_range(m_range),
                      n=echo_range(n_range), rho=echo_range(rho_range),
                      format=args.format)
    return (m_range, n_range, rho_range), cfg


def _csv(cfg, columns, rows):
    """CSV lines: the config comment, the header, then rows with None
    cells left empty."""
    echo = " ".join(f"{k}={v}" for k, v in cfg.items())
    return [f"# {TABLE_VERSION} config: {echo}", ",".join(columns)] + [
        ",".join("" if x is None else str(x) for x in row) for row in rows]


def cmd_table1(args):
    ranges, cfg = _grid(args)
    table = bd.covering_table(args.q, *ranges)
    reps = [table[key] for key in sorted(table)]
    cells = [{"m": rep.m, "n": rep.n, "rho": rep.rho, **_report_fields(rep)}
             for rep in reps]
    rows = [[rep.m, rep.n, rep.rho]
            + [rep.lower.get(t) for t in bd.LOWER_TAGS]
            + [rep.upper.get(t) for t in bd.UPPER_TAGS]
            + [rep.best_lower, rep.best_lower_tag,
               rep.best_upper, rep.best_upper_tag] for rep in reps]
    return Answer(_csv(cfg, CSV_COLUMNS_1, rows), cfg, {"cells": cells})


def cmd_table2(args):
    ranges, cfg = _grid(args)
    table = bd.dimension_table(args.q, *ranges)
    rows = [key + table[key] for key in sorted(table)]
    cells = [dict(zip(CSV_COLUMNS_2, row)) for row in rows]
    return Answer(_csv(cfg, CSV_COLUMNS_2, rows), cfg, {"cells": cells})


# ---------------------------------------------------------------------------
# weight enumerators
# ---------------------------------------------------------------------------

def _enumerator_from_args(args):
    if args.code is not None:
        code = cd.read_code(args.code)
        return we.code_enumerator(code)
    if not args.dist:
        raise ValueError("need --code FILE or --dist plus --q/--m")
    coeffs = parse_ints(args.dist, "--dist")
    if args.q is None or args.m is None:
        raise ValueError("--dist needs explicit --q and --m")
    return we.make_enumerator(args.q, args.m, len(coeffs) - 1, coeffs)


def _moment_checks(A, B, k):
    """The moment identities between A and its dual distribution B for
    every order nu, as JSON-ready records, and whether all of them hold."""
    checks = []
    for nu in range(A.n + 1):
        l1, r1, l2, r2 = we.moments(A.coeffs, B.coeffs, A.q, A.m, A.n, k, nu)
        checks.append({"nu": nu, "packing": [str(l1), str(r1)],
                       "shell": [str(l2), str(r2)],
                       "ok": l1 == r1 and l2 == r2})
    return checks, all(c["ok"] for c in checks)


def cmd_macwilliams(args):
    A = _enumerator_from_args(args)
    B = we.macwilliams(A, method=args.method)
    k = we._code_dimension(A)
    checks, ok = _moment_checks(A, B, k)
    return Answer([f"A = {A.coeffs}", f"B = {B.coeffs}"],
                  make_config("macwilliams", q=A.q, m=A.m, n=A.n, k=k,
                              method=args.method,
                              source=args.code or f"dist:{args.dist}"),
                  {"A": list(A.coeffs), "B": list(B.coeffs),
                   "moment_checks": checks, "ok": ok}, 0 if ok else 2)


def cmd_moments(args):
    code = cd.read_code(args.code)
    A = we.code_enumerator(code)
    B = we.code_enumerator(cd.dual(code))
    checks, ok = _moment_checks(A, B, code.k)
    return Answer(
        [f"nu {c['nu']}: packing {' == '.join(c['packing'])}; "
         f"shell {' == '.join(c['shell'])} [{'ok' if c['ok'] else 'FAIL'}]"
         for c in checks],
        make_config("moments", file=args.code, q=A.q, m=A.m, n=A.n, k=code.k),
        {"A": list(A.coeffs), "B": list(B.coeffs), "checks": checks,
         "ok": ok}, 0 if ok else 2)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# the options each search kind needs; they are also its config echo
SEARCH_NEEDS = {"covering": ("rho", "K"), "greedy": ("rho",),
                "maxcode": ("d",)}


def _codebook_lines(q, m, n, words):
    mod = " ".join(map(str, make_field(q, m).modulus))
    return ([f"# codebook q={q} m={m} n={n} size={len(words)} modulus={mod}"]
            + [" ".join(map(str, w)) for w in words])


def cmd_search(args):
    q, m, n, what = args.q, args.m, args.n, args.what
    needs = {name: getattr(args, name) for name in SEARCH_NEEDS[what]}
    if None in needs.values():
        raise ValueError(f"{what} search needs "
                         + " and ".join(f"--{name}" for name in needs))
    if what == "covering":
        dec = oc.exhaustive_min_covering(q, m, n, args.rho, args.K,
                                         max_nodes=args.budget)
        payload = {"exists": dec.exists, "witness": [
            list(w) for w in dec.witness] if dec.witness else None}
        lines = [f"exists: {'true' if dec.exists else 'false'}"]
        if dec.witness:
            lines += _codebook_lines(q, m, n, dec.witness)
    elif what == "greedy":
        book = oc.greedy_covering(q, m, n, args.rho)
        payload = {"size": book.size, "words": [list(w) for w in book.words]}
        lines = _codebook_lines(q, m, n, book.words)
    else:
        val = oc.max_code_search(q, m, n, args.d, max_nodes=args.budget)
        payload, lines = {"value": val}, [val]
    return Answer(lines, make_config("search", what=what, q=q, m=m, n=n,
                                     **needs), payload)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_geometry(trials, seed):
    for q, m, n in ((2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2)):
        F = make_field(q, m)
        good = all(
            rg.intersection_volume_brute(F, [((0,) * n, r)])
            == rg.ball_counts(q, m, n, r)[1]
            for r in range(min(m, n) + 1))
        yield f"ball volumes vs enumeration q={q} m={m} n={n}", good, ""
    bad = []
    for m, n in ((2, 2), (3, 3), (2, 3)):
        F = make_field(2, m)
        for r1 in range(1, min(m, n) + 1):
            for r2 in range(1, r1 + 1):
                for dist in range(min(m, n) + 1):
                    try:
                        closed = rg.intersection_volume_closed(
                            2, m, n, r1, r2, dist)
                    except rg.NoClosedFormError:
                        continue
                    brute = rg.intersection_volume_at_distance(
                        F, n, r1, r2, dist)
                    if closed != brute:
                        bad.append((m, n, r1, r2, dist, closed, brute))
    yield "ball intersections closed vs brute", not bad, str(bad)
    for n in range(1, 5):
        good = all(sum(map(len, rg.subspaces(2, n, v)))
                   == rg.gaussian(n, v, 2) for v in range(n + 1))
        yield f"subspace counts n={n}", good, ""


def _suite_macwilliams(trials, seed):
    shapes = [(2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 2, 3)]
    bad = []
    for i in range(trials):
        q, m, n = shapes[i % len(shapes)]
        k = (i % n) + 1 if n > 1 else 1
        k = min(k, n)
        code = oc.random_linear_code(q, m, n, k, seed=seed + i)
        A = we.code_enumerator(code)
        B = we.macwilliams(A)
        if tuple(B.coeffs) != tuple(cd.rank_distribution(cd.dual(code))):
            bad.append(("transform vs dual", q, m, n, k, i))
            continue
        if we.macwilliams(B).coeffs != A.coeffs:
            bad.append(("involution", q, m, n, k, i))
        if we.macwilliams(A, method="qproduct").coeffs != B.coeffs:
            bad.append(("method agreement", q, m, n, k, i))
        bad += [("moments", q, m, n, k, c["nu"], i)
                for c in _moment_checks(A, B, k)[0] if not c["ok"]]
    yield f"macwilliams oracle x{trials}", not bad, str(bad[:4])


def _suite_bounds(trials, seed):
    anchors = {(2, 2, 1): "b 3-4 A", (3, 2, 1): "b 4 B",
               (3, 3, 1): "a 11-32 C", (7, 7, 6): "a 2-16 C",
               (4, 4, 2): "b 10-64 C"}
    bad = [(cell, want, got) for cell, want in anchors.items()
           if (got := bd.format_report(bd.covering_report(2, *cell))) != want]
    yield "covering bound anchors", not bad, str(bad)
    violations = []
    for m in range(2, 7):
        for n in range(2, m + 1):
            for rho in range(1, n):
                lows = bd.covering_lower(2, m, n, rho)
                ups = bd.covering_upper(2, m, n, rho)
                lvals = [v for v in lows.values() if v is not None]
                uvals = [v for v in ups.values() if v is not None]
                if max(lvals) > min(uvals):
                    violations.append((m, n, rho))
    yield ("lower bounds never exceed upper bounds", not violations,
           str(violations))
    dims_ok = (bd.linear_dim_bounds(2, 6, 6, 2) == (3, 4)
               and bd.linear_dim_bounds(2, 8, 8, 5) == (1, 3))
    yield "linear dimension anchors", dims_ok, ""


def _suite_codes(trials, seed):
    bad = []
    for m in range(2, 5):
        F = make_field(2, m)
        for n in range(1, m + 1):
            g = tuple(2 ** i for i in range(n))
            for k in range(1, n + 1):
                code = cd.gabidulin(F, g, k)
                if cd.min_rank_distance(code) != n - k + 1:
                    bad.append(("distance", m, n, k))
                if not cd.mrd_els_check(code):
                    bad.append(("els", m, n, k))
    yield "gabidulin codes are MRD", not bad, str(bad)
    bad = []
    for i in range(min(trials, 10)):
        code = oc.random_linear_code(2, 3, 4, 2, seed=seed + i)
        dual = cd.dual(code)
        if dual.k != code.n - code.k:
            bad.append(("dim", i))
        if sorted(cd.codewords(cd.dual(dual))) != sorted(cd.codewords(code)):
            bad.append(("involution", i))
        if any(cd.dot(code.field, u, v) for u in cd.codewords(code)
               for v in dual.G):
            bad.append(("orthogonality", i))
    yield ("dual codes orthogonal with complementary dimension", not bad,
           str(bad))
    zero = cd.make_zero_code(make_field(2, 2), 2)
    yield "covering radius of the zero code", cd.covering_radius(zero) == 2, ""


SUITES = {"geometry": _suite_geometry, "macwilliams": _suite_macwilliams,
          "bounds": _suite_bounds, "codes": _suite_codes}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    lines, failures = [], 0
    for name in names:
        for label, good, detail in SUITES[name](args.trials, args.seed):
            state = "ok" if good else "FAIL"
            suffix = f": {detail}" if detail and not good else ""
            lines.append(f"{state} [{name}] {label}{suffix}")
            failures += not good
    if failures:
        lines.append(f"{failures} check(s) failed")
    return Answer(lines, status=2 if failures else 0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p, default="text", choices=("text", "json")):
    p.add_argument("--format", default=default, choices=choices)


def _add_ints(p, *names, **types):
    """Required integer options --name, of type types.get(name, int)."""
    for name in names:
        p.add_argument(f"--{name}", type=types.get(name, int), required=True)


def build_parser():
    top = argparse.ArgumentParser(
        prog="rankmetric",
        description="exact rank-metric coding computations")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="field summary")
    _add_ints(p, "q", "m")
    p.add_argument("--modulus")
    _add_format(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("rank", help="rank weight / rank distance")
    _add_ints(p, "q", "m")
    p.add_argument("--modulus")
    p.add_argument("--vec", required=True)
    p.add_argument("--vec2")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("ball", help="sphere/ball sizes and bounds")
    _add_ints(p, "q", "m", "n", "r", q=prime_power, m=int_at_least(1),
              n=int_at_least(1))
    _add_format(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("els", help="elementary linear subspace counts")
    _add_ints(p, "q", "n", q=prime_power, n=int_at_least(0))
    p.add_argument("--v", type=int)
    p.add_argument("--list", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_els)

    p = sub.add_parser("code", help="inspect a code file")
    p.add_argument("--file", required=True)
    p.add_argument("--dual", action="store_true",
                   help="emit the dual code file instead of a summary")
    p.add_argument("--radius", action="store_true",
                   help="also compute the covering radius; skipped past "
                        "2^24 syndromes q^(m(n-k)) or vectors in one rank "
                        "shell of a linear code")
    _add_format(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("gabidulin", help="emit a Gabidulin code file")
    _add_ints(p, "q", "m", "n", "k", n=int_at_least(1))
    p.add_argument("--a", type=int, default=1,
                   help="Frobenius power parameter (coprime to m)")
    p.add_argument("--g", help="evaluation points (encodings)")
    p.add_argument("--check", action="store_true",
                   help="verify MRD properties; exit 2 on failure")
    p.set_defaults(func=cmd_gabidulin)

    p = sub.add_parser("bounds", help="covering bounds for one cell")
    _add_ints(p, "q", "m", "n", "rho", q=prime_power)
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    for name, what, m, rho, func in (
            ("table1", "covering bound", "2..7", "1..6", cmd_table1),
            ("table2", "linear dimension", "4..8", "2..6", cmd_table2)):
        p = sub.add_parser(name, help=f"{what} table (CSV/JSON)")
        p.add_argument("--q", type=prime_power, default=2)
        p.add_argument("--m", default=m)
        p.add_argument("--n", help="defaults to the m range")
        p.add_argument("--rho", default=rho)
        _add_format(p, default="csv", choices=("csv", "json"))
        p.set_defaults(func=func)

    p = sub.add_parser("macwilliams",
                       help="rank weight distribution of the dual")
    p.add_argument("--code", help="code file")
    p.add_argument("--dist", help="explicit distribution A_0,...,A_n")
    p.add_argument("--q", type=prime_power)
    p.add_argument("--m", type=int)
    p.add_argument("--method", default="krawtchouk",
                   choices=("krawtchouk", "qproduct"))
    _add_format(p)
    p.set_defaults(func=cmd_macwilliams)

    p = sub.add_parser("moments", help="moment identities for a code file")
    p.add_argument("--code", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("search", help="exhaustive/greedy/packing search")
    p.add_argument("--what", required=True, choices=tuple(SEARCH_NEEDS))
    _add_ints(p, "q", "m", "n")
    for name in ("rho", "K", "d"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--budget", type=int_at_least(1), default=oc.MAX_NODES,
                   help="search node budget")
    _add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(SUITES))
    p.add_argument("--trials", type=int_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    try:
        set_limit(0)
        answer = args.func(args)
        emit(args, answer)
    except oc.InconclusiveSearch as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_limit(limit)
    return answer.status


if __name__ == "__main__":
    sys.exit(main())
