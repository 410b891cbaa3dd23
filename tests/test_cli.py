"""CLI tests: exit codes, formats, config echo, determinism."""
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankmetric import bounds as bd
from rankmetric import cli
from rankmetric import codes as cd
from rankmetric import rankgeom as rg
from rankmetric.cli import main, parse_range
from rankmetric.ffield import make_field

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture
def run(capsys):
    def go(*argv):
        rc = main(list(argv))
        out, err = capsys.readouterr()
        return rc, out, err
    return go


def test_parse_range():
    assert parse_range("2..5") == range(2, 6)
    assert parse_range("3") == range(3, 4)
    with pytest.raises(ValueError):
        parse_range("5..2")
    with pytest.raises(ValueError):
        parse_range("x..3")


def test_usage_errors_exit_1(run):
    assert run("bogus")[0] == 1
    assert run("ball", "--q", "2")[0] == 1
    assert run("table1", "--m", "nope")[0] == 1
    assert run("search", "--what", "covering", "--q", "2", "--m", "2",
               "--n", "2")[0] == 1  # missing --rho/--K
    assert run("macwilliams")[0] == 1  # neither --code nor --dist


def test_help_exits_0(run):
    assert run("--help")[0] == 0


def test_rank_examples(run):
    rc, out, _ = run("rank", "--q", "2", "--m", "2", "--vec", "1 2 3")
    assert (rc, out) == (0, "2\n")
    rc, out, _ = run("rank", "--q", "2", "--m", "2", "--vec", "1 2",
                     "--vec2", "1 3")
    assert (rc, out) == (0, "1\n")


def test_rank_rejects_out_of_range_encoding(run):
    rc, out, err = run("rank", "--q", "2", "--m", "3", "--vec", "1 2 99")
    assert (rc, out) == (1, "")
    assert "error: encoding 99 outside GF(2^3)" in err


def test_code_rejects_empty_file(run, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only a comment\n\n")
    rc, out, err = run("code", "--file", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_field_and_ball_json(run):
    rc, out, _ = run("field", "--q", "2", "--m", "3", "--format", "json")
    data = json.loads(out)
    assert rc == 0 and data["order"] == 8
    assert data["config"]["command"] == "field"
    rc, out, _ = run("ball", "--q", "2", "--m", "3", "--n", "3",
                     "--r", "1", "--format", "json")
    data = json.loads(out)
    assert (data["sphere"], data["ball"]) == (49, 50)


def test_els_counts(run):
    rc, out, _ = run("els", "--q", "2", "--n", "3")
    assert rc == 0
    assert "dim 1: 7 subspaces" in out
    rc, out, _ = run("els", "--q", "2", "--n", "4", "--v", "2",
                     "--format", "json")
    assert json.loads(out)["counts"]["2"] == 35


def test_gabidulin_emit_and_inspect(run, tmp_path):
    rc, out, _ = run("gabidulin", "--q", "2", "--m", "2", "--n", "2",
                     "--k", "1", "--check")
    assert rc == 0
    assert "# min_rank_distance: 2" in out
    code = cd.parse_code(out)  # comments are skipped by the parser
    assert (code.n, code.k) == (2, 1)
    path = tmp_path / "code.txt"
    path.write_text(out)
    rc, out, _ = run("code", "--file", str(path), "--radius")
    assert rc == 0
    assert "min rank distance: 2" in out
    assert "covering radius: 1" in out
    rc, out, _ = run("code", "--file", str(path), "--dual")
    dual = cd.parse_code(out)
    assert dual.k == 1
    rc, out, _ = run("code", "--file", str(path), "--format", "json")
    data = json.loads(out)
    assert data["rank_distribution"] == [1, 0, 3]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_code_ranks_the_code_once(run, tmp_path, monkeypatch, fmt):
    F = make_field(2, 3)
    path = tmp_path / "gab.txt"
    cd.write_code(path, cd.gabidulin(F, F.polynomial_basis(), 2))
    calls = []
    ranked = cd.rank_distribution

    def counting(code):
        calls.append(code)
        return ranked(code)
    monkeypatch.setattr(cd, "rank_distribution", counting)
    rc, out, _ = run("code", "--file", str(path), "--format", fmt)
    assert rc == 0 and len(calls) == 1
    assert ("min rank distance: 2" in out if fmt == "text"
            else json.loads(out)["min_rank_distance"] == 2)


def test_code_past_word_guard(run, tmp_path):
    # 2^27 codewords but 262,657 scalar classes: answered, not refused
    F = make_field(2, 9)
    path = tmp_path / "gab.txt"
    cd.write_code(path, cd.gabidulin(F, F.polynomial_basis(), 3))
    rc, out, _ = run("code", "--file", str(path))
    assert rc == 0
    assert "min rank distance: 7" in out


def test_macwilliams_spec_example(run, tmp_path):
    # the span of (1, alpha) over GF(4): A = B = (1, 0, 3)
    F = make_field(2, 2)
    path = tmp_path / "span.txt"
    cd.write_code(path, cd.make_code(F, [(1, 2)]))
    rc, out, _ = run("macwilliams", "--code", str(path))
    assert rc == 0
    assert out == "A = (1, 0, 3)\nB = (1, 0, 3)\n"
    rc, out, _ = run("macwilliams", "--code", str(path), "--format", "json",
                     "--method", "qproduct")
    data = json.loads(out)
    assert data["ok"] and data["B"] == [1, 0, 3]
    assert all(ch["ok"] for ch in data["moment_checks"])
    rc, out, _ = run("macwilliams", "--dist", "1,0,3", "--q", "2",
                     "--m", "2")
    assert rc == 0 and "B = (1, 0, 3)" in out
    # a distribution not summing to a power of the field order is rejected
    assert run("macwilliams", "--dist", "1,2,0", "--q", "2", "--m", "2")[0] \
        == 1


@pytest.mark.parametrize("dist,m", [("2,2", "1"), ("3,1", "2")])
def test_macwilliams_text_refuses_a_non_code_distribution(run, dist, m):
    # the text form once skipped the moment checks, so it printed A and B
    # of a distribution with A_0 != 1 and exited 0 where JSON exited 1
    for fmt in ("text", "json"):
        rc, out, err = run("macwilliams", "--dist", dist, "--q", "2",
                           "--m", m, "--format", fmt)
        assert (rc, out) == (1, "")
        assert err == "error: A, B do not form an (n,k)/(n,n-k) pair\n"


def test_moments_command(run, tmp_path):
    F = make_field(2, 3)
    path = tmp_path / "gab.txt"
    cd.write_code(path, cd.gabidulin(F, (1, 2, 4), 2))
    rc, out, _ = run("moments", "--code", str(path))
    assert rc == 0
    assert "[ok]" in out and "FAIL" not in out
    rc, out, _ = run("moments", "--code", str(path), "--format", "json")
    data = json.loads(out)
    assert data["ok"] and len(data["checks"]) == 4


def test_table1_csv_contract(run):
    rc, out, _ = run("table1", "--q", "2", "--m", "2..5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# rankmetric-table v1 config: ")
    assert "command=table1" in lines[0] and "m=2..5" in lines[0]
    assert lines[1] == ",".join(cli.CSV_COLUMNS_1)
    rows = {tuple(map(int, ln.split(",")[:3])): ln for ln in lines[2:]}
    assert rows[(2, 2, 1)] == "2,2,1,2,3,2,4,4,4,3,5,3,b,4,A"
    assert rows[(3, 2, 1)].endswith(",4,b,4,B")
    assert rows[(5, 5, 2)].endswith(",233,b,2979,E")
    assert rows[(4, 4, 2)].endswith(",10,b,64,C")
    # exact diagonal cells carry empty bound columns
    assert rows[(2, 2, 2)] == "2,2,2,,,,,,,,,1,,1,"


def test_table1_byte_identical(run):
    rc1, out1, _ = run("table1", "--q", "2", "--m", "2..4")
    rc2, out2, _ = run("table1", "--q", "2", "--m", "2..4")
    assert (rc1, rc2) == (0, 0) and out1 == out2


def test_removed_options_exit_1(run):
    # options that could never change an answer are gone, not ignored
    assert run("table1", "--q", "2", "--m", "2..4", "--workers", "2")[0] == 1
    assert run("search", "--what", "maxcode", "--q", "2", "--m", "2",
               "--n", "2", "--d", "2", "--seed", "1")[0] == 1


@pytest.mark.parametrize("argv", [
    ("table1", "--q", "1"),
    ("table1", "--q", "6"),
    ("table2", "--q", "6"),
    ("bounds", "--q", "1", "--m", "2", "--n", "2", "--rho", "1"),
    ("els", "--q", "1", "--n", "2"),
    ("ball", "--q", "0", "--m", "2", "--n", "2", "--r", "1"),
    ("macwilliams", "--dist", "2,0", "--q", "10", "--m", "1"),
], ids=lambda argv: "-".join(argv[:3]))
def test_bad_q_exits_1(run, argv):
    rc, out, err = run(*argv)
    assert rc == 1 and not out
    assert "prime power" in err


def test_macwilliams_trivial_field_exits_1():
    # q^m = 1 once looped forever looking for the code dimension, so these
    # run in a subprocess under a timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for q, m in ((1, 1), (2, 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "rankmetric.cli", "macwilliams",
             "--dist", "2,0", "--q", str(q), "--m", str(m)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, (q, m, proc.stderr)
        assert not proc.stdout and "Traceback" not in proc.stderr


def test_prime_power_q_accepted(run):
    rc, out, _ = run("table1", "--q", "4", "--m", "2..3")
    assert rc == 0 and "q=4" in out.splitlines()[0]
    # a large prime q is checked without trial division
    rc, out, _ = run("bounds", "--q", str(10 ** 18 + 3), "--m", "2",
                     "--n", "2", "--rho", "1")
    assert rc == 0 and out.startswith(f"K_R({10 ** 18 + 3}^2, 2, 1)")


def test_table1_json(run):
    rc, out, _ = run("table1", "--q", "2", "--m", "2..3",
                     "--format", "json")
    data = json.loads(out)
    cell = next(c for c in data["cells"]
                if (c["m"], c["n"], c["rho"]) == (3, 3, 1))
    assert (cell["best_lower"], cell["best_upper"]) == (11, 32)
    assert cell["upper"]["C"] == 32


def test_table2_csv(run):
    rc, out, _ = run("table2", "--q", "2", "--m", "4..8")
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == ",".join(cli.CSV_COLUMNS_2)
    rows = set(lines[2:])
    assert "6,6,2,3,4" in rows
    assert "8,8,5,1,3" in rows


def test_bounds_command(run):
    rc, out, _ = run("bounds", "--q", "2", "--m", "2", "--n", "2",
                     "--rho", "1")
    assert rc == 0 and "K_R(2^2, 2, 1): b 3-4 A" in out
    rc, out, _ = run("bounds", "--q", "2", "--m", "6", "--n", "6",
                     "--rho", "2", "--format", "json")
    data = json.loads(out)
    assert (data["k_lower"], data["k_upper"]) == (3, 4)
    assert data["summary"] == "c 27065-424990 E"


def test_search_commands(run):
    rc, out, _ = run("search", "--what", "covering", "--q", "2", "--m", "2",
                     "--n", "2", "--rho", "1", "--K", "2")
    assert rc == 0 and "exists: false" in out
    rc, out, _ = run("search", "--what", "covering", "--q", "2", "--m", "2",
                     "--n", "2", "--rho", "1", "--K", "3", "--format",
                     "json")
    data = json.loads(out)
    assert data["exists"] and len(data["witness"]) == 3
    rc, out, _ = run("search", "--what", "maxcode", "--q", "2", "--m", "2",
                     "--n", "2", "--d", "2")
    assert (rc, out) == (0, "4\n")
    rc, out, _ = run("search", "--what", "greedy", "--q", "2", "--m", "2",
                     "--n", "2", "--rho", "1")
    assert rc == 0 and "# codebook" in out


def test_search_inconclusive_exit_3(run):
    rc, _, err = run("search", "--what", "covering", "--q", "2", "--m", "3",
                     "--n", "3", "--rho", "1", "--K", "12",
                     "--budget", "50")
    assert rc == 3 and "inconclusive" in err
    # the message says how far the search got
    assert "50 nodes expanded" in err and "K=12" in err
    assert "deepest depth" in err and "best coverage" in err
    rc, _, err = run("search", "--what", "maxcode", "--q", "2", "--m", "3",
                     "--n", "3", "--d", "2")
    assert rc == 3  # ambient 512 above the clique budget


def test_verify_all_green(run):
    rc, out, _ = run("verify", "--trials", "8")
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("ok ") >= 10
    rc, out, _ = run("verify", "--suite", "bounds")
    assert rc == 0 and "[bounds]" in out and "[codes]" not in out


def test_verify_reports_failures_exit_2(run, monkeypatch):
    def broken(trials, seed):
        return [("always wrong", False, "injected")]
    monkeypatch.setitem(cli.SUITES, "bounds", broken)
    rc, out, _ = run("verify", "--suite", "bounds")
    assert rc == 2
    assert "FAIL [bounds] always wrong: injected" in out


def test_verify_suite_that_raises_prints_nothing(run, monkeypatch):
    def broken(trials, seed):
        yield "fine so far", True, ""
        raise ValueError("suite broke")
    monkeypatch.setitem(cli.SUITES, "codes", broken)
    rc, out, err = run("verify", "--trials", "1")
    assert (rc, out, err) == (1, "", "error: suite broke\n")


def test_only_main_prints():
    # commands and suites return their answer; main prints it through emit
    funcs = [f for name, f in vars(cli).items()
             if name.startswith(("cmd_", "_suite_")) and callable(f)]
    assert len(funcs) == 13 + 4
    for f in funcs:
        src = inspect.getsource(f)
        assert "print(" not in src and "sys.stdout" not in src, f.__name__


def test_gabidulin_check_failure_exit_2(run, monkeypatch):
    monkeypatch.setattr(cd, "min_rank_distance", lambda code: 0)
    monkeypatch.setattr(cli.cd, "min_rank_distance", lambda code: 0)
    rc, out, _ = run("gabidulin", "--q", "2", "--m", "2", "--n", "2",
                     "--k", "1", "--check")
    assert rc == 2


@pytest.mark.parametrize("q,m,rho,golden", [
    (2, "2..16", "1..16", "table1_q2_m2-16.csv"),
    (3, "2..12", "1..12", "table1_q3_m2-12.csv"),
])
def test_table1_matches_golden_file(run, q, m, rho, golden):
    # the frozen output of the wide grids; every D and E cell is certified
    rc, out, _ = run("table1", "--q", str(q), "--m", m, "--rho", rho)
    assert rc == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("argv", [
    ("search", "--what", "maxcode", "--q", "2", "--m", "2", "--n", "2",
     "--d", "2", "--budget", "0"),
    ("search", "--what", "maxcode", "--q", "2", "--m", "2", "--n", "2",
     "--d", "2", "--budget", "-5"),
    ("ball", "--q", "2", "--m", "0", "--n", "2", "--r", "0"),
    ("ball", "--q", "2", "--m", "2", "--n", "0", "--r", "0"),
    ("els", "--q", "2", "--n", "-1"),
    ("verify", "--suite", "macwilliams", "--trials", "0"),
    ("verify", "--suite", "macwilliams", "--trials", "-3"),
    ("gabidulin", "--q", "2", "--m", "3", "--n", "0", "--k", "0"),
    ("gabidulin", "--q", "2", "--m", "3", "--n", "-1", "--k", "1"),
], ids=["budget-0", "budget-negative", "ball-m-0", "ball-n-0",
        "els-n-negative", "verify-trials-0", "verify-trials-negative",
        "gabidulin-n-0", "gabidulin-n-negative"])
def test_bad_integers_exit_1(run, argv):
    # a zero budget once meant the default one, a negative budget or an
    # empty field or ambient once printed an answer, verify once passed
    # "macwilliams oracle x-3" after checking nothing, and gabidulin --n 0
    # once blamed "dimension 0 outside [1, 0]" on --k
    rc, out, err = run(*argv)
    assert (rc, out) == (1, "")
    assert "must be an integer >=" in err


@pytest.mark.parametrize("v", ["-1", "5"])
def test_els_dimension_out_of_range_exits_1(run, v):
    # an impossible dimension once printed "dim 5: 0 subspaces"
    rc, out, err = run("els", "--q", "2", "--n", "3", "--v", v)
    assert (rc, out) == (1, "")
    assert err == f"error: dimension {v} outside [0, 3]\n"


@pytest.mark.parametrize("argv", [
    ("table1", "--m", "0..2"),
    ("table1", "--m", "2..3", "--n", "0..2"),
    ("table1", "--m", "2..3", "--rho=-1..1"),
    ("table2", "--m", "0..2", "--rho", "0..1"),
    ("table2", "--m", "2..3", "--rho=-1..1"),
], ids=lambda argv: "-".join(argv))
def test_table_ranges_checked(run, argv):
    # table1 once dropped the m = 0 cells and table2 printed 0,0,0,0,0
    rc, out, err = run(*argv)
    assert (rc, out) == (1, "")
    assert err == "error: need m, n >= 1 and rho >= 0\n"


@pytest.mark.parametrize("text,argv", [
    ("2 3 -3 0\n", ("code", "--file", "@")),
    ("2 3 -3 0\n", ("code", "--file", "@", "--dual")),
    ("2 3 -3 0\n", ("moments", "--code", "@")),
    ("2 3 2 3\n1 2\n3 4\n5 6\n", ("code", "--file", "@")),
    ("2 3 2 -1\n", ("code", "--file", "@", "--radius")),
], ids=["n-negative", "n-negative-dual", "n-negative-moments", "k-above-n",
        "k-negative"])
def test_code_rejects_malformed_header(run, tmp_path, text, argv):
    # n = -3 once printed a dual or died in numpy, and k = 3 > n = 2 was
    # reported as dependent generator rows
    path = tmp_path / "bad.code"
    path.write_text(text)
    rc, out, err = run(*(str(path) if a == "@" else a for a in argv))
    n, k = text.split()[2:4]
    assert (rc, out) == (1, "")
    assert err == f"error: header needs 0 <= k <= n, got n={n} k={k}\n"


def test_code_of_length_zero(run, tmp_path):
    path = tmp_path / "empty.code"
    path.write_text("2 3 0 0 1 1 0 1\n")
    assert run("code", "--file", str(path), "--dual") \
        == (0, "2 3 0 0 1 1 0 1\n", "")
    rc, out, _ = run("code", "--file", str(path), "--radius")
    assert rc == 0 and out.endswith("covering radius: 0\n")


def test_code_radius_past_the_guard_is_skipped(run, tmp_path):
    # the (4, 1) code over GF(2^9) has 2^27 > 2^24 syndromes: the
    # distribution of the one-class code is reported, its covering radius
    # skipped, and the exit is 0
    path = tmp_path / "big.code"
    path.write_text("2 9 4 1\n1 2 4 8\n")
    reason = f"syndrome space {2 ** 27} exceeds guard"
    rc, out, err = run("code", "--file", str(path), "--radius")
    assert (rc, err) == (0, "")
    assert out.endswith("rank distribution: (1, 0, 0, 0, 511)\n"
                        f"covering radius: skipped ({reason})\n")
    rc, out, err = run("code", "--file", str(path), "--radius",
                       "--format", "json")
    payload = json.loads(out)
    assert (rc, err) == (0, "")
    assert payload["covering_radius"] is None
    assert payload["covering_radius_skipped"] == reason
    assert payload["rank_distribution"] == [1, 0, 0, 0, 511]


def test_code_radius_reports_only_guard_trips(run, tmp_path, monkeypatch):
    # any other ValueError from covering_radius is a fault, not a skip:
    # it ends in the usual error line and exit 1
    path = tmp_path / "small.code"
    path.write_text("2 3 2 1\n1 2\n")

    def broken(code):
        raise ValueError("internal fault")
    monkeypatch.setattr(cd, "covering_radius", broken)
    assert run("code", "--file", str(path), "--radius") \
        == (1, "", "error: internal fault\n")

    def guarded(code):
        raise rg.GuardExceeded("ambient size 99 exceeds guard")
    monkeypatch.setattr(cd, "covering_radius", guarded)
    rc, out, err = run("code", "--file", str(path), "--radius")
    assert (rc, err) == (0, "")
    assert out.endswith(
        "covering radius: skipped (ambient size 99 exceeds guard)\n")


def test_code_radius_past_the_ambient_guard_answers(run, tmp_path):
    # GF(2^5)^5 has 2^25 > 2^24 vectors, but this Table 2 witness has 2^15
    # syndromes and reads only the shells 0..2, all within the guard
    path = tmp_path / "witness.code"
    path.write_text("2 5 5 2\n28 29 28 12 11\n30 11 6 28 19\n")
    rc, out, err = run("code", "--file", str(path), "--radius")
    assert (rc, err) == (0, "")
    assert out == ("(n, k) = (5, 2) over GF(2^5), size 1024\n"
                   "min rank distance: 2\n"
                   "rank distribution: (1, 0, 31, 62, 558, 372)\n"
                   "covering radius: 2\n")
    rc, out, err = run("code", "--file", str(path), "--radius",
                       "--format", "json")
    payload = json.loads(out)
    assert (rc, err) == (0, "")
    assert payload["covering_radius"] == 2
    assert "covering_radius_skipped" not in payload


@pytest.mark.parametrize("argv", [
    ("els", "--q", "2", "--n", "4", "--list"),
    ("els", "--q", "2", "--n", "4", "--v", "2", "--list", "--format", "json"),
], ids=["all-dims", "one-dim-json"])
def test_els_list_guard_exits_1(run, monkeypatch, argv):
    # --list once tried to enumerate up to 4.9e11 subspaces (q = 2, n = 12).
    # With the guard lowered to 34, dimension 2 (35 subspaces) is refused
    # before any dimension is listed
    monkeypatch.setattr(rg, "BRUTE_GUARD", 34)

    def unlisted(q, n, v):  # a walk may be made, but not read
        raise AssertionError(f"dimension {v} listed before every guard ran")
        yield
    monkeypatch.setattr(rg._batch, "subspace_chunks", unlisted)
    rc, out, err = run(*argv)
    assert (rc, out) == (1, "")
    assert err == "error: ELS count 35 exceeds guard\n"
    assert run(*argv[:5])[0] == 0  # the counts alone are fine


@pytest.mark.parametrize("argv,error", [
    ("rank --q 2 --m 2 --vec 1,2 --vec2 1,2,3",
     "vector (1, 2, 3) has length 3, not 2"),
    ("gabidulin --q 2 --m 3 --n 2 --k 1 --g 3,9",
     "encoding 9 outside GF(2^3)"),
    ("gabidulin --q 2 --m 3 --n 2 --k 1 --g 3,3",
     "generator vector must have full rank n"),
    ("gabidulin --q 2 --m 3 --n 3 --k 1 --g 3,5",
     "vector (3, 5) has length 2, not 3"),
    ("gabidulin --q 2 --m 3 --n 2 --k 1 --g 1,2,4 --check",
     "vector (1, 2, 4) has length 3, not 2"),
    ("macwilliams --dist 1,0,3", "--dist needs explicit --q and --m"),
    ("code --file @DIR@/range.code", "encoding 9 outside GF(2^3)"),
    ("code --file @DIR@/short.code --format json",
     "vector (1, 2) has length 2, not 3"),
    # an empty value once fell back to the default points or modulus
    ("gabidulin --q 2 --m 3 --n 3 --k 1 --g=", "vector () has length 0, not 3"),
    ("rank --q 2 --m 3 --vec 1 --modulus=",
     "modulus must have degree 3 (4 coefficients)"),
    ("table1 --m 2..3 --n=", "bad range ''; use N or LO..HI"),
    ("table2 --m 2..3 --n=", "bad range ''; use N or LO..HI"),
    ("macwilliams --code= --q 2 --m 3 --dist 1,0,7",
     "[Errno 2] No such file or directory: ''"),
    # a non-integer entry once gave Python's "invalid literal for int()"
    ("rank --q 2 --m 3 --vec x", "--vec: 'x' is not an integer"),
    ("rank --q 2 --m 3 --vec 1 --vec2 1.5", "--vec2: '1.5' is not an integer"),
    ("field --q 2 --m 3 --modulus 1,1,x,1", "--modulus: 'x' is not an integer"),
    ("gabidulin --q 2 --m 3 --n 2 --k 1 --g 1,x", "--g: 'x' is not an integer"),
    ("macwilliams --q 2 --m 2 --dist 1,x", "--dist: 'x' is not an integer"),
    ("code --file @DIR@/word.code", "code file line 4: 'x' is not an integer"),
    ("moments --code @DIR@/head.code",
     "code file line 1: 'x' is not an integer"),
    # a negative size once printed "exists: false" and exited 0
    ("search --what covering --q 2 --m 2 --n 2 --rho 1 --K -1",
     "negative covering size"),
], ids=["rank-vec2-length", "gabidulin-g-range", "gabidulin-g-dependent",
        "gabidulin-g-short", "gabidulin-g-long-check",
        "macwilliams-dist-field", "code-file-range", "code-file-short-row",
        "gabidulin-g-empty", "rank-modulus-empty", "table1-n-empty",
        "table2-n-empty", "macwilliams-code-empty", "rank-vec-word",
        "rank-vec2-fraction", "field-modulus-word", "gabidulin-g-word",
        "macwilliams-dist-word", "code-file-row-word",
        "moments-code-header-word", "search-covering-negative-K"])
def test_bad_vector_options_exit_1(run, tmp_path, argv, error):
    # GF(2^3) code files with an encoding past the field or a short row,
    # and with a word in a row (after a comment and a blank line) or in
    # the header
    (tmp_path / "range.code").write_text("2 3 3 1 1 1 0 1\n1 2 9\n")
    (tmp_path / "short.code").write_text("2 3 3 1 1 1 0 1\n1 2\n")
    (tmp_path / "word.code").write_text("# GF(2^3)\n\n2 3 3 1 1 1 0 1\n1 x 2\n")
    (tmp_path / "head.code").write_text("x 3 3 1\n1 2 4\n")
    argv = argv.replace("@DIR@", str(tmp_path)).split()
    assert run(*argv) == (1, "", f"error: {error}\n")


def test_search_deeper_than_recursion_limit_exits_0(run):
    # rho = 0 needs all 1024 vectors as centers, a search deeper than
    # Python's recursion limit; the search keeps its own stack
    rc, out, err = run("search", "--what", "covering", "--q", "2", "--m", "1",
                       "--n", "10", "--rho", "0", "--K", "1024")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["exists: true",
                         "# codebook q=2 m=1 n=10 size=1024 modulus=0 1"]
    words = {tuple(map(int, line.split())) for line in lines[2:]}
    assert len(lines) == 1026
    assert words == set(itertools.product((0, 1), repeat=10))


def test_failing_command_prints_nothing(run):
    rc, out, err = run("els", "--q", "2", "--n", "3", "--v", "5", "--list")
    assert (rc, out) == (1, "")
    assert err == "error: dimension 5 outside [0, 3]\n"


GAB_2332 = "2 3 3 2 1 1 0 1\n1 2 4\n1 4 6\n"  # gabidulin (2,3,3,2)

# exact stdout of each command; @FILE@ stands for the GAB_2332 code file
EXACT_OUTPUT = [
    ("field --q 2 --m 4",
     "GF(2^4), order 16\nmodulus: 1 1 0 0 1 (low to high)\n"
     "descriptor: 2 4 1 1 0 0 1\n"),
    ("ball --q 2 --m 3 --n 3 --r 1",
     "sphere N_1 = 49\nball   V_1 = 50\n"
     "bounds 32 <= V <= 110.807891822562\n"),
    ("ball --q 2 --m 3 --n 3 --r 1 --format json",
     '{"ball": 50, "config": {"command": "ball", "m": 3, "n": 3, "q": 2, '
     '"r": 1}, "lower": 32, "sphere": 49, "upper": 110.80789182256204}\n'),
    ("els --q 2 --n 3 --list",
     "dim 0: 1 subspaces\n  []\ndim 1: 7 subspaces\n  [1 0 0]\n  [1 0 1]\n"
     "  [1 1 0]\n  [1 1 1]\n  [0 1 0]\n  [0 1 1]\n  [0 0 1]\n"
     "dim 2: 7 subspaces\n  [1 0 0; 0 1 0]\n  [1 0 0; 0 1 1]\n"
     "  [1 0 1; 0 1 0]\n  [1 0 1; 0 1 1]\n  [1 0 0; 0 0 1]\n"
     "  [1 1 0; 0 0 1]\n  [0 1 0; 0 0 1]\n"
     "dim 3: 1 subspaces\n  [1 0 0; 0 1 0; 0 0 1]\n"),
    ("els --q 2 --n 3 --list --format json",
     '{"bases": {"0": [[]], "1": [[[1, 0, 0]], [[1, 0, 1]], [[1, 1, 0]], '
     '[[1, 1, 1]], [[0, 1, 0]], [[0, 1, 1]], [[0, 0, 1]]], '
     '"2": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 1]], '
     '[[1, 0, 1], [0, 1, 0]], [[1, 0, 1], [0, 1, 1]], '
     '[[1, 0, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]], '
     '[[0, 1, 0], [0, 0, 1]]], "3": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}, '
     '"config": {"command": "els", "n": 3, "q": 2, "v": "all"}, '
     '"counts": {"0": 1, "1": 7, "2": 7, "3": 1}}\n'),
    ("bounds --q 2 --m 6 --n 6 --rho 2",
     "K_R(2^6, 6, 2): c 27065-424990 E\n"
     "lower: a=26983 b=26988 c=27065\n"
     "upper: A=16777216 B=16777216 C=1048576 D=673301 E=424990\n"
     "linear dimension k: 3..4\n"),
    ("code --file @FILE@ --radius",
     "(n, k) = (3, 2) over GF(2^3), size 64\nmin rank distance: 2\n"
     "rank distribution: (1, 0, 49, 14)\ncovering radius: 1\n"),
    ("code --file @FILE@ --radius --format json",
     '{"config": {"command": "code", "file": "@FILE@", "k": 2, "m": 3, '
     '"n": 3, "q": 2}, "covering_radius": 1, "k": 2, '
     '"min_rank_distance": 2, "n": 3, "rank_distribution": [1, 0, 49, 14], '
     '"size": 64}\n'),
    ("macwilliams --code @FILE@", "A = (1, 0, 49, 14)\nB = (1, 0, 0, 7)\n"),
    ("moments --code @FILE@",
     "nu 0: packing 64 == 64; shell 64 == 64 [ok]\n"
     "nu 1: packing 56 == 56; shell 392 == 392 [ok]\n"
     "nu 2: packing 7 == 7; shell 294 == 294 [ok]\n"
     "nu 3: packing 1 == 1; shell 14 == 14 [ok]\n"),
    ("search --what greedy --q 2 --m 2 --n 2 --rho 1",
     "# codebook q=2 m=2 n=2 size=3 modulus=1 1 1\n0 0\n1 0\n2 0\n"),
    ("search --what covering --q 2 --m 2 --n 2 --rho 1 --K 3",
     "exists: true\n"
     "# codebook q=2 m=2 n=2 size=3 modulus=1 1 1\n0 0\n1 0\n2 0\n"),
    ("search --what maxcode --q 2 --m 2 --n 2 --d 2", "4\n"),
    ("gabidulin --q 2 --m 3 --n 2 --k 1 --g 3,5", "2 3 2 1 1 1 0 1\n3 5\n"),
    ("code --file @FILE@ --dual", "2 3 3 1 1 1 0 1\n3 6 1\n"),
    ("gabidulin --q 2 --m 3 --n 3 --k 2 --check",
     "# min_rank_distance: 2 (Singleton: 2)\n# mrd_els_check: True\n"
     + GAB_2332),
    ("verify --suite bounds",
     "ok [bounds] covering bound anchors\n"
     "ok [bounds] lower bounds never exceed upper bounds\n"
     "ok [bounds] linear dimension anchors\n"),
]


@pytest.mark.parametrize("argv,expected", EXACT_OUTPUT,
                         ids=[a for a, _ in EXACT_OUTPUT])
def test_exact_output(run, tmp_path, argv, expected):
    path = tmp_path / "gab.code"
    path.write_text(GAB_2332)
    rc, out, _ = run(*argv.replace("@FILE@", str(path)).split())
    assert rc == 0
    assert out == expected.replace("@FILE@", str(path))


@pytest.mark.parametrize("argv,comment", [
    ("table1 --q 3 --m 2..4 --n 3 --rho 1..2",
     "command=table1 format=csv m=2..4 n=3 q=3 rho=1..2"),
    ("table2 --q 2 --m 4..8",
     "command=table2 format=csv m=4..8 n=4..8 q=2 rho=2..6"),
], ids=["table1", "table2"])
def test_table_config_line(run, argv, comment):
    rc, out, _ = run(*argv.split())
    assert rc == 0
    assert out.splitlines()[0] == f"# rankmetric-table v1 config: {comment}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int/str digit limit to lift")
def test_exact_integers_past_the_str_digit_limit(run):
    # Python converts int <-> str up to 4300 digits by default, so these
    # once exited 1; main lifts the limit while a command runs, then
    # restores it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lower = str(bd.covering_report(2, 300, 60, 1).best_lower)
        whole = str(2 ** 15000 - 1)  # GF(2^15000)^1 less the zero vector
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(lower) == 5311 and len(whole) == 4516
    rc, out, err = run("bounds", "--q", "2", "--m", "300", "--n", "60",
                       "--rho", "1", "--format", "json")
    assert (rc, err) == (0, "")
    assert f'"best_lower": {lower},' in out
    rc, out, err = run("table1", "--m", "300", "--n", "60", "--rho", "1")
    assert (rc, err) == (0, "")
    assert out.splitlines()[2].split(",")[11] == lower
    rc, out, err = run("macwilliams", "--dist", f"1,{whole}", "--q", "2",
                       "--m", "15000")
    assert (rc, out, err) == (0, f"A = (1, {whole})\nB = (1, 0)\n", "")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv,head", [
    ("els --q 2 --n 7 --v 3 --list", b"dim 3: 11811 subspaces\n"),
    ("els --q 2 --n 7 --v 3 --list --format json", b'{"bases"'),
    ("bounds --q 2 --m 3 --n 3 --rho 1", b"")])
def test_reader_closing_the_pipe_early_is_not_an_error(argv, head):
    # `els ... --list | head -n 1` once printed "error: [Errno 32] Broken
    # pipe" and exited 1.  The ~0.6 MB listings overfill the pipe, so the
    # writer is still writing when the reader closes it after the first
    # line (of the JSON form, which is one line, after its first bytes);
    # the short bounds answer sits in stdout's buffer until after the
    # reader has gone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankmetric.cli", *argv.split()],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.read(len(head))
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert (first, err) == (head, b"")
