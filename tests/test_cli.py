"""Command surface: parsing, rendering, exit codes, the verify suite."""

import collections
import contextlib
import fractions
import hashlib
import io
import itertools
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixkit import cli, exact, helix, quadratic
from helixkit.bundles import (
    ChernVector,
    Triad,
    euler_pairing,
    mutate_triad_left,
    mutate_triad_right,
)
from helixkit.errors import NotMutable
from helixkit.exact import TruncatedSeries
from helixkit.sampling import random_right_mutable_triad, random_seed_triple

SEED_CSV = (
    "n,d,r,dp,rp,slope\n"
    "0,0,1,,,0\n"
    "1,5,1,5,2,5\n"
    "2,20,3,25,4,20/3\n"
    "3,75,11,95,14,75/11\n"
    "4,280,41,355,52,280/41\n"
)

SYM2_DOC = {
    "period": 1,
    "gen_dims": [2],
    "relations": [{"index": 0, "rows": [["0", "1", "-1", "0"]]}],
}

# two relations on two letters: the witness first fails at q = 4
TWO_REL_DOC = {
    "period": 1,
    "gen_dims": [2],
    "relations": [{"index": 0, "rows": [["0", "0", "0", "-1"], ["1", "0", "2", "0"]]}],
}


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- seed-table


def test_seed_table_csv_golden(capsys):
    code, out, _ = run(capsys, "seed-table", "0", "5/2", "5", "--n", "4",
                       "--format", "csv")
    assert code == 0
    assert out == SEED_CSV


def test_seed_table_text_has_rows_and_verdicts(capsys):
    code, out, _ = run(capsys, "seed-table", "0", "5/2", "5", "--n", "4")
    assert code == 0
    assert "n=4 d=280 r=41 dp=355 rp=52" in out
    assert "positivity: Certified" in out
    assert "periodicity: ok" in out


def test_seed_table_reports_failure_without_failing(capsys):
    code, out, _ = run(capsys, "seed-table", "0", "1/2", "1", "--n", "10")
    assert code == 0
    assert "FailsAt n=2 (r)" in out


def test_seed_table_json(capsys):
    code, out, _ = run(capsys, "seed-table", "0", "5/2", "5", "--n", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == {"mu0": "0", "mu1p": "5/2", "mu1": "5"}
    assert doc["d"] == 5
    assert doc["rows"][2] == {"n": 2, "d": 20, "r": 3, "dp": 25, "rp": 4}
    assert doc["positivity"] == "Certified"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int str digit limit"
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_seed_table_past_the_digit_limit_prints_nothing(capsys, fmt):
    # d = 10**100: row 60 has entries of about 6,000 digits, past the default
    # limit of 4300, which once failed after 555 KB of table
    m = str(10**100)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "seed-table", "0", f"{m}/2", m, "--n", "60",
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int str digit limit"
)
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_seed_table_of_9000_rows_past_the_least_digit_limit_prints_nothing(capsys, fmt):
    # the whole table is still grown before the refusal, so this also bounds
    # the cost of 9000 rows of the seed recursion
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "seed-table", "0", "5/2", "5", "--n", "9000",
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def reference_seed_table(mu, n: int, fmt: str) -> tuple[int, str]:
    """Exit code and stdout of seed-table as the three renderers once wrote
    them: str() of every table int, str(Fraction) for the slope column and
    json.dumps(doc, indent=2)."""
    table = helix.invariants_from_seed(helix.Seed(*mu), n)
    report = helix.check_positivity(table)
    if fmt == "csv":
        lines = ["n,d,r,dp,rp,slope"]
        for r in table.rows:
            dp = "" if r.dp is None else str(r.dp)
            rp = "" if r.rp is None else str(r.rp)
            mu_text = str(fractions.Fraction(r.d, r.r)) if r.r != 0 else ""
            lines.append(f"{r.n},{r.d},{r.r},{dp},{rp},{mu_text}")
        return 0, "\n".join(lines) + "\n"
    if fmt == "json":
        doc = table.to_json_dict()
        doc["positivity"] = str(report)
        return 0, json.dumps(doc, indent=2) + "\n"
    seed = table.seed
    lines = [f"seed: mu0={seed.mu0} mu1p={seed.mu1p} mu1={seed.mu1}"]
    for row in table.rows:
        line = f"n={row.n} d={row.d} r={row.r}"
        if row.dp is not None:
            line += f" dp={row.dp} rp={row.rp}"
        if row.r > 0:
            line += f" slope={fractions.Fraction(row.d, row.r)}"
        lines.append(line)
    if report.kind == "FailsAt":
        lines.append(f"positivity: FailsAt n={report.fail_index} ({report.fail_component})")
    else:
        lines.append(f"positivity: {report}")
    code = 0
    if len(table.rows) >= 5:
        ok, why = helix.verify_periodicity(table)
        lines.append("periodicity: ok" if ok else f"periodicity: BROKEN ({why})")
        code = 0 if ok else 2
    return code, "\n".join(lines) + "\n"


_SLOPE = st.builds(fractions.Fraction, st.integers(-40, 40), st.integers(1, 9))
# any increasing triple (negative and zero slopes, most of them degenerate
# within a few rows), or a family seed (0, d/2, d) twisted by a line bundle t
_SEEDS = st.one_of(
    st.sets(_SLOPE, min_size=3, max_size=3).map(sorted),
    st.builds(
        lambda d, t: (fractions.Fraction(t), fractions.Fraction(2 * t + d, 2),
                      fractions.Fraction(t + d)),
        st.integers(1, 15).map(lambda k: 2 * k + 1), st.integers(-20, 20),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_SEEDS, st.integers(1, 300))
def test_seed_table_prints_what_str_prints(mu, n):
    # the three formats, printed from the decimal replay, against str() of
    # the int table
    argv = ["seed-table", *map(str, mu), "--n", str(n)]
    for fmt in ("table", "csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--format", fmt])
        assert (code, out.getvalue()) == reference_seed_table(mu, n, fmt)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int str digit limit"
)
@pytest.mark.parametrize("n", [1, 2, 17, 60])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_seed_table_of_huge_minors_prints_what_str_prints(capsys, n, fmt):
    # d = 10**100 makes minors of 100 digits and row 60 of about 5,900, so
    # the digit limit is lifted for the run and for str()
    m = str(10**100)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, "seed-table", "0", f"{m}/2", m, "--n", str(n),
                           "--format", fmt)
        expected = reference_seed_table((0, fractions.Fraction(10**100, 2), 10**100), n, fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == expected


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("where", ["minor", "row"])
def test_seed_table_that_disagrees_with_its_minors_raises_before_the_row(
    capsys, monkeypatch, fmt, where
):
    # a table whose row 7 disagrees with its carried minors (13, 7, 3 in
    # turn): a wrong minor 7, or a row 7 whose d is off by one; rows 0-6 are
    # printed, row 7 never
    grow = helix.invariants_from_seed

    def broken(seed, n_max):
        t = grow(seed, n_max)
        rows, minors = list(t.rows), list(t.minors)
        if where == "minor":
            minors[7] += 1
        else:
            rows[7] = rows[7]._replace(d=rows[7].d + 1)
        return helix.HelixTable(t.seed, t.d_param, tuple(rows), t.degenerate_at,
                                tuple(minors))

    monkeypatch.setattr(cli, "invariants_from_seed", broken)
    with pytest.raises(ArithmeticError):
        cli.main(["seed-table", "-6", "-3", "1/2", "--n", "12", "--format", fmt])
    out = capsys.readouterr().out
    _, good = reference_seed_table((-6, -3, fractions.Fraction(1, 2)), 12, fmt)
    assert good.startswith(out)
    if fmt == "json":
        assert out.count('"n": ') == 7
    else:
        assert re.search(r"^n=6 |^6,", out, re.M) and not re.search(r"^n=7 |^7,", out, re.M)


def test_seed_table_invalid_seed_is_65(capsys):
    code, _, err = run(capsys, "seed-table", "0", "5", "5/2", "--n", "4")
    assert code == 65
    assert err != ""


def test_seed_table_unparseable_fraction_is_64(capsys):
    code, _, _ = run(capsys, "seed-table", "0", "x", "5", "--n", "4")
    assert code == 64


@pytest.mark.parametrize("token", ["1e3000000", "5E-1"])
def test_seed_table_exponent_notation_is_64(capsys, token):
    # Fraction would expand 1e3000000 to three million digits first
    code, out, err = run(capsys, "seed-table", "0", "1", token, "--n", "3")
    assert code == 64
    assert out == ""
    assert "not a fraction" in err


def test_shared_parser_carries_no_state(capsys):
    code, out, _ = run(capsys, "seed-table", "0", "5/2", "5", "--format", "csv")
    assert code == 0 and out.startswith("n,d,r,dp,rp,slope\n")
    assert run(capsys, "seed-table", "0", "5/2", "5", "--format", "xml")[0] == 64
    code, out, _ = run(capsys, "seed-table", "0", "5/2", "5")
    assert code == 0 and out.startswith("seed: mu0=0 mu1p=5/2 mu1=5\n")
    assert cli._build_parser() is cli._build_parser()


def test_unknown_flag_is_64(capsys):
    code, _, _ = run(capsys, "seed-table", "0", "5/2", "5", "--frobnicate")
    assert code == 64


def test_missing_subcommand_is_64(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "no-such-command")[0] == 64


# ------------------------------------------------------------------ triad


def test_triad_two_right_steps(capsys):
    code, out, _ = run(capsys, "triad", "1:0", "2:5", "1:5", "--right",
                       "--steps", "2")
    assert code == 0
    assert "step 1: (1:5, 4:25, 3:20)" in out
    assert "step 2: (3:20, 14:95, 11:75)" in out


def test_triad_hom_dims_rotate(capsys):
    code, out, _ = run(capsys, "triad", "1:0", "1:2", "1:5", "--right",
                       "--steps", "1")
    assert code == 0
    assert "hom=(2,5,3)" in out
    assert "hom=(5,3,2)" in out


def test_triad_left_inverts_right(capsys):
    code, out, _ = run(capsys, "triad", "1:5", "4:25", "3:20", "--left",
                       "--steps", "1")
    assert code == 0
    assert "step 1: (1:0, 2:5, 1:5)" in out


def test_triad_not_mutable_is_exit_1(capsys):
    code, out, err = run(capsys, "triad", "1:0", "2:1", "1:1", "--right",
                         "--steps", "1")
    assert code == 1
    assert "step 0:" in out
    assert "member a" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int str digit limit"
)
def test_triad_past_the_digit_limit_prints_nothing(capsys):
    # at the least limit, 640 digits, the right run once wrote 4.3 MB of
    # steps before the first one it could not print; the left run takes the
    # other branch of the decimal replay
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv in ("1:0 2:5 1:5 --right", "7:-27 7:-12 2:7 --left"):
            code, out, err = run(capsys, "triad", *argv.split(), "--steps", "2000")
            assert code == 65
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(limit)


def reference_triad_line(step: int, t: Triad) -> str:
    # the hom dims from the members, not the pairings a step carried
    vs = (t.a, t.b, t.c)
    members = ", ".join(f"{v.rank}:{v.degree}" for v in vs)
    hom = ",".join(str(euler_pairing(x, y)) for x, y in itertools.combinations(vs, 2))
    slopes = ", ".join(str(fractions.Fraction(v.degree, v.rank)) for v in vs)
    return f"step {step}: ({members}) hom=({hom}) slopes=({slopes})"


def check_triad_prints_what_str_prints(capsys, members, direction, steps, stuck=""):
    # the lines of the decimal replay must be those of str(), up to the step
    # that is not mutable, if there is one, and stuck is then the stderr
    code, out, err = run(capsys, "triad", *members, f"--{direction}", "--steps", str(steps))
    t = Triad(*(ChernVector(*map(int, m.split(":"))) for m in members))
    mutate = mutate_triad_right if direction == "right" else mutate_triad_left
    lines = [reference_triad_line(0, t) + "\n"]
    for step in range(1, steps + 1):
        try:
            t = mutate(t)
        except NotMutable:
            break
        lines.append(reference_triad_line(step, t) + "\n")
    assert (code, out, err) == (1 if stuck else 0, "".join(lines), stuck)
    return len(lines)


@pytest.mark.parametrize(
    "members, direction",
    [
        (("2:-19", "4:-17", "7:-2"), "right"),
        (("3:-23", "5:11", "7:23"), "right"),
        (("1:0", "2:5", "1:5"), "right"),
        (("7:-27", "7:-12", "2:7"), "left"),
        (("1:5", "4:25", "3:20"), "left"),
    ],
)
def test_triad_prints_what_str_prints(capsys, members, direction):
    assert check_triad_prints_what_str_prints(capsys, members, direction, 300) == 301


@pytest.mark.parametrize(
    "members, direction, steps, stuck",
    [
        # ranks of 2,355 bits at the last step
        (("7:-27", "7:-12", "2:7"), "left", 361, ""),
        (("3:-23", "5:11", "7:23"), "left", 600, ""),
        (("1:-2", "6:7", "1:2"), "left", 8,
         "error at step 4: member b not mutable "
         "(left mutation of 297:-1030 past 2:-7 has rank -259)\n"),
        (("1:-2", "6:-7", "1:1"), "right", 8,
         "error at step 4: member a not mutable "
         "(right mutation of 33:95 past 9:26 has rank -6)\n"),
    ],
    ids=["left-361", "left-600", "left-stuck-at-4", "right-stuck-at-4"],
)
def test_triad_long_and_stuck_runs_print_what_str_prints(
    capsys, members, direction, steps, stuck
):
    lines = check_triad_prints_what_str_prints(capsys, members, direction, steps, stuck)
    assert lines == (4 if stuck else steps + 1)


def test_triad_bad_pair_syntax_is_64(capsys):
    assert run(capsys, "triad", "1;0", "2:5", "1:5")[0] == 64


def test_triad_invalid_triad_is_65(capsys):
    # slopes out of order
    assert run(capsys, "triad", "1:5", "2:5", "1:0")[0] == 65
    # non-coprime member
    assert run(capsys, "triad", "2:6", "2:5", "1:9")[0] == 65


# ---------------------------------------------------------------- hilbert


def test_hilbert_golden_rows(capsys):
    code, out, _ = run(capsys, "hilbert", "--d", "5", "--order", "6")
    assert code == 0
    assert "A: 1 5 20 76 285 1065 3976" in out
    assert "B: 1 5 20 75 280 1045 3900" in out
    assert "cross-check: PASS" in out
    assert "normal-quotient: PASS" in out


def test_hilbert_d3(capsys):
    code, out, _ = run(capsys, "hilbert", "--d", "3", "--order", "5")
    assert code == 0
    assert "B: 1 3 6 9 12 15" in out
    assert "cross-check: PASS" in out
    assert "normal-quotient" not in out


def _fractions_built(fn):
    """The Fractions fn() builds, counted by a profile hook; 3.12 builds
    Fraction results through _from_coprime_ints, earlier versions through
    __new__."""
    built = []

    def hook(frame, event, arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename == fractions.__file__
            and code.co_name in ("__new__", "_from_coprime_ints")
        ):
            built.append(code.co_name)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return len(built)


def test_hilbert_builds_no_fraction_per_coefficient(capsys):
    # the series, both checks and the A/B lines run on int numerators, so
    # the Fractions an op builds (seed slopes, the defining polynomials) do
    # not grow with the order
    counts = []
    for order in ("50", "500"):
        counts.append(_fractions_built(
            lambda: run(capsys, "hilbert", "--d", "21", "--order", order)))
        assert capsys.readouterr().out == ""
    assert counts[0] == counts[1]


def test_hilbert_inverts_the_A_denominator_once(capsys, monkeypatch):
    # B, the cross-check and the normal-quotient check reuse the A series;
    # dividing by 1 - t^3 is no inversion
    real = TruncatedSeries.inverse
    inverted = []

    def counting(self):
        inverted.append(self.nums[:4])
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counting)
    code, out, _ = run(capsys, "hilbert", "--d", "21", "--order", "60")
    assert code == 0
    assert "cross-check: PASS" in out and "normal-quotient: PASS" in out
    assert inverted == [(1, -21, 21, -1)]


def test_hilbert_small_d_is_65(capsys):
    assert run(capsys, "hilbert", "--d", "2", "--order", "6")[0] == 65


# ------------------------------------------------------------ koszul-dual


def test_koszul_dual_stdout_json(capsys, tmp_path):
    src = tmp_path / "sym2.json"
    src.write_text(json.dumps(SYM2_DOC))
    code, out, _ = run(capsys, "koszul-dual", str(src))
    assert code == 0
    doc = json.loads(out)
    assert doc["gen_dims"] == [2]
    assert len(doc["relations"][0]["rows"]) == 3


def test_koszul_dual_reports(capsys, tmp_path):
    src = tmp_path / "sym2.json"
    src.write_text(json.dumps(SYM2_DOC))
    dst = tmp_path / "dual.json"
    code, out, _ = run(capsys, "koszul-dual", str(src), "--out", str(dst),
                       "--dims", "3", "--check-double-dual", "--witness", "4")
    assert code == 0
    dual = json.loads(dst.read_text())
    assert len(dual["relations"][0]["rows"]) == 3
    assert "double-dual: PASS" in out
    assert "index,degree,dim" in out
    assert "0,2,1" in out
    assert "0,3,0" in out
    assert "koszulity-witness: PASS" in out


def test_koszul_dual_witness_failure_is_exit_2(capsys, tmp_path):
    src = tmp_path / "two-rel.json"
    src.write_text(json.dumps(TWO_REL_DOC))
    code, out, _ = run(capsys, "koszul-dual", str(src), "--witness", "3")
    assert code == 0
    assert out.endswith("koszulity-witness: PASS\n")
    code, out, _ = run(capsys, "koszul-dual", str(src), "--witness", "4")
    assert code == 2
    assert out.endswith("koszulity-witness: FAIL (first at j=0, q=4)\n")


@pytest.mark.parametrize("doc, bound", [
    (quadratic.classical_euler_fixture(3)[0].to_json_dict(), 5),
    (TWO_REL_DOC, 4),
], ids=["fixture-n3-pass", "two-rel-fail"])
def test_koszul_dual_witness_builds_the_dual_once(capsys, tmp_path, monkeypatch,
                                                  doc, bound):
    # the bytes the library route gives, which builds the dual a second time
    pres = quadratic.QuadraticPresentation.from_json_dict(doc)
    rep = quadratic.koszulity_witness(pres, bound)
    verdict = "PASS" if rep.passed else "FAIL (first at j={}, q={})".format(
        *rep.failures()[0])
    want = (json.dumps(quadratic.koszul_dual(pres).to_json_dict(), indent=2)
            + f"\nkoszulity-witness: {verdict}\n")
    real, calls = quadratic.koszul_dual, []

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(quadratic, "koszul_dual", counting)
    src = tmp_path / "pres.json"
    src.write_text(json.dumps(doc))
    got = run(capsys, "koszul-dual", str(src), "--witness", str(bound))
    assert got == (0 if rep.passed else 2, want, "")
    assert len(calls) == 1


def test_koszul_dual_missing_file_is_66(capsys, tmp_path):
    assert run(capsys, "koszul-dual", str(tmp_path / "nope.json"))[0] == 66


def test_koszul_dual_malformed_is_65(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "koszul-dual", str(bad))[0] == 65
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"period": 0, "gen_dims": [], "relations": []}))
    assert run(capsys, "koszul-dual", str(schema))[0] == 65


def test_koszul_dual_dim_cap_is_65(capsys, tmp_path, monkeypatch):
    src = tmp_path / "sym2.json"
    src.write_text(json.dumps(SYM2_DOC))
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "3")
    for flag in ("--dims", "--witness"):
        code, out, err = run(capsys, "koszul-dual", str(src), flag, "3")
        assert code == 65
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("cap", ["abc", "", "-5", "+5", " 7", "1.5", "1e3", "\u0663"])
def test_koszul_dual_refuses_a_cap_that_is_not_a_nonnegative_integer(
    capsys, tmp_path, monkeypatch, cap
):
    # refused by name, before any dual block is built: a negative cap would
    # refuse every dual, and int() would take the sign, the spaces and the
    # digit ٣
    src = tmp_path / "sym2.json"
    src.write_text(json.dumps(SYM2_DOC))
    monkeypatch.setenv("HELIXKIT_DIM_CAP", cap)
    built = []
    monkeypatch.setattr(quadratic, "matrix_kernel", built.append)
    message = f"error: HELIXKIT_DIM_CAP must be a nonnegative integer, got {cap!r}\n"
    assert run(capsys, "koszul-dual", str(src)) == (65, "", message)
    assert built == []


@pytest.mark.parametrize("cap, code", [("0", 65), ("007", 65), ("12", 0)])
def test_koszul_dual_accepts_a_cap_in_ascii_digits(capsys, tmp_path, monkeypatch, cap, code):
    # the dual block of SYM2 has 4 * 3 = 12 entries
    src = tmp_path / "sym2.json"
    src.write_text(json.dumps(SYM2_DOC))
    monkeypatch.setenv("HELIXKIT_DIM_CAP", cap)
    assert run(capsys, "koszul-dual", str(src))[0] == code


def test_koszul_dual_dims_past_the_cap_names_the_degree(capsys, tmp_path, monkeypatch):
    # the dual of the n = 2 fixture has 3 letters: 3**13 is the first
    # tensor power above the default cap
    monkeypatch.delenv("HELIXKIT_DIM_CAP", raising=False)
    src = tmp_path / "fixture2.json"
    src.write_text(json.dumps(quadratic.classical_euler_fixture(2)[0].to_json_dict()))
    code, out, err = run(capsys, "koszul-dual", str(src), "--dims", "30")
    assert (code, out) == (65, "")
    assert err == "error: tensor dimension 1594323 at index 0, degree 13 exceeds cap 1000000\n"


@pytest.mark.parametrize("flag", ["--dims", "--witness"])
def test_koszul_dual_negative_degree_is_refused_before_the_file(capsys, tmp_path, flag):
    # refused by flag name before the input is opened: a missing or
    # malformed file gives the same exit 65 and message as a good one
    good = tmp_path / "sym2.json"
    good.write_text(json.dumps(SYM2_DOC))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (good, bad, tmp_path / "nope.json"):
        code, out, err = run(capsys, "koszul-dual", str(path), flag, "-1")
        assert (code, out, err) == (65, "", f"error: {flag} must be nonnegative\n")


def test_koszul_dual_second_dual_cap_is_65(capsys, tmp_path, monkeypatch):
    # eight of nine columns are relations: the dual block has 9 entries, the
    # double dual 72, so only the double-dual check crosses a cap of 20
    rows = [["1" if j == k else "0" for j in range(9)] for k in range(8)]
    src = tmp_path / "eight-rel.json"
    src.write_text(json.dumps(
        {"period": 1, "gen_dims": [3], "relations": [{"index": 0, "rows": rows}]}
    ))
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "20")
    assert run(capsys, "koszul-dual", str(src))[0] == 0
    code, out, err = run(capsys, "koszul-dual", str(src), "--check-double-dual")
    assert code == 65
    assert out == ""
    assert err == "error: dual relations at index 0 have 72 entries, exceeding cap 20\n"


@pytest.mark.parametrize(
    "doc",
    [
        {**SYM2_DOC, "relations": [{"index": 0, "rows": [["0", "1/0", "-1", "0"]]}]},
        {**SYM2_DOC, "relations": [{"index": 0, "rows": [[0.1, "1", "-1", "0"]]}]},
        {**SYM2_DOC, "relations": [{"index": 0, "rows": [[0, "1", "-1", "0"]]}]},
        {**SYM2_DOC, "relations": [{"index": 0, "rows": [[True, "1", "-1", "0"]]}]},
        {**SYM2_DOC, "period": True},
        {"period": 1, "gen_dims": [True], "relations": [{"index": 0, "rows": [["1"]]}]},
        {**SYM2_DOC, "relations": [{"index": False, "rows": [["0", "1", "-1", "0"]]}]},
        # its dual would be a dense 90,000 x 90,000 block; the cap refuses it first
        {"period": 1, "gen_dims": [300], "relations": []},
    ],
    ids=["zero-denominator", "float-entry", "int-entry", "bool-entry", "bool-period",
         "bool-gen-dim", "bool-index", "dense-dual"],
)
def test_koszul_dual_bad_document_is_65(capsys, tmp_path, doc):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "koszul-dual", str(src))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_koszul_dual_exponent_entry_is_65(capsys, tmp_path):
    src = tmp_path / "exp.json"
    doc = {**SYM2_DOC, "relations": [{"index": 0, "rows": [["0", "1e3000000", "-1", "0"]]}]}
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "koszul-dual", str(src))
    assert code == 65
    assert out == ""
    assert err == "error: exponent notation is not accepted: '1e3000000'\n"


@pytest.mark.parametrize(
    "entry, code",
    [("0", 0), ("-0", 0), (" 0", 0), ("0/1", 0), ("00", 0), ("0.0", 0), ("1_0", 0),
     ("1/2 ", 0), ("0e0", 65), ("0/0", 65), ("", 65), (0, 65)],
)
def test_koszul_dual_entry_contract(capsys, tmp_path, entry, code):
    # exit codes measured before the string "0" skipped the rational parser;
    # every other spelling of zero still prints the dual of SYM2_DOC
    src = tmp_path / "entry.json"
    row = [entry, "1", "-1", "0"]
    src.write_text(json.dumps({**SYM2_DOC, "relations": [{"index": 0, "rows": [row]}]}))
    got, out, err = run(capsys, "koszul-dual", str(src))
    assert got == code
    if code == 65:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    elif entry not in ("1_0", "1/2 "):
        src.write_text(json.dumps(SYM2_DOC))
        assert run(capsys, "koszul-dual", str(src)) == (0, out, "")


@pytest.mark.parametrize(
    "doc, missing",
    [
        ({"gen_dims": [2], "relations": []}, "presentation JSON is missing 'period'"),
        ({"period": 1, "relations": []}, "presentation JSON is missing 'gen_dims'"),
        ({**SYM2_DOC, "relations": [{"rows": []}]}, "relation block 0 is missing 'index'"),
        ({**SYM2_DOC, "relations": [{"index": 0}]}, "relation block 0 is missing 'rows'"),
    ],
    ids=["period", "gen_dims", "index", "rows"],
)
def test_koszul_dual_names_the_missing_key(capsys, tmp_path, doc, missing):
    src = tmp_path / "short.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "koszul-dual", str(src))
    assert code == 65
    assert out == ""
    assert err == f"error: {missing}\n"


SYM2_ROW = ["0", "1", "-1", "0"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"period": 0, "gen_dims": [], "relations": []},
         "period must be a positive integer"),
        ({"period": 2, "gen_dims": [2], "relations": []},
         "gen_dims length must equal the period"),
        ({"period": 1, "gen_dims": [0], "relations": []},
         "generator dims must be positive integers"),
        ({"period": 2, "gen_dims": [-1, 2], "relations": []},
         "generator dims must be positive integers"),
        ({"period": 2, "gen_dims": [-1, 2], "relations": [{"index": 1, "rows": [["1", "0"]]}]},
         "generator dims must be positive integers"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [["0", "1", "-1"]]}]},
         "relations at index 0 need 4 columns, got 3"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [SYM2_ROW, ["1", "0", "0"]]}]},
         "ragged rows"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [SYM2_ROW, ["0", "2", "-2", "0"]]}]},
         "relation rows at index 0 are dependent"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [SYM2_ROW]}] * 2},
         "duplicate relation block for index 0"),
        ({**SYM2_DOC, "relations": [{"index": 1, "rows": [SYM2_ROW]}]},
         "relation index 1 out of range"),
        ({**SYM2_DOC, "relations": [{"index": 0}]},
         "relation block 0 is missing 'rows'"),
        ({"gen_dims": [2], "relations": []},
         "presentation JSON is missing 'period'"),
        # values of the wrong JSON type, each named with its place; an object
        # for relations must not be read as no relations (the free algebra)
        ([1, 2], "presentation JSON is a list, not an object"),
        ({**SYM2_DOC, "gen_dims": 2},
         "presentation JSON has gen_dims that are an int, not a list"),
        ({**SYM2_DOC, "relations": {}},
         "presentation JSON has relations that are a dict, not a list"),
        ({**SYM2_DOC, "relations": {"x": 1}},
         "presentation JSON has relations that are a dict, not a list"),
        ({**SYM2_DOC, "relations": None},
         "presentation JSON has relations that are a NoneType, not a list"),
        ({**SYM2_DOC, "relations": [["a"]]},
         "relation block 0 is a list, not an object"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [[1, "0", "0", "0"]]}]},
         "relation block 0 has a row whose entry 0 is an int, not a 'p/q' string"),
        ({**SYM2_DOC, "relations": [{"index": 0, "rows": [SYM2_ROW, ["0", "0", 0.5, "1"]]}]},
         "relation block 0 has a row whose entry 2 is a float, not a 'p/q' string"),
    ],
    ids=["period-0", "short-gen-dims", "gen-dim-0", "negative-gen-dim",
         "negative-gen-dim-with-rows", "3-columns", "ragged", "dependent",
         "duplicate-index", "index-out-of-range", "missing-rows", "missing-period",
         "list-document", "int-gen-dims", "empty-object-relations",
         "object-relations", "null-relations", "list-block", "int-entry",
         "float-entry"],
)
def test_koszul_dual_refusal_messages(capsys, tmp_path, doc, message):
    # every document goes through the checked constructor; the lines were
    # measured before from_json_dict shared __init__'s checks
    src = tmp_path / "refused.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "koszul-dual", str(src)) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1000"], "relation block 1 has a row that is a str, not a list"),
        ([{"1": 0, "0": 0, "3": 0, "5": 0}],
         "relation block 1 has a row that is a dict, not a list"),
        ({"1000": 0}, "relation block 1 has rows that are a dict, not a list"),
    ],
    ids=["string-row", "object-row", "object-rows"],
)
def test_koszul_dual_refuses_rows_that_are_not_lists(capsys, tmp_path, rows, message):
    # iterated as they are, these would be the rows 1,0,0,0, 1,0,3,5 and
    # 1,0,0,0 of the 4-column block at index 1
    doc = {"period": 2, "gen_dims": [2, 2],
           "relations": [{"index": 0, "rows": [SYM2_ROW]}, {"index": 1, "rows": rows}]}
    src = tmp_path / "shape.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "koszul-dual", str(src)) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize("dims, witness", [(5, 5), (3, 5), (5, 3)])
def test_koszul_dual_dims_and_witness_build_each_table_once(capsys, tmp_path,
                                                             monkeypatch, dims, witness):
    # one dual table, to the larger degree, serves --dims and the witness;
    # the bytes are the library route's, which builds the dual table twice
    pres, _ = quadratic.classical_euler_fixture(3)
    dual = quadratic.koszul_dual(pres)
    want = (json.dumps(dual.to_json_dict(), indent=2) + "\n"
            + quadratic.degree_dims(dual, dims).to_csv()
            + "koszulity-witness: PASS\n")
    real, calls = quadratic.degree_dims, []

    def counting(p, n):
        calls.append(n)
        return real(p, n)

    monkeypatch.setattr(quadratic, "degree_dims", counting)
    src = tmp_path / "f3.json"
    src.write_text(json.dumps(pres.to_json_dict()))
    got = run(capsys, "koszul-dual", str(src), "--dims", str(dims),
              "--witness", str(witness))
    assert got == (0, want, "")
    assert calls == [max(dims, witness), witness]


def test_koszul_dual_eliminates_each_block_once(capsys, tmp_path, monkeypatch):
    # R (6 rows) is reduced once, for the rank check, the dual, the
    # certificate and degree_dims, and R^perp (10 rows) once, for the one
    # dual table; exact._echelon is the one forward elimination
    src = tmp_path / "f3.json"
    src.write_text(json.dumps(quadratic.classical_euler_fixture(3)[0].to_json_dict()))
    real, eliminated = exact._echelon, []

    def counting(rows):
        rows = list(rows)
        eliminated.append(len(rows))
        return real(rows)

    monkeypatch.setattr(exact, "_echelon", counting)
    code, out, _ = run(capsys, "koszul-dual", str(src), "--dims", "5", "--witness", "5",
                       "--check-double-dual")
    assert code == 0
    assert "double-dual: PASS" in out.splitlines()
    assert eliminated == [6, 10]


# Two p/q presentations for the golden digests: a period-2 one, and a dense
# one whose dual has non-trivial components up to degree 4.
PQ_PERIODIC_DOC = {
    "period": 2,
    "gen_dims": [2, 3],
    "relations": [
        {"index": 0, "rows": [["3/7", "-1/2", "0", "5/11", "2", "-9/4"],
                              ["0", "13/6", "1/3", "-7/5", "0", "1"]]},
        {"index": 1, "rows": [["1", "-2/3", "0", "4/9", "-5/8", "0"],
                              ["-11/12", "0", "7/2", "1/5", "0", "-3"],
                              ["2/13", "1/17", "-1", "0", "6/7", "1/19"]]},
    ],
}
PQ_DENSE_DOC = {
    "period": 1,
    "gen_dims": [3],
    "relations": [{"index": 0, "rows": [
        ["123456789/1000003", "-1/2", "7/3", "0", "22/7", "-355/113", "1", "0", "-5/6"],
        ["0", "999999937/97", "-13/8", "1/1024", "0", "3", "-17/19", "2/3", "0"],
        ["-4/5", "0", "1", "-31/32", "65537/3", "0", "0", "-1/7", "89/55"],
        ["1/9", "2/9", "0", "0", "-1", "4/3", "0", "10/11", "0"],
        ["0", "0", "-3/14", "5", "0", "1/6", "-8/15", "0", "1"],
        ["6/5", "-1", "0", "0", "0", "0", "1/2", "0", "-2"],
    ]}],
}


@pytest.mark.parametrize(
    "doc, digest",
    [
        (SYM2_DOC, "f2d890beb31c2c864044d4b01629546e0440e180a0b492c363feb7a965e34b84"),
        (PQ_PERIODIC_DOC, "0efc7ba4d9bdd128148eee19e79be0311a97628920fb4ff1253d4687e4143510"),
        (PQ_DENSE_DOC, "f36ce00dda52f73a4e06250eca91b40c872bbb92a366cf589cb81a518c9f698e"),
    ],
    ids=["sym2", "pq-periodic", "pq-dense"],
)
def test_koszul_dual_report_is_byte_identical(capsys, tmp_path, doc, digest):
    # golden: sha256 of the stdout of the sparse Fraction kernel this package
    # used before it eliminated on int rows; the RREF is canonical, so any
    # exact kernel must print the same bytes
    src = tmp_path / "pres.json"
    src.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "koszul-dual", str(src), "--dims", "4", "--check-double-dual")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def fixed_lower(n, k):
    """A fixed lower-triangular p/q n x n matrix with a nonzero diagonal,
    varied by k."""
    F = fractions.Fraction
    return [
        [F((-1) ** (r + c) * (1 + (3 * r + 5 * c + k) % 4), 1 + (r + 2 * c + k) % 3)
         if c < r else F(1 + (r + k) % 3, 1 + (r * k) % 2) if c == r else F(0)
         for c in range(n)]
        for r in range(n)
    ]


def fraction_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), fractions.Fraction(0))
             for col in zip(*b)] for row in a]


def pq_fixture_doc(m, sign):
    """x_a x_b + sign x_b x_a (a < b for the commutators, sign -1; a <= b for
    the anticommutators, sign 1) under x_a -> sum_c P[a][c] x_c with
    P = L U^T, then mixed by a third fixed triangular matrix: p/q rows
    whose reduced form is ±1 entries."""
    F = fractions.Fraction
    rows = []
    for a in range(m):
        for b in range(a + (sign < 0), m):
            row = [F(0)] * (m * m)
            row[a * m + b] += 1
            row[b * m + a] += sign
            rows.append(row)
    p = fraction_matmul(fixed_lower(m, 0), [list(c) for c in zip(*fixed_lower(m, 1))])
    kron = [[p[a][c] * p[b][e] for c in range(m) for e in range(m)]
            for a in range(m) for b in range(m)]
    rows = fraction_matmul(fixed_lower(len(rows), 2), fraction_matmul(rows, kron))
    return {"period": 1, "gen_dims": [m],
            "relations": [{"index": 0, "rows": [[str(x) for x in r] for r in rows]}]}


def im_doc(m, count, k):
    """[I | M] L: count rows on m letters with a fixed p/q M, times a fixed
    lower-triangular p/q L on the columns."""
    F = fractions.Fraction
    cols = m * m
    rows = [
        [F(int(c == r)) for c in range(count)]
        + [F((1 + (2 * r + 3 * c + k) % 5) * (-1) ** (r * c + k), 1 + (r + c + k) % 3)
           if (r + 2 * c + k) % 3 else F(0) for c in range(cols - count)]
        for r in range(count)
    ]
    rows = fraction_matmul(rows, [list(c) for c in zip(*fixed_lower(cols, k))])
    return {"period": 1, "gen_dims": [m],
            "relations": [{"index": 0, "rows": [[str(x) for x in r] for r in rows]}]}


@pytest.mark.parametrize(
    "doc, digest",
    [
        (pq_fixture_doc(3, -1), "eed91ee11bd7e83afc788cdfc335e88dc870069acb20716627f22b310cee105b"),
        (pq_fixture_doc(4, -1), "8f46e137c8a03056279aa2598507dca2c1d82c015cbd1d74b382722e65c31d42"),
        (pq_fixture_doc(5, -1), "e9951c6e7f472c617c2c1da9299732a2533ac9ff2fec04391edc514245c59ce3"),
        (pq_fixture_doc(3, 1), "a6ff9336743be40a09f8665c1245eb65f825bb3ef21505284cf004fa9e0fdaef"),
        (im_doc(2, 3, 0), "841d9ad1a0b1927aa578080a0c4d83bd30c0332c701c81dfaa1370141e2590d5"),
        (im_doc(3, 7, 1), "52d42e9f52b5a5a4fbab835368b43b1214102c042f05f0abae1709c76221819c"),
        (im_doc(4, 15, 0), "947dc3a7d355c02eb2825ff4e0b216e46f5707763e1d39a1237e3ce52e636993"),
    ],
    ids=["comm-3", "comm-4", "comm-5", "anticomm-3", "im-2", "im-3", "im-4"],
)
def test_koszul_dual_dims_and_witness_are_byte_identical(capsys, tmp_path, doc, digest):
    # golden: sha256 of the stdout of the quotient recursion that built every
    # map from the given rows; the fixtures are PBW in new variables, and the
    # three [I | M] L duals are not, so their dims come from the recursion up
    # to degree 7 (dims 1, 2, 3, ..., 8; 1, 3, 7, ..., 255; 1, 4, 15, ...,
    # 10864)
    src = tmp_path / "pres.json"
    src.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "koszul-dual", str(src), "--dims", "7", "--witness", "5",
                       "--check-double-dual")
    assert code == 0
    assert "double-dual: PASS" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_NOT_MUTABLE = "error at step 1: member a not mutable (right mutation of 1:0 past 1:1 has rank 0)\n"


@pytest.mark.parametrize(
    "argv, code, digest, err",
    [
        ("seed-table 0 5/2 5 --n 1960 --format table", 0,
         "44705726f7982a3be990de74e1e5b3fd977d01e47846b84b6e8a952aad3ee873", ""),
        ("seed-table 0 5/2 5 --n 1960 --format json", 0,
         "d35662d3e348e48f5fd44c805cf9d6f54c2dd9af1d4b45fa604d6c269306054b", ""),
        ("seed-table 0 5/2 5 --n 1960 --format csv", 0,
         "fac1bcce5215da21b100d3af265a13c8b67dfc730f550ddbeec0cc3f5e7f9e16", ""),
        ("seed-table -7 -9/2 -2 --n 1000", 0,
         "e1a014522cf348b5e223f7007f6a5800950fa35562158149a59226f8cf8f6233", ""),
        ("seed-table 2 4 21/2 --n 500", 0,
         "f94fcef73204bd52f23498ad0fe63fdb37e86751aaeb3d377891557ed95cf3b7", ""),
        ("seed-table 2 4 21/2 --n 500 --format csv", 0,
         "9f28570ca79bacd145b58ba83e7bf930161810be7197c0ff8a3eeac9a3cc6b88", ""),
        ("seed-table -7 -9/2 -2 --n 1000 --format csv", 0,
         "46d2d347ae4dadcc0c14855c61ab4da0c139fa457b8ee8e3f389df260b9eefee", ""),
        ("hilbert --d 3 --order 512", 0,
         "34d1a06a63112b2bbc5ca16b115a47dd0b33c93c656bee28492aa6d62e944fa1", ""),
        ("hilbert --d 5 --order 512", 0,
         "0126886e3b03ca4d821ce3f3ccb65cbe26bde2d3a23f3d22854bccdd19d78898", ""),
        ("hilbert --d 40 --order 512", 0,
         "2289920862706e8d3e9c3ae85b81357f1b424484af1afc0023198818a59dcad2", ""),
        ("triad 1:0 2:5 1:5 --right --steps 300", 0,
         "466efe77f206d3e6367398143231de1421f9807e7e6639cd661ba743b4ba711d", ""),
        ("triad 1:5 4:25 3:20 --left --steps 300", 0,
         "0b7bec66fd86e2971b372d8c5fc871dd027a621be6d9bd274e9c08d7f18343cc", ""),
        ("triad 1:0 2:1 1:1 --right --steps 300", 1,
         "20fd0eba7d5d39f9a63ab1cc5de93b23b429c030b0a10f45c52ca00f3fb19db3", _NOT_MUTABLE),
        ("limits --d 5", 0,
         "ab90d2392caa5ff159752112e5910358936e00552298bfd7ce70925d585f29ed", ""),
        ("limits --d 7", 0,
         "3e630b7d2235518088533b5b9cbc78fc3776ad4bbf8688fd04490a76022bf3eb", ""),
        ("limits --d 41", 0,
         "565b18fda712234fad92e96e284cc02dbc0d1d7e926e7c5bdf6b41b8388a6a0b", ""),
        ("limits --d 399", 0,
         "0a18219ef9f209a39a648d6a468503cde3f0ce445806cd5e6c56ddf122331d56", ""),
    ],
    ids=["family-table", "family-json", "family-csv", "twisted", "degenerate",
         "degenerate-csv", "twisted-csv", "hilbert-3", "hilbert-5", "hilbert-40",
         "triad-right", "triad-left", "triad-exit-1", "limits-5", "limits-7",
         "limits-41", "limits-399"],
)
def test_tables_commands_are_byte_identical(capsys, argv, code, digest, err):
    # golden: sha256 of the stdout of the Fraction series arithmetic, the
    # eight-determinant periodicity check and the Fraction slope comparisons
    # this package used before they ran on integers; the two csv cases, of
    # the four-product recursion and the Fraction slope column (row 4 of
    # the degenerate table has r = -34 and prints 365/34); the four limits
    # cases, of the Fraction sign test and the corrected isqrt floor that
    # placed surds before one integer floor did
    got_code, out, got_err = run(capsys, *argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_koszul_dual_deeply_nested_json_is_65(capsys, tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "koszul-dual", str(src))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ----------------------------------------------------------------- limits


def test_limits_d5_golden(capsys):
    code, out, _ = run(capsys, "limits", "--d", "5")
    assert code == 0
    assert "right: 5/2 + 5/4√12 ≈ 6.8301270" in out
    assert "left: 5/2 - 5/4√12 ≈ -1.8301270" in out
    assert "irrational: yes" in out


def test_limits_d7(capsys):
    code, out, _ = run(capsys, "limits", "--d", "7")
    assert code == 0
    assert "irrational: yes" in out
    assert "≈ 8.4497475" in out


def test_limits_bad_d_is_65(capsys):
    assert run(capsys, "limits", "--d", "4")[0] == 65
    assert run(capsys, "limits", "--d", "3")[0] == 65


# ----------------------------------------------------------------- verify


CHECKS = (
    "periodicity",
    "rotation",
    "roundtrip",
    "closed-form-equivalence",
    "ratio-bound",
    "hilbert-crosscheck",
    "normal-quotient",
    "double-dual",
    "koszulity-witness",
)


def test_verify_quick_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--d-range", "5:7", "--horizon", "12",
                       "--seed-samples", "5")
    assert code == 0
    for name in CHECKS:
        assert f"{name}: PASS" in out


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--d-range", "5:5", "--horizon", "8",
            "--seed-samples", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_catches_perturbed_series(capsys, monkeypatch):
    real = quadratic.hilbert_B

    def bumped(a):
        cs = list(real(a).coeffs)
        cs[3] += 1
        return TruncatedSeries(cs)

    monkeypatch.setattr(quadratic, "hilbert_B", bumped)
    code, out, _ = run(capsys, "verify", "--d-range", "5:5", "--horizon", "8",
                       "--seed-samples", "2")
    assert code == 2
    assert "hilbert-crosscheck: FAIL" in out


def test_verify_inverts_each_A_denominator_once(capsys, monkeypatch):
    # the hilbert-crosscheck and normal-quotient suites share one (A, B)
    # pair per d; the witness suite inverts its own A at order 6
    real = TruncatedSeries.inverse
    inverted = []

    def counting(self):
        inverted.append((self.nums[:4], self.order))
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counting)
    code, _, _ = run(capsys, "verify", "--d-range", "5:9", "--horizon", "12",
                     "--seed-samples", "0")
    assert code == 0
    assert sorted(inverted) == sorted(
        ((1, -d, d, -1), order) for d in (5, 7, 9) for order in (12, 6)
    )


def test_verify_smallest_horizon_is_byte_identical(capsys):
    # golden: sha256 of the stdout of the series suites at their own orders
    # (5 for the cross-check, 6 for the normal quotient), before they shared
    # one pair per d at order 6
    code, out, err = run(capsys, "verify", "--horizon", "5", "--seed-samples", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "757a1dd751ec560725cc6de66b70d8f8279c5c37e9b1a27af58a1f01b4fa6c63"
    )


def test_verify_catches_route_disagreement(capsys, monkeypatch):
    real = quadratic._ambient_degree_dims

    def off_by_one(p, top):
        t = real(p, top)
        dims = [list(row) for row in t.dims]
        dims[0][top] += 1
        return quadratic.DimTable(t.period, t.max_degree, tuple(map(tuple, dims)))

    monkeypatch.setattr(quadratic, "_ambient_degree_dims", off_by_one)
    code, out, _ = run(capsys, "verify", "--d-range", "5:5", "--horizon", "8",
                       "--seed-samples", "2")
    assert code == 2
    assert out.splitlines()[-1] == (
        "koszulity-witness: FAIL (fixture n=1, dim at i=0, degree 2: "
        "quotient route 3, ambient route 4)"
    )


def test_verify_catches_closed_form_disagreement(capsys, monkeypatch):
    real = helix.closed_form

    def bumped(d, n_max):
        rows = real(d, n_max)
        r, deg = rows[3]
        rows[3] = (r + 1, deg)
        return rows

    monkeypatch.setattr(helix, "closed_form", bumped)
    code, out, _ = run(capsys, "verify", "--d-range", "5:7", "--horizon", "8",
                       "--seed-samples", "2")
    assert code == 2
    assert "closed-form-equivalence: FAIL (d=5, n=3)" in out.splitlines()


def test_verify_catches_double_dual_disagreement(capsys, monkeypatch):
    # the one place a block's reduced form is built (exact._reduced, read
    # through RationalMatrix._reduced_form) gains a pivot on the least free
    # column or loses its least pivot while the check runs; the drawn
    # blocks get their form there, so either way the first draw fails. The
    # fault is confined to the check, because the fixtures' rank checks read
    # the same builder
    real, check = exact._reduced, quadratic.double_dual_check

    def gain(rows):
        rows = list(rows)
        pivots = real(rows)
        free = next(c for c in itertools.count() if c not in pivots)
        return real(rows + [{free: 1}])

    def lose(rows):
        pivots = real(rows)
        if pivots:
            del pivots[min(pivots)]
        return pivots

    for skewed in (gain, lose):
        def skewed_check(p, _skewed=skewed):
            with monkeypatch.context() as m:
                m.setattr(exact, "_reduced", _skewed)
                return check(p)

        monkeypatch.setattr(quadratic, "double_dual_check", skewed_check)
        code, out, _ = run(capsys, "verify", "--d-range", "5:5", "--horizon", "8",
                           "--seed-samples", "2")
        assert code == 2
        assert "double-dual: FAIL (random presentation #0)" in out.splitlines()


def test_verify_builds_each_fixture_dual_and_table_once(capsys, monkeypatch):
    # per fixture: one dual, one table per side to degree n + 2 for both the
    # ambient cross-check and the witness; the rotation and roundtrip suites
    # take the right step their sampler built
    counts = collections.Counter()
    for name in ("koszul_dual", "degree_dims", "_ambient_degree_dims"):
        def counting(*args, _real=getattr(quadratic, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(quadratic, name, counting)

    def unused(t):
        raise AssertionError("verify mutated a triad outside the sampler")

    monkeypatch.setattr(cli, "mutate_triad_right", unused)
    code, out, _ = run(capsys, "verify", "--d-range", "5:5", "--horizon", "8",
                       "--seed-samples", "3")
    assert code == 0, out
    assert counts == {"koszul_dual": 3, "degree_dims": 6, "_ambient_degree_dims": 6}


def verify_draws(samples):
    """The first seed, rotation triad and roundtrip triad verify draws from
    its rng with this --seed-samples, by the pinned sampler streams."""
    rng = random.Random(cli._VERIFY_SEED)
    seeds = [random_seed_triple(rng, 12) for _ in range(samples)]
    rotation = [random_right_mutable_triad(rng) for _ in range(max(samples, 50))]
    return seeds[0], rotation[0], random_right_mutable_triad(rng)


def break_periodicity(monkeypatch):
    real = cli.verify_periodicity

    def broken(table):
        if table.seed.d_param is None:
            return False, "minor mismatch at n=3"
        return real(table)

    monkeypatch.setattr(cli, "verify_periodicity", broken)


def break_rotation(monkeypatch):
    real = cli.hom_dims
    monkeypatch.setattr(cli, "hom_dims", lambda t: real(t)._replace(ab=real(t).ab + 1))


def break_roundtrip(monkeypatch):
    monkeypatch.setattr(cli, "mutate_triad_left", lambda t: t)


@pytest.mark.parametrize("suite, breaker", [
    ("periodicity", break_periodicity),
    ("rotation", break_rotation),
    ("roundtrip", break_roundtrip),
])
def test_verify_sample_failures_name_the_draw(capsys, monkeypatch, suite, breaker):
    # each sampled suite reports the first seed or triad it drew; the
    # family tables still pass, so the seed named is a sampled one
    seed, rotated, roundtrip = verify_draws(3)
    breaker(monkeypatch)
    code, out, _ = run(capsys, "verify", "--d-range", "5:5", "--horizon", "8",
                       "--seed-samples", "3")
    detail = {
        "periodicity": f"seed ({seed.mu0},{seed.mu1p},{seed.mu1}): minor mismatch at n=3",
        "rotation": f"triad {rotated}",
        "roundtrip": f"triad {roundtrip}",
    }[suite]
    assert code == 2
    lines = out.splitlines()
    assert f"{suite}: FAIL ({detail})" in lines
    assert [line for line in lines if "FAIL" in line] == [f"{suite}: FAIL ({detail})"]


def test_verify_refuses_a_malformed_cap_before_its_first_suite(capsys, monkeypatch):
    # the cap is read when the command starts, not in the double-dual suite
    # after seven PASS lines
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "abc")
    message = "error: HELIXKIT_DIM_CAP must be a nonnegative integer, got 'abc'\n"
    assert run(capsys, "verify", "--seed-samples", "0") == (65, "", message)


def test_verify_rejects_even_d_range(capsys):
    assert run(capsys, "verify", "--d-range", "4:6")[0] == 65


def test_version_banner(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "helixkit" in out


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_seed_table_formats_all_run(capsys, fmt):
    assert run(capsys, "seed-table", "-1/2", "1/3", "7/2", "--n", "6",
               "--format", fmt)[0] == 0


# ------------------------------------------------------------------ README

README_PATH = Path(__file__).resolve().parent.parent / "README.md"
README = README_PATH.read_text(encoding="utf-8")


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


# each README example that shows its output: the command, then what it prints
README_RUNS = [b for b in readme_blocks("text") if "\\\n" not in b]


def test_readme_shows_four_command_outputs():
    assert [shlex.split(b.splitlines()[0])[:2] for b in README_RUNS] == [
        ["helixkit", "seed-table"], ["helixkit", "triad"], ["helixkit", "hilbert"],
        ["helixkit", "limits"],
    ]


@pytest.mark.parametrize("block", README_RUNS, ids=lambda b: b.split()[1])
def test_readme_command_output_as_written(capsys, block):
    command, expected = block.split("\n", 1)
    assert run(capsys, *shlex.split(command)[1:]) == (0, expected, "")


def test_readme_koszul_dual_example_as_written(capsys, tmp_path, monkeypatch):
    # the README's presentation document, run through its koszul-dual line
    (doc,) = [b for b in readme_blocks("json") if '"gen_dims"' in b]
    (block,) = [b for b in readme_blocks("text") if "koszul-dual" in b]
    command = block.replace("\\\n", " ").splitlines()[0]
    monkeypatch.chdir(tmp_path)
    Path("presentation.json").write_text(doc)
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "double-dual: PASS" and lines[-1] == "koszulity-witness: PASS"
    dual = json.loads(Path("dual.json").read_text())
    assert dual["relations"][0]["rows"] == [
        ["1", "0", "0", "0"], ["0", "1", "1", "0"], ["0", "0", "0", "1"]
    ]


def test_readme_library_example_as_written(capsys):
    (block,) = readme_blocks("python")
    exec(block, {})
    assert capsys.readouterr().out == "5/2 + 5/4√12\n"
