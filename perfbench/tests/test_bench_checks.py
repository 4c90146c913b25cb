"""The output checks accept helixkit's real output and reject a wrong one."""

import contextlib
import io
import itertools
import tracemalloc

import pytest

import checks
import gen


def _run(argv):
    from helixkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _check(op, code, text):
    return checks.check(op, code, io.StringIO(text))


def _corrupt(text: str) -> str:
    """Change the last digit in the text (so the output stays well-formed)."""
    for k in range(len(text) - 1, -1, -1):
        if text[k].isdigit():
            return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    raise AssertionError("no digit to change")


SMALL_OPS = [
    (["seed-table", "0", "5/2", "5", "--n", "30", "--format", fmt], "seed-table")
    for fmt in ("table", "json", "csv")
] + [
    (["seed-table", "-3/2", "1/7", "4", "--n", "40", "--format", "table"], "seed-table"),
    (["seed-table", "-3/2", "1/7", "4", "--n", "40", "--format", "json"], "seed-table"),
    (["seed-table", "0", "3/2", "3", "--n", "12", "--format", "json"], "seed-table"),
    (["hilbert", "--d", "7", "--order", "40"], "hilbert"),
    (["hilbert", "--d", "4", "--order", "12"], "hilbert"),
    (["limits", "--d", "5"], "limits"),
    (["limits", "--d", "123457"], "limits"),
    (["triad", "1:0", "2:5", "1:5", "--right", "--steps", "20"], "triad"),
    (["triad", "1:0", "2:5", "1:5", "--left", "--steps", "20"], "triad"),
]


@pytest.mark.parametrize("argv,kind", SMALL_OPS)
def test_check_accepts_real_output_and_rejects_a_changed_digit(argv, kind):
    op = {"argv": argv, "expect": {"kind": kind}}
    code, out = _run(argv)
    assert _check(op, code, out) is None
    assert _check(op, code, _corrupt(out)) is not None
    assert _check(op, code + 1, out) is not None


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_seed_table_check_holds_no_copy_of_the_table(fmt):
    argv = ["seed-table", "0", "13/2", "13", "--n", "1200", "--format", fmt]
    op = {"argv": argv, "expect": {"kind": "seed-table"}}
    code, out = _run(argv)
    stream = io.StringIO(out)
    tracemalloc.start()
    try:
        assert checks.check(op, code, stream) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(out) / 20


def test_triad_exit_code_one_is_expected_when_a_step_is_impossible():
    argv = ["triad", "1:0", "1:1", "2:3", "--right", "--steps", "5"]
    _, code = checks.triad_steps([(1, 0), (1, 1), (2, 3)], "right", 5)
    got, out = _run(argv)
    assert got == code
    assert _check({"argv": argv, "expect": {"kind": "triad"}}, got, out) is None


def test_limits_decimal_matches_helixkit_on_many_d():
    from helixkit.helix import limit_slopes

    for d in list(range(5, 400, 2)) + [10**9 + 7]:
        rep = limit_slopes(d)
        m = (d - 3) * (d + 1)
        den = 2 * (d - 3)
        # value = (d (d - 3) +- d sqrt m) / den
        assert checks._rounded(d * (d - 3), d, 1, m, den, 7) == rep.decimal_right
        assert checks._rounded(d * (d - 3), d, -1, m, den, 7) == rep.decimal_left


def test_hilbert_recurrence_matches_the_series():
    from helixkit.quadratic import EquigenModel, hilbert_A

    for d in (3, 5, 8):
        assert checks.hilbert_a(d, 30) == list(hilbert_A(EquigenModel(d), 30).coeffs)


def test_seed_recursion_matches_helixkit():
    from fractions import Fraction

    from helixkit.helix import Seed, invariants_from_seed

    mu = (Fraction(-3, 2), Fraction(1, 7), Fraction(4))
    table = invariants_from_seed(Seed(*mu), 60)
    rows, dead = checks.seed_rows(mu, 60)
    assert rows == [tuple(r) for r in table.rows]
    assert dead == table.degenerate_at


@pytest.mark.parametrize("seed", [0, 5])
def test_koszul_ops_pass_and_a_wrong_dual_fails(seed, tmp_path):
    ops = list(itertools.islice(gen.generate("koszul", seed, str(tmp_path)), 60))
    light = [op for op in ops if "--witness" not in op["argv"]
             and op["argv"][-1] not in ("6", "7")][:12]
    assert light
    for op in light:
        code, out = _run(op["argv"])
        assert _check(op, code, out) is None, op["argv"]
    op = next(op for op in light if "--dims" in op["argv"])
    code, out = _run(op["argv"])
    assert _check(op, code, _corrupt(out)) is not None
    wrong = out.replace('"1"', '"2"', 1)
    assert wrong != out
    assert _check(op, code, wrong) is not None


def test_verify_requires_all_nine_pass_lines():
    op = {"argv": ["verify"], "expect": {"kind": "verify"}}
    good = "".join(f"{n}: PASS\n" for n in checks.VERIFY_SUITES)
    assert _check(op, 0, good) is None
    assert _check(op, 0, good.replace("ratio-bound: PASS", "ratio-bound: FAIL (d=5)")) is not None
    assert _check(op, 2, good) is not None
