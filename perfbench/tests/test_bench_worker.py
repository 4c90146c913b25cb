"""run_op turns every way an op can go wrong into a failure, not a crash."""

import contextlib
import hashlib
import io
import itertools
import sys

import pytest

import gen
import worker


@pytest.fixture
def capture(tmp_path):
    return str(tmp_path / "stdout.txt")


def _op(argv, **expect):
    return {"id": 0, "argv": argv, "expect": dict(expect)}


LIMITS = _op(["limits", "--d", "5"], kind="limits")


def test_exception_escaping_main_is_a_failure(capture):
    def main(argv):
        raise ZeroDivisionError("boom")

    rec = worker.run_op(main, LIMITS, capture)
    assert rec["code"] is None
    assert "exception escaped main" in rec["failure"]
    assert "ZeroDivisionError" in rec["failure"]


def test_traceback_on_stderr_is_a_failure(capture):
    def main(argv):
        print("Traceback (most recent call last):", file=sys.stderr)
        return 0

    rec = worker.run_op(main, LIMITS, capture)
    assert rec["failure"] == "traceback on stderr"


def test_output_the_checker_cannot_read_is_a_failure(tmp_path, capture):
    pres = tmp_path / "p.json"
    pres.write_text('{"period": 1, "gen_dims": [2], "relations": []}')
    op = _op(["koszul-dual", str(pres), "--out", str(tmp_path / "missing.json")],
             kind="koszul", input=str(pres), out=str(tmp_path / "missing.json"),
             family=None, m=2)
    rec = worker.run_op(lambda argv: 0, op, capture)
    assert rec["code"] == 0
    assert rec["failure"].startswith("output could not be checked")


def test_wrong_exit_code_is_a_failure(capture):
    from helixkit.cli import main

    assert worker.run_op(main, LIMITS, capture)["failure"] is None
    rec = worker.run_op(lambda argv: main(argv) or 2, LIMITS, capture)
    assert rec["failure"] == "exit code 2, expected 0"


def test_digest_and_byte_count_are_of_the_utf8_stdout(capture):
    from helixkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(LIMITS["argv"]))
    data = out.getvalue().encode("utf-8")
    assert len(data) > len(out.getvalue())  # the output is not ASCII
    rec = worker.run_op(main, LIMITS, capture)
    assert rec["digest"] == hashlib.sha256(data).hexdigest()
    assert rec["bytes"] == len(data)


class _Cli:
    @staticmethod
    def main(argv):
        print("verify runs")
        return 0


def test_loop_draws_ops_lazily_and_stops_on_time(tmp_path, capture):
    drawn = []

    def ops():
        for op in gen.generate("verify", 1, str(tmp_path)):
            drawn.append(op["id"])
            yield op

    records = list(worker.loop(_Cli, ops(), 0.05, capture))
    assert records
    assert drawn == [r["id"] for r in records]
    assert list(itertools.islice(worker.loop(_Cli, [], 1.0, capture), 1)) == []
