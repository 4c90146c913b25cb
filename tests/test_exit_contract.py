"""Fuzz of the exit-code contract through main().

Every argv and every presentation document must end in exit 0, 2 or 64 or in
a code of cli._EXIT_CODES, with no traceback on stderr and no decimal on
stdout except after a "≈".

The flags that set an amount of work (--n, --steps, --order, --horizon,
--seed-samples, --dims, --witness) are drawn from small ranges and
HELIXKIT_DIM_CAP is lowered, only to keep the run within a few seconds: those
flags have no work limit yet, so a large value is slow rather than wrong.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helixkit import cli

ALLOWED = {0, 2, 64} | {code for _, code in cli._EXIT_CODES}
APPROX = re.compile(r"≈ -?\d+\.\d+")
DECIMAL = re.compile(r"\d\.\d")
DIM_CAP = "1024"

DEEP_DOC = "[" * 100000 + "]" * 100000
DENSE_DUAL_DOC = '{"period":1,"gen_dims":[300],"relations":[]}'


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"HELIXKIT_DIM_CAP": DIM_CAP}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in ALLOWED, (code, err)
    assert "Traceback" not in err
    assert not DECIMAL.search(APPROX.sub("", out)), out


def _cat(*parts):
    """Concatenate drawn token lists into one argv."""
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


def optional(flag, lo, hi):
    return st.one_of(st.just([]), st.integers(lo, hi).map(lambda v: [flag, str(v)]))


def mostly(valid, other):
    """valid three times in four (one_of would flatten a nested one_of)."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else other)


JUNK = st.one_of(
    st.sampled_from(
        ["", "x", "1/0", "0.5", "-0.25", "1e2", " 3/4 ", "nan", "inf", "1/-2", "--", "-"]
    ),
    st.text(alphabet="0123456789/.-+e x", max_size=6),
)
RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=6)
SEED = mostly(
    st.sets(RATIONAL, min_size=3, max_size=3).map(lambda s: [str(x) for x in sorted(s)]),
    st.lists(st.one_of(RATIONAL.map(str), JUNK), min_size=3, max_size=3),
)
CHERN = st.tuples(st.integers(1, 6), st.integers(-15, 15))
TRIAD = mostly(
    st.lists(CHERN.filter(lambda v: gcd(*v) == 1), min_size=3, max_size=3).map(
        lambda vs: [f"{r}:{d}" for r, d in sorted(vs, key=lambda v: Fraction(v[1], v[0]))]
    ),
    st.lists(
        st.one_of(CHERN.map(lambda v: f"{v[0]}:{v[1]}"),
                  st.sampled_from(["0:1", "-1:2", "1;0", "1:", "a:b", "1:2:3"])),
        min_size=3, max_size=3,
    ),
)
ODD = st.integers(2, 6).map(lambda k: 2 * k + 1)
D_RANGE = mostly(
    st.lists(ODD, min_size=2, max_size=2).map(
        lambda ds: ["--d-range", "%d:%d" % tuple(sorted(ds))]
    ),
    st.sampled_from([[], ["--d-range", "4:6"], ["--d-range", "9:5"], ["--d-range", "5"],
                     ["--d-range", "1:2:3"]]),
)
EXTRA = mostly(st.just([]), st.sampled_from(["--frobnicate", "-h", "extra", "--n"]).map(
    lambda tok: [tok]))

ARGV = st.one_of(
    _cat(st.just(["seed-table"]), SEED, optional("--n", -1, 25),
         st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]]),
         EXTRA),
    _cat(st.just(["triad"]), TRIAD, st.sampled_from([[], ["--left"], ["--left", "--right"]]),
         optional("--steps", -1, 8), EXTRA),
    _cat(st.just(["hilbert"]), optional("--d", -1, 20), optional("--order", -1, 60), EXTRA),
    _cat(st.just(["limits"]), optional("--d", -1, 40), EXTRA),
    _cat(st.just(["verify"]), D_RANGE,
         st.integers(3, 12).map(lambda h: ["--horizon", str(h)]),
         st.integers(-1, 3).map(lambda s: ["--seed-samples", str(s)]), EXTRA),
    _cat(st.just(["koszul-dual", os.path.join("no-such-dir", "p.json")]), EXTRA),
    st.lists(st.text(max_size=5), max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(ARGV)
def test_argv_keeps_the_exit_contract(argv):
    assert_contract(*call(argv))


ENTRY = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6))
BAD_VALUE = st.one_of(
    JUNK, st.integers(-2, 2), st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(), st.none(), st.just([]), st.just({}),
)


@st.composite
def presentation(draw):
    """A presentation document: independent rows by construction, then at most
    one flaw (a field replaced by a bad value, a dependent row, a missing key)."""
    period = draw(st.integers(1, 2))
    gens = draw(st.lists(st.integers(1, 3), min_size=period, max_size=period))
    blocks = []
    for i in range(period):
        ambient = gens[i] * gens[(i + 1) % period]
        pivots = draw(st.permutations(range(ambient)))[: draw(st.integers(0, ambient))]
        rows = []
        for p in pivots:
            row = draw(st.lists(ENTRY, min_size=ambient, max_size=ambient))
            for q in pivots:
                row[q] = "1" if q == p else "0"
            rows.append(row)
        blocks.append({"index": i, "rows": rows})
    doc = {"period": period, "gen_dims": gens, "relations": blocks}
    flaw = draw(st.sampled_from(
        [None] * 7 + ["period", "gen_dims", "index", "entry", "dependent", "short", "missing"]
    ))
    block = blocks[draw(st.integers(0, period - 1))]
    if flaw in ("period", "gen_dims"):
        doc[flaw] = draw(BAD_VALUE) if flaw == "period" else [draw(BAD_VALUE)] * period
    elif flaw == "index":
        block["index"] = draw(st.one_of(BAD_VALUE, st.integers(-1, 3)))
    elif flaw == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif block["rows"] and flaw == "entry":
        block["rows"][0][0] = draw(BAD_VALUE)
    elif block["rows"] and flaw == "dependent":
        block["rows"].append(list(block["rows"][0]))
    elif block["rows"] and flaw == "short":
        block["rows"][0].pop()
    return doc


@st.composite
def document(draw):
    text = json.dumps(draw(mostly(presentation(), BAD_VALUE)))
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


KOSZUL_FLAGS = _cat(
    optional("--dims", -1, 4),
    optional("--witness", -1, 4),
    st.sampled_from([[], ["--check-double-dual"]]),
    st.sampled_from([[], ["--out", "{tmp}/dual.json"], ["--out", "{tmp}/missing/dual.json"]]),
)


@settings(max_examples=80, deadline=None)
@given(document(), KOSZUL_FLAGS)
@example(DEEP_DOC, [])
@example(DENSE_DUAL_DOC, [])
def test_presentation_documents_keep_the_exit_contract(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["koszul-dual", path, *(f.format(tmp=tmp) for f in flags)]
        assert_contract(*call(argv))
