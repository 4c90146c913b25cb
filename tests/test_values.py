"""Value semantics of the package's immutable classes, and the import graph
of the command-line entry point.

Every value class compares equal only to an instance of its own class with
equal compared fields, hashes as the tuple of those fields (SurdValue and
RationalMatrix have their own hash), prints as Name(field=value, ...), and
refuses to have a field set or deleted. Cached fields (RationalMatrix._form,
Triad._pairings) take no part in any of that.
"""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helixkit
from helixkit.bundles import ChernVector, Triad
from helixkit.exact import RationalMatrix, SurdValue, TruncatedSeries
from helixkit.helix import (
    PositivityReport,
    Seed,
    TwoSidedTable,
    invariants_from_seed,
    limit_slopes,
)
from helixkit.quadratic import (
    DimTable,
    EquigenModel,
    QuadraticPresentation,
    WitnessEntry,
    WitnessReport,
    classical_euler_fixture,
)

C = ChernVector


def _fields_hash(x, fields):
    return hash(tuple(getattr(x, f) for f in fields))


def _surd_hash(x, fields):
    # a rational surd hashes as its rational part, so SurdValue(2) == 2 holds
    # in sets and dicts too
    return hash(x.a) if x.b == 0 else hash((x.a, x.b, x.m))


def _matrix_hash(x, fields):
    rows = tuple((den, frozenset(row.items())) for den, row in x.int_rows)
    return hash((x.cols, rows))


def _fill_form(m):
    m.rank()
    assert m._form is not None


def _spoil_pairings(t):
    object.__setattr__(t, "_pairings", (0, 0, 0))


# (build, other, fields, repr text, hash rule, hidden field and how to set it)
CASES = {
    "TruncatedSeries": (
        lambda: TruncatedSeries([1, -2, 3]),
        lambda: TruncatedSeries([1, -2, 4]),
        ("coeffs",),
        "TruncatedSeries(coeffs=(1, -2, 3))",
        _fields_hash, None,
    ),
    "SurdValue": (
        lambda: SurdValue(Fraction(1, 2), 3, 5),
        lambda: SurdValue(Fraction(1, 2), 3, 7),
        ("a", "b", "m"),
        "SurdValue(a=Fraction(1, 2), b=Fraction(3, 1), m=5)",
        _surd_hash, None,
    ),
    "RationalMatrix": (
        lambda: RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 3]]),
        lambda: RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 4]]),
        ("cols", "int_rows"),
        "RationalMatrix(cols=2, int_rows=((2, {0: 2, 1: 1}), (1, {1: 3})))",
        _matrix_hash, ("_form", _fill_form),
    ),
    "ChernVector": (
        lambda: C(2, 5),
        lambda: C(2, 7),
        ("rank", "degree"),
        "ChernVector(rank=2, degree=5)",
        _fields_hash, None,
    ),
    "Triad": (
        lambda: Triad(C(1, 0), C(2, 5), C(1, 5)),
        lambda: Triad(C(1, 0), C(2, 5), C(1, 6)),
        ("a", "b", "c"),
        "Triad(a=ChernVector(rank=1, degree=0), b=ChernVector(rank=2, degree=5),"
        " c=ChernVector(rank=1, degree=5))",
        _fields_hash, ("_pairings", _spoil_pairings),
    ),
    "Seed": (
        lambda: Seed(0, Fraction(5, 2), 5),
        lambda: Seed(0, Fraction(7, 2), 7),
        ("mu0", "mu1p", "mu1"),
        "Seed(mu0=Fraction(0, 1), mu1p=Fraction(5, 2), mu1=Fraction(5, 1))",
        _fields_hash, None,
    ),
    "HelixTable": (
        lambda: invariants_from_seed(Seed(0, Fraction(5, 2), 5), 2),
        lambda: invariants_from_seed(Seed(0, Fraction(5, 2), 5), 3),
        ("seed", "d_param", "rows", "degenerate_at", "minors"),
        "HelixTable(seed=Seed(mu0=Fraction(0, 1), mu1p=Fraction(5, 2),"
        " mu1=Fraction(5, 1)), d_param=5, rows=(Row(n=0, d=0, r=1, dp=None,"
        " rp=None), Row(n=1, d=5, r=1, dp=5, rp=2), Row(n=2, d=20, r=3, dp=25,"
        " rp=4)), degenerate_at=None, minors=(0, 5, 5))",
        _fields_hash, None,
    ),
    "PositivityReport": (
        lambda: PositivityReport("VerifiedToHorizon", 4),
        lambda: PositivityReport("FailsAt", 4, 4, "r"),
        ("kind", "horizon", "fail_index", "fail_component"),
        "PositivityReport(kind='VerifiedToHorizon', horizon=4, fail_index=None,"
        " fail_component=None)",
        _fields_hash, None,
    ),
    "LimitReport": (
        lambda: limit_slopes(5),
        lambda: limit_slopes(7),
        ("right_limit", "left_limit", "irrational", "decimal_right", "decimal_left"),
        "LimitReport(right_limit=SurdValue(a=Fraction(5, 2), b=Fraction(5, 4),"
        " m=12), left_limit=SurdValue(a=Fraction(5, 2), b=Fraction(-5, 4), m=12),"
        " irrational=True, decimal_right='6.8301270', decimal_left='-1.8301270')",
        _fields_hash, None,
    ),
    "TwoSidedTable": (
        lambda: TwoSidedTable(1, {-1: C(1, -5), 0: C(1, 0), 1: C(2, 5)}),
        lambda: TwoSidedTable(1, {-1: C(1, -5), 0: C(1, 0), 1: C(1, 5)}),
        ("n_max", "entries"),
        "TwoSidedTable(n_max=1, entries={-1: ChernVector(rank=1, degree=-5),"
        " 0: ChernVector(rank=1, degree=0), 1: ChernVector(rank=2, degree=5)})",
        _fields_hash, None,
    ),
    "QuadraticPresentation": (
        lambda: classical_euler_fixture(1)[0],
        lambda: classical_euler_fixture(2)[0],
        ("period", "gen_dims", "relations"),
        "QuadraticPresentation(period=1, gen_dims=(2,), relations=(RationalMatrix("
        "cols=4, int_rows=((1, {1: 1, 2: -1}),)),))",
        _fields_hash, None,
    ),
    "DimTable": (
        lambda: DimTable(1, 2, ((1, 2, 1),)),
        lambda: DimTable(1, 2, ((1, 2, 2),)),
        ("period", "max_degree", "dims"),
        "DimTable(period=1, max_degree=2, dims=((1, 2, 1),))",
        _fields_hash, None,
    ),
    "WitnessReport": (
        lambda: WitnessReport((WitnessEntry(0, 0, 1, True),)),
        lambda: WitnessReport((WitnessEntry(0, 0, 0, False),)),
        ("entries",),
        "WitnessReport(entries=(WitnessEntry(j=0, q=0, value=1, ok=True),))",
        _fields_hash, None,
    ),
    "EquigenModel": (
        lambda: EquigenModel(5),
        lambda: EquigenModel(7),
        ("d",),
        "EquigenModel(d=5)",
        _fields_hash, None,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_semantics(name):
    build, other, fields, text, hash_rule, hidden = CASES[name]
    x, y = build(), build()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert x != other() and not x == other()
    values = tuple(getattr(x, f) for f in fields)
    assert x != values and values != x
    twin = object.__new__(type("Twin", (type(x),), {}))
    twin.__dict__.update(vars(x))
    if name != "SurdValue":  # its own == compares values, whatever the class
        assert x != twin and twin != x
    assert repr(x) == text
    try:
        expected = hash_rule(x, fields)
    except TypeError:
        # a dict field: the value is unhashable, as its field tuple is
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(y, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in fields) == values
    if hidden is not None:
        attr, change = hidden
        change(y)
        assert getattr(y, attr) != getattr(x, attr)
        assert x == y and repr(y) == text
        assert hash(x) == hash(y)
        with pytest.raises(AttributeError):
            setattr(x, attr, None)


def test_constructor_binds_positional_keyword_and_mixed_values():
    table = DimTable(1, 2, ((1, 2, 1),))
    assert vars(table) == {"period": 1, "max_degree": 2, "dims": ((1, 2, 1),)}
    assert DimTable(period=1, max_degree=2, dims=((1, 2, 1),)) == table
    assert DimTable(1, dims=((1, 2, 1),), max_degree=2) == table
    assert WitnessReport(entries=()) == WitnessReport(())


def test_constructor_fills_class_defaults():
    report = PositivityReport("Certified", 9)
    assert vars(report) == {
        "kind": "Certified", "horizon": 9, "fail_index": None, "fail_component": None
    }
    assert PositivityReport("FailsAt", 4, fail_component="r") == PositivityReport(
        "FailsAt", 4, None, "r")
    assert PositivityReport(horizon=4, kind="FailsAt", fail_index=4).fail_index == 4


@pytest.mark.parametrize("cls, args, kwargs, message", [
    (DimTable, (1, 2), {}, "DimTable missing field 'dims'"),
    (DimTable, (), {"period": 1, "dims": ()}, "DimTable missing field 'max_degree'"),
    (DimTable, (1, 2, (), 4), {}, "DimTable has 3 fields, got 4 values"),
    (DimTable, (1, 2, ()), {"rows": 3}, "DimTable got unknown or repeated fields ['rows']"),
    (DimTable, (1, 2), {"period": 1, "dims": ()},
     "DimTable got unknown or repeated fields ['period']"),
    # a field with a class default after it has none of its own
    (PositivityReport, ("Certified",), {}, "PositivityReport missing field 'horizon'"),
])
def test_constructor_refuses_missing_extra_and_unknown_fields(cls, args, kwargs, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        cls(*args, **kwargs)


def test_unchecked_builds_what_the_constructor_builds():
    third = Fraction(1, 3)
    built = [
        (Seed(Fraction(-1, 2), third, 5), Seed._unchecked(Fraction(-1, 2), third, Fraction(5))),
    ]
    for n in (1, 2, 3):
        pres = classical_euler_fixture(n)[0]
        rebuilt = QuadraticPresentation(pres.period, list(pres.gen_dims), list(pres.relations))
        built.append((rebuilt, QuadraticPresentation._unchecked(*(
            getattr(pres, f) for f in pres._fields))))
    matrix = RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 3], [Fraction(-2, 3), 0]])
    built.append((matrix, RationalMatrix._of(matrix.cols, iter(matrix.int_rows))))
    for checked, unchecked in built:
        assert type(unchecked) is type(checked)
        assert unchecked == checked and repr(unchecked) == repr(checked)
        assert vars(unchecked) == vars(checked)
        assert hash(unchecked) == hash(checked)


def test_import_graph_of_the_cli():
    # the tracer wraps functions in every helixkit module, and finds them by
    # importing the cli alone; dataclasses and inspect cost every launch
    # about 14 ms to import
    code = (
        "import sys; before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(Path(helixkit.__file__).parents[1])!r})\n"
        "from helixkit.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "added = set(sys.modules) - before\n"
        "print(' '.join(sorted(added)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    added = set(out.splitlines()[-1].split())
    assert not added & {"dataclasses", "inspect"}
    files = Path(helixkit.__file__).parent.glob("*.py")
    modules = {f"helixkit.{f.stem}" for f in files} - {"helixkit.__init__"}
    assert {"helixkit.cli", "helixkit.quadratic"} <= modules
    assert modules | {"helixkit"} <= added
