"""Presentation-level duality, dimension tables, and the series model."""

import copy
import fractions
import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helixkit.bundles import ChernVector, euler_pairing
from helixkit.errors import DimensionCapExceeded, UnsupportedD
from helixkit.exact import (
    RationalMatrix,
    TruncatedSeries,
    _back_substitute,
    _echelon,
    _frac,
    _normal_form,
    matrix_kernel,
    row_space_equal,
)
from helixkit.helix import Seed, invariants_from_seed
from helixkit import exact, quadratic
from helixkit.quadratic import (
    DimTable,
    EquigenModel,
    QuadraticPresentation,
    classical_euler_fixture,
    cross_check_hilbert,
    degree_dims,
    double_dual_check,
    hilbert_A,
    hilbert_B,
    koszul_dual,
    koszulity_witness,
    normal_quotient_check,
)
from helixkit.sampling import random_presentation

from hilbert_reference import three_term_series

M = RationalMatrix.from_rows


def commutator_rows(g):
    rows = []
    for a in range(g):
        for b in range(a + 1, g):
            row = [Fraction(0)] * (g * g)
            row[a * g + b] = Fraction(1)
            row[b * g + a] = Fraction(-1)
            rows.append(row)
    return rows


def sym_presentation(g):
    return QuadraticPresentation(1, (g,), (M(commutator_rows(g)),))


def free_presentation(g):
    return QuadraticPresentation(1, (g,), (M([], cols=g * g),))


def periodic_mixed():
    """Period 3, gen dims (2,3,2), a single relation at index 1 only."""
    rel1 = M([[1, 0, 0, 0, 0, -1]])
    return QuadraticPresentation(
        3,
        (2, 3, 2),
        (M([], cols=6), rel1, M([], cols=4)),
    )


# ------------------------------------------------------- construction rules


def test_presentation_rejects_dependent_relation_rows():
    dep = M([[1, 0, 0, 0], [2, 0, 0, 0]])
    with pytest.raises(ValueError):
        QuadraticPresentation(1, (2,), (dep,))


def test_presentation_rejects_shape_mismatches():
    with pytest.raises(ValueError):
        QuadraticPresentation(1, (2,), (M([], cols=5),))
    with pytest.raises(ValueError):
        QuadraticPresentation(2, (2,), (M([], cols=4), M([], cols=4)))
    with pytest.raises(ValueError):
        QuadraticPresentation(1, (0,), (M([], cols=0),))
    with pytest.raises(ValueError):
        QuadraticPresentation(0, (), ())


def test_built_presentations_pass_the_checks_they_skip():
    # koszul_dual and random_presentation construct without __init__'s
    # checks; pin the invariants their constructions guarantee
    rng = random.Random(23)
    fixtures = [classical_euler_fixture(n)[0] for n in range(1, 5)]
    sources = [random_presentation(rng) for _ in range(50)]
    sources += fixtures + [koszul_dual(p) for p in fixtures]
    for p in sources:
        dual = koszul_dual(p)
        for q in (p, dual):
            assert QuadraticPresentation(q.period, q.gen_dims, q.relations) == q
        for rel, ann in zip(p.relations, dual.relations):
            assert rel.rank() == rel.rows
            assert ann.rank() == ann.rows
            assert rel.rank() + ann.rank() == rel.cols == ann.cols


@pytest.mark.parametrize(
    "period, gen_dims, relations",
    [
        (True, (1,), (M([[1]]),)),
        (1, (True,), (M([[1]]),)),
    ],
    ids=["bool-period", "bool-gen-dim"],
)
def test_presentation_rejects_bools(period, gen_dims, relations):
    with pytest.raises(ValueError):
        QuadraticPresentation(period, gen_dims, relations)


def test_periodic_relation_columns_follow_the_cycle():
    # index 2 pairs g_2 with g_0, so 2*2 columns, not 2*3
    p = periodic_mixed()
    assert p.relations[2].cols == 4
    with pytest.raises(ValueError):
        QuadraticPresentation(
            3, (2, 3, 2), (M([], cols=6), M([], cols=6), M([], cols=6))
        )


def test_json_round_trip():
    p = QuadraticPresentation(
        2,
        (2, 3),
        (M([[Fraction(3, 4), 0, 1, 0, 0, -1]]), M([], cols=6)),
    )
    doc = p.to_json_dict()
    assert doc["period"] == 2
    assert doc["gen_dims"] == [2, 3]
    assert doc["relations"][0]["index"] == 0
    assert doc["relations"][0]["rows"][0][0] == "3/4"
    back = QuadraticPresentation.from_json_dict(doc)
    assert back.period == p.period
    assert back.gen_dims == p.gen_dims
    for a, b in zip(back.relations, p.relations):
        assert a.entries == b.entries


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5))
def test_json_round_trip_is_equal_and_hash_equal(seed, scale):
    # rows in lowest terms or spelled over a common factor parse to the same
    # stored rows, so the round trip gives an equal, hash-equal presentation
    def unreduced(text):
        x = Fraction(text)
        return f"{x.numerator * scale}/{x.denominator * scale}"

    p = random_presentation(random.Random(seed))
    for q in (p, koszul_dual(p)):
        doc = q.to_json_dict()
        back = QuadraticPresentation.from_json_dict(doc)
        assert back == q and hash(back) == hash(q)
        for block in doc["relations"]:
            block["rows"] = [[unreduced(t) for t in row] for row in block["rows"]]
        back = QuadraticPresentation.from_json_dict(doc)
        assert back == q and hash(back) == hash(q)
        assert back.to_json_dict() == q.to_json_dict()


def test_json_text_is_the_indented_dump():
    # the koszul-dual writer against the encoder it stands for: sampler
    # draws, the fixtures, their duals and a block with no rows
    inputs = [classical_euler_fixture(n)[0] for n in range(1, 5)]
    inputs += [random_presentation(random.Random(s)) for s in range(3000)]
    no_rows = M([], cols=6)
    inputs.append(QuadraticPresentation(2, (2, 3), (no_rows, M([[1, 0, 0, 0, 0, -1]]))))
    for p in inputs:
        for q in (p, koszul_dual(p)):
            assert quadratic._json_text(q) == json.dumps(q.to_json_dict(), indent=2)


def parse_outcome(fn, entry):
    """The value fn gives for entry, or the class and text of its refusal."""
    try:
        return fn(entry)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "entry",
    ["0", "-0", "007", "3/6", "-4/2", "+3", " 3 ", "1_0", "1.5", "1e3", "1/0", "-",
     "/", "1/", "/2", "1/-2", "1/00", "0/0", "", "\u0663", "1" * 700, "-" + "1" * 5000,
     "1/" + "1" * 5000, 3, 1.5, True],
    ids=lambda e: repr(e) if len(repr(e)) < 20 else f"{repr(e)[:4]}...({len(e)} chars)",
)
def test_json_entries_are_valued_and_refused_as_frac_does(entry):
    # plain entries are read with int, every other string goes through
    # _frac; either way a string is valued or refused as _frac does it (the
    # 5000-digit ones past python's default int str digit limit), and a
    # number is refused as a relation entry, with its block and entry named
    def parsed(e):
        doc = {"period": 1, "gen_dims": [2],
               "relations": [{"index": 0, "rows": [[e, "0", "0", "1"]]}]}
        return QuadraticPresentation.from_json_dict(doc).relations[0].entries[0]

    def reference(e):
        if not isinstance(e, str):
            found = "an int" if type(e) is int else f"a {type(e).__name__}"
            raise ValueError(
                f"relation block 0 has a row whose entry 0 is {found}, not a 'p/q' string"
            )
        return _frac(e)

    assert parse_outcome(parsed, entry) == parse_outcome(reference, entry)


# ----------------------------------------------------------------- the dual


def test_dual_of_two_variable_commutator_is_the_symmetric_annihilator():
    d = koszul_dual(sym_presentation(2))
    assert d.period == 1
    assert d.gen_dims == (2,)
    expected = M([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    assert row_space_equal(d.relations[0], expected)


def test_dual_relation_dims_are_complementary():
    for p in (sym_presentation(2), sym_presentation(3), periodic_mixed()):
        d = koszul_dual(p)
        for i in range(p.period):
            ambient = p.relations[i].cols
            assert p.relations[i].rows + d.relations[i].rows == ambient


def test_dual_of_free_algebra_has_all_relations():
    d = koszul_dual(free_presentation(3))
    assert d.relations[0].rows == 9
    dims = degree_dims(d, 3)
    assert [dims.dim(0, n) for n in range(4)] == [1, 3, 0, 0]


def test_double_dual_fixed_cases():
    assert double_dual_check(sym_presentation(2))
    assert double_dual_check(sym_presentation(3))
    assert double_dual_check(free_presentation(2))
    assert double_dual_check(periodic_mixed())


def test_double_dual_randomized():
    rng = random.Random(11)
    for _ in range(12):
        assert double_dual_check(random_presentation(rng))


def composed_double_dual(p):
    """The reference route: two Fraction duals, then row-space equality."""
    dd = koszul_dual(koszul_dual(p))
    return all(row_space_equal(a, b) for a, b in zip(p.relations, dd.relations))


def pq_presentation():
    """p/q blocks from dependent candidates: a zero row and a sum of rows
    are dropped by the rref; one block is empty and one is full."""
    r = ["1/2", "-2/3", "0", "3", "0", "5/7"]
    s = ["0", "4/5", "-1", "0", "1/3", "0"]
    candidates = [r, ["0"] * 6, s, [Fraction(x) + Fraction(y) for x, y in zip(r, s)]]
    reduced, pivots = M(candidates).rref()
    rel = M([reduced.row(k) for k in range(len(pivots))])
    full = M([[Fraction(j == k, k + 1) for j in range(4)] for k in range(4)])
    return QuadraticPresentation(3, (2, 3, 2), (rel, M([], cols=6), full))


def reference_inputs():
    for n in range(1, 5):
        p, _ = classical_euler_fixture(n)
        yield p
        yield koszul_dual(p)
    rng = random.Random(2024)
    for _ in range(100):
        yield random_presentation(rng)
    yield pq_presentation()
    yield koszul_dual(pq_presentation())
    # p/q commutators in new variables: rows far from reduced form, so the
    # block's elimination does real work before the dot products
    rng = random.Random(5)
    for g in (2, 3, 4):
        p = QuadraticPresentation(
            1, (g,), (M(change_of_variables(commutator_rows(g), g, rng)),)
        )
        yield p
        yield koszul_dual(p)


def test_double_dual_check_agrees_with_the_composed_route():
    for p in reference_inputs():
        assert composed_double_dual(p)
        assert double_dual_check(p)


@st.composite
def presentations(draw):
    """p/q relation rows drawn entry by entry, each kept only if it raises
    the rank of the rows kept before it; the rows are kept as drawn, not
    reduced."""
    period = draw(st.integers(min_value=1, max_value=3))
    gens = draw(st.lists(st.integers(min_value=1, max_value=3),
                         min_size=period, max_size=period))
    entry = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=1, max_value=4))
    blocks = []
    for i in range(period):
        cols = gens[i] * gens[(i + 1) % period]
        kept = []
        for row in draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                 max_size=cols)):
            if M(kept + [row]).rank() > len(kept):
                kept.append(row)
        blocks.append(M(kept, cols=cols))
    return QuadraticPresentation(period, gens, blocks)


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_double_dual_check_agrees_with_the_composed_route_on_drawn_rows(p):
    for q in (p, koszul_dual(p)):
        assert composed_double_dual(q)
        assert double_dual_check(q)


@pytest.mark.parametrize(
    "fault", ["drop", "perturb", "multiple", "stray"], ids=lambda f: f"dual-{f}"
)
def test_double_dual_check_catches_a_broken_kernel(monkeypatch, fault):
    # break the dual rows the certificate is built on: one row missing (a
    # count too low), one entry off (a dot product not 0), one row replaced
    # by a multiple of another (dependent rows), or one row moved outside
    # the block's columns, where every dot product is 0
    real = quadratic._kernel_rows

    def broken(pivots, cols):
        rows = real(pivots, cols)
        if fault == "drop" and rows:
            del rows[min(rows)]
        elif fault == "perturb" and rows and pivots:
            row, c = rows[min(rows)], min(pivots)
            row[c] = row.get(c, 0) + 1
        elif fault == "multiple" and len(rows) > 1:
            # the first row takes in the second, so each is nonzero at both
            # keys, and the second becomes twice the first
            first, second = sorted(rows)[:2]
            for c, x in rows.pop(second).items():
                rows[first][c] = rows[first].get(c, 0) + x
            rows[second] = {c: 2 * x for c, x in rows[first].items()}
        elif fault == "stray" and rows:
            del rows[min(rows)]
            rows[cols] = {cols: 1}
        return rows

    monkeypatch.setattr(quadratic, "_kernel_rows", broken)
    for p in (sym_presentation(3), periodic_mixed(), pq_presentation()):
        assert double_dual_check(p) is False


def without_forms(p):
    """p with fresh blocks of the same rows, whose reduced forms are not
    built yet."""
    return QuadraticPresentation._unchecked(
        p.period,
        p.gen_dims,
        tuple(RationalMatrix._of(rel.cols, rel.int_rows) for rel in p.relations),
    )


@pytest.mark.parametrize("fault", ["gain", "lose"])
def test_double_dual_check_catches_a_broken_elimination(monkeypatch, fault):
    # the block's one reduced form, built in one place (exact._reduced, read
    # through RationalMatrix._reduced_form), gains a pivot on its least free
    # column (the given rows plus that unit row, reduced) or loses its least
    # pivot: the dual rows built from it are then too few, or one of them
    # pairs nonzero with a given row. The presentations are built first, so
    # their rank checks see the true form, and the check gets fresh blocks
    real = exact._reduced

    def skewed(rows):
        rows = list(rows)
        pivots = real(rows)
        if fault == "gain":
            free = next(c for c in itertools.count() if c not in pivots)
            return real(rows + [{free: 1}])
        if pivots:
            del pivots[min(pivots)]
        return pivots

    built = (sym_presentation(3), periodic_mixed(), pq_presentation())
    presentations = [without_forms(p) for p in built]
    monkeypatch.setattr(exact, "_reduced", skewed)
    for p in presentations:
        assert double_dual_check(p) is False


# ------------------------------------------------------------- degree dims


def test_symmetric_two_variable_dims():
    dims = degree_dims(sym_presentation(2), 4)
    assert [dims.dim(0, n) for n in range(5)] == [1, 2, 3, 4, 5]


def test_symmetric_three_variable_cube_dim():
    dims = degree_dims(sym_presentation(3), 3)
    assert dims.dim(0, 2) == 6
    assert dims.dim(0, 3) == 10


def test_free_two_variable_degree_four():
    dims = degree_dims(free_presentation(2), 4)
    assert dims.dim(0, 4) == 16


def test_exterior_cube_vanishes():
    dims = degree_dims(koszul_dual(sym_presentation(2)), 3)
    assert [dims.dim(0, n) for n in range(4)] == [1, 2, 1, 0]


EXPECTED_MIXED = {
    0: [1, 2, 6, 10, 20],
    1: [1, 3, 5, 10, 30],
    2: [1, 2, 4, 12, 20],
}


def test_periodic_mixed_dims_match_hand_table():
    dims = degree_dims(periodic_mixed(), 4)
    for i, want in EXPECTED_MIXED.items():
        assert [dims.dim(i, n) for n in range(5)] == want


def test_periodic_index_reduces_mod_period():
    dims = degree_dims(periodic_mixed(), 4)
    assert dims.dim(3, 2) == dims.dim(0, 2)
    assert dims.dim(-2, 3) == dims.dim(1, 3)


def test_periodic_commutators_reproduce_the_classical_dims():
    # same commutator at every index of a period-3 cycle: polynomial growth
    rel = M([[0, 1, -1, 0]])
    p = QuadraticPresentation(3, (2, 2, 2), (rel, rel, rel))
    dims = degree_dims(p, 5)
    for i in range(3):
        assert [dims.dim(i, n) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_free_periodic_dims_are_gen_products():
    p = QuadraticPresentation(
        3, (1, 2, 3), (M([], cols=2), M([], cols=6), M([], cols=3))
    )
    dims = degree_dims(p, 4)
    assert dims.dim(0, 3) == 6
    assert dims.dim(1, 3) == 6
    assert dims.dim(2, 3) == 6
    assert dims.dim(0, 4) == 6
    assert dims.dim(1, 4) == 12
    assert dims.dim(2, 4) == 18


def test_dimension_cap_guards_ambient_size(monkeypatch):
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "10")
    with pytest.raises(DimensionCapExceeded):
        degree_dims(free_presentation(2), 4)
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "1000000")
    assert degree_dims(free_presentation(2), 4).dim(0, 4) == 16


@pytest.mark.parametrize("route", [degree_dims, quadratic._ambient_degree_dims])
def test_dimension_cap_admits_a_cell_at_the_cap(monkeypatch, route):
    # the free algebra on 2 generators has ambient dimension 2^3 = 8 at
    # degree 3: a cap of 8 admits it, and a cap of 7 refuses it
    p = free_presentation(2)
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "8")
    assert route(p, 3).dim(0, 3) == 8
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "7")
    with pytest.raises(DimensionCapExceeded) as info:
        route(p, 3)
    assert str(info.value) == "tensor dimension 8 at index 0, degree 3 exceeds cap 7"


def test_dual_size_cap_admits_a_block_at_the_cap(monkeypatch):
    # sym_presentation(2) has one relation in 4 columns, so its dual block
    # has 4 * 3 = 12 entries; its dual has 3 relations, so the double-dual
    # check's second size, the given rows', is 4 * 3 = 12 for it
    monkeypatch.delenv("HELIXKIT_DIM_CAP", raising=False)
    p = sym_presentation(2)
    q = koszul_dual(p)
    for check, arg in ((koszul_dual, p), (double_dual_check, p), (double_dual_check, q)):
        monkeypatch.setenv("HELIXKIT_DIM_CAP", "12")
        assert check(arg)
        monkeypatch.setenv("HELIXKIT_DIM_CAP", "11")
        with pytest.raises(DimensionCapExceeded) as info:
            check(arg)
        assert str(info.value) == (
            "dual relations at index 0 have 12 entries, exceeding cap 11"
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(344)
@example(784)
@example(942)
def test_quotient_route_matches_ambient_route(seed):
    # four generators give single draws of several seconds on the ambient
    # route; in the three example draws one relation row mixes words of pivot
    # q = 1 and q > 1 on A_2's normal form, and scaling only the q > 1 words
    # of such a row gives wrong dims at degree 3
    p = random_presentation(random.Random(seed), max_gen=3)
    for q in (p, koszul_dual(p)):
        assert degree_dims(q, 4) == quadratic._ambient_degree_dims(q, 4)


def reference_quotient_step(nf, rows, g_left, g, lower):
    """The quotient step as a generator of image rows, each scaled by the
    lcm of its words' q's, fed to _echelon: the plain route that
    quadratic._quotient_step must agree with. Returns the forward pivots."""
    terms = [[(col // g, col % g, v) for col, v in row.items()] for row in rows]

    def image():
        for c in range(lower):
            base = c * g_left
            for term in terms:
                words = [(nf[base + a], b, v) for a, b, v in term]
                den = lcm(*(q for (q, _), _, _ in words))
                out = {}
                for (q, word), b, v in words:
                    s = v * (den // q)
                    for k, x in word.items():
                        col = k * g + b
                        old = out.get(col)
                        out[col] = s * x if old is None else old + s * x
                yield out

    return _echelon(image())


def finished_map(pivots, cols):
    """(dim, map) one degree up from a step's forward pivots, which it
    back-substitutes in place."""
    _back_substitute(pivots)
    return _normal_form(pivots, cols)


def walk_recursion(p, max_degree, check):
    """Walk degree_dims' recursion from every start index, degree 2 included
    as a step from degree 1's identity map, calling
    check(n, nf, rel, g_left, g, lower, cols) before each step; every later
    degree reads the map, so each step is compared map and all."""
    for i in range(p.period):
        word = [p.gen_dims[(i + k) % p.period] for k in range(max_degree)]
        nf = [(1, {a: 1}) for a in range(word[0])]
        dims = [1, word[0]]
        for n in range(2, max_degree + 1):
            rel = p.relations[(i + n - 2) % p.period]
            args = (word[n - 2], word[n - 1], dims[n - 2])
            cols = dims[n - 1] * word[n - 1]
            check(n, nf, rel, *args, cols)
            pivots = quadratic._quotient_step(nf, rel._reduced_form().values(), *args)
            dim, nf = finished_map(pivots, cols)
            dims.append(dim)
        assert tuple(dims) == degree_dims(p, max_degree).dims[i]


def check_against_reference(n, nf, rel, g_left, g, lower, cols):
    rows = list(rel._reduced_form().values())
    got = quadratic._quotient_step(nf, rows, g_left, g, lower)
    want = reference_quotient_step(nf, rows, g_left, g, lower)
    assert len(got) == len(want), n  # the rank
    got = finished_map(got, cols)
    assert got == finished_map(want, cols), n
    if n == 2:
        # degree_dims reads degree 2 off the block's reduced form
        assert got == _normal_form(rel._reduced_form(), cols)


def check_either_basis(n, nf, rel, g_left, g, lower, cols):
    given = quadratic._quotient_step(nf, [row for _, row in rel.int_rows], g_left, g, lower)
    reduced = quadratic._quotient_step(nf, rel._reduced_form().values(), g_left, g, lower)
    assert len(given) == len(reduced), n
    assert finished_map(given, cols) == finished_map(reduced, cols), n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(344)
@example(784)
@example(942)
def test_quotient_step_matches_reference(seed):
    p = random_presentation(random.Random(seed), max_gen=3)
    for q in (p, koszul_dual(p)):
        walk_recursion(q, 4, check_against_reference)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(344)
def test_quotient_step_reads_either_basis_of_a_block(seed):
    # the recursion reads each block's reduced form; its given rows span the
    # same space, so every rank and every finished map must be the same
    p = random_presentation(random.Random(seed), max_gen=3)
    for q in (p, koszul_dual(p)):
        walk_recursion(q, 4, check_either_basis)


def test_borrowed_rows_are_left_untouched():
    # _echelon copies each row it is lent before _insert reduces it in
    # place; these rows share lead columns and the first has content 2, so a
    # missing copy would divide and subtract inside the block itself. Each
    # block's reduced form is built once and read by the rank check, the
    # dual, the certificate and degree_dims, none of which may change it
    block = M([
        [2, 4, 0, 6, 0, 0, 2, 0, 0],
        [1, 0, 3, 0, 1, 0, 0, 0, 1],
        [0, 1, 1, 1, 0, 0, 0, 2, 0],
        [1, 1, 0, 0, 0, 1, 0, 0, 0],
    ])
    block_rows = copy.deepcopy(block.int_rows)
    p = QuadraticPresentation(1, (3,), (block,))
    draw = random_presentation(random.Random(7))
    for q in (p, koszul_dual(p), draw, koszul_dual(draw)):
        before = copy.deepcopy([rel.int_rows for rel in q.relations])
        forms = [rel._reduced_form() for rel in q.relations]
        forms_before = copy.deepcopy(forms)
        for rel in q.relations:
            rel.rank()
            rel.rref()
            matrix_kernel(rel)
        koszul_dual(q)
        assert double_dual_check(q)
        degree_dims(q, 4)
        koszulity_witness(q, 4)
        quadratic._ambient_degree_dims(q, 4)
        assert [rel.int_rows for rel in q.relations] == before
        assert [rel._reduced_form() for rel in q.relations] == forms_before
        assert all(rel._reduced_form() is f for rel, f in zip(q.relations, forms))
    assert block.int_rows == block_rows


def test_random_draw_with_fraction_growth():
    # draw 135 is the costliest of the first 150 draws of this stream; values
    # frozen from the Fraction kernel, and the ambient route agrees
    rng = random.Random(7)
    for _ in range(135):
        random_presentation(rng)
    p = random_presentation(rng)
    assert (p.period, p.gen_dims) == (3, (4, 4, 4))
    assert degree_dims(p, 4).dims == (
        (1, 4, 3, 0, 0), (1, 4, 11, 16, 0), (1, 4, 9, 0, 0)
    )
    assert degree_dims(koszul_dual(p), 4).dims == (
        (1, 4, 13, 8, 0), (1, 4, 5, 0, 0), (1, 4, 7, 16, 0)
    )


def test_degree_dims_constructs_no_fraction():
    # the quotient recursion, the double-dual check, the dual, the witness,
    # the JSON output and the koszul-dual writer run on int rows only,
    # whether the presentation came from a fixture, the sampler or a parsed
    # JSON document; 3.12 builds Fraction results through _from_coprime_ints,
    # earlier versions through __new__
    presentations = [koszul_dual(classical_euler_fixture(3)[0])]
    presentations += [classical_euler_fixture(n)[0] for n in (1, 2)]
    presentations += [random_presentation(random.Random(k)) for k in range(20)]
    presentations += [
        QuadraticPresentation.from_json_dict(p.to_json_dict())
        for p in presentations[:8]
    ]
    presentations.append(
        QuadraticPresentation.from_json_dict(pq_presentation().to_json_dict())
    )
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
        for p in presentations:
            degree_dims(p, 5)
            assert double_dual_check(p)
            # the witness runs degree_dims on p and on its dual to degree 4
            koszulity_witness(p, 4)
            p.to_json_dict()
            koszul_dual(p).to_json_dict()
            quadratic._json_text(koszul_dual(p))
    finally:
        sys.setprofile(previous)
    assert built == []


def test_fixture_dims_beyond_the_ambient_reach():
    # degree 7 on five generators: the ambient route would rank inside 5**7
    p, _ = classical_euler_fixture(4)
    poly = degree_dims(p, 7)
    ext = degree_dims(koszul_dual(p), 7)
    assert [poly.dim(0, n) for n in range(8)] == [comb(4 + n, n) for n in range(8)]
    assert [ext.dim(0, n) for n in range(8)] == [comb(5, n) for n in range(8)]


# ------------------------------------------------------------- count route


def table_by_recursion(p, max_degree):
    return tuple(
        tuple(quadratic._quotient_dims(p, i, max_degree)) for i in range(p.period)
    )


def table_by_count(p, max_degree):
    pairs = quadratic._normal_pairs(p)
    return tuple(
        tuple(quadratic._normal_word_counts(p, pairs, i, max_degree))
        for i in range(p.period)
    )


def certified(p):
    """Do the normal words of length 3 number dim A_3 at every start index."""
    return all(
        c[3] == r[3] for c, r in zip(table_by_count(p, 3), table_by_recursion(p, 3))
    )


def counting_steps(monkeypatch, name="_quotient_step"):
    """Wrap the quotient step, or another kernel function as quadratic calls
    it; the returned list gets one entry per call."""
    real, calls = getattr(quadratic, name), []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(quadratic, name, counted)
    return calls


def counting_work(monkeypatch):
    """Call lists of the quotient step, the maps it reads (_normal_form) and
    the back-substitutions that finish them, all as quadratic calls them."""
    names = ("_quotient_step", "_normal_form", "_back_substitute")
    return {name: counting_steps(monkeypatch, name) for name in names}


def anticommutator_rows(g):
    """x_a x_b + x_b x_a for a <= b: the exterior algebra on g letters."""
    rows = []
    for a in range(g):
        for b in range(a, g):
            row = [Fraction(0)] * (g * g)
            row[a * g + b] += 1
            row[b * g + a] += 1
            rows.append(row)
    return rows


def invertible_lower(rng, n):
    """A seeded lower-triangular p/q matrix with a nonzero diagonal."""
    def entry(r, c):
        if c > r:
            return Fraction(0)
        num = rng.choice((-3, -2, -1, 1, 2, 3)) if c == r else rng.randint(-3, 3)
        return Fraction(num, rng.randint(1, 3))

    return [[entry(r, c) for c in range(n)] for r in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def change_of_variables(rows, g, rng):
    """rows under x_a -> sum_c P[a][c] x_c, P = L U with seeded triangular
    p/q factors, then mixed by a third such matrix: the image relation space
    spanned by other rows, p/q throughout."""
    lower, upper = invertible_lower(rng, g), invertible_lower(rng, g)
    p = matmul(lower, [list(col) for col in zip(*upper)])
    kron = [[p[a][c] * p[b][e] for c in range(g) for e in range(g)]
            for a in range(g) for b in range(g)]
    return matmul(invertible_lower(rng, len(rows)), matmul(rows, kron))


def potential_presentation(w):
    """The period-3 presentation of a 3-tensor w on d letters: R_0, R_1 and
    R_2 contract w on its third, first and middle factor (R_2's rows in
    V_2 (x) V_0, ordered (c, a))."""
    d = len(w)
    r = range(d)
    blocks = (
        [[w[a][b][c] for a in r for b in r] for c in r],
        [[w[a][b][c] for b in r for c in r] for a in r],
        [[w[a][b][c] for c in r for a in r] for b in r],
    )
    return QuadraticPresentation(3, (d, d, d), tuple(M(rows) for rows in blocks))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_route_recursion_and_ambient_agree_on_the_fixtures(n):
    p, _ = classical_euler_fixture(n)
    top = 5 if n < 4 else 4
    for q in (p, koszul_dual(p)):
        assert certified(q)
        want = quadratic._ambient_degree_dims(q, top).dims
        assert table_by_count(q, top) == table_by_recursion(q, top) == want
        assert degree_dims(q, top).dims == want


@pytest.mark.parametrize("seed", range(4))
def test_count_route_on_commutators_and_anticommutators_in_new_variables(seed):
    rng = random.Random(seed)
    dens = set()
    for g in (2, 3, 4):
        for rows in (commutator_rows(g), anticommutator_rows(g)):
            p = QuadraticPresentation(1, (g,), (M(change_of_variables(rows, g, rng)),))
            dens.update(den for den, _ in p.relations[0].int_rows)
            for q in (p, koszul_dual(p)):
                assert certified(q)
                want = quadratic._ambient_degree_dims(q, 4).dims
                assert table_by_count(q, 4) == table_by_recursion(q, 4) == want
                assert degree_dims(q, 6).dims == table_by_recursion(q, 6)
    assert dens - {1}


def test_certified_input_stops_the_recursion_at_degree_3(monkeypatch):
    calls = counting_steps(monkeypatch)
    p, _ = classical_euler_fixture(4)
    assert degree_dims(p, 7).dims == ((1, 5, 15, 35, 70, 126, 210, 330),)
    # degree 2 is read off the block's echelon form; degree 3 is the one step
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 17])
def test_certificate_at_some_indices_only_keeps_the_recursion(seed):
    # draw 0 has period 2 and draw 17 period 3; at a start index whose
    # normal words of length 3 number dim A_3, the counts still part from
    # the dims further up, so every index must pass before any count is used
    p = random_presentation(random.Random(seed), max_gen=3)
    counts, dims = table_by_count(p, 5), table_by_recursion(p, 5)
    at_3 = [c[3] == d[3] for c, d in zip(counts, dims)]
    assert p.period == (2 if seed == 0 else 3)
    assert any(at_3) and not all(at_3)
    assert any(ok and c != d for ok, c, d in zip(at_3, counts, dims))
    assert degree_dims(p, 5).dims == dims == quadratic._ambient_degree_dims(p, 5).dims


def test_non_pbw_potential_keeps_the_recursion(monkeypatch):
    # a seeded cubic tensor on 3 letters: 12 normal words of length 3
    # against dim A_3 = 10, so every index runs the recursion to the end,
    # each step (degrees 3, 4 and 5) once
    p = seeded_potential(3)
    assert [c[3] for c in table_by_count(p, 3)] == [12, 12, 12]
    calls = counting_steps(monkeypatch)
    assert degree_dims(p, 5).dims == ((1, 3, 6, 10, 15, 21),) * 3
    assert len(calls) == 3 * 3
    assert degree_dims(p, 4).dims == quadratic._ambient_degree_dims(p, 4).dims


def seeded_potential(seed):
    """The potential presentation of a seeded 3-tensor on 3 letters, entries
    -3..3."""
    rng = random.Random(seed)
    w = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    return potential_presentation(w)


def pbw_presentations():
    """The fixtures n = 1..4 and their duals, each with its top degree (5
    for n = 4, 7 for the rest), then commutator and anticommutator rows in
    new p/q variables: every one passes the degree-3 certificate."""
    for n in (1, 2, 3, 4):
        p, _ = classical_euler_fixture(n)
        for q in (p, koszul_dual(p)):
            yield q, 5 if n == 4 else 7
    rng = random.Random(0)
    for g in (2, 3, 4):
        for rows in (commutator_rows(g), anticommutator_rows(g)):
            yield QuadraticPresentation(1, (g,), (M(change_of_variables(rows, g, rng)),)), 7


def test_pbw_presentations_build_one_map_and_finish_none(monkeypatch):
    # degree 3 is the one step per start index, read from degree 2's map,
    # which is the block's reduced form as it is; the certificate holds, so
    # the degree-3 map is never built
    work = counting_work(monkeypatch)
    for p, top in pbw_presentations():
        assert certified(p)
        for calls in work.values():
            calls.clear()
        table = degree_dims(p, top)
        assert table.dims == table_by_count(p, top)
        assert len(work["_quotient_step"]) == p.period
        assert len(work["_normal_form"]) == p.period
        assert work["_back_substitute"] == []


def test_non_pbw_presentations_build_each_map_once(monkeypatch):
    # draw 135 of this stream (period 3, non-PBW) and the seed-3 potential:
    # a step and a map per start index and degree 3..max_degree, and the
    # forward pivots of every degree below max_degree finished exactly once
    rng = random.Random(7)
    for _ in range(135):
        random_presentation(rng)
    work = counting_work(monkeypatch)
    for p, top in ((random_presentation(rng), 4), (seeded_potential(3), 5)):
        assert not certified(p)
        for calls in work.values():
            calls.clear()
        degree_dims(p, top)
        assert len(work["_quotient_step"]) == p.period * (top - 2)
        assert len(work["_normal_form"]) == p.period * (top - 2)
        assert len(work["_back_substitute"]) == p.period * (top - 3)


def test_partial_reads_resume_without_redoing_a_step(monkeypatch):
    p = seeded_potential(3)
    whole = table_by_recursion(p, 6)
    work = counting_work(monkeypatch)
    for i in range(p.period):
        dims = quadratic._quotient_dims(p, i, 6)
        low = tuple(itertools.islice(dims, 4))
        # dim A_3 is read, and A_3's map is not built until degree 4 is
        assert (len(work["_quotient_step"]), len(work["_normal_form"])) == (i * 4 + 1,) * 2
        assert len(work["_back_substitute"]) == i * 3
        assert low + tuple(dims) == whole[i]
    assert len(work["_quotient_step"]) == len(work["_normal_form"]) == p.period * 4
    assert len(work["_back_substitute"]) == p.period * 3


def test_cap_message_names_the_first_cell_over_it(monkeypatch):
    monkeypatch.delenv("HELIXKIT_DIM_CAP", raising=False)
    with pytest.raises(DimensionCapExceeded) as info:
        degree_dims(classical_euler_fixture(4)[0], 9)
    assert str(info.value) == (
        "tensor dimension 1953125 at index 0, degree 9 exceeds cap 1000000"
    )


def test_cap_is_checked_for_every_cell_before_any_step(monkeypatch):
    # only start index 2 crosses the cap (4 * 1 * 1 * 4 at degree 4)
    calls = counting_steps(monkeypatch)
    monkeypatch.setenv("HELIXKIT_DIM_CAP", "15")
    p = QuadraticPresentation(
        3, (1, 1, 4), (M([], cols=1), M([], cols=4), M([], cols=4))
    )
    with pytest.raises(DimensionCapExceeded) as info:
        degree_dims(p, 4)
    assert str(info.value) == "tensor dimension 16 at index 2, degree 4 exceeds cap 15"
    assert calls == []


def test_dim_accessor_rejects_out_of_range_degrees():
    dims = degree_dims(sym_presentation(2), 3)
    with pytest.raises(ValueError):
        dims.dim(0, 4)
    with pytest.raises(ValueError):
        dims.dim(0, -1)


def test_dimtable_csv():
    dims = degree_dims(sym_presentation(2), 2)
    assert dims.to_csv() == (
        "index,degree,dim\n0,0,1\n0,1,2\n0,2,3\n"
    )


# ----------------------------------------------------------------- witness


def test_witness_symmetric_three_variables():
    rep = koszulity_witness(sym_presentation(3), 4)
    assert rep.passed
    e = next(x for x in rep.entries if x.j == 0 and x.q == 2)
    assert e.value == 0 and e.ok


def test_witness_diagonal_is_one():
    rep = koszulity_witness(sym_presentation(2), 3)
    e = next(x for x in rep.entries if x.j == 0 and x.q == 0)
    assert e.value == 1 and e.ok


def test_witness_equigen_model_d5():
    rep = koszulity_witness(EquigenModel(5), 6)
    assert rep.passed
    e = next(x for x in rep.entries if x.j == 0 and x.q == 3)
    assert e.value == 0


def test_witness_holds_for_the_dual_too():
    assert koszulity_witness(koszul_dual(sym_presentation(3)), 4).passed
    assert koszulity_witness(koszul_dual(sym_presentation(2)), 4).passed


def test_witness_flags_perturbed_dimension_data(monkeypatch):
    real = quadratic.hilbert_A

    def bumped(model, n):
        s = real(model, n)
        cs = list(s.coeffs)
        cs[3] += 1
        return TruncatedSeries(cs)

    monkeypatch.setattr(quadratic, "hilbert_A", bumped)
    rep = koszulity_witness(EquigenModel(5), 6)
    assert not rep.passed
    assert any(e.j == 0 and e.q == 3 and not e.ok for e in rep.entries)


def test_witness_on_periodic_mixed_reports_honestly():
    # arbitrary presentations may fail; the report just says where
    rep = koszulity_witness(periodic_mixed(), 4)
    assert all(e.ok == (e.value == (1 if e.j == e.q else 0)) for e in rep.entries)


def reference_witness(p, bound):
    """The alternating sum written out, entry by entry: for each start j and
    length n <= bound, sum_l (-1)^l dim A^!_{j,j+l} dim A_{j+l,j+n}. A
    presentation reads both degree_dims tables; the model reads hilbert_A's
    coefficients for A and 1, d, d, 1, 0, ... for its dual, at period 3."""
    if isinstance(p, EquigenModel):
        coeffs = hilbert_A(p, max(3, bound)).coeffs
        assert all(type(c) is int for c in coeffs)
        period, a = 3, list(coeffs)
        dual_profile = [1, p.d, p.d, 1] + [0] * max(0, bound - 3)
        prim = [a, a, a]
        dual = [dual_profile, dual_profile, dual_profile]
    else:
        period = p.period
        prim = degree_dims(p, bound).dims
        dual = degree_dims(koszul_dual(p), bound).dims
    entries = []
    for j in range(period):
        for n in range(bound + 1):
            total = 0
            for l in range(n + 1):
                sign = 1 if l % 2 == 0 else -1
                total += sign * dual[j][l] * prim[(j + l) % period][n - l]
            delta = 1 if n == 0 else 0
            entries.append((j, j + n, total, total == delta))
    return tuple(entries)


def witness_parity_inputs():
    for d in range(3, 14):
        for bound in range(-1, 10):
            yield f"model-d{d}", EquigenModel(d), bound
    for n in range(1, 5):
        pres, _ = classical_euler_fixture(n)
        for label, q in ((f"fixture-{n}", pres), (f"fixture-{n}-dual", koszul_dual(pres))):
            for bound in range(6):
                yield label, q, bound
    # periodic_mixed passes at every bound; two relations on two letters
    # fail from q = 4 on, so failing entries are pinned too
    two_relations = QuadraticPresentation(1, (2,), (M([[0, 0, 0, -1], [1, 0, 2, 0]]),))
    for bound in range(6):
        yield "periodic-mixed", periodic_mixed(), bound
        yield "two-relations", two_relations, bound


def test_witness_matches_the_written_out_alternating_sum():
    # models at bounds below 3 take the max(3, bound) table
    checked = failing = 0
    for label, p, bound in witness_parity_inputs():
        got = koszulity_witness(p, bound).entries
        assert got == reference_witness(p, bound), (label, bound)
        assert all(type(e.value) is int for e in got), (label, bound)
        checked += 1
        failing += not all(e.ok for e in got)
    assert checked == 11 * 11 + 8 * 6 + 2 * 6
    assert failing == 2


# ------------------------------------------------------------------ series


H_A_5 = [1, 5, 20, 76, 285, 1065, 3976, 14840, 55385, 206701, 771420]
H_B_5 = [1, 5, 20, 75, 280, 1045, 3900, 14555, 54320, 202725, 756580]
H_B_3 = [1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30]


def series_pair(d, order):
    a = hilbert_A(EquigenModel(d), order)
    return a, hilbert_B(a)


def test_hilbert_frozen_tables():
    assert list(hilbert_A(EquigenModel(5), 10).coeffs) == H_A_5
    assert list(series_pair(5, 10)[1].coeffs) == H_B_5
    assert list(series_pair(3, 10)[1].coeffs) == H_B_3


def test_hilbert_requires_order_three():
    with pytest.raises(ValueError):
        hilbert_A(EquigenModel(5), 2)


def test_hilbert_denominator_identity():
    for d in (3, 5, 7, 9, 11, 13):
        h = hilbert_A(EquigenModel(d), 24)
        poly = TruncatedSeries([1, -d, d, -1]).with_order(24)
        assert poly * h == TruncatedSeries([1]).with_order(24)


@pytest.mark.parametrize("d", [*range(3, 42), 2**64 + 1, 10**6 + 1])
def test_hilbert_A_matches_its_three_term_recursion(d):
    # the recursion is the reference for A's series inverse and for B's
    # product b_n = a_n - a_(n-3)
    a, b = three_term_series(d, 512)
    for order in (3, 6, 7, 64, 210, 512):
        got = hilbert_A(EquigenModel(d), order)
        assert got.coeffs == tuple(a[: order + 1]), order
        got = hilbert_B(got)
        assert got.coeffs == tuple(b[: order + 1]), order


def test_hilbert_linear_recursion():
    for d in (3, 5, 7, 11):
        a = hilbert_A(EquigenModel(d), 12).coeffs
        for i in range(1, 10):
            assert a[i + 3] == d * a[i + 2] - d * a[i + 1] + a[i]
        b = series_pair(d, 6)[1].coeffs
        assert a[3] == d * a[2] - d * a[1] + a[0]
        assert b[3] == d * b[2] - d * b[1] + b[0] - 1


def test_hilbert_B_matches_table_degrees():
    for d in (5, 7):
        b = series_pair(d, 8)[1].coeffs
        table = invariants_from_seed(Seed(0, Fraction(d, 2), d), 8)
        origin = ChernVector(1, 0)
        for i in range(1, 9):
            row = table.rows[i]
            assert b[i] == euler_pairing(origin, ChernVector(row.r, row.d))


def test_cross_check_hilbert():
    assert cross_check_hilbert(EquigenModel(5), series_pair(5, 10)[1]) == (True, None)
    assert cross_check_hilbert(EquigenModel(7), series_pair(7, 10)[1]) == (True, None)
    assert cross_check_hilbert(EquigenModel(3), series_pair(3, 10)[1]) == (True, None)
    with pytest.raises(UnsupportedD):
        cross_check_hilbert(EquigenModel(4), series_pair(4, 10)[1])
    with pytest.raises(UnsupportedD):
        cross_check_hilbert(EquigenModel(6), series_pair(6, 10)[1])


def test_normal_quotient_check():
    assert normal_quotient_check(*series_pair(5, 30))
    assert normal_quotient_check(*series_pair(7, 30))
    with pytest.raises(ValueError):
        normal_quotient_check(*series_pair(5, 5))


@pytest.mark.parametrize("d", [3, 5, 40])
def test_normal_quotient_check_fails_on_a_B_off_in_its_last_coefficient(d):
    # equal series are compared by their coefficients; one that differs only
    # at index 512 must still fail, whichever way the B coefficient moves
    a, b = series_pair(d, 512)
    assert normal_quotient_check(a, b)
    for delta in (1, -1):
        off = TruncatedSeries._of((*b.coeffs[:-1], b.coeffs[-1] + delta))
        assert not normal_quotient_check(a, off)
        assert not normal_quotient_check(off, b)


def test_cross_check_hilbert_order_0_compares_coefficient_0():
    b = series_pair(5, 6)[1]
    assert cross_check_hilbert(EquigenModel(5), b.with_order(0)) == (True, None)
    assert cross_check_hilbert(EquigenModel(5), TruncatedSeries([2])) == (False, 0)


def _one_off_Bs(b):
    """(index, series) for the series b moved by +-1 at index 0, 1, 3 and
    the last."""
    for i, delta in itertools.product((0, 1, 3, b.order), (1, -1)):
        cs = list(b.coeffs)
        cs[i] += delta
        yield i, TruncatedSeries._of(cs)


@pytest.mark.parametrize("d", [3, 5, 41, 2**64 + 1])
@pytest.mark.parametrize("order", [6, 7, 64, 512])
def test_cross_check_and_normal_quotient_fail_on_a_B_one_off(d, order):
    # the cross-check compares B with the seed recursion's d column and
    # must name the first bad index, and the normal quotient must fail on
    # each of these B
    a, b = series_pair(d, order)
    model = EquigenModel(d)
    assert cross_check_hilbert(model, b) == (True, None)
    assert normal_quotient_check(a, b)
    for i, off in _one_off_Bs(b):
        assert cross_check_hilbert(model, off) == (False, i), i
        assert not normal_quotient_check(a, off), i


def test_normal_quotient_compares_to_the_lower_order():
    a, b = series_pair(5, 12)
    assert normal_quotient_check(a, b.with_order(8))
    assert normal_quotient_check(a.with_order(8), b)
    with pytest.raises(ValueError):
        normal_quotient_check(a, b.with_order(5))
    # a coefficient bumped below the lower order still fails, either way round
    bumped_b = list(b.with_order(8).coeffs)
    bumped_b[7] += 1
    assert not normal_quotient_check(a, TruncatedSeries(bumped_b))
    bumped_a = list(a.with_order(8).coeffs)
    bumped_a[7] += 1
    assert not normal_quotient_check(TruncatedSeries(bumped_a), b)


def test_normal_quotient_detects_perturbation():
    a, b = series_pair(5, 12)
    cs = list(b.coeffs)
    cs[3] += 1
    assert not normal_quotient_check(a, TruncatedSeries(cs))


def test_equigen_model_rejects_small_d():
    with pytest.raises(UnsupportedD):
        EquigenModel(2)


# --------------------------------------------------------- classical fixture


def test_classical_fixture_dual_dims():
    for n in (1, 2, 3):
        p, expected = classical_euler_fixture(n)
        assert expected == tuple(
            _binom(n + 1, l) for l in range(n + 2)
        ) + (0,)
        dims = degree_dims(koszul_dual(p), n + 2)
        assert tuple(dims.dim(0, k) for k in range(n + 3)) == expected


def test_classical_fixture_bounds():
    with pytest.raises(ValueError):
        classical_euler_fixture(0)
    with pytest.raises(ValueError):
        classical_euler_fixture(5)


def test_classical_fixture_witness():
    p, _ = classical_euler_fixture(2)
    assert koszulity_witness(p, 4).passed


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_route_sweeps_script_loads():
    # CI runs tests/route_sweeps.py, which imports private names of quadratic;
    # loading it here, without its __main__ block, fails tier-1 on a rename
    path = Path(__file__).with_name("route_sweeps.py")
    spec = importlib.util.spec_from_file_location("route_sweeps", path)
    sweeps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweeps)
    for name in ("quotient_against_ambient", "composed", "double_dual_against_composed"):
        assert callable(getattr(sweeps, name)), name
    assert sweeps.composed(classical_euler_fixture(2)[0])
