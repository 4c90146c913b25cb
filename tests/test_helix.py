"""Seed-driven invariant tables, positivity verdicts, minor periodicity,
closed forms, limit slopes, and the two-sided extension."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helixkit.bundles import ChernVector, Triad, hom_dims, mutate_triad_right
from helixkit.errors import (
    InvalidSeed,
    NotEquigeneratedSeed,
    TableTooShort,
    UnsupportedD,
)
from helixkit.exact import SurdValue
from helixkit.helix import (
    HelixTable,
    Row,
    Seed,
    check_positivity,
    closed_form,
    extend_two_sided,
    invariants_from_seed,
    limit_slopes,
    slope_text,
    verify_periodicity,
    verify_ratio_bound,
    _row_minors,
    _row_texts,
)

F = Fraction


def seed_0_half_d(d):
    return Seed(0, F(d, 2), d)


# frozen: hand-run recursion, n <= 4, for the (0, 5/2, 5) seed
ROWS_5 = [
    (0, 0, 1, None, None),
    (1, 5, 1, 5, 2),
    (2, 20, 3, 25, 4),
    (3, 75, 11, 95, 14),
    (4, 280, 41, 355, 52),
]

# frozen: one-off recursion oracle for the (0, 7/2, 7) seed
ROWS_7 = [
    (0, 0, 1, None, None),
    (1, 7, 1, 7, 2),
    (2, 42, 5, 49, 6),
    (3, 245, 29, 287, 34),
    (4, 1428, 169, 1673, 198),
]


def as_tuples(table):
    return [(r.n, r.d, r.r, r.dp, r.rp) for r in table.rows]


def test_table_d5():
    t = invariants_from_seed(seed_0_half_d(5), 4)
    assert as_tuples(t) == ROWS_5
    assert t.d_param == 5
    assert t.degenerate_at is None


def test_table_d7():
    t = invariants_from_seed(seed_0_half_d(7), 4)
    assert as_tuples(t) == ROWS_7


def test_table_d3_line_bundle_family():
    t = invariants_from_seed(seed_0_half_d(3), 6)
    for r in t.rows:
        assert r.r == 1 and r.d == 3 * r.n
        if r.n >= 1:
            assert r.rp == 2 and r.dp == 6 * r.n - 3
    assert t.d_param == 3


def test_table_degenerates():
    t = invariants_from_seed(Seed(0, F(1, 2), 1), 10)
    assert t.degenerate_at == 2
    last = t.rows[-1]
    assert (last.n, last.d, last.r) == (2, 0, -1)


def four_product_table(seed, n_max):
    """The recursion computing both minors of each step from the rows, four
    products of table-size integers per row: (rows, degenerate_at)."""
    (d0, r0), (d1p, r1p), (d1, r1) = seed.pairs()
    rows = [(0, d0, r0, None, None), (1, d1, r1, d1p, r1p)]
    for i in range(2, n_max + 1):
        (_, pd, pr, pdp, prp), (_, qd, qr, _, _) = rows[i - 1], rows[i - 2]
        minor = pd * qr - qd * pr
        mixed = pd * prp - pdp * pr
        d, r = mixed * pd - pdp, mixed * pr - prp
        rows.append((i, d, r, minor * pd - qd, minor * pr - qr))
        if r <= 0 or rows[-1][4] <= 0:
            return rows, i
    return rows, None


@st.composite
def seeds(draw):
    """Strictly increasing slope triples, numerators up to 2^64; most of
    them degenerate within a few rows."""
    bound = draw(st.sampled_from([9, 2**64]))
    mu = st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 12))
    return Seed(*sorted(draw(st.lists(mu, min_size=3, max_size=3, unique=True))))


@settings(max_examples=300, deadline=None)
@given(seeds(), st.integers(1, 60))
@example(Seed(0, F(1, 2), 1), 10)
@example(Seed(F(-7), F(-9, 2), F(-2)), 60)
@example(seed_0_half_d(5), 60)
@example(seed_0_half_d(5), 2000)
def test_carried_minor_matches_four_product_recursion(seed, n_max):
    t = invariants_from_seed(seed, n_max)
    rows, degenerate_at = four_product_table(seed, n_max)
    assert as_tuples(t) == rows
    assert t.degenerate_at == degenerate_at


def test_seed_must_increase():
    with pytest.raises(InvalidSeed):
        Seed(0, F(5, 2), F(5, 2))
    with pytest.raises(InvalidSeed):
        Seed(1, 0, 5)


@pytest.mark.parametrize(
    "slopes",
    [(0, 0.1, 1), (0, F(1, 2), 1.0), (False, F(1, 2), 1), (0, True, 2)],
    ids=["float-mu1p", "float-mu1", "bool-mu0", "bool-mu1p"],
)
def test_seed_refuses_floats_and_bools(slopes):
    with pytest.raises(TypeError):
        Seed(*slopes)


def test_horizon_must_be_positive():
    with pytest.raises(ValueError):
        invariants_from_seed(seed_0_half_d(5), 0)


def test_rows_match_iterated_triad_mutation():
    # one target, two code paths: table recursion vs triad mutation chain
    t = invariants_from_seed(seed_0_half_d(5), 10)
    tri = t.seed_triad()
    assert (tri.a, tri.b, tri.c) == (
        ChernVector(1, 0), ChernVector(2, 5), ChernVector(1, 5)
    )
    for i in range(1, 10):
        tri = mutate_triad_right(tri)
        ri, rn = t.rows[i], t.rows[i + 1]
        assert tri.a == ChernVector(ri.r, ri.d)
        assert tri.b == ChernVector(rn.rp, rn.dp)
        assert tri.c == ChernVector(rn.r, rn.d)


def test_constant_hom_dims_along_the_chain():
    for d in (5, 7, 9):
        t = invariants_from_seed(seed_0_half_d(d), 8)
        tri = t.seed_triad()
        for _ in range(8):
            assert hom_dims(tri) == (d, d, d)
            tri = mutate_triad_right(tri)


# ---------------------------------------------------------------- positivity


def test_positivity_certified():
    for d in (5, 7, 9, 11, 13):
        rep = check_positivity(invariants_from_seed(seed_0_half_d(d), 50))
        assert rep.kind == "Certified"
        assert str(rep) == "Certified"


def test_positivity_horizon_only_at_d3():
    rep = check_positivity(invariants_from_seed(seed_0_half_d(3), 50))
    assert rep.kind == "VerifiedToHorizon" and rep.horizon == 50
    assert str(rep) == "VerifiedToHorizon(50)"


def test_positivity_failure():
    rep = check_positivity(invariants_from_seed(Seed(0, F(1, 2), 1), 50))
    assert rep.kind == "FailsAt"
    assert (rep.fail_index, rep.fail_component) == (2, "r")
    assert str(rep) == "FailsAt(2, r)"


def test_positivity_random_nondegenerate_is_horizon_verdict():
    rep = check_positivity(invariants_from_seed(Seed(F(-1, 2), F(1, 3), F(7, 2)), 20))
    assert rep.kind in ("VerifiedToHorizon", "FailsAt")


# ---------------------------------------------------------------- periodicity


def test_periodicity_on_equigenerated_tables():
    for d in (3, 5, 7, 9, 11, 13):
        ok, detail = verify_periodicity(invariants_from_seed(seed_0_half_d(d), 30))
        assert ok, detail


def test_periodicity_explicit_minors():
    t = invariants_from_seed(seed_0_half_d(5), 4)
    r = t.rows
    assert r[3].d * r[3].rp - r[3].dp * r[3].r == 5
    assert r[2].d * r[1].r - r[1].d * r[2].r == 5


def test_periodicity_short_table_rejected():
    with pytest.raises(TableTooShort):
        verify_periodicity(invariants_from_seed(seed_0_half_d(5), 3))


def _tampered(index, **change):
    t = invariants_from_seed(seed_0_half_d(5), 6)
    rows = list(t.rows)
    rows[index] = rows[index]._replace(
        **{k: getattr(rows[index], k) + v for k, v in change.items()})
    return HelixTable(seed=t.seed, d_param=t.d_param, rows=tuple(rows),
                      degenerate_at=None, minors=t.minors)


def test_periodicity_detects_tampering():
    # frozen: the reports of the eight-determinant check, first family
    ok, detail = verify_periodicity(_tampered(5, d=1))
    assert (ok, detail) == (False, "consecutive-vs-mixed minor identity fails at n=4")


@pytest.mark.parametrize("index, change, n", [
    (-1, {"rp": 1}, 5),  # rp enters no consecutive minor, only the mixed ones
    (0, {"d": 1}, 2),  # row 0 enters only the first consecutive minor
])
def test_periodicity_reports_mixed_minor_recursion(index, change, n):
    # frozen: the reports of the eight-determinant check
    ok, detail = verify_periodicity(_tampered(index, **change))
    assert (ok, detail) == (False, f"mixed-minor recursion identity fails at n={n}")


def _carried_table(seed, n_max, offset_at):
    """The period-3 carried recursion with minors[offset_at] off by one and
    carried on as such."""
    (d0, r0), (d1p, r1p), (d1, r1) = seed.pairs()
    rows = [Row(0, d0, r0, None, None), Row(1, d1, r1, d1p, r1p)]
    minors = [0, d1 * r0 - d0 * r1]
    for i in range(2, n_max + 1):
        prev, prev2, minor = rows[i - 1], rows[i - 2], minors[i - 1]
        if i < 4:
            mixed = prev.d * prev.rp - prev.dp * prev.r
        else:
            mixed = minors[i - 3] + (1 if i == offset_at else 0)
        rows.append(Row(i, mixed * prev.d - prev.dp, mixed * prev.r - prev.rp,
                        minor * prev.d - prev2.d, minor * prev.r - prev2.r))
        minors.append(mixed)
    return HelixTable(seed, seed.d_param, tuple(rows), None, tuple(minors))


@pytest.mark.parametrize("d", [5, 7])
@pytest.mark.parametrize("offset_at, n", [(4, 3), (7, 6), (10, 9), (30, 29)])
def test_periodicity_reports_a_wrong_carried_minor(d, offset_at, n):
    # rows built from any carried minors pass the consecutive-vs-mixed
    # family by construction; the recomputed mixed minor of row offset_at
    # is the first to disagree
    seed = seed_0_half_d(d)
    assert _carried_table(seed, 30, None) == invariants_from_seed(seed, 30)
    ok, detail = verify_periodicity(_carried_table(seed, 30, offset_at))
    assert (ok, detail) == (False, f"mixed-minor recursion identity fails at n={n}")


def test_periodicity_on_random_nondegenerate_seeds():
    rng = random.Random(11)
    found = 0
    while found < 30:
        nums = sorted(rng.sample(range(-9, 10), 3))
        dens = [rng.randrange(1, 5) for _ in range(3)]
        mus = sorted(Fraction(n, q) for n, q in zip(nums, dens))
        if len(set(mus)) < 3:
            continue
        t = invariants_from_seed(Seed(*mus), 12)
        if t.degenerate_at is not None or len(t.rows) < 5:
            continue
        ok, detail = verify_periodicity(t)
        assert ok, (mus, detail)
        found += 1


def four_product_minors(table):
    """(consec, mixed) from two determinants of table-size integers per row."""
    rows = table.rows
    consec = [b.d * a.r - a.d * b.r for a, b in zip(rows, rows[1:])]
    return consec, [None] + [x.d * x.rp - x.dp * x.r for x in rows[1:]]


def four_product_periodicity(table):
    """The reference for verify_periodicity: its three families compared on
    four_product_minors, with the same messages."""
    rows = table.rows
    if len(rows) < 5:
        raise TableTooShort("periodicity checks need at least rows 0..4")
    top = len(rows) - 1
    consec, mixed = four_product_minors(table)
    for n in range(1, top):
        if consec[n] != mixed[n]:
            return False, f"consecutive-vs-mixed minor identity fails at n={n}"
    for n in range(2, top):
        if mixed[n + 1] != consec[n - 2]:
            return False, f"mixed-minor recursion identity fails at n={n}"
    for n in range(3, top):
        if consec[n] != consec[n - 3]:
            return False, f"period-3 identity (consecutive minors) fails at n={n}"
        if mixed[n + 1] != mixed[n - 2]:
            return False, f"period-3 identity (mixed minors) fails at n={n}"
    return True, None


HUGE_D = 10**100


@st.composite
def periodicity_tables(draw):
    """Tables from random seeds (degenerate ones too), from the (0, d/2, d)
    family and at d = 10**100, then with up to three entries off by +-1,
    +-10**9 or a random 30-digit value, and their carried minors off by one,
    partly replaced by small garbage, or truncated."""
    kind = draw(st.sampled_from(["random", "family", "huge"]))
    if kind == "random":
        seed = draw(seeds())
    elif kind == "family":
        seed = seed_0_half_d(2 * draw(st.integers(1, 20)) + 1)
    else:
        seed = Seed(0, F(HUGE_D, 2), HUGE_D)
    t = invariants_from_seed(seed, draw(st.integers(1, 60)))
    rows, minors = list(t.rows), list(t.minors)
    digits30 = st.integers(10**29, 10**30 - 1)
    delta = st.sampled_from([1, -1, 10**9, -(10**9)]) | digits30 | digits30.map(
        lambda x: -x)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        field = draw(st.sampled_from(["d", "r"] if i == 0 else ["d", "r", "dp", "rp"]))
        rows[i] = rows[i]._replace(**{field: getattr(rows[i], field) + draw(delta)})
    change = draw(st.sampled_from(["none", "off by one", "garbage", "truncated"]))
    if change == "off by one":
        k = draw(st.integers(0, len(minors) - 1))
        minors[k] += draw(st.sampled_from([1, -1]))
    elif change == "garbage":
        for k in draw(st.lists(st.integers(0, len(minors) - 1), min_size=1)):
            minors[k] = draw(st.integers(-3, 3))
    elif change == "truncated":
        minors = minors[: draw(st.integers(0, len(minors)))]
    return HelixTable(t.seed, t.d_param, tuple(rows), t.degenerate_at, tuple(minors))


def outcome(check, table):
    try:
        return check(table)
    except TableTooShort as exc:
        return "TableTooShort", str(exc)


@settings(max_examples=400, deadline=None)
@given(periodicity_tables())
@example(_carried_table(seed_0_half_d(5), 30, 10))
@example(_tampered(5, d=1))
def test_residual_minors_are_the_four_product_minors(table):
    # the carried minors are only multipliers: whatever they hold, the
    # minors are the rows' own, so every verdict and message is the same
    assert outcome(verify_periodicity, table) == outcome(four_product_periodicity, table)
    if len(table.rows) >= 3:
        assert _row_minors(table) == four_product_minors(table)


@pytest.mark.parametrize("index", [1, 2, 3, 6])
@pytest.mark.parametrize("field", ["dp", "rp"])
def test_periodicity_of_a_row_without_its_primed_pair_raises_type_error(index, field):
    # as the four-product check did: a None past row 0 enters an integer sum
    t = _tampered(0)
    rows = list(t.rows)
    rows[index] = rows[index]._replace(**{field: None})
    t = HelixTable(t.seed, t.d_param, tuple(rows), None, t.minors)
    for check in (verify_periodicity, four_product_periodicity):
        with pytest.raises(TypeError):
            check(t)


def test_periodicity_forms_no_product_of_two_table_size_integers():
    # the (-4, 1, 4) table carries three distinct minors 8, 3, 5 and grows
    # past 450 bits by row 300; its residuals are zero, so every product has
    # a seed-size factor. Multipliers read at the wrong index keep the minors
    # exact but make the residuals, and so their determinants, table-size
    products = []

    class Tracked(int):
        """Records the bit lengths of both factors of each product it enters;
        sums and products of it are plain ints."""

        def __mul__(self, other):
            products.append((self.bit_length(), int(other).bit_length()))
            return int(self) * other

        __rmul__ = __mul__

    t = invariants_from_seed(Seed(-4, 1, 4), 300)
    assert t.degenerate_at is None and len(set(t.minors[1:4])) == 3
    rows = tuple(Row(r.n, *(None if x is None else Tracked(x) for x in r[1:]))
                 for r in t.rows)
    assert verify_periodicity(HelixTable(t.seed, None, rows, None, t.minors)) == (True, None)
    assert max(max(pair) for pair in products) > 450
    assert max(min(pair) for pair in products) <= 8


@pytest.mark.parametrize("keep", [4, 0])
def test_row_texts_refuses_fewer_minors_than_rows(keep):
    t = invariants_from_seed(seed_0_half_d(5), 6)
    short = HelixTable(t.seed, t.d_param, t.rows, None, t.minors[:keep])
    message = f"table of 7 rows carries only {keep} minors"
    with pytest.raises(ValueError, match=message):
        _row_texts(short)
    with pytest.raises(ValueError, match=message):
        short.to_csv()


# ---------------------------------------------------------------- closed form


def test_closed_form_examples():
    assert closed_form(5, 0) == [(1, 0)]
    assert closed_form(5, 3) == [(1, 0), (1, 5), (3, 20), (11, 75)]


def surd_closed_form(d, n_max):
    """closed_form as it was evaluated in Q(sqrt m) with SurdValue Fractions:
    the powers of x/2 and y/2 carried row to row, one surd product each."""
    m = (d - 3) * (d + 1)
    half_x = SurdValue(F(d - 1, 2), F(-1, 2), m)
    half_y = SurdValue(F(d - 1, 2), F(1, 2), m)
    w = SurdValue(0, F(d - 3, m), m)
    up, down = (1 + w) / 2, (1 - w) / 2
    s = SurdValue(0, F(d, m), m)  # d/sqrt(m)
    xn = yn = SurdValue(1, 0, m)
    rows = []
    for n in range(n_max + 1):
        if n:
            xn, yn = xn * half_x, yn * half_y
        r, deg = xn * up + yn * down, (yn - xn) * s
        for v in (r, deg):
            assert v.is_rational and v.a.denominator == 1, (n, v)
        rows.append((int(r.a), int(deg.a)))
    return rows


def test_closed_form_matches_recursion():
    for d, n_max in [(d, 200) for d in range(5, 42, 2)] + [(10**6 + 1, 60)]:
        rows = invariants_from_seed(seed_0_half_d(d), n_max).rows
        recursion = [(row.r, row.d) for row in rows]
        assert closed_form(d, n_max) == surd_closed_form(d, n_max) == recursion


def test_closed_form_domain():
    with pytest.raises(UnsupportedD):
        closed_form(3, 2)
    with pytest.raises(UnsupportedD):
        closed_form(6, 2)
    with pytest.raises(ValueError):
        closed_form(5, -1)


# ---------------------------------------------------------------- limits


def test_limits_d5():
    rep = limit_slopes(5)
    assert rep.right_limit == SurdValue(F(5, 2), F(5, 4), 12)
    assert rep.left_limit == SurdValue(F(5, 2), F(-5, 4), 12)
    assert rep.right_limit == SurdValue(10, 0, 12) / SurdValue(-2, 1, 12)
    assert rep.decimal_right == "6.8301270"
    assert rep.decimal_left == "-1.8301270"
    assert rep.irrational
    assert rep.left_limit < 0 < rep.right_limit


def test_limits_d7():
    rep = limit_slopes(7)
    assert rep.right_limit == SurdValue(F(7, 2), F(7, 8), 32)
    assert rep.decimal_right == "8.4497475"
    assert rep.decimal_left == "-1.4497475"
    assert rep.irrational


def test_limits_sum_to_d():
    for d in (5, 7, 9, 11, 13):
        rep = limit_slopes(d)
        assert rep.right_limit + rep.left_limit == SurdValue(d, 0, (d - 3) * (d + 1))


def test_limits_domain():
    for bad in (3, 4, 6, 1):
        with pytest.raises(UnsupportedD):
            limit_slopes(bad)


def test_slopes_increase_toward_right_limit():
    for d in (5, 7, 9):
        t = invariants_from_seed(seed_0_half_d(d), 40)
        limit = limit_slopes(d).right_limit
        prev_gap = None
        prev_slope = None
        for row in t.rows[1:]:
            mu = F(row.d, row.r)
            if prev_slope is not None:
                assert prev_slope < mu
            gap = limit - mu
            assert gap > 0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_slope, prev_gap = mu, gap


# ---------------------------------------------------------------- ratio bound


def test_ratio_bound_holds():
    for d in (5, 7, 9, 11, 13):
        assert verify_ratio_bound(invariants_from_seed(seed_0_half_d(d), 40))


def test_ratio_bound_rejects_d3():
    with pytest.raises(NotEquigeneratedSeed):
        verify_ratio_bound(invariants_from_seed(seed_0_half_d(3), 10))


def test_ratio_bound_rejects_general_seeds():
    t = invariants_from_seed(Seed(F(-1, 2), F(1, 3), F(7, 2)), 10)
    with pytest.raises(NotEquigeneratedSeed):
        verify_ratio_bound(t)


# ---------------------------------------------------------------- two-sided


def test_two_sided_d5_entries():
    ts = extend_two_sided(5, 10)
    assert ts.entry(0) == ChernVector(1, 0)
    assert ts.entry(1) == ChernVector(1, 5)
    assert ts.entry(-1) == ChernVector(3, -5)
    assert ts.entry(-2) == ChernVector(11, -20)


def test_two_sided_slopes_increase_and_stay_above_left_limit():
    ts = extend_two_sided(5, 10)
    rep = limit_slopes(5)
    prev = None
    for n in range(-10, 11):
        mu = ts.slope(n)
        if prev is not None:
            assert prev < mu
        prev = mu
        # exact surd comparisons against both limits
        assert rep.left_limit < mu < rep.right_limit
    # left slopes decrease toward the left limit
    gaps = [ts.slope(n) - rep.left_limit for n in range(0, -11, -1)]
    for g, gn in zip(gaps, gaps[1:]):
        assert gn < g


def test_two_sided_positive_side_matches_table():
    ts = extend_two_sided(7, 6)
    t = invariants_from_seed(seed_0_half_d(7), 6)
    for row in t.rows:
        assert ts.entry(row.n) == ChernVector(row.r, row.d)


def test_two_sided_domain():
    with pytest.raises(UnsupportedD):
        extend_two_sided(4, 5)


# ---------------------------------------------------------------- rendering


def test_json_shape():
    t = invariants_from_seed(seed_0_half_d(5), 2)
    doc = t.to_json_dict()
    assert doc["seed"] == {"mu0": "0", "mu1p": "5/2", "mu1": "5"}
    assert doc["d"] == 5
    assert doc["rows"][0] == {"n": 0, "d": 0, "r": 1}
    assert doc["rows"][1] == {"n": 1, "d": 5, "r": 1, "dp": 5, "rp": 2}
    assert doc["rows"][2] == {"n": 2, "d": 20, "r": 3, "dp": 25, "rp": 4}


def test_csv_shape():
    t = invariants_from_seed(seed_0_half_d(5), 2)
    assert t.to_csv() == (
        "n,d,r,dp,rp,slope\n"
        "0,0,1,,,0\n"
        "1,5,1,5,2,5\n"
        "2,20,3,25,4,20/3\n"
    )


def test_csv_prints_zero_without_a_sign():
    # a hand-built table with a negative minor: the replay makes dp of row 2
    # as -1 * 0 - 0, which Decimal signs as -0
    rows = (Row(0, 0, 1, None, None), Row(1, 0, 1, 5, 2), Row(2, -5, 1, 0, -2))
    t = HelixTable(seed_0_half_d(5), None, rows, None, (0, -1, 3))
    assert t.to_csv() == "n,d,r,dp,rp,slope\n0,0,1,,,0\n1,0,1,5,2,0\n2,-5,1,0,-2,-5\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int str digit limit"
)
def test_csv_past_the_digit_limit_raises():
    # a Decimal prints any number of digits; to_csv refuses what str() would
    t = invariants_from_seed(seed_0_half_d(5), 2000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            t.to_csv()
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(-(2**200), 2**200),
    st.integers(1, 2**200),
    st.sampled_from([1, 2, 6, 2**61 - 1, 3**100]),
    st.sampled_from(["r", "-r", "r=1", "r=-1"]),
    st.sampled_from(["row", "first", "proportional"]),
    st.integers(-(2**200), 2**200),
    st.integers(-(2**200), 2**200),
)
def test_slope_text_is_the_fraction_text(d, r, k, sign, before, x, y):
    # a forced common factor k reaches the reduction branch; the row before
    # is any row, none (c = 0), or one of the same slope (c = 0)
    r = {"r": r, "-r": -r, "r=1": 1, "r=-1": -1}[sign]
    d, r = k * d, k * r
    prev = {"row": Row(0, x, y, None, None), "first": None,
            "proportional": Row(0, 3 * d, 3 * r, None, None)}[before]
    row = Row(1, d, r, x, y)
    c = 0 if prev is None else d * prev.r - prev.d * r
    assert slope_text(row, c, str(d), str(r)) == str(Fraction(d, r))
