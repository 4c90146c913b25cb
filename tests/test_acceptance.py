"""End-to-end acceptance checks, one test per shipped claim.

Each test is self-contained and uses exact arithmetic throughout; a PASS
here is the package's definition of done.
"""

import random
from fractions import Fraction

from helixkit.bundles import (
    ChernVector,
    Triad,
    euler_pairing,
    hom_dims,
    left_mutate,
    mutate_triad_left,
    mutate_triad_right,
    right_mutate,
)
from helixkit.errors import NotMutable
from helixkit.exact import (
    RationalMatrix,
    SurdValue,
    TruncatedSeries,
    first_series_mismatch,
    surd_to_decimal,
)
from helixkit.helix import (
    Seed,
    check_positivity,
    closed_form,
    extend_two_sided,
    invariants_from_seed,
    limit_slopes,
    verify_periodicity,
    verify_ratio_bound,
)
from helixkit.quadratic import (
    EquigenModel,
    QuadraticPresentation,
    classical_euler_fixture,
    degree_dims,
    double_dual_check,
    hilbert_A,
    hilbert_B,
    koszul_dual,
    koszulity_witness,
)
from helixkit.sampling import (
    random_presentation,
    random_right_mutable_triad,
    random_seed_triple,
    random_simple_pair,
)

ODD_D = (5, 7, 9, 11, 13)
ALL_D = (3, 5, 7, 9, 11, 13)


def family_seed(d):
    return Seed(0, Fraction(d, 2), d)


def test_criterion_01_hilbert_series_identities():
    """Cubic denominator annihilates the A series; B is its (1-t^3) multiple."""
    one = TruncatedSeries([1]).with_order(50)
    cubic = TruncatedSeries([1, 0, 0, -1]).with_order(50)
    for d in ALL_D:
        a = hilbert_A(EquigenModel(d), 50)
        b = hilbert_B(a)
        assert TruncatedSeries([1, -d, d, -1]).with_order(50) * a == one
        assert b == cubic * a
    a5 = hilbert_A(EquigenModel(5), 50)
    assert list(a5.coeffs[:5]) == [1, 5, 20, 76, 285]
    assert list(hilbert_B(a5).coeffs[:5]) == [1, 5, 20, 75, 280]


def test_criterion_02_series_matches_table_determinants():
    """b_i equals the 2x2 determinant of table rows 0 and i, 30 deep."""
    for d in ODD_D:
        b = hilbert_B(hilbert_A(EquigenModel(d), 30)).coeffs
        rows = invariants_from_seed(family_seed(d), 30).rows
        r0 = rows[0]
        for i in range(1, 31):
            assert b[i] == rows[i].d * r0.r - r0.d * rows[i].r


def test_criterion_03_closed_form_equals_recursion():
    """Surd closed form lands exactly on every recursion row, d up to 15."""
    for d in (5, 7, 9, 11, 13, 15):
        rows = invariants_from_seed(family_seed(d), 40).rows
        assert closed_form(d, 40) == [(row.r, row.d) for row in rows]


def test_criterion_04_minor_periodicity():
    """Determinant identity families hold on the d family and random seeds."""
    for d in ALL_D:
        ok, why = verify_periodicity(invariants_from_seed(family_seed(d), 30))
        assert ok, why
    rng = random.Random(41)
    for _ in range(100):
        seed = random_seed_triple(rng, 30)
        ok, why = verify_periodicity(invariants_from_seed(seed, 30))
        assert ok, (seed, why)


def _pairings(t):
    """The three pairings of t from its members, not the ones a step carried."""
    return (euler_pairing(t.a, t.b), euler_pairing(t.a, t.c), euler_pairing(t.b, t.c))


def test_criterion_05_hom_dimension_rotation():
    """One right mutation rotates the three pairing dimensions."""
    rng = random.Random(42)
    for _ in range(500):
        t = random_right_mutable_triad(rng)
        h = hom_dims(t)
        right = mutate_triad_right(t)
        g = hom_dims(right)
        assert (g.ab, g.ac, g.bc) == (h.ac, h.bc, h.ab)
        assert _pairings(right) == (h.ac, h.bc, h.ab)
    t = Triad(ChernVector(1, 0), ChernVector(2, 5), ChernVector(1, 5))
    for _ in range(20):
        h = hom_dims(t)
        t = mutate_triad_right(t)
        g = hom_dims(t)
        assert (g.ab, g.ac, g.bc) == (h.ac, h.bc, h.ab)
        assert _pairings(t) == (h.ac, h.bc, h.ab)


def test_criterion_06_mutation_round_trips():
    """Leftward undoes rightward and vice versa on 1000+ random pairs."""
    rng = random.Random(43)
    done_rl = done_lr = 0
    attempts = 0
    while (done_rl < 1000 or done_lr < 1000) and attempts < 100000:
        attempts += 1
        e, f = random_simple_pair(rng)
        try:
            x = right_mutate(e, f)
        except NotMutable:
            x = None
        if x is not None:
            assert left_mutate(f, x) == e
            done_rl += 1
        try:
            y = left_mutate(e, f)
        except NotMutable:
            y = None
        if y is not None:
            assert right_mutate(y, e) == f
            done_lr += 1
    assert done_rl >= 1000 and done_lr >= 1000


def test_criterion_07_ratio_bound_and_limits():
    """Rank ratio bound, monotone slopes, vanishing gap, frozen decimals."""
    for d in ODD_D:
        table = invariants_from_seed(family_seed(d), 40)
        assert verify_ratio_bound(table)
        rep = limit_slopes(d)
        assert rep.irrational
        assert rep.left_limit < 0
        prev_gap = None
        prev_mu = None
        for row in table.rows:
            mu = Fraction(row.d, row.r)
            if prev_mu is not None:
                assert prev_mu < mu
            gap = rep.right_limit - mu
            assert gap > 0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap, prev_mu = gap, mu
        # the loop leaves gap at n=40
        dec = surd_to_decimal(gap, 30)
        assert Fraction(dec) < Fraction(1, 10**6)
        assert gap < SurdValue(Fraction(1, 10**6))
    rep5 = limit_slopes(5)
    assert rep5.decimal_right == "6.8301270"
    assert rep5.decimal_left == "-1.8301270"


def test_criterion_08_two_sided_extension():
    """Window entries, strict slope growth, surd bound by the left limit."""
    ts = extend_two_sided(5, 10)
    assert ts.entry(-1) == ChernVector(3, -5)
    assert ts.entry(-2) == ChernVector(11, -20)
    rep = limit_slopes(5)
    prev = None
    for n in range(-10, 11):
        mu = ts.slope(n)
        if prev is not None:
            assert prev < mu
        assert rep.left_limit < mu
        prev = mu


def test_criterion_09_koszul_duality_engine():
    """Dual dims, 50 double-dual round trips, witness sums exactly delta."""
    sym2 = QuadraticPresentation(
        1, (2,), (RationalMatrix.from_rows([[0, 1, -1, 0]]),)
    )
    dims2 = degree_dims(koszul_dual(sym2), 3)
    assert [dims2.dim(0, n) for n in range(4)] == [1, 2, 1, 0]
    sym3, _ = classical_euler_fixture(2)
    dims3 = degree_dims(koszul_dual(sym3), 4)
    assert [dims3.dim(0, n) for n in range(5)] == [1, 3, 3, 1, 0]
    rng = random.Random(44)
    for _ in range(50):
        assert double_dual_check(random_presentation(rng, max_gen=4))
    for n in (1, 2, 3):
        pres, _ = classical_euler_fixture(n)
        assert koszulity_witness(pres, n + 2).passed
    for d in ALL_D:
        rep = koszulity_witness(EquigenModel(d), 6)
        assert rep.passed
    rep5 = koszulity_witness(EquigenModel(5), 6)
    entry = next(e for e in rep5.entries if e.j == 0 and e.q == 3)
    assert entry.value == 76 - 100 + 25 - 1 == 0


def test_criterion_10_normal_family_series_signature():
    """B/(1-t^3) returns A exactly; a bumped coefficient fails right there."""
    inv_cubic = TruncatedSeries([1, 0, 0, -1]).with_order(30).inverse()
    for d in ALL_D:
        a = hilbert_A(EquigenModel(d), 30)
        b = hilbert_B(a)
        assert first_series_mismatch(b * inv_cubic, a) is None
    a5 = hilbert_A(EquigenModel(5), 30)
    bumped = list(hilbert_B(a5).coeffs)
    bumped[3] += 1
    perturbed = TruncatedSeries(bumped)
    assert first_series_mismatch(perturbed * inv_cubic, a5) == 3


def test_criterion_11_positivity_verdicts():
    """Certified family, horizon-verified d=3 line, and the failing seed."""
    for d in ODD_D:
        rep = check_positivity(invariants_from_seed(family_seed(d), 40))
        assert rep.kind == "Certified"
    table3 = invariants_from_seed(Seed(0, Fraction(3, 2), 3), 50)
    rep3 = check_positivity(table3)
    assert rep3.kind == "VerifiedToHorizon"
    assert str(rep3) == "VerifiedToHorizon(50)"
    for row in table3.rows:
        assert row.r == 1
        assert row.d == 3 * row.n
    bad = check_positivity(invariants_from_seed(Seed(0, Fraction(1, 2), 1), 10))
    assert (bad.kind, bad.fail_index, bad.fail_component) == ("FailsAt", 2, "r")
    assert str(bad) == "FailsAt(2, r)"
