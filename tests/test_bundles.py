"""Rank/degree calculus: slopes, the dimension pairing, and left/right
mutations of pairs and triads."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helixkit.bundles import (
    ChernVector,
    Triad,
    dualize,
    dualize_triad,
    euler_pairing,
    hom_dim,
    hom_dims,
    left_mutate,
    mutate_triad_left,
    mutate_triad_right,
    right_mutate,
    slope,
)
from helixkit.errors import NotMutable, NotSimple, SlopeOrderViolation
from helixkit.sampling import random_triad

C = ChernVector


def test_slope():
    assert slope(C(1, 0)) == 0
    assert slope(C(2, 5)) == Fraction(5, 2)
    assert slope(C(3, 20)) == Fraction(20, 3)


def test_simplicity_flag():
    assert C(1, 0).is_simple
    assert C(2, 5).is_simple
    assert not C(2, 4).is_simple
    assert not C(3, 0).is_simple
    with pytest.raises(ValueError):
        C(0, 1)


@pytest.mark.parametrize(
    "rank, degree", [(True, 0), (1, True), (1, False)],
    ids=["bool-rank", "bool-degree", "false-degree"],
)
def test_chern_vector_refuses_bools(rank, degree):
    with pytest.raises(TypeError):
        C(rank, degree)


def test_euler_pairing():
    assert euler_pairing(C(1, 0), C(1, 5)) == 5
    assert euler_pairing(C(1, 3), C(1, 3)) == 0
    assert euler_pairing(C(4, 25), C(2, 13)) == 2


def test_euler_pairing_antisymmetry():
    rng = random.Random(7)
    for _ in range(200):
        e = C(rng.randrange(1, 9), rng.randrange(-20, 21))
        f = C(rng.randrange(1, 9), rng.randrange(-20, 21))
        assert euler_pairing(e, f) == -euler_pairing(f, e)


def test_hom_dim_examples():
    assert hom_dim(C(1, 0), C(2, 5)) == 5
    assert hom_dim(C(2, 5), C(1, 5)) == 5
    assert hom_dim(C(1, 2), C(1, 5)) == 3


def test_hom_dim_requires_slope_order():
    with pytest.raises(SlopeOrderViolation):
        hom_dim(C(1, 5), C(1, 0))
    with pytest.raises(SlopeOrderViolation):
        hom_dim(C(1, 3), C(1, 3))


def test_hom_dim_requires_simple():
    with pytest.raises(NotSimple):
        hom_dim(C(2, 4), C(1, 5))
    with pytest.raises(NotSimple):
        hom_dim(C(1, 0), C(2, 6))


def test_right_mutate_examples():
    assert right_mutate(C(1, 0), C(1, 5)) == C(4, 25)
    assert right_mutate(C(2, 5), C(1, 5)) == C(3, 20)


def test_right_mutate_degenerate():
    with pytest.raises(NotMutable):
        right_mutate(C(1, 0), C(1, 1))


def test_left_mutate_examples():
    assert left_mutate(C(1, 0), C(1, 5)) == C(4, -5)
    assert left_mutate(C(2, 5), C(1, 5)) == C(9, 20)


def test_round_trip_single():
    l = left_mutate(C(1, 0), C(1, 5))
    assert right_mutate(l, C(1, 0)) == C(1, 5)


def test_dualize():
    assert dualize(C(3, 5)) == C(3, -5)
    assert dualize(dualize(C(7, -11))) == C(7, -11)


def test_dualize_triad():
    t = Triad(C(1, 0), C(2, 5), C(1, 5))
    d = dualize_triad(t)
    assert (d.a, d.b, d.c) == (C(1, -5), C(2, -5), C(1, 0))


def test_triad_validation():
    with pytest.raises(SlopeOrderViolation):
        Triad(C(1, 0), C(1, 5), C(2, 5))
    with pytest.raises(NotSimple):
        Triad(C(1, 0), C(2, 4), C(1, 5))


def test_mutate_triad_right_worked_examples():
    t = mutate_triad_right(Triad(C(1, 0), C(2, 5), C(1, 5)))
    assert (t.a, t.b, t.c) == (C(1, 5), C(4, 25), C(3, 20))
    t2 = mutate_triad_right(Triad(C(1, 0), C(1, 2), C(1, 5)))
    assert (t2.a, t2.b, t2.c) == (C(1, 5), C(4, 25), C(2, 13))
    t3 = mutate_triad_right(Triad(C(1, -5), C(2, -5), C(1, 0)))
    assert (t3.a, t3.b, t3.c) == (C(1, 0), C(4, 5), C(3, 5))


def test_mutate_triad_right_reports_failing_member():
    with pytest.raises(NotMutable) as exc:
        mutate_triad_right(Triad(C(1, 0), C(2, 1), C(1, 1)))
    assert exc.value.member == "a"
    assert str(exc.value) == "right mutation of 1:0 past 1:1 has rank 0"


def _pairwise(steps, build):
    """Run the pair mutations in order: build(*results), or the member and
    message of the first that fails."""
    out = []
    for member, mutate, x, y in steps:
        try:
            out.append(mutate(x, y))
        except NotMutable as exc:
            return member, str(exc)
    return build(*out)


def test_triad_steps_are_the_pair_mutations_in_order():
    rng = random.Random(51)
    failed = set()
    for _ in range(400):
        t = random_triad(rng)
        a, b, c = t.a, t.b, t.c
        for step, want in (
            (mutate_triad_right, _pairwise(
                [("a", right_mutate, a, c), ("b", right_mutate, b, c)],
                lambda ra, rb: Triad(c, ra, rb))),
            (mutate_triad_left, _pairwise(
                [("b", left_mutate, a, b), ("c", left_mutate, a, c)],
                lambda lb, lc: Triad(lb, lc, a))),
        ):
            try:
                got = step(t)
            except NotMutable as exc:
                got = exc.member, str(exc)
                failed.add((step, exc.member))
            assert got == want
    assert failed >= {(mutate_triad_right, "b"), (mutate_triad_left, "b")}


def test_hom_dims_examples():
    assert hom_dims(Triad(C(1, 0), C(2, 5), C(1, 5))) == (5, 5, 5)
    assert hom_dims(Triad(C(1, 0), C(1, 2), C(1, 5))) == (2, 5, 3)
    assert hom_dims(Triad(C(1, 5), C(4, 25), C(2, 13))) == (5, 3, 2)


def test_hom_dims_rotation_on_example():
    t = Triad(C(1, 0), C(1, 2), C(1, 5))
    assert hom_dims(mutate_triad_right(t)) == (5, 3, 2)


def test_mutate_triad_left_inverts_right():
    t = Triad(C(1, 0), C(2, 5), C(1, 5))
    rt = mutate_triad_right(t)
    back = mutate_triad_left(rt)
    assert (back.a, back.b, back.c) == (t.a, t.b, t.c)


# ---------------------------------------------------------------- randomized


def _random_simple(rng, rmax=9, dmax=25):
    while True:
        r = rng.randrange(1, rmax + 1)
        d = rng.randrange(-dmax, dmax + 1)
        if gcd(r, abs(d)) == 1:
            return C(r, d)


def _random_ordered_pair(rng):
    while True:
        e, f = _random_simple(rng), _random_simple(rng)
        if slope(e) < slope(f):
            return e, f
        if slope(f) < slope(e):
            return f, e


def test_round_trips_randomized():
    rng = random.Random(2024)
    done_left_first = done_right_first = 0
    while done_left_first < 600 or done_right_first < 600:
        e, f = _random_ordered_pair(rng)
        h = hom_dim(e, f)
        if h * e.rank > f.rank:
            l = left_mutate(e, f)
            assert right_mutate(l, e) == f
            done_left_first += 1
        if h * f.rank > e.rank:
            r = right_mutate(e, f)
            assert left_mutate(f, r) == e
            done_right_first += 1


def test_mutation_preserves_simplicity_and_raises_slope():
    rng = random.Random(99)
    checked = 0
    while checked < 500:
        a, b = _random_ordered_pair(rng)
        if hom_dim(a, b) * b.rank <= a.rank:
            continue
        out = right_mutate(a, b)
        assert out.is_simple
        assert slope(b) < slope(out)
        checked += 1


@st.composite
def simple_vectors(draw):
    """A coprime (rank, degree) pair; entries up to 2^210."""
    bound = draw(st.sampled_from([9, 2**64, 2**210]))
    r, d = draw(st.integers(1, bound)), draw(st.integers(-bound, bound))
    g = gcd(r, abs(d))
    return C(r // g, d // g)


@settings(max_examples=300, deadline=None)
@given(simple_vectors(), simple_vectors(), simple_vectors(), st.sampled_from(["", "ef", "fg"]))
def test_slope_order_from_pairing_matches_fraction_slopes(e, f, g, equal):
    # equal slopes of simple vectors mean equal vectors
    if equal == "ef":
        f = e
    elif equal == "fg":
        g = f
    mu_e, mu_f, mu_g = (Fraction(v.degree, v.rank) for v in (e, f, g))
    if mu_e < mu_f:
        assert hom_dim(e, f) == euler_pairing(e, f) > 0
    else:
        with pytest.raises(SlopeOrderViolation):
            hom_dim(e, f)
    if mu_e < mu_f < mu_g:
        Triad(e, f, g)
    else:
        with pytest.raises(SlopeOrderViolation):
            Triad(e, f, g)


def test_hom_dims_is_three_hom_dim_calls_along_mutation_chains():
    rng = random.Random(50)
    steps = 0
    for _ in range(40):
        t = random_triad(rng)
        mutate = rng.choice((mutate_triad_right, mutate_triad_left))
        for _ in range(50):
            assert hom_dims(t) == (hom_dim(t.a, t.b), hom_dim(t.a, t.c), hom_dim(t.b, t.c))
            try:
                t = mutate(t)
            except NotMutable:
                break
            steps += 1
    assert steps >= 500


def _three_pairings(t):
    return (euler_pairing(t.a, t.b), euler_pairing(t.a, t.c), euler_pairing(t.b, t.c))


def test_stored_pairings_leave_eq_hash_and_repr_to_the_members():
    t = Triad(C(1, 0), C(2, 5), C(1, 5))
    assert repr(t) == (
        "Triad(a=ChernVector(rank=1, degree=0), b=ChernVector(rank=2, degree=5),"
        " c=ChernVector(rank=1, degree=5))"
    )
    assert hash(t) == hash((t.a, t.b, t.c))
    u = Triad(C(1, 0), C(2, 5), C(1, 5))
    object.__setattr__(u, "_pairings", (0, 0, 0))
    assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
    assert u != Triad(C(1, 0), C(2, 5), C(1, 6))


def test_replace_recomputes_the_pairings():
    # a copy of t with c replaced is a constructor call: it gets its own
    # pairings and goes through the slope check
    t = Triad(C(1, 0), C(2, 5), C(1, 5))
    u = Triad(t.a, t.b, c=C(1, 6))
    assert hom_dims(u) == _three_pairings(u) == (5, 6, 7)
    assert hom_dims(t) == (5, 5, 5)
    with pytest.raises(SlopeOrderViolation):
        Triad(t.a, t.b, c=C(1, 2))


@settings(max_examples=300, deadline=None)
@given(simple_vectors(), simple_vectors(), simple_vectors())
def test_hom_dims_is_three_pairings_on_drawn_triads(e, f, g):
    e, f, g = sorted((e, f, g), key=slope)
    assume(slope(e) < slope(f) < slope(g))
    t = Triad(e, f, g)
    assert hom_dims(t) == _three_pairings(t)


@pytest.mark.parametrize("mutate", [mutate_triad_right, mutate_triad_left])
def test_hom_dims_is_three_pairings_along_300_step_chains(mutate):
    t = Triad(C(1, 0), C(2, 5), C(1, 5))
    for _ in range(300):
        t = mutate(t)
        assert hom_dims(t) == _three_pairings(t)
    assert max(t.a.rank, t.b.rank, t.c.rank) > 10**150


@settings(max_examples=150, deadline=None)
@given(simple_vectors(), simple_vectors(), simple_vectors())
def test_carried_pairings_are_the_members_own_along_40_step_chains(e, f, g):
    # a step hands the next triad its pairings permuted, unchecked: they
    # must be the pairings of the new members, and each member simple
    e, f, g = sorted((e, f, g), key=slope)
    assume(slope(e) < slope(f) < slope(g))
    for mutate in (mutate_triad_right, mutate_triad_left):
        t = Triad(e, f, g)
        for _ in range(40):
            try:
                t = mutate(t)
            except NotMutable:
                break
            assert hom_dims(t) == _three_pairings(t)
            assert t.a.is_simple and t.b.is_simple and t.c.is_simple


@st.composite
def any_vectors(draw):
    """A (rank, degree) pair with entries up to 2^200: as drawn, made
    coprime, or scaled by a forced common factor."""
    bound = draw(st.sampled_from([9, 2**64, 2**200]))
    r, d = draw(st.integers(1, bound)), draw(st.integers(-bound, bound))
    shape = draw(st.sampled_from(["drawn", "coprime", "factor"]))
    if shape == "coprime":
        g = gcd(r, d)
        r, d = r // g, d // g
    elif shape == "factor":
        k = draw(st.sampled_from([2, 3, 6, 2**61 - 1, 3**120]))
        r, d = k * r, k * d
    return C(r, d)


@st.composite
def vector_lists(draw, n):
    """n vectors, where a later one may repeat the slope of the one before
    it, as an equal or scaled copy (pairing 0)."""
    vs = [draw(any_vectors())]
    while len(vs) < n:
        v = draw(any_vectors())
        k = draw(st.sampled_from([None, 1, 2, 5]))
        if k is not None:
            v = C(k * vs[-1].rank, k * vs[-1].degree)
        vs.append(v)
    return vs


def _not_simple_message(vs):
    first = next((v for v in vs if not v.is_simple), None)
    return None if first is None else f"{first} has non-coprime rank and degree"


@settings(max_examples=400, deadline=None)
@given(vector_lists(2), st.booleans())
def test_pair_checks_raise_not_simple_exactly_for_a_non_simple_member(pair, swap):
    # the checks read simplicity off the pairing; is_simple reads it off
    # gcd(rank, degree), and Fraction slopes give the order
    e, f = reversed(pair) if swap else pair
    expected = _not_simple_message((e, f))
    for fn in (hom_dim, right_mutate, left_mutate):
        if expected is not None:
            with pytest.raises(NotSimple) as info:
                fn(e, f)
            assert str(info.value) == expected
        elif slope(e) >= slope(f):
            with pytest.raises(SlopeOrderViolation):
                fn(e, f)
        else:
            try:
                fn(e, f)
            except NotMutable:
                pass


@settings(max_examples=400, deadline=None)
@given(vector_lists(3), st.permutations(range(3)))
def test_triad_raises_not_simple_exactly_for_a_non_simple_member(vs, order):
    a, b, c = (vs[i] for i in order)
    expected = _not_simple_message((a, b, c))
    if expected is not None:
        with pytest.raises(NotSimple) as info:
            Triad(a, b, c)
        assert str(info.value) == expected
    elif not slope(a) < slope(b) < slope(c):
        with pytest.raises(SlopeOrderViolation):
            Triad(a, b, c)
    else:
        Triad(a, b, c)
