"""Foundation tests: truncated series, quadratic surds, exact linear algebra.

Expected values marked "frozen" were produced by independent one-off oracles
(polynomial long division, scaled integer square roots, brute-force dense row
reduction) before the module was written.
"""

from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helixkit.errors import ColumnMismatch, RadicandMismatch, ZeroConstantTerm
from helixkit.exact import (
    RationalMatrix,
    SurdValue,
    TruncatedSeries,
    _back_substitute,
    _dense_to_sparse,
    _echelon,
    _floor_surd,
    _frac,
    _sparse_rank,
    first_series_mismatch,
    matrix_kernel,
    row_space_equal,
    surd_to_decimal,
)

F = Fraction


# ---------------------------------------------------------------- series

# frozen: long division of 1 by 1 - 5t + 5t^2 - t^3, ten terms
INV_5 = (1, 5, 20, 76, 285, 1065, 3976, 14840, 55385, 206701, 771420)


def test_inverse_geometric():
    s = TruncatedSeries([1, -1]).with_order(4)
    assert s.inverse().coeffs == (1, 1, 1, 1, 1)


def test_inverse_cubic_denominator_frozen():
    s = TruncatedSeries([1, -5, 5, -1]).with_order(10)
    assert s.inverse().coeffs == INV_5


def test_inverse_of_one():
    s = TruncatedSeries([1]).with_order(6)
    assert s.inverse().coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_inverse_requires_constant_term():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1, 2]).inverse()
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([1, 2, 3]) / TruncatedSeries([0, 1])


def test_mul_telescopes():
    a = TruncatedSeries([1, -1]).with_order(3)
    b = TruncatedSeries([1, 1, 1, 1])
    assert (a * b).coeffs == (1, 0, 0, 0)


def test_mul_against_inverse_is_one():
    s = TruncatedSeries([1, -5, 5, -1]).with_order(10)
    assert (s * s.inverse()).coeffs == (1,) + (0,) * 10


def test_mul_by_one_minus_t_cubed():
    a = TruncatedSeries(INV_5[:5])
    out = TruncatedSeries([1, 0, 0, -1]).with_order(4) * a
    assert out.coeffs == (1, 5, 20, 75, 280)


def test_mul_pads_shorter_operand():
    a = TruncatedSeries([1, 1])
    b = TruncatedSeries([1, 0, 0, 0, 0])
    assert (a * b).order == 4


@pytest.mark.parametrize("c", [F(1, 2), "1/2", F(-7, 3), "5/4"])
def test_series_refuses_a_coefficient_that_is_not_an_integer(c):
    with pytest.raises(ValueError, match="not an integer"):
        TruncatedSeries([1, c])
    with pytest.raises(ValueError, match="not an integer"):
        TruncatedSeries([c])


@pytest.mark.parametrize("c0", [2, -3, 10**40])
def test_division_refuses_a_constant_term_that_is_not_a_unit(c0):
    divisor = TruncatedSeries([c0, 1, -1])
    with pytest.raises(ValueError, match=f"constant term {c0}:"):
        TruncatedSeries([1, 2, 3]) / divisor
    with pytest.raises(ValueError, match=f"constant term {c0}:"):
        divisor.inverse()


def _cauchy(a, b):
    """Dense Fraction Cauchy product, truncated at the longer order."""
    n = max(len(a), len(b))
    a, b = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


def _long_division(c):
    """1/c by long division: q_n = (delta_n0 - sum_k c_k q_(n-k)) / c_0."""
    q = []
    for n in range(len(c)):
        rest = sum((c[k] * q[n - k] for k in range(1, n + 1)), F(0))
        q.append((F(n == 0) - rest) / c[0])
    return q


_int = st.integers(-(10**40), 10**40)
_unit_c0 = st.sampled_from((1, -1))
# tails mix single ints with runs of zeros
_tails = st.lists(
    st.one_of(_int.map(lambda x: [x]), st.integers(1, 12).map(lambda k: [0] * k)),
    max_size=12,
).map(lambda blocks: [x for block in blocks for x in block])
CUBIC_512 = [1, -5, 5, -1] + [0] * 509


def _series(c0):
    return st.builds(lambda head, tail: [head, *tail], c0, _tails)


@settings(max_examples=200, deadline=None)
@given(_series(st.one_of(st.just(0), _int)), _series(st.one_of(st.just(0), _int)))
@example([1, 0, 0, -1], CUBIC_512)
@example(CUBIC_512, _long_division(CUBIC_512))
def test_mul_matches_dense_cauchy_product(a, b):
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == _cauchy(a, b)


@settings(max_examples=200, deadline=None)
@given(_series(_unit_c0))
@example(CUBIC_512)
@example([-1, 0])  # c_0 = -1 negates every coefficient of the dividend
def test_inverse_matches_long_division(c):
    assert list(TruncatedSeries(c).inverse().coeffs) == _long_division(c)


@settings(max_examples=200, deadline=None)
@given(_series(st.one_of(st.just(0), _int)), _series(_unit_c0))
@example(CUBIC_512, [1, 0, 0, -1])
def test_div_is_mul_by_inverse(b, c):
    # the shorter operand is padded with zeros, as in the product
    n = max(len(b), len(c)) - 1
    assert TruncatedSeries(b) / TruncatedSeries(c) == (
        TruncatedSeries(b) * TruncatedSeries(c).with_order(n).inverse()
    )


# series heavy in units, which the draws above almost never give:
# coefficients from {-1, 0, 1}, now and then an int up to 10**40 in size
_unit = st.sampled_from((-1, 0, 1))
_unit_or_big = st.one_of(_unit, _unit, _unit, _int)


def _unit_series(c0):
    return st.builds(lambda head, tail: [head, *tail], c0, st.lists(_unit_or_big, max_size=40))


_unit_divisor = _unit_series(_unit_c0)
# A = 1 / (1 - 5t + 5t^2 - t^3) to order 64
A_64 = _long_division(CUBIC_512[:65])


@settings(max_examples=200, deadline=None)
@given(_unit_series(_unit_or_big), _unit_series(_unit_or_big))
# t^3 A: the sparser operand's first term, 1 at k = 3, copies A's first 62
# coefficients into coefficients 3 .. 64, and no more
@example([0, 0, 0, 1], A_64)
@example([0, 0, 0, -1], A_64)
@example([0, 0, 0, 7], A_64)
# the sparser operand first nonzero at k > 0, the longer of the two
@example([0, -1, 0, 0, 1, 0, 0, 0], [2, -1, 10**40])
@example([0, 0, 10**40, -1, 1] + [0] * 9, [1, 1, -1])
# the denser operand the shorter, units on both sides
@example([1, -1, 0, -1, 1], [0, -1, 1] + [0] * 12)
def test_mul_of_unit_series_matches_dense_cauchy_product(a, b):
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == _cauchy(a, b)


@settings(max_examples=200, deadline=None)
@given(_unit_divisor)
@example([1, 0, 0, -1] + [0] * 20)  # one unit term, c_0 = 1
@example([1, -1, 10**40, -1, 1, -1] + [0] * 6)
@example([-1, 1, 0, -1] + [0] * 6)  # c_0 = -1: weights 1, -1
@example([-1, -1, 2] + [0] * 6)  # c_0 = -1, weight 1 at k = 1
def test_inverse_of_unit_series_matches_long_division(c):
    assert list(TruncatedSeries(c).inverse().coeffs) == _long_division(c)


@settings(max_examples=200, deadline=None)
@given(_unit_series(_unit_or_big), _unit_divisor)
@example(A_64, [1, 0, 0, -1])
@example([1, 10**40], [1, -1, 0, -1] + [0] * 8)
@example([0, 0, -1] + [1] * 10, [-1, 0, 1])
def test_div_of_unit_series_is_mul_by_inverse(b, c):
    n = max(len(b), len(c)) - 1
    assert TruncatedSeries(b) / TruncatedSeries(c) == (
        TruncatedSeries(b) * TruncatedSeries(c).with_order(n).inverse()
    )


def _spelled(x, how, k):
    if how == "fraction":
        return F(x)
    if how == "text":
        return str(x)
    if how == "ratio":
        return f"{k * x}/{k}"
    return x


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_int, min_size=1, max_size=12),
    st.lists(st.sampled_from(["fraction", "int", "text", "ratio"]), min_size=12, max_size=12),
    st.integers(1, 10**6),
    st.integers(0, 14),
)
@example([1, -2], ["ratio"] * 12, 3, 0)
def test_series_spellings_are_one_value(cs, hows, k, order):
    # int, Fraction, "n" and "kn/k" coefficients, and the same ints given to
    # _of, are one value: equal and hash-equal, with int coefficients, and
    # so is every truncation or padding of them
    spellings = [
        TruncatedSeries(cs),
        TruncatedSeries([_spelled(c, how, k) for c, how in zip(cs, hows)]),
        TruncatedSeries._of(cs),
    ]
    for s in spellings:
        assert s == spellings[0] and hash(s) == hash(spellings[0])
        assert s.coeffs == tuple(cs)
        assert all(type(x) is int for x in s.coeffs)
        cut = cs[: order + 1] + [0] * (order + 1 - len(cs))
        assert s.with_order(order) == TruncatedSeries(cut)
        assert hash(s.with_order(order)) == hash(TruncatedSeries(cut))


def _fraction_mismatch(a, b):
    """first_series_mismatch of the series with coefficients a and b, by a
    plain walk over Fractions, the shorter padded with zeros."""
    n = max(len(a), len(b))
    a, b = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
    return next((i for i in range(n) if a[i] != b[i]), None)


@settings(max_examples=300, deadline=None)
@given(
    _series(st.one_of(st.just(0), _int)),
    st.sampled_from(("equal", "first", "last", "scaled", "other")),
    _int.filter(bool),
    st.integers(0, 20),
    _series(st.one_of(st.just(0), _int)),
)
@example([1, 2], "equal", 1, 3, [0])
@example([3] * 4, "last", 7, 0, [0])
@example([0], "first", 5, 9, [0])
@example([1, 3], "scaled", -1, 0, [0])
def test_first_series_mismatch_matches_a_fraction_walk(cs, change, delta, pad, other):
    # the series itself padded with zeros to a higher order, the series
    # with its first or last coefficient moved by delta, the series times
    # delta, or another series
    if change == "other":
        ts = list(other)
    elif change == "scaled":
        ts = [x * delta for x in cs]
    else:
        ts = list(cs)
        if change != "equal":
            ts[0 if change == "first" else -1] += delta
    ts += [0] * pad
    s, t = TruncatedSeries(cs), TruncatedSeries(ts)
    want = _fraction_mismatch(cs, ts)
    assert first_series_mismatch(s, t) == first_series_mismatch(t, s) == want
    if change in ("equal", "first", "last"):
        assert want == {"equal": None, "first": 0, "last": len(cs) - 1}[change]


def test_series_order_cap():
    with pytest.raises(ValueError):
        TruncatedSeries([1]).with_order(513)


@settings(max_examples=60, deadline=None)
@given(st.lists(_int, min_size=1, max_size=9), _unit_c0)
def test_inverse_roundtrip_property(tail, c0):
    s = TruncatedSeries([c0] + tail)
    prod = s * s.inverse()
    assert prod.coeffs == (1,) + (0,) * s.order


# ---------------------------------------------------------------- surds


def test_conjugate_product():
    x = SurdValue(4, -1, 12)
    y = SurdValue(4, 1, 12)
    assert x * y == SurdValue(4, 0, 12)
    assert (x * y).is_rational


def test_rationalize_division():
    # 10 / (sqrt 12 - 2) = 5/2 + (5/4) sqrt 12
    out = SurdValue(10, 0, 12) / SurdValue(-2, 1, 12)
    assert out == SurdValue(F(5, 2), F(5, 4), 12)


def test_compare_examples():
    x = SurdValue(4, -1, 12)
    assert x < SurdValue(1, 0, 12)
    assert x > SurdValue(0, 0, 12)


def test_perfect_square_radicand_collapses():
    v = SurdValue(1, F(3, 2), 16)
    assert v.is_rational and v.a == 7 and v.b == 0


def test_radicand_mismatch():
    with pytest.raises(RadicandMismatch):
        SurdValue(0, 1, 2) + SurdValue(0, 1, 3)


def test_rational_operand_adopts_radicand():
    v = SurdValue(0, 1, 3) + 2
    assert v == SurdValue(2, 1, 3)
    w = SurdValue(5, 0, 12) - SurdValue(0, 1, 3)
    assert w == SurdValue(5, -1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        SurdValue(1, 1, 5) / SurdValue(0, 0, 5)


def test_sign_needs_square_comparison():
    # 7 - 2 sqrt 12 is positive (49 > 48), 7 - 3 sqrt 6 is negative (49 < 54)
    assert SurdValue(7, -2, 12) > 0
    assert SurdValue(7, -3, 6) < 0


def test_surd_power():
    w = SurdValue(4, -1, 12)
    assert w**2 == SurdValue(28, -8, 12)
    assert w**0 == SurdValue(1, 0, 12)


def test_surd_str():
    assert str(SurdValue(F(5, 2), F(5, 4), 12)) == "5/2 + 5/4√12"
    assert str(SurdValue(F(5, 2), F(-5, 4), 12)) == "5/2 - 5/4√12"
    assert str(SurdValue(F(3, 2), 0, 12)) == "3/2"


surd_parts = st.fractions(min_value=-50, max_value=50, max_denominator=8)


@settings(max_examples=80, deadline=None)
@given(surd_parts, surd_parts, surd_parts, surd_parts, surd_parts, surd_parts)
def test_surd_field_axioms(a1, b1, a2, b2, a3, b3):
    m = 7
    x, y, z = (SurdValue(a, b, m) for a, b in ((a1, b1), (a2, b2), (a3, b3)))
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    if y != SurdValue(0, 0, m):
        assert (x / y) * y == x


def oracle_sign(v: SurdValue) -> int:
    """Sign of a + b sqrt(m), from a^2 against b^2 m alone."""
    sa, sb = (v.a > 0) - (v.a < 0), (v.b > 0) - (v.b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    d = v.a * v.a - v.b * v.b * v.m
    return sa * ((d > 0) - (d < 0))


@settings(max_examples=40, deadline=None)
@given(surd_parts, surd_parts, surd_parts, surd_parts)
def test_surd_compare_agrees_with_decimals(a1, b1, a2, b2):
    x, y = SurdValue(a1, b1, 13), SurdValue(a2, b2, 13)
    c = oracle_sign(x - y)
    assert (x < y, x == y) == (c < 0, c == 0)
    diff = surd_to_decimal(x - y, 30)
    zero = "0." + "0" * 30
    if c == 0:
        assert diff == zero
    elif c < 0:
        assert diff.startswith("-")
    else:
        assert not diff.startswith("-") and diff != zero


big_parts = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
nonzero_big_parts = big_parts.filter(lambda b: b != 0)
non_squares = st.integers(2, 10**40).filter(lambda m: isqrt(m) ** 2 != m)


@settings(max_examples=150, deadline=None)
@given(big_parts, nonzero_big_parts, big_parts, big_parts, non_squares,
       st.integers(1, 50))
@example(F(7), F(-2), F(0), F(0), 12, 7)
@example(F(-7), F(3), F(0), F(-3), 6, 3)
@example(F(-5, 2), F(-5, 4), F(3), F(0), 12, 1)
def test_surd_floor_order_and_rounding_agree_with_oracle(a, b, a2, b2, m, digits):
    # b != 0 over a non-square m: x is irrational; y may be rational
    x, y = SurdValue(a, b, m), SurdValue(a2, b2, m)
    c = oracle_sign(x - y)
    assert (x < y, x == y, x > y) == (c < 0, c == 0, c > 0)
    for v in (x, y):
        k = _floor_surd(v)
        assert oracle_sign(v - k) >= 0 and oracle_sign(v - (k + 1)) < 0
    # correctly rounded: within half a unit of the last digit, no tie
    r = F(surd_to_decimal(x, digits))
    half = F(1, 2 * 10**digits)
    assert oracle_sign(x - r - half) < 0 < oracle_sign(x - r + half)


# frozen: scaled-isqrt oracle, correctly rounded
SQRT12_30 = "3.464101615137754587054892683012"
SQRT2_30 = "1.414213562373095048801688724210"
RIGHT5_30 = "6.830127018922193233818615853765"


def test_decimal_rendering_frozen():
    assert surd_to_decimal(SurdValue(0, 1, 12), 7) == "3.4641016"
    assert surd_to_decimal(SurdValue(0, 1, 12), 30) == SQRT12_30
    assert surd_to_decimal(SurdValue(0, 1, 2), 30) == SQRT2_30
    assert surd_to_decimal(SurdValue(F(5, 2), F(5, 4), 12), 7) == "6.8301270"
    assert surd_to_decimal(SurdValue(F(5, 2), F(5, 4), 12), 30) == RIGHT5_30


def test_decimal_rendering_rational_and_signs():
    assert surd_to_decimal(SurdValue(F(3, 2), 0, 12), 7) == "1.5000000"
    assert surd_to_decimal(SurdValue(F(5, 2), F(-5, 4), 12), 7) == "-1.8301270"
    assert surd_to_decimal(SurdValue(F(-1, 4), 0, 2), 2) == "-0.25"
    # ties round away from zero
    assert surd_to_decimal(SurdValue(F(1, 8), 0, 2), 2) == "0.13"
    assert surd_to_decimal(SurdValue(F(-1, 8), 0, 2), 2) == "-0.13"


def test_decimal_digit_bounds():
    with pytest.raises(ValueError):
        surd_to_decimal(SurdValue(1, 0, 2), 51)
    with pytest.raises(ValueError):
        surd_to_decimal(SurdValue(1, 0, 2), 0)


# ---------------------------------------------------------------- matrices


def test_rref_frozen():
    # frozen: hand-worked; the third row is the sum of the first two
    m = RationalMatrix.from_rows([[2, 1, 1, 1], [4, 2, 3, 0], [6, 3, 4, 1]])
    red, pivots = m.rref()
    assert pivots == [0, 2]
    assert red == RationalMatrix.from_rows(
        [[1, F(1, 2), 0, F(3, 2)], [0, 0, 1, -2], [0, 0, 0, 0]]
    )


pq_entries = st.builds(
    F, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rref_is_canonical(rows, cols, data):
    n = rows * cols
    entries = data.draw(st.lists(pq_entries, min_size=n, max_size=n))
    m = RationalMatrix(rows, cols, entries)
    red, pivots = m.rref()
    assert (red.rows, red.cols) == (rows, cols)
    assert pivots == sorted(set(pivots))
    for k in range(rows):
        row = red.row(k)
        if k >= len(pivots):
            assert not any(row)
            continue
        pc = pivots[k]
        assert row[pc] == 1 and not any(row[:pc])
        assert all(red.row(i)[pc] == 0 for i in range(rows) if i != k)
    assert len(pivots) == _sparse_rank(row for _, row in m.int_rows)
    order = data.draw(st.permutations(range(rows)))
    scales = data.draw(
        st.lists(pq_entries.filter(bool), min_size=rows, max_size=rows)
    )
    moved = RationalMatrix.from_rows(
        [[scales[k] * e for e in m.row(i)] for k, i in enumerate(order)], cols=cols
    )
    assert moved.rref() == (red, pivots)


def int_row(row):
    """(den, {col: num}) of a rational row over the product of its
    denominators, divided by the gcd of den and the nums."""
    den = prod(e.denominator for e in row)
    nums = {j: int(e * den) for j, e in enumerate(row) if e}
    g = gcd(den, *nums.values())
    return den // g, {j: v // g for j, v in nums.items()}


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_equal_entries_give_equal_hash_equal_matrices(rows, cols, data):
    # the int-row storage is invisible: however a matrix is built and its
    # entries are spelled, equal entries compare equal and hash equal
    n = rows * cols
    entry = st.one_of(st.just(F(0)), pq_entries)
    entries = data.draw(st.lists(entry, min_size=n, max_size=n))
    dense = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    scale = data.draw(st.integers(min_value=2, max_value=5))
    unreduced = [f"{e.numerator * scale}/{e.denominator * scale}" for e in entries]
    built = [
        RationalMatrix(rows, cols, entries),
        RationalMatrix(rows, cols, [str(e) for e in entries]),
        RationalMatrix(rows, cols, unreduced),
        RationalMatrix.from_rows(dense, cols=cols),
        RationalMatrix._of(cols, map(int_row, dense)),
    ]
    assert list(_dense_to_sparse(dense)) == [int_row(r) for r in dense]
    for m in built:
        assert (m.rows, m.cols) == (rows, cols)
        assert m == built[0] and hash(m) == hash(built[0])
        assert m.entries == tuple(entries)
        assert all(type(e) is F for e in m.entries)
        assert [m.row(i) for i in range(rows)] == [tuple(r) for r in dense]
    # rref builds its rows with RationalMatrix._of from _by_lead's pivot rows
    red, pivots = built[0].rref()
    ref = RationalMatrix.from_rows(gauss_jordan(dense, cols)[0], cols=cols)
    assert red == ref and hash(red) == hash(ref)
    if any(entries):
        assert built[0] != RationalMatrix(rows, cols, [F(0)] * n)


def test_matrix_shapes_without_entries():
    tall, wide = RationalMatrix(3, 0, []), RationalMatrix(0, 5, [])
    assert (tall.rows, tall.cols, tall.entries) == (3, 0, ())
    assert (wide.rows, wide.cols, wide.entries) == (0, 5, ())
    assert tall.row(2) == ()
    assert tall == RationalMatrix.from_rows([[], [], []])
    assert wide == RationalMatrix.from_rows([], cols=5)
    assert tall != RationalMatrix(2, 0, []) and wide != RationalMatrix(0, 4, [])
    assert tall.rref() == (tall, []) and wide.rref() == (wide, [])


def gauss_jordan(rows, cols):
    """Dense Fraction Gauss-Jordan reduction, the reference for the kernel:
    the RREF padded with zero rows, and the pivot columns."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def reference_kernel(red, pivots, cols):
    """Kernel basis read off a reference RREF: one row per free column f,
    1 at f and minus the pivot rows' f entries at the pivot columns."""
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for k, pc in enumerate(pivots):
            v[pc] = -red[k][f]
        basis.append(v)
    return basis


big_pq_entries = st.builds(
    F,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)


@st.composite
def pq_matrices(draw):
    """p/q matrices with numerators and denominators up to 10^12, zero rows,
    zero columns and rows that are combinations of earlier ones."""
    cols = draw(st.integers(min_value=1, max_value=6))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=cols - 1)))
    entry = st.one_of(st.just(F(0)), pq_entries, big_pq_entries)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("fresh", "zero", "combination")))
        if kind == "zero":
            row = [F(0)] * cols
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            row = [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(cols)]
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
        rows.append([F(0) if j in zero_cols else e for j, e in enumerate(row)])
    return RationalMatrix.from_rows(rows, cols=cols)


@settings(max_examples=150, deadline=None)
@given(pq_matrices(), st.data())
def test_kernel_matches_dense_fraction_reference(m, data):
    rows = [m.row(i) for i in range(m.rows)]
    red, pivots = gauss_jordan(rows, m.cols)
    assert m.rref() == (RationalMatrix.from_rows(red, cols=m.cols), pivots)
    assert m.rank() == len(pivots)
    assert matrix_kernel(m) == RationalMatrix.from_rows(
        reference_kernel(red, pivots, m.cols), cols=m.cols
    )
    # a rescaled, reordered copy, sometimes with one entry moved off
    order = data.draw(st.permutations(range(m.rows)))
    scales = data.draw(
        st.lists(big_pq_entries.filter(bool), min_size=m.rows, max_size=m.rows)
    )
    other = [[s * e for e in rows[i]] for s, i in zip(scales, order)]
    if other and data.draw(st.booleans()):
        i = data.draw(st.integers(min_value=0, max_value=len(other) - 1))
        j = data.draw(st.integers(min_value=0, max_value=m.cols - 1))
        other[i][j] += data.draw(big_pq_entries)
    expected = gauss_jordan(other, m.cols) == (red, pivots)
    assert row_space_equal(m, RationalMatrix.from_rows(other, cols=m.cols)) is expected


def assert_primitive_pivot_rows(pivots):
    for c, row in pivots.items():
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        assert row[c] > 0
        assert min(row) == c


@settings(max_examples=100, deadline=None)
@given(pq_matrices())
def test_echelon_keeps_primitive_int_rows(m):
    pivots = _echelon(row for _, row in m.int_rows)
    assert_primitive_pivot_rows(pivots)
    _back_substitute(pivots)
    assert_primitive_pivot_rows(pivots)
    for c in pivots:
        assert not any(k in pivots for k in pivots[c] if k != c)


def test_kernel_of_identity_is_empty():
    k = matrix_kernel(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert k.rows == 0 and k.cols == 3


def test_kernel_of_single_row():
    m = RationalMatrix.from_rows([[0, 1, -1, 0]])
    k = matrix_kernel(m)
    assert k.rows == 3
    for i in range(k.rows):
        v = k.row(i)
        assert sum(F(c) * v[j] for j, c in enumerate((0, 1, -1, 0))) == 0
    assert k.rank() == 3


def test_kernel_of_zero_matrix():
    k = matrix_kernel(RationalMatrix.from_rows([[0] * 5] * 2))
    assert k.rows == 5 and k.rank() == 5


def test_annihilator_of_antisymmetric_line():
    m = RationalMatrix.from_rows([[0, 1, -1, 0]])
    ann = matrix_kernel(m)
    assert ann.rows == 3
    # the symmetric side lies inside the annihilator
    expected = RationalMatrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    assert row_space_equal(ann, expected)


def test_annihilator_extremes():
    full = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_kernel(full).rows == 0
    empty = RationalMatrix.from_rows([], cols=3)
    assert matrix_kernel(empty).rows == 3


def test_row_space_equal_column_mismatch():
    with pytest.raises(ColumnMismatch):
        row_space_equal(
            RationalMatrix.from_rows([[1, 2]]), RationalMatrix.from_rows([[1, 2, 0]])
        )


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rank_nullity(rows, cols, data):
    entries = data.draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    m = RationalMatrix(rows, cols, tuple(F(e) for e in entries))
    assert m.rank() + matrix_kernel(m).rows == cols


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_double_annihilator_restores_row_space(rows, cols, data):
    entries = data.draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    m = RationalMatrix(rows, cols, tuple(F(e) for e in entries))
    back = matrix_kernel(matrix_kernel(m))
    assert row_space_equal(back, m)


def test_no_floats_in_results():
    s = TruncatedSeries([1, -5, 5, -1]).with_order(8).inverse()
    assert all(isinstance(c, (int, Fraction)) for c in s.coeffs)
    v = SurdValue(1, 1, 12) * SurdValue(2, -3, 12)
    assert isinstance(v.a, Fraction) and isinstance(v.b, Fraction)
    k = matrix_kernel(RationalMatrix.from_rows([[1, 2, 3]]))
    assert all(isinstance(e, Fraction) for e in k.entries)


def test_frac_keeps_fractions_and_parses_the_rest():
    x = F(3, 4)
    assert _frac(x) is x
    assert [_frac(v) for v in (2, "-3/4", " 5 ")] == [F(2), F(-3, 4), F(5)]
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            _frac(bad)
    for entries in ([0.5], [False]):
        with pytest.raises(TypeError):
            RationalMatrix(1, 1, entries)
