"""Exact arithmetic foundation: rationals, quadratic surds, truncated power
series, and linear algebra over the rationals on one sparse elimination
kernel.

A RationalMatrix is stored as int rows: each rational row is cleared of
denominators once, on the way in (_dense_to_sparse), which also gives the
row's own denominator, so (den, row) stands for row / den in one form only.
The elimination kernel runs fraction-free on those rows, through one
reduction loop (_insert): rows the kernel borrows, such as a matrix's own,
are copied first (_echelon), and rows a caller builds for it, such as the
quotient recursion's, are inserted as they are. A matrix eliminates its own
rows at most once: the first reader builds its reduced echelon form
(_reduced) and the matrix keeps it, outside ==, hash and repr, for every
later reader. rank, rref and matrix_kernel read that one form, and so do
the quadratic presentations' rank check, dual, double-dual certificate and
degree dimensions. The matrices it returns (rref, matrix_kernel) are int
rows again (_by_lead, RationalMatrix._of). Fractions are built only when a
matrix's entries are read. Quadratic presentations hold their relation
blocks as such matrices from JSON parsing to JSON output, so koszul_dual,
degree_dims and the double-dual check build no Fraction.
A TruncatedSeries is an integer series: its coeffs are ints, and products,
quotients, inverses, truncation and equality run on them, so the Hilbert
series of the hilbert command build no Fraction. It divides only by a series
whose constant term is 1 or -1, a unit of Z[[t]], as the Hilbert series of a
connected graded algebra is; a coefficient that is not an integer and any
other divisor are refused with ValueError (ZeroConstantTerm for 0).

A SurdValue is placed on the line by one integer floor (_floor_surd), so
surd order, floor and decimal rounding share that one exact routine.

Everything here is pure and immutable. No operation constructs a float; the
only decimal output is the string produced by :func:`surd_to_decimal`, and
that is computed with integer square roots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from operator import add, neg, sub
from typing import Iterable, Sequence

from ._value import Value
from .errors import ColumnMismatch, RadicandMismatch, ZeroConstantTerm

_ORDER_CAP = 512


def _require_order(order: int) -> None:
    """Refuse a series order past the cap, before any coefficient is made."""
    if order > _ORDER_CAP:
        raise ValueError(f"series order {order} exceeds the cap {_ORDER_CAP}")


def _frac(x) -> Fraction:
    """The one rational parser (API, JSON, argv): a Fraction comes back as is;
    ints, "p/q" strings and other rationals are parsed exactly; floats and
    bools are refused, and so are strings in exponent notation, whose few
    characters ("1e3000000") can stand for a number of unbounded size."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"{type(x).__name__} input is not accepted")
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"exponent notation is not accepted: {x!r}")
    return Fraction(x)


# --------------------------------------------------------------------------
# truncated power series
# --------------------------------------------------------------------------


class TruncatedSeries(Value):
    """An integer power series known exactly modulo t^(order+1).

    coeffs holds the ints c_0 .. c_N, so equal series are stored equal and
    ==, hashing, products, quotients, inverses and truncation all run on
    those ints. The order is N = len(coeffs) - 1 and is capped at 512 (far
    above anything the verification suites require). A Hilbert series of a
    connected graded algebra has constant term 1, a unit of Z[[t]], so a
    divisor must have constant term 1 or -1.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = []
        for c in coeffs:
            c = _frac(c)
            if c.denominator != 1:
                raise ValueError(f"series coefficient {c} is not an integer")
            cs.append(c.numerator)
        _store(self, cs)

    @classmethod
    def _of(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        """The series of these ints, with no parsing."""
        self = object.__new__(cls)
        _store(self, coeffs)
        return self

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def with_order(self, order: int) -> "TruncatedSeries":
        """Pad with zeros or truncate so that the order becomes `order`."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        _require_order(order)
        if order == len(self.coeffs) - 1:
            return self  # a series is immutable, so it is its own copy
        cs = self.coeffs[: order + 1]
        return TruncatedSeries._of(cs + (0,) * (order + 1 - len(cs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the longer operand's order.

        Each nonzero coefficient c_k of the operand that has fewer of them
        adds c_k times the other operand's coefficients, cut to the
        n + 1 - k coefficients from k on, into those coefficients, so
        coefficient i gets exactly its terms with k <= i. The first such c_k
        writes its multiple into the zero coefficients (a copy when
        c_k = 1), and a later c_k of 1 or -1 adds or subtracts the
        coefficients with no product.
        """
        n = max(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if sum(map(bool, b)) < sum(map(bool, a)):
            a, b = b, a
        b += (0,) * (n + 1 - len(b))
        out = None
        for k, c in enumerate(a):
            if not c:
                continue
            if out is None:
                out = [0] * k
                out += b[: n + 1 - k] if c == 1 else map(c.__mul__, b[: n + 1 - k])
            elif c == 1:
                out[k:] = map(add, out[k:], b)
            elif c == -1:
                out[k:] = map(sub, out[k:], b)
            else:
                out[k:] = map(add, out[k:], map(c.__mul__, b))
        return TruncatedSeries._of(out or [0] * (n + 1))

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self / other to the longer operand's order, for a divisor whose
        constant term c_0 is 1 or -1.

        With b, c the coefficients of self and other, c_0 is its own
        inverse, so x_n = c_0 b_n - sum_k c_0 c_k x_(n-k) over the nonzero
        c_k with 1 <= k <= n is the n-th coefficient of b / c. Each x_n runs
        over the divisor's nonzero terms in order of k and stops at the
        first k > n; the terms whose weight c_0 c_k is -1 have a loop of
        their own that adds x_(n-k) with no product.
        """
        n = max(self.order, other.order)
        b, c = self.coeffs, other.coeffs
        c0 = c[0]
        if c0 == 0:
            raise ZeroConstantTerm("cannot divide by a series with zero constant term")
        if c0 not in (1, -1):
            raise ValueError(
                f"cannot divide by a series with constant term {c0}: only 1 and -1 are units"
            )
        terms = [(k, c0 * ck) for k, ck in enumerate(c) if k and ck]
        units = [k for k, w in terms if w == -1]
        terms = [(k, w) for k, w in terms if w != -1]
        b += (0,) * (n + 1 - len(b))
        if c0 == -1:
            b = tuple(map(neg, b))
        x = []
        for i in range(n + 1):
            xi = b[i]
            for k, w in terms:
                if k > i:
                    break
                xi -= w * x[i - k]
            if units:
                for k in units:
                    if k > i:
                        break
                    xi += x[i - k]
            x.append(xi)
        return TruncatedSeries._of(x)

    def inverse(self) -> "TruncatedSeries":
        """1/self to the same order."""
        return TruncatedSeries._of((1,)) / self


def _store(s: TruncatedSeries, coeffs: Iterable[int]) -> None:
    """Set s's coefficients to these ints."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("a series needs at least its constant coefficient")
    _require_order(len(coeffs) - 1)
    s.__dict__["coeffs"] = coeffs


def first_series_mismatch(s: TruncatedSeries, t: TruncatedSeries) -> int | None:
    """Index of the first differing coefficient, or None if equal throughout,
    the shorter series padded with zeros."""
    n = max(s.order, t.order)
    a, b = s.with_order(n).coeffs, t.with_order(n).coeffs
    if a == b:
        return None
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


# --------------------------------------------------------------------------
# quadratic surds
# --------------------------------------------------------------------------


@total_ordering
class SurdValue(Value):
    """The exact real number a + b*sqrt(m) with a, b rational and m >= 0.

    A perfect-square radicand is collapsed into the rational part at
    construction, so is_rational is simply b == 0. The radicand is kept as
    given otherwise (no squarefree reduction); values are expected to share
    one m per computation context, and arithmetic between two irrational
    values over different radicands raises RadicandMismatch. Rational
    operands (b == 0, or plain int/Fraction) adopt the other side's m.
    """

    _fields = ("a", "b", "m")

    def __init__(self, a, b=0, m: int = 0):
        a, b = _frac(a), _frac(b)
        if not isinstance(m, int) or m < 0:
            raise ValueError("radicand must be a nonnegative integer")
        if b != 0:
            s = isqrt(m)
            if s * s == m:
                a, b = a + b * s, Fraction(0)
        d = self.__dict__
        d["a"] = a
        d["b"] = b
        d["m"] = m

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _with(self, other) -> tuple["SurdValue", "SurdValue"]:
        if isinstance(other, (int, Fraction)):
            other = SurdValue(other, 0, self.m)
        elif not isinstance(other, SurdValue):
            return NotImplemented, NotImplemented
        if other.b == 0:
            return self, SurdValue(other.a, 0, self.m)
        if self.b == 0:
            return SurdValue(self.a, 0, other.m), other
        if self.m != other.m:
            raise RadicandMismatch(f"radicands differ: {self.m} vs {other.m}")
        return self, other

    def __add__(self, other):
        s, o = self._with(other)
        if s is NotImplemented:
            return NotImplemented
        return SurdValue(s.a + o.a, s.b + o.b, s.m)

    __radd__ = __add__

    def __neg__(self):
        return SurdValue(-self.a, -self.b, self.m)

    def __sub__(self, other):
        s, o = self._with(other)
        if s is NotImplemented:
            return NotImplemented
        return SurdValue(s.a - o.a, s.b - o.b, s.m)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        s, o = self._with(other)
        if s is NotImplemented:
            return NotImplemented
        return SurdValue(s.a * o.a + s.b * o.b * s.m, s.a * o.b + s.b * o.a, s.m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s, o = self._with(other)
        if s is NotImplemented:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("surd division by zero")
        den = o.a * o.a - o.b * o.b * o.m
        num = s * SurdValue(o.a, -o.b, s.m)
        return SurdValue(num.a / den, num.b / den, s.m)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = SurdValue(1, 0, self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, SurdValue):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.m == other.m and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __lt__(self, other):
        s, o = self._with(other)
        if s is NotImplemented:
            return NotImplemented
        return _floor_surd(s - o) < 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"√{self.m}"
        bs = "" if abs(self.b) == 1 else str(abs(self.b))
        tail = f"{bs}{root}"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {tail}"


def _floor_surd(v: SurdValue) -> int:
    """Exact floor of v, in integers alone.

    Write v = (p + q*sqrt(m)) / den with den the lcm of the denominators of
    a and b. Then floor(v) = (p + s) // den, where s = isqrt(q^2 m) for
    q > 0 and s = -isqrt(q^2 m) - 1 for q < 0. This holds because b != 0
    only over a non-square m (SurdValue collapses square radicands), so
    q*sqrt(m) is irrational and s is its floor.
    """
    a, b = v.a, v.b
    den = lcm(a.denominator, b.denominator)
    p = a.numerator * (den // a.denominator)
    q = b.numerator * (den // b.denominator)
    if q > 0:
        p += isqrt(q * q * v.m)
    elif q < 0:
        p -= isqrt(q * q * v.m) + 1
    return p // den


def surd_to_decimal(x: SurdValue, digits: int) -> str:
    """Correctly rounded decimal string with `digits` fractional digits.

    Display only; the value never passes through floating point. Exact ties
    (possible only for rational inputs) round away from zero.
    """
    if not isinstance(digits, int) or not 1 <= digits <= 50:
        raise ValueError("digits must be an integer between 1 and 50")
    v = x * 10**digits
    neg = v < 0
    if neg:
        v = -v
    k = _floor_surd(v + Fraction(1, 2))
    s = str(k).rjust(digits + 1, "0")
    return ("-" if neg else "") + s[:-digits] + "." + s[-digits:]


# --------------------------------------------------------------------------
# exact linear algebra
# --------------------------------------------------------------------------


class RationalMatrix(Value):
    """Immutable matrix over the rationals, stored as int rows.

    int_rows holds one (den, {col: num}) pair per row, standing for the row
    num / den, in the one form _dense_to_sparse gives it, so equal entries
    are stored equal. rows, entries and row(i) are views that build their
    Fractions when read. _form is the reduced echelon form of the rows,
    built by the first reader of _reduced_form and kept; it takes no part
    in ==, hash or repr.
    """

    _fields = ("cols", "int_rows")
    _form: dict[int, dict[int, int]] | None = None

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(_frac(e) for e in entries)
        if rows < 0 or cols < 0 or len(es) != rows * cols:
            raise ValueError("entry count must equal rows*cols")
        dense = (es[i * cols : (i + 1) * cols] for i in range(rows))
        super().__init__(cols, tuple(_dense_to_sparse(dense)))

    @classmethod
    def _of(cls, cols: int, int_rows: Iterable[tuple[int, dict[int, int]]]):
        """The matrix of these int rows, each already in _dense_to_sparse's
        form, built without checks."""
        return cls._unchecked(cols, tuple(int_rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(rows), cols, [e for r in rows for e in r])

    def __hash__(self):
        rows = tuple((den, frozenset(row.items())) for den, row in self.int_rows)
        return hash((self.cols, rows))

    def _reduced_form(self) -> dict[int, dict[int, int]]:
        """The reduced echelon form of the rows, pivot column -> primitive
        int row (_reduced), built on the first call and kept.

        Every elimination of the matrix's own rows reads this one form, so
        no caller may change it.
        """
        form = self._form
        if form is None:
            form = _reduced(row for _, row in self.int_rows)
            self.__dict__["_form"] = form
        return form

    @property
    def rows(self) -> int:
        return len(self.int_rows)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def row(self, i: int) -> tuple[Fraction, ...]:
        den, row = self.int_rows[i]
        zero = Fraction(0)
        return tuple(
            Fraction(row[j], den) if j in row else zero for j in range(self.cols)
        )

    def rref(self) -> tuple["RationalMatrix", list[int]]:
        """Reduced row echelon form and the pivot column list.

        Pivot rows come first in column order, then the zero rows.
        """
        pivots = self._reduced_form()
        zeros = ((1, {}),) * (self.rows - len(pivots))
        return RationalMatrix._of(self.cols, _by_lead(pivots) + zeros), sorted(pivots)

    def rank(self) -> int:
        return len(self._reduced_form())


def matrix_kernel(m: RationalMatrix) -> RationalMatrix:
    """Basis rows of the right null space {v : m v^T = 0}.

    Returns cols - rank(m) independent rows (possibly none), one per free
    column in column order: _kernel_rows, each row divided by its entry at
    its free column, so that entry is 1.
    """
    return RationalMatrix._of(m.cols, _by_lead(_kernel_rows(m._reduced_form(), m.cols)))


def _by_lead(rows: dict[int, dict[int, int]]) -> tuple:
    """Primitive int rows keyed by a lead column (a pivot, or a kernel row's
    free column), in column order, as (den, row) with den the row's positive
    entry at that column: each row divided by that entry, in the one form
    _dense_to_sparse gives it."""
    return tuple((rows[c][c], rows[c]) for c in sorted(rows))


def _subtract(row: dict[int, int], c: int, piv: dict[int, int]) -> None:
    """row <- (p * row - row[c] * piv) / content in place, for p = piv[c] > 0.

    Clears column c of row without a division, drops the entries that
    cancel and leaves row primitive. Entries of row outside piv's support are
    only scaled by a positive factor, so they keep their sign.
    """
    f = row.pop(c)
    p = piv[c]
    g = gcd(f, p)
    if g != 1:
        f //= g
        p //= g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in piv.items():
        if k == c:
            continue
        old = row.get(k)
        if old is None:
            row[k] = -f * v
            continue
        nv = old - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    _divide_content(row)


def _divide_content(row: dict[int, int]) -> None:
    """Divide an int row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _insert(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Reduce one int row against pivots and store what is left, in place.

    This is the one reduction loop of the kernel. row must hold no zero
    entry, and the caller gives it up: it is changed, and it or a copy of
    it may be stored. It is divided by the gcd of its entries; from there
    elimination runs fraction-free, in the spirit of Bareiss (1968), on
    primitive int rows, each stored positive at its pivot. Pivot on the
    row's least column, so every pivot row is zero left of its pivot; rows
    with tiny support (the tensor spreads) stay tiny throughout, which keeps
    this near linear. A row that reduces to zero is dropped.
    """
    _divide_content(row)
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            if row[c] < 0:
                row = {k: -v for k, v in row.items()}
            pivots[c] = row
            return
        _subtract(row, c, piv)


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination of sparse int rows: pivot column -> primitive int row.

    The rows are borrowed and left as they are: each is copied without its
    zero entries and the copy goes through _insert. Code that builds its own
    rows (the quotient recursion) calls _insert on them directly.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        _insert(pivots, {c: v for c, v in raw.items() if v})
    return pivots


def _back_substitute(pivots: dict[int, dict[int, int]]) -> None:
    """Turn the output of _echelon into reduced echelon form, in place.

    Every pivot row ends up zero in every other pivot column and stays a
    primitive int row, positive at its pivot, so equal row spaces give equal
    dicts. Rows are reduced from the last pivot back, so each row is cleared
    only against rows already reduced, and those add no pivot columns back.
    """
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _subtract(row, k, pivots[k])


def _reduced(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The canonical reduced echelon form of sparse int rows."""
    pivots = _echelon(rows)
    _back_substitute(pivots)
    return pivots


def _normal_form(pivots: dict[int, dict[int, int]], cols: int) -> tuple[int, list]:
    """(dim, [(q, int_row), ...]): each column as int_row / q on the free
    columns of the reduced pivots, numbered 0..dim-1 in order. A free column
    is itself; a pivot column is minus the rest of its row over its pivot q.
    """
    free = (col for col in range(cols) if col not in pivots)
    basis = {col: k for k, col in enumerate(free)}
    nf = []
    for col in range(cols):
        if col in basis:
            nf.append((1, {basis[col]: 1}))
            continue
        row = pivots[col]
        nf.append((row[col], {basis[f]: -x for f, x in row.items() if f != col}))
    return len(basis), nf


def _kernel_rows(
    pivots: dict[int, dict[int, int]], cols: int
) -> dict[int, dict[int, int]]:
    """Primitive int rows spanning the right kernel of a reduced echelon
    form, keyed by free column.

    The transpose of _normal_form, each row scaled by the lcm of its q's and
    divided by its content: the row of free column f holds that lcm at f and
    -x * (lcm // q) at each pivot column whose row (pivot entry q) holds x at
    f, over their gcd. It is zero on every other free column, so the rows
    are independent, and positive at f.
    """
    terms: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(cols) if f not in pivots
    }
    for c, row in pivots.items():
        q = row[c]
        for f, x in row.items():
            if f != c:
                terms[f].append((c, x, q))
    kernel = {}
    for f, ts in terms.items():
        den = lcm(*(q for _, _, q in ts))
        row = {f: den}
        for c, x, q in ts:
            row[c] = -x * (den // q)
        _divide_content(row)
        kernel[f] = row
    return kernel


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of a set of sparse int rows."""
    return len(_echelon(rows))


def _dense_to_sparse(rows: Iterable[Sequence]) -> Iterable[tuple[int, dict]]:
    """The Fraction -> int row step of RationalMatrix: each row of
    rationals (and int zeros) as (den, row), sparse and scaled by the lcm
    den of its denominators.

    den > 0 has no factor in common with all of the row's ints, so (den, row)
    is the one such form of the rational row row / den (a zero row is
    (1, {})).
    """
    for dense in rows:
        row = {j: e for j, e in enumerate(dense) if e}
        den = lcm(*(e.denominator for e in row.values()))
        yield den, {j: e.numerator * (den // e.denominator) for j, e in row.items()}


def row_space_equal(a: RationalMatrix, b: RationalMatrix) -> bool:
    """Exact equality of row spaces (not just of dimensions)."""
    if a.cols != b.cols:
        raise ColumnMismatch("row spaces live in different ambient dimensions")
    return a._reduced_form() == b._reduced_form()
