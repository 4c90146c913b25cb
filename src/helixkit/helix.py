"""Seed-driven generation and certification of mutation-invariant tables.

A seed is a strictly increasing triple of rational slopes. Its reduced
fractions populate rows 0 and 1 of an integer table which then grows by two
determinant recursions; everything else here (positivity verdicts, minor
periodicity, closed forms over Q(sqrt m), limit slopes, two-sided extension)
is a view of that table or an independent route to the same numbers. The
closed form is evaluated on plain integers, in Z[sqrt m], from powers of the
growth factor alone.
"""

from __future__ import annotations

import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ._value import Value
from .bundles import ChernVector, Triad, dualize, dualize_triad, mutate_triad_right
from .errors import (
    InvalidSeed,
    NotEquigeneratedSeed,
    TableTooShort,
    UnsupportedD,
)
from .exact import SurdValue, _frac, surd_to_decimal


class Seed(Value):
    """Strictly increasing rational slope triple (mu0, mu1p, mu1)."""

    _fields = ("mu0", "mu1p", "mu1")

    def __init__(self, mu0, mu1p, mu1):
        mu0, mu1p, mu1 = _frac(mu0), _frac(mu1p), _frac(mu1)
        if not mu0 < mu1p < mu1:
            raise InvalidSeed(f"slopes must increase strictly: {mu0}, {mu1p}, {mu1}")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1p", mu1p)
        object.__setattr__(self, "mu1", mu1)

    @classmethod
    def _unchecked(cls, mu0: Fraction, mu1p: Fraction, mu1: Fraction) -> Seed:
        """The seed of three Fractions already in strictly increasing order,
        built without the constructor's parsing and order check (a drawn
        seed, see sampling.random_seed_table)."""
        seed = cls.__new__(cls)
        seed.__dict__.update(mu0=mu0, mu1p=mu1p, mu1=mu1)
        return seed

    @property
    def d_param(self) -> int | None:
        """d when the seed is (0, d/2, d) with d an odd integer >= 3."""
        if (
            self.mu0 == 0
            and self.mu1.denominator == 1
            and self.mu1 >= 3
            and self.mu1.numerator % 2 == 1
            and self.mu1p == Fraction(self.mu1, 2)
        ):
            return int(self.mu1)
        return None

    def pairs(self):
        """((d0,r0), (d1p,r1p), (d1,r1)) from the reduced fractions."""
        return (
            (self.mu0.numerator, self.mu0.denominator),
            (self.mu1p.numerator, self.mu1p.denominator),
            (self.mu1.numerator, self.mu1.denominator),
        )


class Row(NamedTuple):
    n: int
    d: int
    r: int
    dp: int | None
    rp: int | None


class HelixTable(Value):
    # minors[n] = d_n r_(n-1) - d_(n-1) r_n, the minor of row n with the row
    # before it as the recursion carried it (0 for row 0). Row n is
    # minors[n] * row n-1 - primed_(n-1), so minors[n] is also row n-1's
    # mixed minor, and for n >= 4 the expansion in invariants_from_seed
    # gives minors[n] = minors[n-3]: only minors[1..3] come from the rows.
    # The printed texts replay the rows from them, so _row_texts needs one
    # per row; verify_periodicity reads them only as multipliers of its
    # residuals, and its minors are the rows' own whatever they hold
    _fields = ("seed", "d_param", "rows", "degenerate_at", "minors")

    def __init__(
        self,
        seed: Seed,
        d_param: int | None,
        rows: tuple[Row, ...],
        degenerate_at: int | None,
        minors: tuple[int, ...],
    ):
        d = self.__dict__
        d["seed"] = seed
        d["d_param"] = d_param
        d["rows"] = rows
        d["degenerate_at"] = degenerate_at
        d["minors"] = minors

    def seed_triad(self) -> Triad:
        (d0, r0), (d1p, r1p), (d1, r1) = self.seed.pairs()
        return Triad(ChernVector(r0, d0), ChernVector(r1p, d1p), ChernVector(r1, d1))

    def to_json_dict(self) -> dict:
        doc: dict = {
            "seed": {
                "mu0": str(self.seed.mu0),
                "mu1p": str(self.seed.mu1p),
                "mu1": str(self.seed.mu1),
            }
        }
        if self.d_param is not None:
            doc["d"] = self.d_param
        rows = []
        for r in self.rows:
            item: dict = {"n": r.n, "d": r.d, "r": r.r}
            if r.dp is not None:
                item["dp"] = r.dp
                item["rp"] = r.rp
            rows.append(item)
        doc["rows"] = rows
        if self.degenerate_at is not None:
            doc["degenerate_at"] = self.degenerate_at
        return doc

    def to_csv(self) -> str:
        return "".join(_csv_lines(_row_texts(self)))


def _csv_lines(texts):
    """The lines of to_csv, from the _row_texts of the table."""
    yield "n,d,r,dp,rp,slope\n"
    for row, c, d, r, dp, rp in texts:
        mu = slope_text(row, c, d, r) if row.r != 0 else ""
        yield f"{row.n},{d},{r},{dp or ''},{rp or ''},{mu}\n"


def _require_printable(top: int) -> None:
    """Raise the ValueError str() raises for top, if it would.

    str() refuses an int of more digits than sys.get_int_max_str_digits()
    (0: no limit). One of at most 3 * limit bits is below 8**limit, so it has
    no more, and only a longer one is converted.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and top.bit_length() > 3 * limit:
        str(top)


# Every Decimal operation of the replay is exact or raises: no result may
# round, whatever its number of digits
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


def _checked_text(x: int, v: Decimal) -> str:
    """str(x), read from v, the Decimal the replay made for x.

    The text is checked against x: its sign, and its last nine digits
    against abs(x) % 10**9, whose divisor fits one 30-bit digit of an int, so
    the check is linear. A zero prints "0" however v is signed: a negative
    minor times zero makes Decimal -0.
    """
    if not x:
        if v:
            raise ArithmeticError(f"decimal replay gives {v} for 0")
        return "0"
    text = str(v)
    digits = text[1:] if text[0] == "-" else text
    if (text[0] == "-") != (x < 0) or int(digits[-9:]) != abs(x) % 1_000_000_000:
        raise ArithmeticError(f"decimal replay gives ...{text[-9:]} for an entry "
                              f"ending ...{abs(x) % 1_000_000_000}")
    return text


def _row_texts(table: HelixTable):
    """Yield (row, minor, d, r, dp, rp) for each row of table, with the texts
    str() gives for row.d, row.r, row.dp and row.rp (dp, rp None on row 0).

    Raises a ValueError before yielding anything if the table carries fewer
    minors than rows, or the one str() would if some entry has more digits
    than the int str limit allows. str() of an int is quadratic in its
    digits, while a Decimal holds base-10 digits and prints in linear time;
    so the texts come from an exact Decimal replay of invariants_from_seed's
    two updates, from the Decimals of rows 0 and 1 and the table's carried
    minors. Only the last two rows are kept, and each text is checked
    against its int before it is yielded (_checked_text): a replay that
    disagrees with the table raises ArithmeticError and never yields the
    text.
    """
    rows, minors = table.rows, table.minors
    if len(minors) < len(rows):
        raise ValueError(f"table of {len(rows)} rows carries only {len(minors)} minors")
    _require_printable(max(
        (x for row in rows for x in row[1:] if x is not None), key=int.bit_length
    ))
    return _replay(rows, minors)


def _replay(rows: tuple[Row, ...], minors: tuple[int, ...]):
    mul, sub = _EXACT.multiply, _EXACT.subtract
    first, row = rows[0], rows[1]
    d2, r2 = Decimal(first.d), Decimal(first.r)
    d1, r1 = Decimal(row.d), Decimal(row.r)
    dp1, rp1 = Decimal(row.dp), Decimal(row.rp)
    yield (
        first, minors[0], _checked_text(first.d, d2), _checked_text(first.r, r2),
        None, None,
    )
    c = Decimal(minors[1])
    for i in range(1, len(rows)):
        if i > 1:
            # the two updates of invariants_from_seed: row i from rows i-1, i-2
            row, c_prev, c = rows[i], c, Decimal(minors[i])
            dp, rp = sub(mul(c_prev, d1), d2), sub(mul(c_prev, r1), r2)
            d, r = sub(mul(c, d1), dp1), sub(mul(c, r1), rp1)
            d2, r2, d1, r1, dp1, rp1 = d1, r1, d, r, dp, rp
        yield (
            row, minors[i], _checked_text(row.d, d1), _checked_text(row.r, r1),
            _checked_text(row.dp, dp1), _checked_text(row.rp, rp1),
        )


def slope_text(row: Row, c: int, d_text: str, r_text: str) -> str:
    """str(Fraction(row.d, row.r)) for row.r != 0, given d_text = str(row.d)
    and r_text = str(row.r).

    c = d r_prev - d_prev r is the minor of row with the row before it (0
    for the first row), as HelixTable.minors carries it. Every common factor
    of d and r divides c, so g = gcd(c, d, r) is gcd(d, r); c is small, so g
    costs one reduction of d and r by c instead of a gcd of two table-size
    integers. c = 0 leaves g = gcd(d, r) computed directly. If g != 1 or
    r < 0 the Fraction is built; otherwise the texts already printed are the
    slope.
    """
    d, r = row.d, row.r
    if gcd(c, d, r) != 1 or r < 0:
        return str(Fraction(d, r))
    return d_text if r == 1 else f"{d_text}/{r_text}"


def invariants_from_seed(seed: Seed, n_max: int) -> HelixTable:
    """Grow the integer table to row n_max (or to the first rank <= 0).

    Row i gains its primed pair from the unprimed rows i-1, i-2 and its
    unprimed pair from row i-1 together with row i-1's primed pair. A
    nonpositive rank component stops growth; the offending row is kept and
    flagged in degenerate_at.

    Write det(x, y) = x.d y.r - y.d x.r and c_k = minors[k]. Row i is
    c_i * row i-1 - primed_(i-1) with c_i = det(row i-1, primed_(i-1)), row
    i-1's mixed minor, so det(row i, row i-1) = c_i: the table's minors are
    the mixed minors one row back. With primed_i = c_(i-1) row i-1 - row i-2,
    row i's mixed minor expands for i >= 3 (primed_(i-1) then comes from the
    recursion, not from the seed) as
      c_(i+1) = -c_i det(row i-1, row i-2) - c_(i-1) det(primed_(i-1), row i-1)
                + det(c_(i-2) row i-2 - row i-3, row i-2)
              = -c_i c_(i-1) + c_(i-1) c_i + c_(i-2) = c_(i-2),
    so minors[k] = minors[k-3] for every k >= 4 and every seed. Only
    minors[1], minors[2] and minors[3] are computed from the rows; every
    later row carries minors[k-3] and costs four products of a small minor
    with a table-size integer, none of two table-size ones. The table keeps
    these minors for its slope column; verify_periodicity recomputes every
    minor from the finished rows.
    """
    if n_max < 1:
        raise ValueError("need at least rows 0 and 1")
    (d0, r0), (d1p, r1p), (d1, r1) = seed.pairs()
    rows = [Row(0, d0, r0, None, None), Row(1, d1, r1, d1p, r1p)]
    minors = [0, d1 * r0 - d0 * r1]
    degenerate_at = None
    for i in range(2, n_max + 1):
        prev, prev2, minor = rows[i - 1], rows[i - 2], minors[i - 1]
        dp, rp = minor * prev.d - prev2.d, minor * prev.r - prev2.r
        mixed = _mixed_minor(prev) if i < 4 else minors[i - 3]
        d, r = mixed * prev.d - prev.dp, mixed * prev.r - prev.rp
        rows.append(Row(i, d, r, dp, rp))
        minors.append(mixed)
        if r <= 0 or rp <= 0:
            degenerate_at = i
            break
    return HelixTable(seed, seed.d_param, tuple(rows), degenerate_at, tuple(minors))


class PositivityReport(Value):
    """kind is Certified, VerifiedToHorizon or FailsAt."""

    _fields = ("kind", "horizon", "fail_index", "fail_component")

    def __init__(
        self,
        kind: str,
        horizon: int,
        fail_index: int | None = None,
        fail_component: str | None = None,
    ):
        d = self.__dict__
        d["kind"] = kind
        d["horizon"] = horizon
        d["fail_index"] = fail_index
        d["fail_component"] = fail_component

    def __str__(self):
        if self.kind == "Certified":
            return "Certified"
        if self.kind == "VerifiedToHorizon":
            return f"VerifiedToHorizon({self.horizon})"
        return f"FailsAt({self.fail_index}, {self.fail_component})"


def check_positivity(table: HelixTable) -> PositivityReport:
    """Three-valued positivity verdict for the rank components of a table.

    Certified is reserved for the (0, d/2, d) family with odd d >= 5, where
    positivity holds for every n; any other seed gets a verdict up to the
    table's last row or the first failure.
    """
    last = table.rows[-1]
    d = table.d_param
    if d is not None and d >= 5:
        return PositivityReport("Certified", last.n)
    if table.degenerate_at is not None:
        component = "r" if last.r <= 0 else "rp"
        return PositivityReport("FailsAt", last.n, last.n, component)
    return PositivityReport("VerifiedToHorizon", last.n)


def _mixed_minor(x: Row) -> int:
    return x.d * x.rp - x.dp * x.r


def verify_periodicity(table: HelixTable) -> tuple[bool, str | None]:
    """Check the three determinant identity families over the whole table.

    Consecutive-pair minors match the mixed minor one step earlier (from
    n = 1), mixed minors reach two steps back (from n = 2), and both minor
    kinds repeat with period three (from n = 3). Each minor is computed once
    (_row_minors); the families then compare list entries, and a failure
    names the first n at which its family breaks.

    This is the one place minors are recomputed from the rows:
    invariants_from_seed carries minors[k-3] as minors[k]. Write det(x, y) =
    x.d y.r - y.d x.r, R_i = (d_i, r_i), P_i = (dp_i, rp_i) and m_k =
    minors[k] (0 past the end of the tuple). The residuals of the two updates
      E_i = R_i - m_i R_(i-1) + P_(i-1),  F_i = P_i - m_(i-1) R_(i-1) + R_(i-2)
    are zero on every table invariants_from_seed builds, and expanding R_i
    and P_i through them gives, over Z and for i >= 3,
      consec[i-1] = mixed[i-1] + det(E_i, R_(i-1)),
      mixed[i] = m_(i-1) consec[i-1] - m_i consec[i-2] + consec[i-3]
                 + det(F_(i-1), R_(i-2)) - det(E_i, R_(i-2)) + det(R_i, F_i);
    consec[0], mixed[1] and mixed[2] are determinants of the first rows (the
    first line also holds at i = 2). Both hold for any integer multipliers,
    so the lists are the rows' own minors for every table, tampered or not:
    the carried minors only act as multipliers and never decide a verdict.
    Rows built with any carried values satisfy the first family by
    construction, so a wrong carried minor at row k shows in the mixed-minor
    recursion family, at n = k - 1.

    Cost: four products of a carried minor with a table-size integer per
    row, none of two table-size integers, so the check is linear in the
    table's digits. A nonzero residual adds its determinants with two rows.
    """
    if len(table.rows) < 5:
        raise TableTooShort("periodicity checks need at least rows 0..4")
    consec, mixed = _row_minors(table)
    top = len(consec)
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


def _row_minors(table: HelixTable) -> tuple[list[int], list[int | None]]:
    """(consec, mixed) of a table of at least 3 rows: consec[n] is the minor
    of rows n+1, n and mixed[n] row n's mixed minor (None at n = 0), by the
    residual identities in verify_periodicity's docstring."""
    rows = table.rows
    top = len(rows) - 1
    minors = (*table.minors, *(0,) * len(rows))
    # in step i, row i-1 is (d1, r1, dp1, rp1), row i-2 is (d2, r2) and
    # (fd1, fr1) is F_(i-1), first read at i = 3
    _, d2, r2, _, _ = rows[0]
    _, d1, r1, dp1, rp1 = rows[1]
    consec = [d1 * r2 - d2 * r1]
    mixed = [None, _mixed_minor(rows[1]), _mixed_minor(rows[2])]
    fd1 = fr1 = 0
    for i in range(2, top + 1):
        _, d, r, dp, rp = rows[i]
        c, c1 = minors[i], minors[i - 1]
        ed, er = d - c * d1 + dp1, r - c * r1 + rp1
        fd, fr = dp - c1 * d1 + d2, rp - c1 * r1 + r2
        consec.append(mixed[i - 1] + (ed * r1 - d1 * er if ed or er else 0))
        if i > 2:
            m = c1 * consec[i - 1] - c * consec[i - 2] + consec[i - 3]
            if fd1 or fr1:
                m += fd1 * r2 - d2 * fr1
            if ed or er:
                m -= ed * r2 - d2 * er
            if fd or fr:
                m += d * fr - fd * r
            mixed.append(m)
        d2, r2, d1, r1, dp1, rp1, fd1, fr1 = d1, r1, d, r, dp, rp, fd, fr
    return consec, mixed


def _require_odd_ge5(d: int) -> int:
    if not isinstance(d, int) or d < 5 or d % 2 == 0:
        raise UnsupportedD(f"d must be an odd integer >= 5, got {d}")
    return (d - 3) * (d + 1)


def closed_form(d: int, n_max: int) -> list[tuple[int, int]]:
    """[(r_n, d_n) for n = 0..n_max], evaluated exactly in Z[sqrt m].

    m = (d-3)(d+1). With the conjugate growth factors x, y = d-1 -+ sqrt m,
    r_n = ((x/2)^n (1+w) + (y/2)^n (1-w)) / 2 with w = (d-3)/sqrt m, and
    d_n = ((y/2)^n - (x/2)^n) d/sqrt m. Write y^n = a_n + b_n sqrt m, so
    x^n = a_n - b_n sqrt m; then
      r_n = (a_n - (d-3) b_n) / 2^n,   d_n = 2d b_n / 2^n,
    and (a, b) is carried from row to row as
      a' = (d-1) a + m b,   b' = a + (d-1) b,
    products of a small factor with a row-size integer, so the cost is
    linear in the rows' digits. The rows come from powers of the growth
    factor alone, independent of the seed recursion. Every row must
    collapse to rational integers, that is 2^n must divide both numerators;
    the first row where it does not raises ArithmeticError.
    """
    m = _require_odd_ge5(d)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a, b = 1, 0
    rows = []
    for n in range(n_max + 1):
        if n:
            a, b = (d - 1) * a + m * b, a + (d - 1) * b
        low = (1 << n) - 1
        r, deg = a - (d - 3) * b, 2 * d * b
        for v in (r, deg):
            if v & low:
                raise ArithmeticError(
                    f"closed form did not collapse to an integer at n={n}: "
                    f"{Fraction(v, 1 << n)}"
                )
        rows.append((r >> n, deg >> n))
    return rows


class LimitReport(Value):
    _fields = (
        "right_limit", "left_limit", "irrational", "decimal_right", "decimal_left"
    )

    def __init__(
        self,
        right_limit: SurdValue,
        left_limit: SurdValue,
        irrational: bool,
        decimal_right: str,
        decimal_left: str,
    ):
        d = self.__dict__
        d["right_limit"] = right_limit
        d["left_limit"] = left_limit
        d["irrational"] = irrational
        d["decimal_right"] = decimal_right
        d["decimal_left"] = decimal_left


def limit_slopes(d: int) -> LimitReport:
    """Exact limiting slopes of the table in both directions.

    right = 2d / (sqrt m - (d-3)) computed by actual surd division;
    left = d - right. Both irrational exactly when m is not a perfect square,
    which SurdValue already decided when it built right.
    """
    m = _require_odd_ge5(d)
    right = SurdValue(2 * d, 0, m) / SurdValue(-(d - 3), 1, m)
    left = SurdValue(d, 0, m) - right
    return LimitReport(
        right_limit=right,
        left_limit=left,
        irrational=not right.is_rational,
        decimal_right=surd_to_decimal(right, 7),
        decimal_left=surd_to_decimal(left, 7),
    )


def verify_ratio_bound(table: HelixTable) -> bool:
    """2 r_{n+1} >= (d-1) r_n for all n >= 1 in the table (exact integers)."""
    d = table.d_param
    if d is None or d < 5:
        raise NotEquigeneratedSeed("ratio bound applies to (0, d/2, d) seeds, d >= 5")
    rows = table.rows
    for n in range(1, len(rows) - 1):
        if 2 * rows[n + 1].r < (d - 1) * rows[n].r:
            return False
    return True


class TwoSidedTable(Value):
    """Chern data indexed over the symmetric window [-n_max, n_max]."""

    _fields = ("n_max", "entries")

    def __init__(self, n_max: int, entries: dict[int, ChernVector]):
        slopes = [Fraction(entries[n].degree, entries[n].rank) for n in sorted(entries)]
        for a, b in zip(slopes, slopes[1:]):
            if not a < b:
                raise ValueError("two-sided slopes must increase strictly")
        d = self.__dict__
        d["n_max"] = n_max
        d["entries"] = entries

    def entry(self, n: int) -> ChernVector:
        return self.entries[n]

    def slope(self, n: int) -> Fraction:
        v = self.entries[n]
        return Fraction(v.degree, v.rank)


def extend_two_sided(d: int, n_max: int) -> TwoSidedTable:
    """Entries 0..n_max from the table; entries -1..-n_max through the dual.

    The dualized seed triad is mutated rightward; after i steps the dual of
    its last member is the entry at -i.
    """
    _require_odd_ge5(d)
    if n_max < 1:
        raise ValueError("window must include indices -1, 0, 1")
    table = invariants_from_seed(Seed(0, Fraction(d, 2), d), n_max)
    entries = {row.n: ChernVector(row.r, row.d) for row in table.rows}
    tri = dualize_triad(table.seed_triad())
    for i in range(1, n_max + 1):
        tri = mutate_triad_right(tri)
        entries[-i] = dualize(tri.c)
    return TwoSidedTable(n_max, entries)
