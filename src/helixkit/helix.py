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
from .bundles import ChernVector, Triad
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
        super().__init__(mu0, mu1p, mu1)

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
            self.mu0.as_integer_ratio(),
            self.mu1p.as_integer_ratio(),
            self.mu1.as_integer_ratio(),
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
    # The printed texts replay the rows from them (_replay), which refuses a
    # row that is not their recursion; verify_periodicity reads them only as
    # multipliers of its residuals, and its minors are the rows' own whatever
    # they hold. Both read a minor past the end of the tuple as 0
    _fields = ("seed", "d_param", "rows", "degenerate_at", "minors")
    # the first walk of the residuals, kept outside ==, hash and repr
    _nonzero: dict[int, list[int]] | None = None

    def _multipliers(self) -> tuple[int, ...]:
        """minors, with a 0 for each row past the end of the tuple."""
        return (*self.minors, *(0,) * (len(self.rows) - len(self.minors)))

    def _nonzero_residuals(self) -> dict[int, list[int]]:
        """{i: [ed, er, fd, fr]} for each row i whose residuals E_i, F_i
        (_residuals) are not zero, walked on the first call and kept."""
        if self._nonzero is None:
            residuals = _residuals(self.rows, self._multipliers())
            self.__dict__["_nonzero"] = {i: e_f for i, *e_f in residuals}
        return self._nonzero

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


# Every Decimal operation of the replay is exact or raises: no result may
# round, whatever its number of digits
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)
_mul, _sub = _EXACT.multiply, _EXACT.subtract


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


def _reflect(h: int, pivot, x, want) -> tuple[Decimal, Decimal, str, str]:
    """(u, v, str(want[0]), str(want[1])) for (u, v) = h * pivot - x, exact,
    from the Decimals first in pivot and x: the one step of _replay, which
    prints every seed-table row and every triad member. Each text is checked
    against want's int (_checked_text)."""
    u, v = _sub(_mul(h, pivot[0]), x[0]), _sub(_mul(h, pivot[1]), x[1])
    return u, v, _checked_text(want[0], u), _checked_text(want[1], v)


def _replay(table: HelixTable):
    """Yield (row, minor, d, r, dp, rp) for each row of table, with the texts
    str() gives for row.d, row.r, row.dp and row.rp (dp, rp None on row 0).

    str() of an int is quadratic in its digits, while a Decimal holds base-10
    digits and prints in linear time; so the texts come from an exact Decimal
    replay of invariants_from_seed's two updates, from the Decimals of rows 0
    and 1 and the table's carried minors. Only the last two rows are kept.
    Before a row from row 2 on is yielded, its residuals E_i and F_i must be
    zero (HelixTable._nonzero_residuals), so that it is the recursion the
    replay runs, and each of its texts is checked against its int
    (_reflect): a row that disagrees with the recursion, or a replay that
    disagrees with the table, raises ArithmeticError and the row is never
    yielded. The caller keeps the texts within the int str digit limit.
    """
    rows, minors = table.rows, table._multipliers()
    first, row = rows[0], rows[1]
    # the (d, r) pairs of rows i-2 and i-1 and the primed pair of row i-1;
    # each start is the reflection 1 * (p, q) - 0, checked as every step is
    before, last, primed = (
        _reflect(1, (Decimal(p), Decimal(q)), (0, 0), (p, q))
        for p, q in ((first.d, first.r), (row.d, row.r), (row.dp, row.rp))
    )
    yield first, minors[0], before[2], before[3], None, None
    # the first row that is not the recursion of the rows before it
    bad = next(iter(table._nonzero_residuals()), len(rows))
    for i in range(1, bad):
        if i > 1:
            # the two updates of invariants_from_seed: row i from rows i-1, i-2
            row, old = rows[i], primed
            primed = _reflect(minors[i - 1], last, before, (row.dp, row.rp))
            before, last = last, _reflect(minors[i], last, old, (row.d, row.r))
        yield row, minors[i], last[2], last[3], primed[2], primed[3]
    if bad < len(rows):
        raise ArithmeticError(f"row {bad} is not the seed recursion of the rows "
                              f"before it and the table's minors")


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
    return _table(seed, _grow(seed, n_max))


def _grow(seed: Seed, n_max: int):
    """Yield (row n, minors[n]) of the seed's table for n = 0 .. n_max, as
    invariants_from_seed grows them, the last being the first row with a
    nonpositive rank component if one comes first."""
    (d2, r2), (dp1, rp1), (d1, r1) = seed.pairs()
    c = d1 * r2 - d2 * r1
    yield Row(0, d2, r2, None, None), 0
    yield Row(1, d1, r1, dp1, rp1), c
    new = tuple.__new__  # Row(...) runs a Python __new__, at twice the cost
    # in step i, row i-2 is (d2, r2), row i-1 is (d1, r1, dp1, rp1), c is
    # minors[i-1] and c3, c2 are minors[i-3], minors[i-2]
    c3, c2 = None, 0
    for i in range(2, n_max + 1):
        dp, rp = c * d1 - d2, c * r1 - r2
        mixed = d1 * rp1 - dp1 * r1 if i < 4 else c3
        d, r = mixed * d1 - dp1, mixed * r1 - rp1
        yield new(Row, (i, d, r, dp, rp)), mixed
        if r <= 0 or rp <= 0:
            return
        d2, r2, d1, r1, dp1, rp1 = d1, r1, d, r, dp, rp
        c3, c2, c = c2, c, mixed


def _table(seed: Seed, grown) -> HelixTable:
    """The HelixTable of seed whose rows and minors are _grow's pairs."""
    rows, minors = zip(*grown)
    last = rows[-1]
    degenerate_at = last.n if last.r <= 0 or last.rp <= 0 else None
    return HelixTable(seed, seed.d_param, rows, degenerate_at, minors)


class PositivityReport(Value):
    """kind is Certified, VerifiedToHorizon or FailsAt."""

    _fields = ("kind", "horizon", "fail_index", "fail_component")
    fail_index: int | None = None
    fail_component: str | None = None

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
    table's last row or the first failure. The verdict reads the seed and
    the rows, not the table's d_param and degenerate_at fields: a table
    grows until its first row with a nonpositive rank component, so only the
    last row can fail.
    """
    last = table.rows[-1]
    d = table.seed.d_param
    if d is not None and d >= 5:
        return PositivityReport("Certified", last.n)
    if last.r <= 0 or (last.rp is not None and last.rp <= 0):
        component = "r" if last.r <= 0 else "rp"
        return PositivityReport("FailsAt", last.n, last.n, component)
    return PositivityReport("VerifiedToHorizon", last.n)


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
    The residuals are walked once per table (HelixTable._nonzero_residuals),
    so a table _replay has printed is not walked again.
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
    rows, minors = table.rows, table._multipliers()
    # in step i, row i-1 is (d1, r1), row i-2 is (d2, r2) and (fd1, fr1) is
    # F_(i-1), first read at i = 3
    _, d2, r2, _, _ = rows[0]
    _, d1, r1, _, _ = rows[1]
    consec = [d1 * r2 - d2 * r1]
    mixed = [None, *(x.d * x.rp - x.dp * x.r for x in rows[1:3])]
    fd1 = fr1 = 0
    nonzero = table._nonzero_residuals()
    for i in range(2, len(rows)):
        _, d, r, _, _ = rows[i]
        c, c1 = minors[i], minors[i - 1]
        ed, er, fd, fr = nonzero.get(i, (0, 0, 0, 0))
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
        d2, r2, d1, r1, fd1, fr1 = d1, r1, d, r, fd, fr
    return consec, mixed


def _residuals(rows: tuple[Row, ...], minors: tuple[int, ...]):
    """Yield (i, E_i, F_i) as (i, ed, er, fd, fr), with m_k = minors[k]
    (verify_periodicity's docstring), for each i = 2 .. len(rows) - 1 at
    which one of the four is nonzero: there is none exactly when rows 2 and
    up are the recursion of rows 0 and 1 and the minors."""
    _, d2, r2, _, _ = rows[0]
    _, d1, r1, dp1, rp1 = rows[1]
    for i in range(2, len(rows)):
        _, d, r, dp, rp = rows[i]
        c, c1 = minors[i], minors[i - 1]
        ed, er = d - c * d1 + dp1, r - c * r1 + rp1
        fd, fr = dp - c1 * d1 + d2, rp - c1 * r1 + r2
        if ed or er or fd or fr:
            yield i, ed, er, fd, fr
        d2, r2, d1, r1, dp1, rp1 = d1, r1, d, r, dp, rp


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
    """2 r_{n+1} >= (d-1) r_n for all n >= 1 in the table (exact integers),
    with d read from the table's seed."""
    d = table.seed.d_param
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
        super().__init__(n_max, entries)

    def entry(self, n: int) -> ChernVector:
        return self.entries[n]

    def slope(self, n: int) -> Fraction:
        v = self.entries[n]
        return Fraction(v.degree, v.rank)


def extend_two_sided(d: int, n_max: int) -> TwoSidedTable:
    """Entries 0..n_max from the table; entries -1..-n_max from the dual's.

    Entry -i is row i+1 of the table of the dual seed (-d, -d/2, 0),
    dualized: that row is the last member of the dualized seed triad after
    i right mutations. Both sides grow by the seed recursion (_grow).
    """
    _require_odd_ge5(d)
    if n_max < 1:
        raise ValueError("window must include indices -1, 0, 1")
    half = Fraction(d, 2)
    rows = _grow(Seed(0, half, d), n_max)
    entries = {row.n: ChernVector(row.r, row.d) for row, _ in rows}
    for row, _ in _grow(Seed(-d, -half, 0), n_max + 1):
        if row.n > 1:
            entries[1 - row.n] = ChernVector(row.r, -row.d)
    return TwoSidedTable(n_max, entries)
