"""Quadratic algebras over a field, indexed with a repeating dimension cycle.

A presentation fixes generator dimensions g_0..g_{p-1} (indices read modulo
p) and, per index, a matrix of relation rows inside the g_i * g_{i+1} tensor
square. Everything downstream is exact linear algebra on those rows: the
dual presentation annihilates them, degree dimensions grow one degree at a
time on the quotient side (each step eliminates only the new relations
against a normal form of the previous degree) until degree 3 shows the
relations to be a quadratic Groebner basis, after which the normal words are
counted instead, and the witness (_dims_witness) folds two dim tables into an
alternating sum that must hit a delta. A parallel series model covers the
equigenerated family where only dimensions, not relation spaces, are pinned
down by the defining data d: hilbert_A inverts its cubic denominator once,
and hilbert_B and both series checks take the series they work on, so a
caller builds each series once. The model's witness folds two dim tables too.

Each relation block is handled once, from input text to output text. Its int
rows are read straight from the JSON entry strings, and it is eliminated at
most once: its one reduced echelon form (RationalMatrix._reduced_form) is
shared by the rank check of __init__, the dual, the double-dual certificate
and degree_dims (the leading words and every degree of the recursion). The
recursion builds a degree's normal-form map only when the next degree is
read, so the map of the last degree read is never built. koszul-dual writes
the dual as JSON text directly (_json_text), from the entries _json_row
gives. The ambient route (_spread_rows) reads the given rows, so it stays
independent of the elimination.

The dual basis pairing used throughout is the coordinatewise one on tensor
squares: <f (x) g, u (x) w> = f(u) g(w), with factor order preserved.
double_dual_check certifies A^!! = A under that pairing from that one form
per block: the dual's rows are counted, tested for independence and paired
with the given relation rows, which the elimination does not enter.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from ._value import Value
from .errors import DimensionCapExceeded, UnsupportedD
from .exact import (
    RationalMatrix,
    TruncatedSeries,
    _back_substitute,
    _frac,
    _insert,
    _kernel_rows,
    _normal_form,
    _sparse_rank,
    first_series_mismatch,
    matrix_kernel,
)
from .helix import Seed, _grow

_DEFAULT_CAP = 10**6


def _dim_cap() -> int:
    """The HELIXKIT_DIM_CAP environment value, 10**6 when it is unset. Only a
    nonnegative integer written in ASCII digits is accepted."""
    raw = os.environ.get("HELIXKIT_DIM_CAP")
    if raw is None:
        return _DEFAULT_CAP
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"HELIXKIT_DIM_CAP must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _require_under_cap(ambient: int, cap: int, i: int, n: int) -> None:
    if ambient > cap:
        raise DimensionCapExceeded(
            f"tensor dimension {ambient} at index {i}, degree {n} exceeds cap {cap}"
        )


def _json_int(value, what: str) -> int:
    """An integer field of presentation JSON; bools and floats are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_field(obj, key: str, where: str, kind: type = object):
    """obj[key] of presentation JSON; a missing key, or a value that is not a
    kind (object, the default, takes any), is refused with its place named."""
    try:
        value = obj[key]
    except KeyError:
        raise ValueError(f"{where} is missing {key!r}") from None
    return _json_shaped(value, kind, f"{where} has {key} that are")


def _json_shaped(value, kind: type, what: str):
    """value if it is a JSON object (kind dict) or list (kind list), else
    refused as "<what> a <type found>, not <an object or a list>"."""
    if not isinstance(value, kind):
        want = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} {_a_type(value)}, not {want}")
    return value


def _a_type(value) -> str:
    """The type of a JSON value with its article: "an int", "a str"."""
    found = type(value).__name__
    return ("an " if found == "int" else "a ") + found


# no int str digit limit python accepts is below 640 (0 means none), so int()
# reads a plain entry this short whatever the limit; a longer one takes
# _frac's route and, past the limit, its refusal
_PLAIN_LENGTH = 640


def _json_int_row(entries, where: str) -> tuple[int, int, dict[int, int]]:
    """(width, den, row) of one relation row of presentation JSON, with
    (den, row) in _dense_to_sparse's form: its value is row / den.

    Every entry is a "p/q" string, never a number. The string "0", most
    entries of a sparse block, is skipped. A plain entry, ASCII -?digits or
    -?digits/digits with a nonzero denominator, is read with int and
    reduced by one gcd; every other string goes through the one parser
    (_frac), so it is accepted, valued and refused exactly as a Fraction
    would be.
    """
    parts: list[tuple[int, int, int]] = []
    for j, text in enumerate(_json_shaped(entries, list, f"{where} has a row that is")):
        if text == "0":
            continue
        if not isinstance(text, str):
            raise ValueError(
                f"{where} has a row whose entry {j} is {_a_type(text)}, not a 'p/q' string"
            )
        num, slash, den = text.partition("/")
        plain = (
            text.isascii()
            and len(text) <= _PLAIN_LENGTH
            and (num[1:] if num[:1] == "-" else num).isdigit()
            and (not slash or den.isdigit())
        )
        if plain:
            n, d = int(num), int(den) if slash else 1
        if not plain or not d:
            # _frac values the entry, or refuses it ("p/0" included)
            x = _frac(text)
            n, d = x.numerator, x.denominator
        if n:
            if d != 1:
                g = gcd(n, d)
                n, d = n // g, d // g
            parts.append((j, n, d))
    den = lcm(*(d for _, _, d in parts))
    return len(entries), den, {j: n * (den // d) for j, n, d in parts}


def _json_row(den: int, row: dict[int, int], cols: int) -> list[str]:
    """The int row row / den as JSON entries, each the text str(Fraction)
    gives for it."""
    out = ["0"] * cols
    for j, v in row.items():
        g = gcd(v, den)
        out[j] = str(v // den) if g == den else f"{v // g}/{den // g}"
    return out


class QuadraticPresentation(Value):
    """period, generator dims per index, and relation rows per index.

    relations[i] lives in the g_i * g_{i+1} tensor square with basis order
    (u_a, w_b) -> a * g_{i+1} + b; its rows must be linearly independent.
    Each block is a RationalMatrix, so it is stored once, as int rows, from
    JSON parsing through the dual and the degree dimensions to JSON output.
    """

    _fields = ("period", "gen_dims", "relations")

    def __init__(self, period, gen_dims, relations):
        gen_dims, relations = tuple(gen_dims), tuple(relations)
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise ValueError("period must be a positive integer")
        if len(gen_dims) != period or len(relations) != period:
            raise ValueError("need one generator dim and one relation matrix per index")
        for g in gen_dims:
            if not isinstance(g, int) or isinstance(g, bool) or g < 1:
                raise ValueError("generator dims must be positive integers")
        for i, rel in enumerate(relations):
            ambient = gen_dims[i] * gen_dims[(i + 1) % period]
            if rel.cols != ambient:
                raise ValueError(
                    f"relations at index {i} need {ambient} columns, got {rel.cols}"
                )
            if rel.rank() != rel.rows:
                raise ValueError(f"relation rows at index {i} are dependent")
        super().__init__(period, gen_dims, relations)

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "gen_dims": list(self.gen_dims),
            "relations": [
                {
                    "index": i,
                    "rows": [
                        _json_row(den, row, rel.cols) for den, row in rel.int_rows
                    ],
                }
                for i, rel in enumerate(self.relations)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuadraticPresentation":
        """The presentation of a JSON document, with every check of __init__.

        The int rows are built straight from the entry strings; a value of
        the wrong JSON type or a ragged block is refused before __init__ runs.
        """
        where = "presentation JSON"
        doc = _json_shaped(doc, dict, f"{where} is")
        period = _json_int(_json_field(doc, "period", where), "period")
        gen_dims = _json_field(doc, "gen_dims", where, list)
        gen_dims = tuple(_json_int(g, "gen_dims entry") for g in gen_dims)
        if len(gen_dims) != period:
            raise ValueError("gen_dims length must equal the period")
        by_index: dict[int, list[tuple[int, int, dict[int, int]]]] = {}
        blocks = _json_shaped(doc.get("relations", []), list,
                              f"{where} has relations that are")
        for k, item in enumerate(blocks):
            where = f"relation block {k}"
            item = _json_shaped(item, dict, f"{where} is")
            i = _json_int(_json_field(item, "index", where), "relation index")
            if not 0 <= i < period:
                raise ValueError(f"relation index {i} out of range")
            if i in by_index:
                raise ValueError(f"duplicate relation block for index {i}")
            rows = _json_field(item, "rows", where, list)
            by_index[i] = [_json_int_row(row, where) for row in rows]
        rels = []
        for i in range(period):
            rows = by_index.get(i, [])
            width = rows[0][0] if rows else gen_dims[i] * gen_dims[(i + 1) % period]
            if any(w != width for w, _, _ in rows):
                raise ValueError("ragged rows")
            rels.append(RationalMatrix._of(width, ((den, row) for _, den, row in rows)))
        return cls(period, gen_dims, rels)


def _json_text(p: QuadraticPresentation) -> str:
    """json.dumps(p.to_json_dict(), indent=2), written directly.

    The text is put together from the entries _json_row gives, which are
    ASCII digits, "-" and "/" and need no escape, in the layout the encoder
    uses: one value per line, each nested level indented two more spaces,
    and an empty list as [].
    """
    blocks = []
    for i, rel in enumerate(p.relations):
        rows = [
            '[\n          "' + '",\n          "'.join(_json_row(den, row, rel.cols))
            + '"\n        ]'
            for den, row in rel.int_rows
        ]
        text = "[\n        " + ",\n        ".join(rows) + "\n      ]" if rows else "[]"
        blocks.append(f'{{\n      "index": {i},\n      "rows": {text}\n    }}')
    gens = ",\n    ".join(map(str, p.gen_dims))
    return (
        f'{{\n  "period": {p.period},\n  "gen_dims": [\n    {gens}\n  ],\n'
        f'  "relations": [\n    ' + ",\n    ".join(blocks) + "\n  ]\n}"
    )


def _require_duals_under_cap(sizes, cap: int) -> None:
    for i, size in enumerate(sizes):
        if size > cap:
            raise DimensionCapExceeded(
                f"dual relations at index {i} have {size} entries, exceeding cap {cap}"
            )


def koszul_dual(p: QuadraticPresentation) -> QuadraticPresentation:
    """Same generator dims; relations replaced by their annihilators.

    A dual block is dense, cols * (cols - rows) entries; a block above the
    HELIXKIT_DIM_CAP environment value is refused before anything is built.
    Each dual block is matrix_kernel of the block, one row per free column
    f with den its entry at f (that entry of the row's value is 1 and every
    other free column's is 0), so its rows are independent by construction
    and are not ranked again; the rank check runs where presentations
    enter, in __init__.
    """
    _require_duals_under_cap(
        (rel.cols * (rel.cols - rel.rows) for rel in p.relations), _dim_cap()
    )
    # under the coordinatewise pairing the annihilator of R is the kernel of R
    duals = tuple(matrix_kernel(rel) for rel in p.relations)
    # kernel bases are independent, so the rank check of __init__, which
    # JSON documents, the fixtures and library callers pass, is skipped
    return QuadraticPresentation._unchecked(p.period, p.gen_dims, duals)


def double_dual_check(p: QuadraticPresentation) -> bool:
    """Certify A^!! = A: each relation block R is the annihilator of its dual.

    One elimination per block, the block's one reduced form (first =
    R._reduced_form(), which the rank check of __init__ and koszul_dual read
    too), and K = _kernel_rows(first, cols), the rows koszul_dual's block is
    built from. Then
    (a) K has cols - rows rows, where rows, the number of given rows, is
        dim R, because a presentation's relation rows are independent;
    (b) each K row is nonzero at its own key, a column in range, and zero
        at every other key, so the K rows are independent;
    (c) every given row of R (the stored int rows, not first) has dot
        product 0 with every K row, summed in ints through a column index
        of K.
    By (c) R lies in ann(K), and by (a) and (b) dim ann(K) = cols - |K| =
    dim R, so R = ann(K); then ann(R) = ann(ann(K)) = K, so K is the dual
    block and ann(ann(R)) = R. The dot products read the given rows, not
    the elimination, so a kernel row missing, wrong or dependent, or an
    elimination that gained or lost a pivot, fails (a), (b) or (c).

    The check stands for koszul_dual(koszul_dual(p)) compared with p by
    row_space_equal, and refuses the same sizes before any elimination:
    cols * (cols - rows) for the dual, then cols * rows, the dense size of
    the given rows whose dot products (c) takes.
    """
    cap = _dim_cap()
    _require_duals_under_cap((r.cols * (r.cols - r.rows) for r in p.relations), cap)
    _require_duals_under_cap((r.cols * r.rows for r in p.relations), cap)
    for rel in p.relations:
        cols = rel.cols
        kernel = _kernel_rows(rel._reduced_form(), cols)
        if len(kernel) != cols - rel.rows:
            return False
        by_col: dict[int, list[tuple[int, int]]] = {}
        for f, row in kernel.items():
            if not (0 <= f < cols and row.get(f)):
                return False
            for c, x in row.items():
                if c != f and x and c in kernel:
                    return False
                by_col.setdefault(c, []).append((f, x))
        for _, row in rel.int_rows:
            dots = dict.fromkeys(kernel, 0)
            for c, v in row.items():
                for f, x in by_col.get(c, ()):
                    dots[f] += v * x
            if any(dots.values()):
                return False
    return True


class DimTable(Value):
    """dim of each (start index, word length) cell, index read modulo period."""

    _fields = ("period", "max_degree", "dims")

    def dim(self, i: int, n: int) -> int:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside computed range 0..{self.max_degree}")
        return self.dims[i % self.period][n]

    def to_csv(self) -> str:
        lines = ["index,degree,dim"]
        for i in range(self.period):
            for n in range(self.max_degree + 1):
                lines.append(f"{i},{n},{self.dims[i][n]}")
        return "\n".join(lines) + "\n"


def _spread_rows(p: QuadraticPresentation, i: int, n: int):
    """Sparse rows spanning every T^a (x) R (x) T^b inside the length-n word."""
    word = [p.gen_dims[(i + k) % p.period] for k in range(n)]
    for a in range(n - 1):
        pre = prod(word[:a])
        suf = prod(word[a + 2 :])
        block = word[a] * word[a + 1] * suf
        for _, rel in p.relations[(i + a) % p.period].int_rows:
            for u in range(pre):
                base = u * block
                for w in range(suf):
                    yield {base + c * suf + w: v for c, v in rel.items()}


def _ambient_degree_dims(p: QuadraticPresentation, max_degree: int) -> DimTable:
    """degree_dims by the ambient route: tensor dimension minus spread rank.

    It shares no step with degree_dims but the elimination kernel, and its
    cost follows the full tensor power, so it serves only as the independent
    cross-check of the quotient route (verify and the tests compare them).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    cap = _dim_cap()
    table = []
    for i in range(p.period):
        row = []
        for n in range(max_degree + 1):
            ambient = prod(p.gen_dims[(i + k) % p.period] for k in range(n))
            _require_under_cap(ambient, cap, i, n)
            if n < 2:
                row.append(ambient)
                continue
            row.append(ambient - _sparse_rank(_spread_rows(p, i, n)))
        table.append(tuple(row))
    return DimTable(p.period, max_degree, tuple(table))


def _quotient_step(nf, rows, g_left: int, g: int, lower: int) -> dict[int, dict[int, int]]:
    """One degree of the quotient recursion A_n = coker(A_{n-2} (x) R -> A_{n-1} (x) V).

    rows are int rows spanning the relations between the last two generator
    spaces, of dimensions g_left and g (V); any basis gives the same rank and,
    after back-substitution, the same map. lower is dim A_{n-2}.
    nf[c * g_left + a] = (q, row) holds the word (basis element c of
    A_{n-2}) * (generator a) on A_{n-1}'s basis as row / q. Column k * g + b
    of A_{n-1} (x) V pairs basis element k with generator b. Each image row
    is built here, in a fresh dict that drops entries as they cancel, and
    goes straight into the kernel's one reduction loop (exact._insert); no
    row is copied. Most words have q = 1, so the row is scaled only when
    some q is not: then every term, q = 1 ones included, is scaled by
    den // q, with den the lcm of the row's q's.
    Returns the forward pivots of the image: dim A_n is dim A_{n-1} * g minus
    their number, and _back_substitute then _normal_form turn them into the
    map one degree up.
    """
    terms = [[(col // g, col % g, v) for col, v in row.items()] for row in rows]
    pivots: dict[int, dict[int, int]] = {}
    for c in range(lower):
        base = c * g_left
        for term in terms:
            den = 1
            for a, _, _ in term:
                q = nf[base + a][0]
                if q != 1:
                    den = lcm(den, q)
            out: dict[int, int] = {}
            for a, b, v in term:
                q, word = nf[base + a]
                if den != 1:
                    v *= den // q
                for k, x in word.items():
                    col = k * g + b
                    old = out.get(col)
                    if old is None:
                        out[col] = v * x
                    else:
                        old += v * x
                        if old:
                            out[col] = old
                        else:
                            del out[col]
            if out:
                _insert(pivots, out)
    return pivots


def _quotient_dims(p: QuadraticPresentation, i: int, max_degree: int):
    """Yield dim A_{i,i+n} for n = 0..max_degree by the quotient recursion.

    Every degree reads its relation block's one reduced form
    (RationalMatrix._reduced_form), which is left as it is: A_2 =
    V_i (x) V_{i+1} / R_i is read off R_i's, and each later degree is
    A_n = coker(A_{n-2} (x) R_{i+n-2} -> A_{n-1} (x) V_{i+n-1}), built from
    the map of the degree before (_quotient_step), so the work follows the
    quotient dimensions, not the tensor power. A degree's map is built only
    when the next degree is read: dim A_n is yielded right after the forward
    pass, and the pivots are back-substituted and turned into A_n's map
    (_normal_form) on resume, never past max_degree. A caller may stop
    reading after any degree and go on later; no step runs twice.
    """
    word = [p.gen_dims[(i + k) % p.period] for k in range(max(max_degree, 2))]
    yield from (1, word[0])[: max_degree + 1]
    if max_degree < 2:
        return
    pivots, cols = p.relations[i]._reduced_form(), word[0] * word[1]
    yield cols - len(pivots)
    lower = word[0]
    for n in range(3, max_degree + 1):
        if n > 3:  # degree 2's pivots are the block's reduced form itself
            _back_substitute(pivots)
        upper, nf = _normal_form(pivots, cols)
        rows = p.relations[(i + n - 2) % p.period]._reduced_form().values()
        pivots = _quotient_step(nf, rows, word[n - 2], word[n - 1], lower)
        lower, cols = upper, upper * word[n - 1]
        yield cols - len(pivots)


def _normal_pairs(p: QuadraticPresentation) -> list[list[list[int]]]:
    """Per relation block i, the letters b that may follow each letter a:
    the pair (a, b), column a * g_{i+1} + b, is normal when it is not a
    pivot column of R_i's reduced form, a leading word."""
    pairs = []
    for i, rel in enumerate(p.relations):
        lead = rel._reduced_form()
        g = p.gen_dims[(i + 1) % p.period]
        pairs.append([
            [b for b in range(g) if a * g + b not in lead]
            for a in range(p.gen_dims[i])
        ])
    return pairs


def _normal_word_counts(p: QuadraticPresentation, pairs, i: int, max_degree: int):
    """Yield the number of normal words of length n = 0..max_degree from
    start index i: words whose adjacent letters all form normal pairs
    (_normal_pairs), so that no leading word is a subword. A dynamic program
    over the last letter, O(g^2) small ints per degree.
    """
    ends = [1] * p.gen_dims[i]
    yield from (1, len(ends))[: max_degree + 1]
    for n in range(2, max_degree + 1):
        follow = pairs[(i + n - 2) % p.period]
        counts = [0] * p.gen_dims[(i + n - 1) % p.period]
        for a, e in enumerate(ends):
            for b in follow[a]:
                counts[b] += e
        ends = counts
        yield sum(ends)


def degree_dims(p: QuadraticPresentation, max_degree: int) -> DimTable:
    """Exact dimension of every quotient component up to the given length.

    Every start index runs the quotient recursion (_quotient_dims) to degree
    3. Past that, R is first tested as a quadratic Groebner basis. Column
    a * g_{i+1} + b orders the words of one length lexicographically, first
    letter most significant, and on words of one length that order is
    compatible with concatenation. So the pivots of each block's reduced
    form (the kernel pivots on each row's least column) are the leading
    words of R for a monomial order in which the least word leads. The
    normal words, those with no leading word as a subword, always span A.
    If in degree 3 their number equals dim A_{i,i+3} at every start index
    i, every overlap of two leading words resolves, and by Bergman's
    diamond lemma ("The diamond lemma for ring theory", 1978) the normal
    words are a basis of A in every degree: A is PBW (Priddy 1970;
    Polishchuk-Positselski, Quadratic Algebras, ch. 4). The table is then
    the normal-word counts (_normal_word_counts), with no elimination above
    degree 3, and no map above degree 2 is ever built: the certificate reads
    only the degree-3 dims. Otherwise every start index goes on with the
    recursion, which builds its degree-3 map only then.
    _ambient_degree_dims is the independent reference route to the same
    table.

    Ambient tensor dimensions above the HELIXKIT_DIM_CAP environment value
    (default 10**6) are refused, for every cell before any work starts, even
    though the work follows the quotient dimensions.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    cap = _dim_cap()
    for i in range(p.period):
        word = (p.gen_dims[(i + k) % p.period] for k in range(max_degree))
        for n, ambient in enumerate(accumulate(word, mul, initial=1)):
            _require_under_cap(ambient, cap, i, n)
    rest = [_quotient_dims(p, i, max_degree) for i in range(p.period)]
    low = [tuple(islice(dims, 4)) for dims in rest]
    if max_degree >= 4:
        pairs = _normal_pairs(p)
        counts = [_normal_word_counts(p, pairs, i, max_degree) for i in range(p.period)]
        if all(tuple(islice(c, 4)) == dims for c, dims in zip(counts, low)):
            # a quadratic Groebner basis: the counts go on where the dims stop
            rest = counts
    table = tuple(dims + tuple(more) for dims, more in zip(low, rest))
    return DimTable(p.period, max_degree, table)


class WitnessEntry(NamedTuple):
    j: int
    q: int
    value: int
    ok: bool


class WitnessReport(Value):
    """Alternating-sum checks, one entry per (offset, target) pair.

    An all-pass run is labeled a witness: the condition tested is necessary,
    not sufficient, so nothing here certifies exactness.
    """

    _fields = ("entries",)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[tuple[int, int]]:
        return [(e.j, e.q) for e in self.entries if not e.ok]


def _dims_witness(prim: DimTable, dual: DimTable, bound: int) -> WitnessReport:
    """Each sum_l (-1)^l dual(j, l) prim(j + l, n - l), n <= bound, must be
    delta_{n,0}, from A's dim table and its dual's, both to degree bound or
    beyond: a caller holding the dual or the tables builds none of them again."""
    entries = []
    for j in range(prim.period):
        for n in range(bound + 1):
            s = sum(
                (-1) ** l * dual.dim(j, l) * prim.dim(j + l, n - l)
                for l in range(n + 1)
            )
            entries.append(WitnessEntry(j, j + n, s, s == (1 if n == 0 else 0)))
    return WitnessReport(tuple(entries))


def koszulity_witness(p, bound: int) -> WitnessReport:
    """Necessary Euler-characteristic condition over all (j, q), q - j <= bound."""
    if isinstance(p, EquigenModel):
        top = max(3, bound)
        rows = hilbert_A(p, top).coeffs, (1, p.d, p.d, 1) + (0,) * (top - 3)
        prim, dual = (DimTable(3, top, (row,) * 3) for row in rows)
    else:
        prim, dual = degree_dims(p, bound), degree_dims(koszul_dual(p), bound)
    return _dims_witness(prim, dual, bound)


class EquigenModel(Value):
    """Dimension skeleton of the degree-d equigenerated pair of algebras."""

    _fields = ("d",)

    def __init__(self, d: int):
        if not isinstance(d, int) or d < 3:
            raise UnsupportedD(f"model needs an integer d >= 3, got {d}")
        super().__init__(d)


def hilbert_A(model: EquigenModel, order: int) -> TruncatedSeries:
    """Coefficients of 1 / (1 - d t + d t^2 - t^3) to the given order."""
    if order < 3:
        raise ValueError("order must be at least 3")
    d = model.d
    return TruncatedSeries._of((1, -d, d, -1)).with_order(order).inverse()


def hilbert_B(a: TruncatedSeries) -> TruncatedSeries:
    """(1 - t^3) times the A series a, to a's order: same denominator, cubic
    numerator, and no second inversion."""
    return TruncatedSeries._of((1, 0, 0, -1)[: a.order + 1]) * a


def cross_check_hilbert(
    model: EquigenModel, b: TruncatedSeries
) -> tuple[bool, int | None]:
    """Compare a B series of model's d, to b's order, with the seed table.

    Coefficient i of b must be the pairing of (1, 0) with row i of the
    (0, d/2, d) table, which is that row's d, read as the seed recursion
    grows the rows, with no table built. The two routes share no code: one
    inverts a power series, the other runs the integer recursion. The check
    covers odd d (EquigenModel already requires d >= 3).
    """
    d = model.d
    if d % 2 == 0:
        raise UnsupportedD(f"cross check covers d = 3 and odd d >= 5, got {d}")
    cs = b.coeffs
    if cs[0] != 1:
        return False, 0
    grown = _grow(Seed(0, Fraction(d, 2), d), b.order)
    next(grown)  # row 0 is (1, 0) itself
    for bi, (row, _) in zip(cs[1:], grown):
        if bi != row.d:
            return False, row.n
    return True, None


def normal_quotient_check(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Does dividing the B series b by 1 - t^3 reproduce the A series a exactly.

    This is the series-level signature of a degree-3 regular normal family
    cutting B out of A. a and b are compared as far as both go: to
    n = min(a.order, b.order), which must be at least 6. Given hilbert_B(a),
    it only shows that series product and division invert each other.
    """
    n = min(a.order, b.order)
    if n < 6:
        raise ValueError("order must be at least 6")
    cubic = TruncatedSeries._of((1, 0, 0, -1))
    return first_series_mismatch(b.with_order(n) / cubic, a.with_order(n)) is None


def classical_euler_fixture(n: int):
    """Commutator presentation on n+1 variables plus its expected dual dims."""
    if not 1 <= n <= 4:
        raise ValueError("fixture covers 1 <= n <= 4")
    m = n + 1
    rows = [
        (1, {a * m + b: 1, b * m + a: -1}) for a in range(m) for b in range(a + 1, m)
    ]
    pres = QuadraticPresentation(1, (m,), (RationalMatrix._of(m * m, rows),))
    expected = tuple(comb(m, l) for l in range(m + 1)) + (0,)
    return pres, expected
