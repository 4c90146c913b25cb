"""Output checks for the benchmark's ops; standard library only.

``check(op, code, out)`` returns None when the op's exit code and its
stdout, read from the text stream ``out``, are right, else a one-line
reason. Seed tables run to megabytes and are compared as they are read. Where an independent route is a few
lines long the expected output is recomputed here with plain integers (seed
tables, Hilbert coefficients, triad steps, slope limits, the fixture's
dimension tables); elsewhere the op must print its PASS lines.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb, gcd, isqrt

VERIFY_SUITES = (
    "periodicity",
    "rotation",
    "roundtrip",
    "closed-form-equivalence",
    "ratio-bound",
    "hilbert-crosscheck",
    "normal-quotient",
    "double-dual",
    "koszulity-witness",
)


def check(op: dict, code: int, out) -> str | None:
    expect = op["expect"]
    if expect["kind"] == "seed-table":
        return _check_seed_table(op["argv"], code, out)
    return _CHECKS[expect["kind"]](op["argv"], expect, code, out.read())


def _expect_code(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _same_lines(out, want) -> str | None:
    """Compare the stream with an iterable of expected lines, one line at a
    time, so that neither side is held whole."""
    for n, w in enumerate(want, 1):
        got = out.readline()
        if got != w + "\n":
            return f"line {n} differs: {got[:60]!r} vs {w[:60]!r}"
    return "more lines than expected" if out.read(1) else None


def _same_chunks(out, chunks, what: str) -> str | None:
    """Is the stream exactly the concatenated chunks plus a newline."""
    pos = 0
    for chunk in chunks:
        if out.read(len(chunk)) != chunk:
            return f"{what} differs near character {pos}"
        pos += len(chunk)
    return None if out.read(2) == "\n" else f"{what} differs at its end"


def _same_text(got: str, want: str) -> str | None:
    if got == want:
        return None
    g, w = got.splitlines(), want.splitlines()
    for n, (a, b) in enumerate(zip(g, w)):
        if a != b:
            return f"line {n + 1} differs: {a[:60]!r} vs {b[:60]!r}"
    return f"{len(g)} lines, expected {len(w)}"


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _check_verify(argv, expect, code, stdout):
    want = "".join(f"{name}: PASS\n" for name in VERIFY_SUITES)
    return _expect_code(code, 0) or _same_text(stdout, want)


# --------------------------------------------------------------------------
# seed tables
# --------------------------------------------------------------------------


def seed_rows_iter(mu, n_max: int):
    """Rows (n, d, r, dp, rp) of the seed recursion, one at a time, up to
    n_max or the first row with a nonpositive rank component."""
    (d0, r0), (d1p, r1p), (d1, r1) = ((x.numerator, x.denominator) for x in mu)
    prev2, prev = (0, d0, r0, None, None), (1, d1, r1, d1p, r1p)
    yield prev2
    yield prev
    for i in range(2, n_max + 1):
        _, pd, pr, pdp, prp = prev
        _, qd, qr, _, _ = prev2
        minor = pd * qr - qd * pr
        dp, rp = minor * pd - qd, minor * pr - qr
        mixed = pd * prp - pdp * pr
        d, r = mixed * pd - pdp, mixed * pr - prp
        row = (i, d, r, dp, rp)
        yield row
        if r <= 0 or rp <= 0:
            return
        prev2, prev = prev, row


def _degenerate_at(count: int, last) -> int | None:
    return last[0] if count > 2 and (last[2] <= 0 or last[4] <= 0) else None


def seed_rows(mu, n_max: int):
    """All rows of the seed recursion and the degenerate index (or None)."""
    rows = list(seed_rows_iter(mu, n_max))
    return rows, _degenerate_at(len(rows), rows[-1])


def _family_d(mu) -> int | None:
    mu0, mu1p, mu1 = mu
    if (mu0 == 0 and mu1.denominator == 1 and mu1 >= 3
            and mu1.numerator % 2 == 1 and mu1p * 2 == mu1):
        return mu1.numerator
    return None


def _slope(d: int, r: int) -> str:
    g = gcd(d, r)
    d, r = d // g, r // g
    if r < 0:
        d, r = -d, -r
    return str(d) if r == 1 else f"{d}/{r}"


def _verdict(fam, dead, last, n_max: int):
    if fam is not None and fam >= 5:
        return "Certified"
    if dead is not None:
        return dead, "r" if last[2] <= 0 else "rp"
    return f"VerifiedToHorizon({n_max})"


def _seed_table_lines(mu, n_max: int, fmt: str):
    """The expected table or CSV output, line by line, holding two rows."""
    if fmt == "csv":
        yield "n,d,r,dp,rp,slope"
        for n, d, r, dp, rp in seed_rows_iter(mu, n_max):
            yield ",".join((
                str(n), str(d), str(r), "" if dp is None else str(dp),
                "" if rp is None else str(rp), _slope(d, r) if r else ""))
        return
    yield f"seed: mu0={mu[0]} mu1p={mu[1]} mu1={mu[2]}"
    count, last = 0, None
    for row in seed_rows_iter(mu, n_max):
        n, d, r, dp, rp = row
        count, last = count + 1, row
        line = f"n={n} d={d} r={r}"
        if dp is not None:
            line += f" dp={dp} rp={rp}"
        if r > 0:
            line += f" slope={_slope(d, r)}"
        yield line
    verdict = _verdict(_family_d(mu), _degenerate_at(count, last), last, n_max)
    if isinstance(verdict, str):
        yield f"positivity: {verdict}"
    else:
        yield f"positivity: FailsAt n={verdict[0]} ({verdict[1]})"
    if count >= 5:
        yield "periodicity: ok"


class _RowStream(list):
    """The seed table's JSON rows for the pure-Python JSON encoder (the one
    used with indent), recomputed as it iterates, so none are held."""

    def __init__(self, mu, n_max: int):
        super().__init__()
        self.args = (mu, n_max)

    def __bool__(self) -> bool:
        return True

    def __iter__(self):
        for n, d, r, dp, rp in seed_rows_iter(*self.args):
            yield ({"n": n, "d": d, "r": r} if dp is None
                   else {"n": n, "d": d, "r": r, "dp": dp, "rp": rp})


def _seed_table_json_chunks(mu, n_max: int):
    """The expected JSON output in pieces, holding two rows at a time."""
    count, last = 0, None
    for row in seed_rows_iter(mu, n_max):
        count, last = count + 1, row
    fam, dead = _family_d(mu), _degenerate_at(count, last)
    doc = {"seed": dict(zip(("mu0", "mu1p", "mu1"), map(str, mu)))}
    if fam is not None:
        doc["d"] = fam
    doc["rows"] = _RowStream(mu, n_max)
    if dead is not None:
        doc["degenerate_at"] = dead
    verdict = _verdict(fam, dead, last, n_max)
    doc["positivity"] = (
        verdict if isinstance(verdict, str) else f"FailsAt({verdict[0]}, {verdict[1]})"
    )
    return json.JSONEncoder(indent=2).iterencode(doc)


def _check_seed_table(argv, code, out):
    mu = tuple(Fraction(x) for x in argv[1:4])
    n_max = int(argv[argv.index("--n") + 1])
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        chunks = _seed_table_json_chunks(mu, n_max)
        return _expect_code(code, 0) or _same_chunks(out, chunks, "JSON table")
    return _expect_code(code, 0) or _same_lines(out, _seed_table_lines(mu, n_max, fmt))


# --------------------------------------------------------------------------
# hilbert and limits
# --------------------------------------------------------------------------


def hilbert_a(d: int, order: int) -> list[int]:
    """a_n = d a_{n-1} - d a_{n-2} + a_{n-3}, a_0 = 1, a_{<0} = 0."""
    a = [1]
    for n in range(1, order + 1):
        a.append(d * a[n - 1]
                 - (d * a[n - 2] if n >= 2 else 0)
                 + (a[n - 3] if n >= 3 else 0))
    return a


def _check_hilbert(argv, expect, code, stdout):
    d = int(argv[argv.index("--d") + 1])
    order = int(argv[argv.index("--order") + 1])
    a = hilbert_a(d, order)
    b = [a[n] - (a[n - 3] if n >= 3 else 0) for n in range(order + 1)]
    lines = ["A: " + " ".join(map(str, a)), "B: " + " ".join(map(str, b))]
    if d == 3 or (d >= 5 and d % 2 == 1):
        lines.append("cross-check: PASS")
    else:
        lines.append("cross-check: SKIPPED (only defined for d=3 and odd d>=5)")
    if order >= 6:
        lines.append("normal-quotient: PASS")
    return _expect_code(code, 0) or _same_text(stdout, "\n".join(lines) + "\n")


def _rounded(p: int, q: int, sign: int, m: int, den: int, digits: int) -> str:
    """(p + sign q sqrt m) / den to `digits` places, ties away from zero.

    q > 0, den > 0 and m not a square, so the value is irrational. Uses
    floor(x / den) == floor(floor(x) / den) with x = 2 |value| den 10**digits.
    """
    scale = 10**digits
    root2 = isqrt(4 * q * q * m * scale * scale)  # floor(2 q sqrt(m) scale)
    if p * sign >= 0:
        positive = sign > 0
    else:
        positive = (p * p > q * q * m) == (p > 0)
    base = 2 * scale * (p if positive else -p)
    surd_sign = sign if positive else -sign
    floor2 = base + root2 if surd_sign > 0 else base - root2 - 1
    k = (floor2 + den) // (2 * den)
    text = str(k).rjust(digits + 1, "0")
    return ("" if positive else "-") + text[:-digits] + "." + text[-digits:]


def _check_limits(argv, expect, code, stdout):
    d = int(argv[argv.index("--d") + 1])
    m = (d - 3) * (d + 1)
    # right = 2d / (sqrt m - (d - 3)) = d/2 + d / (2 (d - 3)) sqrt m
    a, b = Fraction(d, 2), Fraction(d, 2 * (d - 3))
    den = a.denominator * b.denominator
    p, q = a.numerator * b.denominator, b.numerator * a.denominator
    coeff = "" if b == 1 else str(b)
    lines = [
        f"right: {a} + {coeff}√{m} ≈ {_rounded(p, q, 1, m, den, 7)}",
        f"left: {a} - {coeff}√{m} ≈ {_rounded(p, q, -1, m, den, 7)}",
        "irrational: " + ("no" if isqrt(m) ** 2 == m else "yes"),
    ]
    return _expect_code(code, 0) or _same_text(stdout, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# triads
# --------------------------------------------------------------------------


def _hom(e, f) -> int:
    return f[1] * e[0] - e[1] * f[0]


def _valid_triad(t) -> bool:
    return (all(gcd(r, abs(d)) == 1 for r, d in t)
            and t[0][1] * t[1][0] < t[1][1] * t[0][0]
            and t[1][1] * t[2][0] < t[2][1] * t[1][0])


def triad_steps(t, direction: str, steps: int):
    """Triads after each step and the exit code: 0, 1 (not mutable) or 65."""
    out = [tuple(t)]
    for _ in range(steps):
        a, b, c = out[-1]
        if direction == "right":  # (a, b, c) -> (c, R_c a, R_c b)
            new = [c]
            for x in (a, b):
                h = _hom(x, c)
                new.append((h * c[0] - x[0], h * c[1] - x[1]))
        else:  # (a, b, c) -> (L_a b, L_a c, a)
            new = []
            for x in (b, c):
                h = _hom(a, x)
                new.append((h * a[0] - x[0], h * a[1] - x[1]))
            new.append(a)
        if any(r <= 0 for r, _ in new):
            return out, 1
        if not _valid_triad(new):
            return out, 65
        out.append(tuple(new))
    return out, 0


def _triad_line(step: int, t) -> str:
    (ra, da), (rb, db), (rc, dc) = t
    return (f"step {step}: ({ra}:{da}, {rb}:{db}, {rc}:{dc}) "
            f"hom=({_hom(t[0], t[1])},{_hom(t[0], t[2])},{_hom(t[1], t[2])}) "
            f"slopes=({_slope(da, ra)}, {_slope(db, rb)}, {_slope(dc, rc)})")


def _check_triad(argv, expect, code, stdout):
    t = [tuple(int(x) for x in s.split(":")) for s in argv[1:4]]
    direction = "right" if "--right" in argv else "left"
    steps = int(argv[argv.index("--steps") + 1])
    triads, want = triad_steps(t, direction, steps)
    text = "".join(_triad_line(k, x) + "\n" for k, x in enumerate(triads))
    return _expect_code(code, want) or _same_text(stdout, text)


# --------------------------------------------------------------------------
# Koszul duals
# --------------------------------------------------------------------------


def rank(rows) -> int:
    """Rank of Fraction rows by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    rk = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        for i in range(rk + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[rk][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        rk += 1
    return rk


def _load_blocks(doc: dict) -> dict[int, list[list[Fraction]]]:
    return {item["index"]: [[Fraction(s) for s in row] for row in item["rows"]]
            for item in doc["relations"]}


def _check_dual(pres: dict, dual: dict) -> str | None:
    """dual's rows at each index are a basis of the annihilator of pres's."""
    if dual.get("period") != pres["period"] or dual.get("gen_dims") != pres["gen_dims"]:
        return "dual has the wrong period or generator dims"
    g, p = pres["gen_dims"], pres["period"]
    rel, ann = _load_blocks(pres), _load_blocks(dual)
    for i in range(p):
        ambient = g[i] * g[(i + 1) % p]
        rows, dual_rows = rel.get(i, []), ann.get(i, [])
        if len(dual_rows) != ambient - len(rows):
            return f"dual block {i} has {len(dual_rows)} rows, expected {ambient - len(rows)}"
        if any(len(v) != ambient for v in dual_rows):
            return f"dual block {i} has rows of the wrong width"
        for v in dual_rows:
            for w in rows:
                if sum(x * y for x, y in zip(v, w)):
                    return f"dual block {i} does not annihilate the relations"
        if rank(dual_rows) != len(dual_rows):
            return f"dual block {i} rows are dependent"
    return None


def _expected_dims(expect, pres, degree):
    """Cells of the dual's dimension table this checker can predict."""
    family, m = expect["family"], expect["m"]
    g, p = pres["gen_dims"], pres["period"]
    rel = _load_blocks(pres)
    out = {}
    for i in range(p):
        for n in range(degree + 1):
            if family == "exterior":
                out[i, n] = comb(m, n)
            elif family == "polynomial":
                out[i, n] = comb(m + n - 1, n)
            elif n == 0:
                out[i, n] = 1
            elif n == 1:
                out[i, n] = g[i]
            elif n == 2:  # the dual's quotient in degree 2 is the relation space
                out[i, n] = len(rel.get(i, []))
    return out


def _check_dims(lines, expect, pres, degree) -> str | None:
    g, p = pres["gen_dims"], pres["period"]
    want_cells = [(i, n) for i in range(p) for n in range(degree + 1)]
    if not lines or lines[0] != "index,degree,dim" or len(lines) != 1 + len(want_cells):
        return "dimension table has the wrong shape"
    got = {}
    for line, cell in zip(lines[1:], want_cells):
        i, n, v = (int(x) for x in line.split(","))
        if (i, n) != cell:
            return f"dimension table cell {cell} missing"
        got[cell] = v
    for cell, v in _expected_dims(expect, pres, degree).items():
        if got[cell] != v:
            return f"dim{cell} = {got[cell]}, expected {v}"
    for i, n in want_cells:  # degree n is spanned by degree n-1 times generators
        if n >= 1 and not 0 <= got[i, n] <= got[i, n - 1] * g[(i + n - 1) % p]:
            return f"dim({i}, {n}) = {got[i, n]} is out of range"
    return None


def _check_koszul(argv, expect, code, stdout):
    with open(expect["input"], encoding="utf-8") as fh:
        pres = json.load(fh)
    if "out" in expect:
        if stdout:
            return "--out run printed to stdout"
        with open(expect["out"], encoding="utf-8") as fh:
            dual = json.load(fh)
        os.remove(expect["out"])  # so a replay of the op must write it again
        return _expect_code(code, 0) or _check_dual(pres, dual)
    lines = stdout.splitlines()
    try:
        end = lines.index("}")
        dual = json.loads("\n".join(lines[:end + 1]))
    except ValueError:
        return "stdout does not start with the dual as JSON"
    rest = lines[end + 1:]
    why = _expect_code(code, 0) or _check_dual(pres, dual)
    if why:
        return why
    if expect.get("double_dual"):
        if not rest or rest[0] != "double-dual: PASS":
            return "no double-dual: PASS line"
        rest = rest[1:]
    if "dims" in expect:
        why = _check_dims(rest, expect, pres, expect["dims"])
        if why:
            return why
        rest = []
    if "witness" in expect:
        if rest != ["koszulity-witness: PASS"]:
            return "no koszulity-witness: PASS line"
        rest = []
    return f"unexpected trailing output {rest[0][:60]!r}" if rest else None


_CHECKS = {
    "verify": _check_verify,
    "hilbert": _check_hilbert,
    "limits": _check_limits,
    "triad": _check_triad,
    "koszul": _check_koszul,
}
