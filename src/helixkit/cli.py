"""Command-line front end.

Subcommands: seed-table, triad, hilbert, koszul-dual, limits, verify.
Exit codes: 0 success, 1 mutation impossible, 2 verification failure,
64 usage, 65 invalid input values, 66 file I/O.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from . import quadratic as qa
from .bundles import (
    ChernVector,
    Triad,
    euler_pairing,
    hom_dims,
    mutate_triad_left,
    mutate_triad_right,
)
from .errors import DimensionCapExceeded, NotMutable, UnsupportedD
from .exact import _frac
from .helix import (
    _EXACT,
    HelixTable,
    Seed,
    _checked_text,
    _csv_lines,
    _require_printable,
    _row_texts,
    check_positivity,
    invariants_from_seed,
    limit_slopes,
    slope_text,
    verify_periodicity,
    verify_ratio_bound,
)
from .sampling import random_presentation, random_right_step, random_seed_table

_VERIFY_SEED = 0x5EED5

# exit code per error class, first match wins; one class per row (flat except tuple)
_EXIT_CODES = (
    (NotMutable, 1),
    (OSError, 66),
    (ValueError, 65),
    (TypeError, 65),
    (ZeroDivisionError, 65),
    (DimensionCapExceeded, 65),
)

# tokens like -1/2 would otherwise be taken for option flags
_FRACTION_TOKEN = re.compile(r"^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _fraction_arg(text: str) -> Fraction:
    try:
        return _frac(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _chern_arg(text: str) -> tuple[int, int]:
    try:
        rank, degree = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected rank:degree, got {text!r}")
    return rank, degree


def _drange_arg(text: str) -> tuple[int, int]:
    parts = text.strip().split(":")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        lo = int(parts[0])
        hi = int(parts[-1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return lo, hi


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it."""
    top = _Parser(prog="helixkit", description=__doc__)
    top.add_argument("--version", action="version",
                     version=f"helixkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("seed-table", help="grow and report a seed table")
    p.add_argument("mu0", type=_fraction_arg)
    p.add_argument("mu1p", type=_fraction_arg)
    p.add_argument("mu1", type=_fraction_arg)
    p.add_argument("--n", type=int, default=10, help="last row index")
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.set_defaults(func=_run_seed_table)

    p = sub.add_parser("triad", help="mutate a slope-ordered triple")
    p.add_argument("a", type=_chern_arg)
    p.add_argument("b", type=_chern_arg)
    p.add_argument("c", type=_chern_arg)
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--right", dest="direction", action="store_const",
                           const="right", default="right")
    direction.add_argument("--left", dest="direction", action="store_const",
                           const="left")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_run_triad)

    p = sub.add_parser("hilbert", help="series coefficients and cross-checks")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(func=_run_hilbert)

    p = sub.add_parser("koszul-dual", help="dualize a presentation file")
    p.add_argument("input", help="presentation JSON file")
    p.add_argument("--out", help="write the dual here instead of stdout")
    p.add_argument("--dims", type=int, metavar="D",
                   help="print the dual dimension table to degree D")
    p.add_argument("--witness", type=int, metavar="D",
                   help="run the alternating-sum check to offset D")
    p.add_argument("--check-double-dual", action="store_true")
    p.set_defaults(func=_run_koszul_dual)

    p = sub.add_parser("limits", help="exact two-sided slope limits")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_run_limits)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--d-range", type=_drange_arg, default=(5, 13))
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--seed-samples", type=int, default=25)
    p.set_defaults(func=_run_verify)

    return top


def _run_seed_table(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    seed = Seed(args.mu0, args.mu1p, args.mu1)
    table = invariants_from_seed(seed, args.n)
    report = check_positivity(table)
    # _row_texts refuses a table past the int str digit limit when it is
    # called, so a table that cannot be printed prints nothing; the lines
    # are written as the rows are replayed
    texts = _row_texts(table)

    if args.format == "csv":
        sys.stdout.writelines(_csv_lines(texts))
        return 0
    if args.format == "json":
        sys.stdout.writelines(_seed_table_json(table, texts, str(report)))
        return 0

    print(f"seed: mu0={seed.mu0} mu1p={seed.mu1p} mu1={seed.mu1}")
    sys.stdout.writelines(_table_lines(texts))
    if report.kind == "FailsAt":
        print(f"positivity: FailsAt n={report.fail_index} ({report.fail_component})")
    else:
        print(f"positivity: {report}")
    if len(table.rows) >= 5:
        ok, why = verify_periodicity(table)
        print("periodicity: ok" if ok else f"periodicity: BROKEN ({why})")
        if not ok:
            return 2
    return 0


def _table_lines(texts):
    """The row lines of seed-table's table format, from the table's
    _row_texts."""
    for row, c, d, r, dp, rp in texts:
        primed = "" if dp is None else f" dp={dp} rp={rp}"
        mu = f" slope={slope_text(row, c, d, r)}" if row.r > 0 else ""
        yield f"n={row.n} d={d} r={r}{primed}{mu}\n"


def _seed_table_json(table: HelixTable, texts, positivity: str):
    """Yield json.dumps(doc, indent=2) + "\n" in pieces, where doc is
    table.to_json_dict() with "positivity" added, from the row texts.

    Every string value is a fraction or a verdict, ASCII with nothing to
    escape, laid out as the encoder does: one value per line, each nested
    level indented two more spaces.
    """
    seed = table.seed
    yield (
        f'{{\n  "seed": {{\n    "mu0": "{seed.mu0}",\n    "mu1p": "{seed.mu1p}",\n'
        f'    "mu1": "{seed.mu1}"\n  }},\n'
    )
    if table.d_param is not None:
        yield f'  "d": {table.d_param},\n'
    yield '  "rows": [\n'
    sep = ""
    for row, _, d, r, dp, rp in texts:
        primed = "" if dp is None else f',\n      "dp": {dp},\n      "rp": {rp}'
        yield (
            f'{sep}    {{\n      "n": {row.n},\n      "d": {d},\n      "r": {r}'
            f'{primed}\n    }}'
        )
        sep = ",\n"
    yield "\n  ],\n"
    if table.degenerate_at is not None:
        yield f'  "degenerate_at": {table.degenerate_at},\n'
    yield f'  "positivity": "{positivity}"\n}}\n'


def _triad_lines(steps: list[Triad], right: bool):
    """Yield the line _run_triad prints for each triad of steps, a chain of
    mutation steps (right or left) from steps[0].

    str() of an int is quadratic in its digits. A step keeps one member of
    the triad before it and makes two, each h * pivot - v with h one of that
    triad's small pairings, so the texts of the new members come from an
    exact Decimal replay of those reflections, in linear time, and each is
    checked against its int (helix._checked_text) before it is yielded.
    """
    mul, sub = _EXACT.multiply, _EXACT.subtract

    def member(v, rank, degree):
        return rank, degree, _checked_text(v.rank, rank), _checked_text(v.degree, degree)

    def reflect(v, x, pivot, h):
        # member(v) for v = h * pivot - x, from the Decimals of pivot and x
        h = Decimal(h)
        return member(v, sub(mul(h, pivot[0]), x[0]), sub(mul(h, pivot[1]), x[1]))

    t = steps[0]
    ms = [member(v, Decimal(v.rank), Decimal(v.degree)) for v in (t.a, t.b, t.c)]
    for step, t in enumerate(steps):
        if step:
            # h holds the pairings of the triad before t
            a, b, c = ms
            if right:
                ms = [c, reflect(t.b, a, c, h.ac), reflect(t.c, b, c, h.bc)]
            else:
                ms = [reflect(t.a, b, a, h.ab), reflect(t.b, c, a, h.ac), a]
        h = hom_dims(t)
        # a Triad's members are simple, rank >= 1 and coprime to the degree,
        # so degree/rank is str(slope(v)) already in lowest terms
        members = ", ".join(f"{r}:{d}" for _, _, r, d in ms)
        slopes = ", ".join(d if r == "1" else f"{d}/{r}" for _, _, r, d in ms)
        yield f"step {step}: ({members}) hom=({h.ab},{h.ac},{h.bc}) slopes=({slopes})\n"


def _run_triad(args) -> int:
    if args.steps < 0:
        raise ValueError("--steps must be nonnegative")
    t = Triad(ChernVector(*args.a), ChernVector(*args.b), ChernVector(*args.c))
    right = args.direction == "right"
    mutate = mutate_triad_right if right else mutate_triad_left
    # every step runs before the first line, as in seed-table: the first
    # that cannot be printed ends the run with nothing printed
    steps, stuck = [], None
    for step in range(args.steps + 1):
        if step:
            try:
                t = mutate(t)
            except NotMutable as exc:
                stuck = step, exc
                break
        top = max(*hom_dims(t), t.a.rank, abs(t.a.degree), t.b.rank, abs(t.b.degree),
                  t.c.rank, abs(t.c.degree))
        _require_printable(top)
        steps.append(t)
    sys.stdout.writelines(_triad_lines(steps, right))
    if stuck is not None:
        step, exc = stuck
        print(
            f"error at step {step}: member {exc.member} not mutable ({exc})",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_hilbert(args) -> int:
    model = qa.EquigenModel(args.d)
    if args.order < 3:
        raise ValueError("--order must be at least 3")
    # the A denominator has constant term 1, so both series have den 1:
    # their nums are the coefficients
    a = qa.hilbert_A(model, args.order)
    b = qa.hilbert_B(a)
    print("A: " + " ".join(map(str, a.nums)))
    print("B: " + " ".join(map(str, b.nums)))
    failed = False
    try:
        ok, where = qa.cross_check_hilbert(model, b)
    except UnsupportedD:
        print("cross-check: SKIPPED (only defined for d=3 and odd d>=5)")
    else:
        print("cross-check: PASS" if ok else
              f"cross-check: FAIL (first mismatch at i={where})")
        failed = not ok
    if args.order >= 6:
        ok = qa.normal_quotient_check(a, b)
        print("normal-quotient: PASS" if ok else "normal-quotient: FAIL")
        failed = failed or not ok
    return 2 if failed else 0


def _run_koszul_dual(args) -> int:
    for flag, value in (("--dims", args.dims), ("--witness", args.witness)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be nonnegative")
    with open(args.input, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("presentation JSON is nested too deeply") from None
    pres = qa.QuadraticPresentation.from_json_dict(doc)
    dual = qa.koszul_dual(pres)
    # everything that can fail runs before the first byte of the report
    double_dual = qa.double_dual_check(pres) if args.check_double_dual else None
    dims = rep = None
    if args.dims is not None or args.witness is not None:
        # one dual table serves --dims and the witness; it runs first and to
        # the larger degree, so a cap refusal names the cell it names alone
        top = max(d for d in (args.dims, args.witness) if d is not None)
        table = qa.degree_dims(dual, top)
        if args.dims is not None:
            d = args.dims
            dims = qa.DimTable(table.period, d, tuple(r[: d + 1] for r in table.dims))
        if args.witness is not None:
            # koszulity_witness of pres, on the dual already built
            w = args.witness
            rep = qa._dims_witness(qa.degree_dims(pres, w), table, w)
    rendered = qa._json_text(dual)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    failed = False
    if double_dual is not None:
        print("double-dual: PASS" if double_dual else "double-dual: FAIL")
        failed = not double_dual
    if dims is not None:
        sys.stdout.write(dims.to_csv())
    if rep is not None:
        if rep.passed:
            print("koszulity-witness: PASS")
        else:
            j, q = rep.failures()[0]
            print(f"koszulity-witness: FAIL (first at j={j}, q={q})")
            failed = True
    return 2 if failed else 0


def _run_limits(args) -> int:
    rep = limit_slopes(args.d)
    print(f"right: {rep.right_limit} ≈ {rep.decimal_right}")
    print(f"left: {rep.left_limit} ≈ {rep.decimal_left}")
    print("irrational: " + ("yes" if rep.irrational else "no"))
    return 0


def _verify_checks(ds, horizon, samples, rng):
    """Yield (name, ok, detail) for the nine suites in a fixed order."""
    # the (0, d/2, d) tables, shared by three suites
    family = {d: invariants_from_seed(Seed(0, Fraction(d, 2), d), horizon) for d in ds}
    # the (A, B) series pairs, shared by the two series suites
    series = {}
    for d in ds:
        a = qa.hilbert_A(qa.EquigenModel(d), max(6, min(horizon, 30)))
        series[d] = a, qa.hilbert_B(a)

    def periodicity():
        for d, table in family.items():
            ok, why = verify_periodicity(table)
            if not ok:
                return False, f"d={d}: {why}"
        for _ in range(samples):
            table = random_seed_table(rng, 12)
            ok, why = verify_periodicity(table)
            if not ok:
                seed = table.seed
                return False, f"seed ({seed.mu0},{seed.mu1p},{seed.mu1}): {why}"
        return True, ""

    def rotation():
        for _ in range(max(samples, 50)):
            t, right = random_right_step(rng)
            h = hom_dims(t)
            # right's pairings from its members, not the ones the step carried
            a, b, c = right.a, right.b, right.c
            got = euler_pairing(a, b), euler_pairing(a, c), euler_pairing(b, c)
            if got != (h.ac, h.bc, h.ab):
                return False, f"triad {t}"
        return True, ""

    def roundtrip():
        for _ in range(max(samples, 50)):
            t, right = random_right_step(rng)
            if mutate_triad_left(right) != t:
                return False, f"triad {t}"
        return True, ""

    def closed_form_equivalence():
        from .helix import closed_form

        for d, table in family.items():
            for row, exact in zip(table.rows, closed_form(d, table.rows[-1].n)):
                if exact != (row.r, row.d):
                    return False, f"d={d}, n={row.n}"
        return True, ""

    def ratio_bound():
        for d, table in family.items():
            if not verify_ratio_bound(table):
                return False, f"d={d}"
        return True, ""

    def hilbert_crosscheck():
        for d, (_, b) in series.items():
            ok, where = qa.cross_check_hilbert(qa.EquigenModel(d), b)
            if not ok:
                return False, f"d={d}, first mismatch at i={where}"
        return True, ""

    def normal_quotient():
        for d, (a, b) in series.items():
            if not qa.normal_quotient_check(a, b):
                return False, f"d={d}"
        return True, ""

    def double_dual():
        for k in range(min(max(samples, 20), 50)):
            pres = random_presentation(rng)
            if not qa.double_dual_check(pres):
                return False, f"random presentation #{k}"
        return True, ""

    def koszulity_witness():
        for d in ds:
            rep = qa.koszulity_witness(qa.EquigenModel(d), 6)
            if not rep.passed:
                j, q = rep.failures()[0]
                return False, f"d={d}, first at j={j}, q={q}"
        for n in (1, 2, 3):
            pres, _ = qa.classical_euler_fixture(n)
            # one table per side to degree n + 2 serves both the ambient
            # cross-check (to degree n + 1) and the witness
            tables = []
            for side, p in (("", pres), (" dual", qa.koszul_dual(pres))):
                tables.append(qa.degree_dims(p, n + 2))
                fast = tables[-1].dims
                slow = qa._ambient_degree_dims(p, n + 1).dims
                for i, deg in itertools.product(range(p.period), range(n + 2)):
                    if fast[i][deg] != slow[i][deg]:
                        return False, (
                            f"fixture n={n}{side}, dim at i={i}, degree {deg}: "
                            f"quotient route {fast[i][deg]}, ambient route {slow[i][deg]}"
                        )
            rep = qa._dims_witness(*tables, n + 2)
            if not rep.passed:
                j, q = rep.failures()[0]
                return False, f"fixture n={n}, first at j={j}, q={q}"
        return True, ""

    suites = (
        ("periodicity", periodicity),
        ("rotation", rotation),
        ("roundtrip", roundtrip),
        ("closed-form-equivalence", closed_form_equivalence),
        ("ratio-bound", ratio_bound),
        ("hilbert-crosscheck", hilbert_crosscheck),
        ("normal-quotient", normal_quotient),
        ("double-dual", double_dual),
        ("koszulity-witness", koszulity_witness),
    )
    for name, fn in suites:
        ok, detail = fn()
        yield name, ok, detail


def _run_verify(args) -> int:
    lo, hi = args.d_range
    if lo > hi or lo < 5 or lo % 2 == 0 or hi % 2 == 0:
        raise UnsupportedD(f"d range must cover odd values >= 5, got {lo}:{hi}")
    if args.horizon < 5:
        raise ValueError("--horizon must be at least 5")
    if args.seed_samples < 0:
        raise ValueError("--seed-samples must be nonnegative")
    # the cap is read before the first suite, so a malformed one prints nothing
    qa._dim_cap()
    ds = list(range(lo, hi + 1, 2))
    rng = random.Random(_VERIFY_SEED)
    all_ok = True
    for name, ok, detail in _verify_checks(ds, args.horizon, args.seed_samples, rng):
        print(f"{name}: PASS" if ok else f"{name}: FAIL ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [" " + tok if _FRACTION_TOKEN.match(tok) else tok for tok in argv]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
