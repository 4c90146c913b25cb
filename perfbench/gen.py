"""Seeded workload generator for the helixkit benchmark.

Standard library only; nothing here imports helixkit, so building the inputs
runs no program code. ``generate(workload, seed, workdir)`` yields the
workload's ops without end, writing the presentation files they read under
``workdir`` as it goes: each op is a dict with an ``argv`` for
``helixkit.cli.main`` and an ``expect`` record that ``checks.py`` uses to
judge the output. The streams are long so that a much faster program does
not run out of ops before a timed run ends: ``verify`` and ``koszul`` never
end, and ``tables`` raises RuntimeError after about 2,800 ops, when its
parameter ranges are used up.

Ops come in rounds. Every round holds one op from each size stratum, in a
fixed order that alternates costly and cheap strata, so whichever prefix of
the stream a timed run gets through has about the same cost mix whatever
the seed. No two ops are identical: what the program is given (flags and
input file contents, output paths left out) differs between any two ops.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction
from math import gcd

import checks

WORKLOADS = ("verify", "koszul", "tables")

# verify: --seed-samples values are drawn without replacement, segment by
# segment: segment s shuffles range(s VERIFY_SAMPLES, (s + 1) VERIFY_SAMPLES)
# in blocks of VERIFY_BLOCK, and each round takes one value from every block.
# VERIFY_BLOCK must divide VERIFY_SAMPLES. Later segments cost more (about
# 0.8 ms per sample on a 2 GHz Xeon against 0.4 s or more fixed per call);
# a timed run of today's program stays inside the first.
VERIFY_SAMPLES = 120
VERIFY_BLOCK = 12

# A run's op times spread widely, so its median would sit in the gap
# between two strata and jump with the exact op count. Each round therefore
# has as many cheap as costly ops around a middle band of one narrow-cost
# kind, and lists them costly and cheap in turn.

# koszul: (kind, m, degree) strata. "comm" is the commutator fixture on m
# variables, "sym" its Koszul dual (symmetric tensors); the first op of each
# such input and flags runs it as it is, the others under a seeded p/q change
# of variables. "rand" is a random [I | M] presentation on generators of
# dimension 2..m.
KOSZUL_MIDDLE = ("comm-dims", 3, 7)
KOSZUL_STRATA = (
    ("sym-dims", 4, 6),
    ("rand-out", 3, 0),
    KOSZUL_MIDDLE,
    ("rand-dims", 2, 7),
    ("comm-witness", 4, 5),
    ("rand-dims", 3, 4),
    ("comm-dims", 4, 6),
    ("comm-witness", 3, 5),
    KOSZUL_MIDDLE,
    ("sym-dims", 3, 7),
    ("comm-witness", 5, 4),
    ("comm-dims", 5, 5),
    ("rand-dims", 4, 3),
    KOSZUL_MIDDLE,
    ("sym-dims", 5, 5),
)

# tables: every round runs these kinds, each with a size quartile of
# (round + offset) mod 4. The four family-type seed tables have offsets 0..3,
# so every round holds one table of each size and costs about the same.
TABLES_KINDS = (
    ("seed-table:table", 0),
    ("limits", 0),
    ("hilbert:middle", 0),
    ("hilbert:small", 0),
    ("seed-table:json", 1),
    ("hilbert:middle", 0),
    ("seed-table:degenerate", 0),
    ("hilbert:middle", 0),
    ("limits", 0),
    ("triad:right", 0),
    ("hilbert:small", 0),
    ("seed-table:twisted", 2),
    ("hilbert:middle", 0),
    ("seed-table:degenerate", 0),
    ("hilbert:large", 0),
    ("hilbert:middle", 0),
    ("triad:fails", 0),
    ("triad:left", 2),
    ("seed-table:csv", 3),
)


def generate(workload: str, seed: int, workdir: str):
    """Yield the workload's ops without end, writing input files under workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    for k, op in enumerate(_GENERATORS[workload](rng, workdir)):
        op["id"] = k
        yield op


def op_key(op: dict) -> str:
    """What the program is given: the flags, with the input file replaced by
    its contents and the output path left out. Equal keys, identical ops."""
    expect, parts = op["expect"], []
    for arg in op["argv"]:
        if arg == expect.get("input"):
            with open(arg, encoding="utf-8") as fh:
                arg = fh.read()
        elif arg == expect.get("out"):
            arg = "<out>"
        parts.append(arg)
    return json.dumps(parts)


# Draws per op before the stream gives up: only a parameter space that a
# run has used up needs this many.
REDRAWS = 1000


class _Seen:
    """Digests of the ops drawn so far (32 bytes each, not the ops)."""

    def __init__(self):
        self._digests: set[bytes] = set()

    def first_new(self, draws) -> dict:
        """The first op from the iterator draws that was not drawn before."""
        for op in itertools.islice(draws, REDRAWS):
            digest = hashlib.sha256(op_key(op).encode("utf-8")).digest()
            if digest not in self._digests:
                self._digests.add(digest)
                return op
        raise RuntimeError(
            f"op stream exhausted after {len(self._digests)} ops: the program "
            "ran faster than gen.py's parameter ranges allow; widen them")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _gen_verify(rng: random.Random, workdir: str):
    for start in itertools.count(0, VERIFY_SAMPLES):
        blocks = []
        for lo in range(start, start + VERIFY_SAMPLES, VERIFY_BLOCK):
            values = list(range(lo, lo + VERIFY_BLOCK))
            rng.shuffle(values)
            blocks.append(values)
        # larger sample counts cost more: take blocks low, high, next low, ...
        order = [k // 2 if k % 2 == 0 else len(blocks) - 1 - k // 2
                 for k in range(len(blocks))]
        for round_ in zip(*(blocks[k] for k in order)):
            for s in round_:
                lo = rng.choice((5, 7, 9))
                hi = lo + 2 * rng.randint(0, 1)
                horizon = rng.randint(5, 20)
                yield {
                    "argv": ["verify", "--d-range", f"{lo}:{hi}", "--horizon",
                             str(horizon), "--seed-samples", str(s)],
                    "expect": {"kind": "verify"},
                }


# --------------------------------------------------------------------------
# koszul
# --------------------------------------------------------------------------


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _unit_lower(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Unit lower-triangular n x n matrix, 30% of its lower entries p/q."""
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.3:
                out[i][j] = _small_fraction(rng)
    return out


def _matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def commutator_rows(m: int) -> list[list[Fraction]]:
    """x_a x_b - x_b x_a for a < b: the polynomial ring on m variables."""
    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            row = [Fraction(0)] * (m * m)
            row[a * m + b] = Fraction(1)
            row[b * m + a] = Fraction(-1)
            rows.append(row)
    return rows


def symmetric_rows(m: int) -> list[list[Fraction]]:
    """x_a x_a and x_a x_b + x_b x_a: the exterior algebra on m variables."""
    rows = []
    for a in range(m):
        for b in range(a, m):
            row = [Fraction(0)] * (m * m)
            row[a * m + b] += 1
            row[b * m + a] += 1
            rows.append(row)
    return rows


def change_variables(rows, p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Apply P (x) P to each tensor row: w[i m + j] = sum v[a m + b] P[i][a] P[j][b]."""
    m = len(p)
    out = []
    for v in rows:
        w = [Fraction(0)] * (m * m)
        for ab, c in enumerate(v):
            if not c:
                continue
            a, b = divmod(ab, m)
            for i in range(m):
                if not p[i][a]:
                    continue
                pa = c * p[i][a]
                for j in range(m):
                    if p[j][b]:
                        w[i * m + j] += pa * p[j][b]
        out.append(w)
    return out


def _sparse_invertible(rng: random.Random, m: int) -> list[list[Fraction]]:
    """P = D S E: p/q diagonal D, permutation S, E = I + c e_ij.

    Invertible by construction, and sparse enough that the transformed
    fixture costs about the same to eliminate whatever the seed.
    """
    perm = list(range(m))
    rng.shuffle(perm)
    i, j = rng.sample(range(m), 2)
    e = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    e[i][j] = _small_fraction(rng)
    return [[x * _small_fraction(rng) for x in e[perm[r]]] for r in range(m)]


def _mix_rows(rng: random.Random, rows):
    """Left-multiply by a unit lower-triangular matrix (keeps independence)."""
    return _matmul(_unit_lower(rng, len(rows)), rows)


def _add_row_multiple(rng: random.Random, rows):
    """One elementary row operation: rows[i] += c rows[j]."""
    i, j = rng.sample(range(len(rows)), 2)
    c = _small_fraction(rng)
    rows = [list(r) for r in rows]
    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def random_block(rng: random.Random, count: int, ambient: int):
    """count independent rows in `ambient` columns: column-permuted [I | M]."""
    cols = list(range(ambient))
    rng.shuffle(cols)
    rows = []
    for k in range(count):
        row = [Fraction(0)] * ambient
        row[cols[k]] = Fraction(1)
        for c in cols[count:]:
            if rng.random() < 0.5:
                row[c] = _small_fraction(rng)
        rows.append(row)
    return _mix_rows(rng, rows)


def presentation_doc(gen_dims, blocks) -> dict:
    return {
        "period": len(gen_dims),
        "gen_dims": list(gen_dims),
        "relations": [
            {"index": i, "rows": [[str(x) for x in row] for row in rows]}
            for i, rows in enumerate(blocks)
        ],
    }


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _koszul_op(rng: random.Random, workdir: str, kind: str, m: int, top: int,
               plain: bool, name: str) -> dict:
    if kind.startswith(("comm", "sym")):
        rows = commutator_rows(m) if kind.startswith("comm") else symmetric_rows(m)
        if not plain:
            p = _sparse_invertible(rng, m)
            rows = _add_row_multiple(rng, change_variables(rows, p))
        doc = presentation_doc((m,), [rows])
        # dims of the dual: exterior for the commutators, polynomial for sym
        family = "exterior" if kind.startswith("comm") else "polynomial"
    else:
        period = rng.choice((1, 2))
        gens = [rng.randint(2, m) for _ in range(period)]
        blocks = []
        for i in range(period):
            ambient = gens[i] * gens[(i + 1) % period]
            blocks.append(random_block(rng, rng.randint(1, ambient - 1), ambient))
        doc = presentation_doc(gens, blocks)
        family = None
    path = _write(workdir, f"{name}-{kind}-{m}.json", doc)
    expect = {"kind": "koszul", "input": path, "family": family, "m": m}
    argv = ["koszul-dual", path]
    if kind.endswith("witness"):
        argv += ["--witness", str(top)]
        expect["witness"] = top
    elif kind.endswith("dims"):
        argv += ["--dims", str(top), "--check-double-dual"]
        expect["dims"] = top
        expect["double_dual"] = True
    else:
        out = os.path.join(workdir, f"dual-{name}.json")
        argv += ["--out", out]
        expect["out"] = out
    return {"argv": argv, "expect": expect}


def _gen_koszul(rng: random.Random, workdir: str):
    seen = _Seen()
    for k in itertools.count():
        for s, (kind, m, top) in enumerate(KOSZUL_STRATA):
            # round 0 tries each fixture as it is; a repeat is transformed
            yield seen.first_new(
                _koszul_op(rng, workdir, kind, m, top, k == 0 and t == 0, f"{k}-{s}")
                for t in itertools.count())


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _degenerate_seed(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """A random increasing slope triple whose table dies before row 40."""
    while True:
        picks = set()
        while len(picks) < 3:
            picks.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        mu = tuple(sorted(picks))
        if checks.seed_rows(mu, 40)[1] is not None:
            return mu


def _simple_triad(rng: random.Random):
    """Three coprime (rank, degree) pairs of strictly increasing slope."""
    while True:
        vs = set()
        while len(vs) < 3:
            r, d = rng.randint(1, 9), rng.randint(-30, 30)
            if gcd(r, abs(d)) == 1:
                vs.add((r, d))
        vs = sorted(vs, key=lambda v: Fraction(v[1], v[0]))
        slopes = [Fraction(d, r) for r, d in vs]
        if slopes[0] < slopes[1] < slopes[2]:
            return vs


# Probe length and rank growth (bits a step) of the triads that run all
# their steps. Growth ranges from 2 to 8 bits a step between random triads
# and the cost of a run grows with its square, so only the middle band of
# it is used.
TRIAD_PROBE = 30
TRIAD_GROWTH = (6, 7)


def _triad(rng: random.Random, direction: str, fails: bool):
    """A random triad whose first mutations in `direction` are impossible
    (exit code 1) if `fails`, else one whose ranks grow by TRIAD_GROWTH
    bits a step over the first TRIAD_PROBE steps."""
    lo, hi = (g * TRIAD_PROBE for g in TRIAD_GROWTH)
    while True:
        vs = _simple_triad(rng)
        out, code = checks.triad_steps(vs, direction, TRIAD_PROBE)
        if fails:
            if code == 1:
                return vs
        elif code == 0 and lo <= max(r for r, _ in out[-1]).bit_length() <= hi:
            return vs


def _tables_op(rng: random.Random, kind: str, stratum: int) -> dict:
    if kind.startswith("seed-table"):
        fmt = kind.split(":")[1]
        if fmt == "degenerate":
            mu = _degenerate_seed(rng)
            n = rng.randint(50, 2000)
            fmt = rng.choice(("table", "json", "csv"))
        else:  # a fixed d and a narrow n per quartile keep costs alike;
            # the first quartile holds the longest tables, which set peak RSS
            d, lo = ((5, 1960), (7, 1300), (9, 1000), (13, 800))[stratum]
            # "twisted" shifts a family seed by a line bundle: the same
            # ranks, so the same cost, but not a family seed
            t = rng.choice((-1, 1)) * rng.randint(1, 20) if fmt == "twisted" else 0
            mu = (Fraction(t), Fraction(2 * t + d, 2), Fraction(t + d))
            n = lo + rng.randint(0, 40)
            fmt = "table" if fmt == "twisted" else fmt
        argv = ["seed-table", *map(str, mu), "--n", str(n), "--format", fmt]
        return {"argv": argv, "expect": {"kind": "seed-table"}}
    if kind.startswith("hilbert"):
        size = kind.split(":")[1]
        d = rng.randint(3, 15)
        if size == "small":
            order = rng.randint(6, 64)
        elif size == "middle":  # d changes the cost little at this order
            d = rng.randint(5, 40)
            order = rng.randint(200, 220)
        else:
            order = 320 + 48 * stratum + rng.randint(0, 15)
        argv = ["hilbert", "--d", str(d), "--order", str(order)]
        return {"argv": argv, "expect": {"kind": "hilbert"}}
    if kind == "limits":
        d = 2 * rng.randint(2, 10**6) + 1
        return {"argv": ["limits", "--d", str(d)],
                "expect": {"kind": "limits"}}
    direction = kind.split(":")[1]
    fails = direction == "fails"
    if fails:
        direction = rng.choice(("right", "left"))
    vs = _triad(rng, direction, fails)
    steps = 200 + 75 * stratum + rng.randint(0, 24)
    argv = ["triad", *(f"{r}:{d}" for r, d in vs), f"--{direction}",
            "--steps", str(steps)]
    # the checker recomputes the steps and the exit code (0, or 1 when a
    # step is impossible) with integers
    return {"argv": argv, "expect": {"kind": "triad"}}


def _gen_tables(rng: random.Random, workdir: str):
    seen = _Seen()
    for k in itertools.count():
        for kind, offset in TABLES_KINDS:
            yield seen.first_new(
                _tables_op(rng, kind, (k + offset) % 4) for _ in itertools.count())


_GENERATORS = {"verify": _gen_verify, "koszul": _gen_koszul, "tables": _gen_tables}
