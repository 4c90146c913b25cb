"""Three long cross-checks of independent routes, run by CI and by hand:

    PYTHONPATH=src python -W error tests/route_sweeps.py

1. The quotient route against the ambient route, on 1000 sampler draws and
   their duals to degree 5. The draws mix words of pivot q = 1 and q > 1 in
   one relation row in many ways; a row scaled wrongly shows as a dim
   mismatch. Past degree 3, degree_dims counts normal words when their
   number is dim A_3 at every start index and runs the recursion otherwise;
   the sweep must take both routes.
2. The double-dual certificate against the composed route, on 1000 sampler
   draws, their duals and the fixtures. The composed route builds the dual
   of the dual and compares row spaces; double_dual_check certifies the same
   identity from one elimination per block. Both must hold on every input.
3. The minor route: verify_periodicity's residual minors against the four
   products of table-size integers per row, on 1000 seeded tables to row 40,
   half of them tampered (entries off by +-1 or a 30-digit value, carried
   minors off by one, replaced by small values or truncated). The minor
   lists must agree on every table; the summary also counts the tables
   verify_periodicity reports broken.

Each sweep prints its summary lines. The exit status is 1 if any fails.
Tier-1 (pytest) does not collect this file: it takes about a minute.
"""

import random
import sys

from helixkit.exact import row_space_equal
from helixkit.helix import HelixTable, _row_minors, verify_periodicity
from helixkit.quadratic import (
    _ambient_degree_dims,
    _normal_pairs,
    _normal_word_counts,
    _quotient_dims,
    classical_euler_fixture,
    degree_dims,
    double_dual_check,
    koszul_dual,
)
from helixkit.sampling import random_presentation, random_seed_table


def quotient_against_ambient() -> bool:
    bad, routes = [], [0, 0]
    for s in range(1000):
        p = random_presentation(random.Random(s), max_gen=3)
        for q in (p, koszul_dual(p)):
            pairs = _normal_pairs(q)
            counted = all(
                list(_normal_word_counts(q, pairs, i, 3))
                == list(_quotient_dims(q, i, 3))
                for i in range(q.period)
            )
            routes[counted] += 1
            if degree_dims(q, 5) != _ambient_degree_dims(q, 5):
                bad.append(s)
    print(f"1000 draws and their duals: {len(bad)} mismatches {bad}")
    print(f"count route {routes[1]}, recursion {routes[0]}")
    return not bad and 0 not in routes


def composed(p) -> bool:
    dd = koszul_dual(koszul_dual(p))
    return all(row_space_equal(a, b) for a, b in zip(p.relations, dd.relations))


def double_dual_against_composed() -> bool:
    inputs = [classical_euler_fixture(n)[0] for n in range(1, 5)]
    inputs += [random_presentation(random.Random(s)) for s in range(1000)]
    bad = [
        k
        for k, p in enumerate(inputs)
        for q in (p, koszul_dual(p))
        if not (double_dual_check(q) and composed(q))
    ]
    print(f"{len(inputs)} inputs and their duals: {len(bad)} failed {bad}")
    return not bad


def four_product_minors(rows):
    consec = [b.d * a.r - a.d * b.r for a, b in zip(rows, rows[1:])]
    return consec, [None] + [x.d * x.rp - x.dp * x.r for x in rows[1:]]


def tampered(t, rng):
    rows, minors = list(t.rows), list(t.minors)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(rows))
        field = rng.choice(["d", "r"] if i == 0 else ["d", "r", "dp", "rp"])
        delta = rng.choice([1, -1, rng.randrange(-(10**30), 10**30)])
        rows[i] = rows[i]._replace(**{field: getattr(rows[i], field) + delta})
    k = rng.randrange(len(minors))
    change = rng.choice(["off by one", "garbage", "truncated"])
    if change == "off by one":
        minors[k] += rng.choice([1, -1])
    elif change == "garbage":
        minors[k] = rng.randint(-3, 3)
    else:
        del minors[k:]
    return HelixTable(t.seed, t.d_param, tuple(rows), None, tuple(minors))


def residual_minors_against_four_products() -> bool:
    bad, broken = [], 0
    for s in range(1000):
        rng = random.Random(s)
        t = random_seed_table(rng, 40)
        if s % 2:
            t = tampered(t, rng)
        if _row_minors(t) != four_product_minors(t.rows):
            bad.append(s)
        broken += not verify_periodicity(t)[0]
    print(f"minor route, 1000 tables (500 tampered, {broken} broken): "
          f"{len(bad)} mismatches {bad}")
    return not bad


if __name__ == "__main__":
    ok = quotient_against_ambient()
    ok = double_dual_against_composed() and ok
    ok = residual_minors_against_four_products() and ok
    sys.exit(0 if ok else 1)
