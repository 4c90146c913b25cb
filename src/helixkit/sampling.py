"""Random generators for property tests and the self-check command.

Every function takes a caller-owned random.Random so runs are reproducible;
nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .bundles import ChernVector, Triad, euler_pairing, mutate_triad_right
from .errors import NotMutable
from .exact import RationalMatrix, _by_lead, _reduced
from .helix import HelixTable, Seed, invariants_from_seed
from .quadratic import QuadraticPresentation

# ranks are positive, so e sorts before f (slope(e) < slope(f)) exactly when
# euler_pairing(e, f) > 0; comparing by that sign builds no Fraction slope
_BY_SLOPE = cmp_to_key(lambda e, f: euler_pairing(f, e))


def random_simple_pair(rng: random.Random) -> tuple[ChernVector, ChernVector]:
    """Two coprime (rank, degree) vectors with strictly increasing slopes."""
    out = []
    while len(out) < 2:
        r = rng.randint(1, 8)
        d = rng.randint(-20, 20)
        if gcd(r, abs(d)) != 1:
            continue
        v = ChernVector(r, d)
        if out and euler_pairing(out[0], v) == 0:
            continue
        out.append(v)
    out.sort(key=_BY_SLOPE)
    return out[0], out[1]


def random_triad(rng: random.Random) -> Triad:
    """A random slope-ordered triple of pairwise coprime-type vectors.

    Slopes are ordered and tested for strict order by the sign of
    euler_pairing; a draw with two equal slopes is thrown away whole.
    """
    while True:
        vs = []
        while len(vs) < 3:
            r = rng.randint(1, 6)
            d = rng.randint(-15, 15)
            if gcd(r, abs(d)) != 1:
                continue
            vs.append(ChernVector(r, d))
        vs.sort(key=_BY_SLOPE)
        if euler_pairing(vs[0], vs[1]) > 0 and euler_pairing(vs[1], vs[2]) > 0:
            return Triad(vs[0], vs[1], vs[2])


def random_right_step(rng: random.Random) -> tuple[Triad, Triad]:
    """A triad on which one rightward mutation step is defined, and that step."""
    while True:
        t = random_triad(rng)
        try:
            return t, mutate_triad_right(t)
        except NotMutable:
            continue


def random_right_mutable_triad(rng: random.Random) -> Triad:
    """A triad on which one rightward mutation step is defined."""
    return random_right_step(rng)[0]


def random_seed_table(rng: random.Random, n_max: int = 12) -> HelixTable:
    """The table, to row n_max, of a seed whose table stays rank-positive
    through that row."""
    while True:
        picks = set()
        while len(picks) < 3:
            picks.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        mu0, mu1p, mu1 = sorted(picks)
        table = invariants_from_seed(Seed(mu0, mu1p, mu1), n_max)
        if table.degenerate_at is None:
            return table


def random_seed_triple(rng: random.Random, n_max: int = 12) -> Seed:
    """A seed whose table stays rank-positive through row n_max."""
    return random_seed_table(rng, n_max).seed


def random_presentation(rng: random.Random, max_gen: int = 4) -> QuadraticPresentation:
    """A random quadratic presentation with independent relation rows.

    Each candidate entry is drawn as a half-integer num/den (num in -3..3,
    den in 1..2) and kept as the int num * (2 // den), twice its value; each
    block stores the reduced pivot rows of its candidates as they come out
    of the elimination, each over its pivot entry (the nonzero rows of their
    rref). Those are independent by construction, so the presentation is
    built without __init__'s rank check.
    """
    p = rng.choice([1, 2, 3])
    gens = tuple(rng.randint(1, max_gen) for _ in range(p))
    rels = []
    for i in range(p):
        ambient = gens[i] * gens[(i + 1) % p]
        count = rng.randint(0, ambient)
        rows = [
            {j: rng.randint(-3, 3) * (2 // rng.randint(1, 2)) for j in range(ambient)}
            for _ in range(count)
        ]
        rels.append(RationalMatrix._of(ambient, _by_lead(_reduced(rows))))
    return QuadraticPresentation._unchecked(p, gens, tuple(rels))
