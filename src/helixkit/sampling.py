"""Random generators for property tests and the self-check command.

Every function takes a caller-owned random.Random so runs are reproducible;
nothing here touches global RNG state.

The bounded draws made in a loop (the vectors of random_simple_pair and
random_triad, the slope picks of random_seed_table, the relation counts and
entries of random_presentation) go through _below on rng.getrandbits, which
draws exactly what rng.randint and rng.choice draw on CPython 3.10-3.12.
Each sampler's stream, its objects and the rng state after them, is pinned
in the tests (PINNED in tests/test_sampling.py); those pins are the
contract, so a change here must leave every stream bit for bit the same.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .bundles import ChernVector, HomDims, Triad, euler_pairing, mutate_triad_right
from .errors import NotMutable
from .exact import RationalMatrix, _by_lead, _reduced
from .helix import HelixTable, Seed, invariants_from_seed
from .quadratic import QuadraticPresentation


def _below(bits, n: int) -> int:
    """rng.randrange(n) for n >= 1, where bits is rng.getrandbits.

    randint(a, b) is a + randrange(b - a + 1) and choice(seq) is
    seq[randrange(len(seq))], and randrange(n) takes n.bit_length() bits,
    drawn again while the value is n or more; this is that loop, without
    randint's argument checks and calls.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_simple_pair(rng: random.Random) -> tuple[ChernVector, ChernVector]:
    """Two coprime (rank, degree) vectors with strictly increasing slopes."""
    bits = rng.getrandbits
    out = []
    while len(out) < 2:
        r = 1 + _below(bits, 8)
        d = _below(bits, 41) - 20
        if gcd(r, d) != 1:
            continue
        v = ChernVector(r, d)
        if out and euler_pairing(out[0], v) == 0:
            continue
        out.append(v)
    e, f = out
    # ranks are positive, so slope(e) < slope(f) exactly when
    # euler_pairing(e, f) > 0
    return (e, f) if euler_pairing(e, f) > 0 else (f, e)


def random_triad(rng: random.Random) -> Triad:
    """A random slope-ordered triple of pairwise coprime-type vectors.

    Each draw is a coprime (rank, degree) pair with rank 1..6, so every
    slope is an integer over 60: the draws sort by degree * (60 // rank),
    and a draw with two equal slopes (pairing ab or bc not positive) is
    thrown away whole. An accepted draw is simple with increasing slopes,
    so its ChernVectors and its Triad are built once, with the pairings of
    the acceptance test (Triad._stepped), and Triad's checks are not re-run.
    """
    bits = rng.getrandbits
    while True:
        vs = []
        while len(vs) < 3:
            r = 1 + _below(bits, 6)
            d = _below(bits, 31) - 15
            if gcd(r, d) == 1:
                vs.append((d * (60 // r), r, d))
        vs.sort()
        (_, r0, d0), (_, r1, d1), (_, r2, d2) = vs
        ab, bc = d1 * r0 - d0 * r1, d2 * r1 - d1 * r2
        if ab > 0 and bc > 0:
            return Triad._stepped(
                ChernVector(r0, d0), ChernVector(r1, d1), ChernVector(r2, d2),
                HomDims(ab, d2 * r0 - d0 * r2, bc),
            )


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
    through that row.

    Each pick num/den (num in -12..12, den in 1..6) is kept as its reduced
    int pair, so equal slopes are one pick; every den divides 60, so the
    three picks sort by num * (60 // den). One Fraction is built per slope
    of the seed, and the seed, in strictly increasing order by construction,
    without Seed's checks (Seed._unchecked).
    """
    bits = rng.getrandbits
    while True:
        picks = set()
        while len(picks) < 3:
            num = _below(bits, 25) - 12
            den = 1 + _below(bits, 6)
            g = gcd(num, den)
            num, den = num // g, den // g
            picks.add((num * (60 // den), num, den))
        (_, n0, e0), (_, n1, e1), (_, n2, e2) = sorted(picks)
        table = invariants_from_seed(
            Seed._unchecked(Fraction(n0, e0), Fraction(n1, e1), Fraction(n2, e2)), n_max
        )
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
    built without __init__'s rank check. The period and the generator dims
    are drawn by rng.choice and rng.randint, which refuse a max_gen below 1;
    the relation counts and entries by _below.
    """
    bits = rng.getrandbits
    p = rng.choice([1, 2, 3])
    gens = tuple(rng.randint(1, max_gen) for _ in range(p))
    rels = []
    for i in range(p):
        ambient = gens[i] * gens[(i + 1) % p]
        count = _below(bits, ambient + 1)
        rows = [
            {
                j: (_below(bits, 7) - 3) * (2 // (1 + _below(bits, 2)))
                for j in range(ambient)
            }
            for _ in range(count)
        ]
        rels.append(RationalMatrix._of(ambient, _by_lead(_reduced(rows))))
    return QuadraticPresentation._unchecked(p, gens, tuple(rels))
