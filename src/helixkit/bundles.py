"""Rank/degree calculus for simple bundles on a smooth elliptic curve.

Everything works at the level of the integer pair (rank, degree): the
dimension pairing and the left/right mutations of pairs and of triads.
Rank-zero data (torsion sheaves) is outside the model.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ._value import Value
from .errors import NotMutable, NotSimple, SlopeOrderViolation


class ChernVector(Value):
    """(rank, degree) with rank >= 1."""

    _fields = ("rank", "degree")

    def __init__(self, rank: int, degree: int):
        if type(rank) is not int or type(degree) is not int:
            for v in (rank, degree):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError("rank and degree must be integers")
        if rank < 1:
            raise ValueError("rank must be at least 1")
        d = self.__dict__
        d["rank"] = rank
        d["degree"] = degree

    @property
    def is_simple(self) -> bool:
        # coprime rank and degree; degree 0 therefore forces rank 1
        return gcd(self.rank, abs(self.degree)) == 1

    def __str__(self):
        return f"{self.rank}:{self.degree}"


def slope(c: ChernVector) -> Fraction:
    return Fraction(c.degree, c.rank)


def euler_pairing(e: ChernVector, f: ChernVector) -> int:
    """The antisymmetric pairing d_F r_E - d_E r_F (defined for all pairs)."""
    return f.degree * e.rank - e.degree * f.rank


def _require_simple(h: int, *vs: ChernVector) -> None:
    """Raise NotSimple for the first v with gcd(h, rank, degree) != 1.

    h must be a pairing with each v. A pairing is an integer combination of
    the rank and degree of either vector, so gcd(rank, degree) divides it
    (h = 0 included), and gcd(h, rank, degree) == gcd(rank, degree): the
    verdict of is_simple, from a gcd of a small pairing with the rank and
    degree instead of a gcd of the rank and degree themselves.
    """
    for v in vs:
        if gcd(h, v.rank, v.degree) != 1:
            raise NotSimple(f"{v} has non-coprime rank and degree")


def hom_dim(e: ChernVector, f: ChernVector) -> int:
    """Dimension of the map space for a simple pair of increasing slope.

    Equals the pairing. Ranks are positive, so the pairing is positive
    exactly when slope(e) < slope(f); no slope is built to compare. The
    simplicity of e and f is read off the pairing (_require_simple), and is
    checked before the slope order.
    """
    h = euler_pairing(e, f)
    _require_simple(h, e, f)
    if h <= 0:
        raise SlopeOrderViolation(f"need slope({e}) < slope({f})")
    return h


def _reflect(
    v: ChernVector, pivot: ChernVector, h: int, side: str, member: str | None = None
) -> ChernVector:
    """h * pivot - v, the reflection of v past pivot for h = hom_dim of the
    pair; NotMutable, naming member, when its rank is not positive."""
    rank = h * pivot.rank - v.rank
    if rank <= 0:
        raise NotMutable(f"{side} mutation of {v} past {pivot} has rank {rank}", member)
    return ChernVector(rank, h * pivot.degree - v.degree)


def right_mutate(a: ChernVector, b: ChernVector) -> ChernVector:
    """Reflection of a rightward past b: (h r_B - r_A, h d_B - d_A)."""
    return _reflect(a, b, hom_dim(a, b), "right")


def left_mutate(e: ChernVector, f: ChernVector) -> ChernVector:
    """Reflection of f leftward past e: (h r_E - r_F, h d_E - d_F)."""
    return _reflect(f, e, hom_dim(e, f), "left")


def dualize(c: ChernVector) -> ChernVector:
    return ChernVector(c.rank, -c.degree)


class HomDims(NamedTuple):
    ab: int
    ac: int
    bc: int


class Triad(Value):
    """Three simple vectors of strictly increasing slope.

    The constructor computes the three pairings once and keeps them in
    _pairings, which hom_dims returns. It is not a compared field, so ==,
    hash and repr read a, b and c alone. A triad built by Triad(a, b, c), a
    changed copy included, gets its pairings from the constructor; a
    mutation step (mutate_triad_right, mutate_triad_left) hands the next
    triad the pairings of the one before it, permuted (_stepped), and
    sampling.random_triad hands its draw the pairings its acceptance test
    computed.

    Both checks read ab and bc: gcd(rank, degree) of a member divides its
    pairing with any vector, so a member is simple exactly when
    gcd(pairing, rank, degree) == 1 (_require_simple, a before b before c),
    and, ranks being positive, slope(e) < slope(f) exactly when
    euler_pairing(e, f) > 0. Simplicity is checked first.
    """

    _fields = ("a", "b", "c")

    def __init__(self, a: ChernVector, b: ChernVector, c: ChernVector):
        ab, bc = euler_pairing(a, b), euler_pairing(b, c)
        _require_simple(ab, a, b)
        _require_simple(bc, c)
        if ab <= 0 or bc <= 0:
            raise SlopeOrderViolation("triad slopes must increase strictly")
        d = self.__dict__
        d["a"] = a
        d["b"] = b
        d["c"] = c
        d["_pairings"] = HomDims(ab, euler_pairing(a, c), bc)

    @classmethod
    def _stepped(
        cls, a: ChernVector, b: ChernVector, c: ChernVector, h: HomDims
    ) -> Triad:
        """The triad (a, b, c) with pairings h, unchecked: a mutation step of
        a Triad, with h its pairings permuted (see mutate_triad_right), or
        a drawn triad with the pairings its acceptance test computed."""
        t = cls.__new__(cls)
        t.__dict__.update(a=a, b=b, c=c, _pairings=h)
        return t

    def __str__(self):
        return f"({self.a}, {self.b}, {self.c})"


def dualize_triad(t: Triad) -> Triad:
    """Negate degrees and reverse order, so slopes increase again."""
    return Triad(dualize(t.c), dualize(t.b), dualize(t.a))


def hom_dims(t: Triad) -> HomDims:
    """The three pairings of a triad, as its constructor computed them or a
    mutation step carried them. A Triad is simple with increasing slopes, so
    these are its hom_dim values; nothing is multiplied here."""
    return t._pairings


def mutate_triad_right(t: Triad) -> Triad:
    """(a, b, c) -> (c, R_c a, R_c b). Reports which member fails to mutate.

    A Triad is simple with increasing slopes, so hom_dims(t) gives each h,
    and the step's triad is built from them with no pairing computed:
    - Permutation. R_c a = ac c - a and R_c b = bc c - b. By bilinearity
      and antisymmetry (pairing(x, x) = 0, pairing(y, x) = -pairing(x, y)),
      pairing(c, R_c a) = ac, pairing(c, R_c b) = bc and
      pairing(R_c a, R_c b) = ac bc - bc ac + ab = ab, so the pairings
      (ab, ac, bc) become (ac, bc, ab).
    - Simplicity. A common divisor g of the rank and degree of R_c a divides
      its pairing ac with c, so g divides those of a = ac c - R_c a, and a is
      simple: g = 1. The same holds for R_c b. The carried pairings are
      positive, and _reflect refuses a rank that is not, so the slopes
      increase.
    """
    h = hom_dims(t)
    ra = _reflect(t.a, t.c, h.ac, "right", "a")
    rb = _reflect(t.b, t.c, h.bc, "right", "b")
    return Triad._stepped(t.c, ra, rb, HomDims(h.ac, h.bc, h.ab))


def mutate_triad_left(t: Triad) -> Triad:
    """(a, b, c) -> (L_a b, L_a c, a); inverse of the right step.

    As in mutate_triad_right, with L_a b = ab a - b and L_a c = ac a - c:
    pairing(L_a b, L_a c) = bc, pairing(L_a b, a) = ab and pairing(L_a c, a)
    = ac, so (ab, ac, bc) become (bc, ab, ac); a common divisor of the rank
    and degree of L_a b divides ab, so also those of b, and likewise for
    L_a c, ac and c.
    """
    h = hom_dims(t)
    lb = _reflect(t.b, t.a, h.ab, "left", "b")
    lc = _reflect(t.c, t.a, h.ac, "left", "c")
    return Triad._stepped(lb, lc, t.a, HomDims(h.bc, h.ab, h.ac))
