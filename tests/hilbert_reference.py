"""A's and B's Hilbert series written out from A's three-term recursion: the
reference that the hilbert tests and tests/route_sweeps.py hold the series
route (hilbert_A's inverse, hilbert_B's product) against."""


def three_term_series(d: int, order: int) -> tuple[list[int], list[int]]:
    """The numerators of A = 1 / (1 - dt + dt^2 - t^3) and B = (1 - t^3) A
    to `order`: a_n = d (a_(n-1) - a_(n-2)) + a_(n-3), since A is Koszul
    with dual dims (1, d, d, 1), and b_n = a_n - a_(n-3)."""
    a = [1, d, d * d - d]
    while len(a) <= order:
        a.append(d * (a[-1] - a[-2]) + a[-3])
    a = a[: order + 1]
    return a, a[:3] + [x - y for x, y in zip(a[3:], a)]
