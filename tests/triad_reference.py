"""triad's output written out from the mutation chain itself: each step by
mutate_triad_right or mutate_triad_left, each line by str() of the members,
their slopes and their pairings recomputed; the reference that the triad
tests and tests/route_sweeps.py hold the seed-table route against."""

import fractions
import itertools

from helixkit.bundles import Triad, euler_pairing, mutate_triad_left, mutate_triad_right
from helixkit.errors import NotMutable


def reference_triad_line(step: int, t: Triad) -> str:
    # the hom dims from the members, not the pairings a step carried
    vs = (t.a, t.b, t.c)
    members = ", ".join(f"{v.rank}:{v.degree}" for v in vs)
    hom = ",".join(str(euler_pairing(x, y)) for x, y in itertools.combinations(vs, 2))
    slopes = ", ".join(str(fractions.Fraction(v.degree, v.rank)) for v in vs)
    return f"step {step}: ({members}) hom=({hom}) slopes=({slopes})"


def reference_triad_run(t: Triad, direction: str, steps: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `triad` on t: the lines of the chain
    of steps from t, up to the first step that is not mutable, if any, which
    stderr then names."""
    mutate = mutate_triad_right if direction == "right" else mutate_triad_left
    lines = [reference_triad_line(0, t) + "\n"]
    for step in range(1, steps + 1):
        try:
            t = mutate(t)
        except NotMutable as exc:
            err = f"error at step {step}: member {exc.member} not mutable ({exc})\n"
            return 1, "".join(lines), err
        lines.append(reference_triad_line(step, t) + "\n")
    return 0, "".join(lines), ""
