"""Brute-force oracles, independent of the library's fast paths.

Everything here recomputes order theory from the cover list alone:
comparability by transitive closure, families by scanning all 2^n
subsets, and rowmotion by the raw three-map definition on Python sets.
Slow on purpose; used to cross-check the bitmask implementations at
small n.
"""

from fractions import Fraction
from itertools import combinations


_LEQ_TABLES = {}


def leq_table(F):
    """leq[a][b] iff x_a <= x_b, from the cover list by transitive closure.

    Memoised per composition, so the brute_* helpers share one table per
    fence; the rows are tuples so no caller can alter a shared table.
    """
    leq = _LEQ_TABLES.get(F.alpha)
    if leq is None:
        leq = _LEQ_TABLES[F.alpha] = _leq_closure(F)
    return leq


def _leq_closure(F):
    n = F.n
    leq = [[False] * (n + 1) for _ in range(n + 1)]
    for k in range(1, n + 1):
        leq[k][k] = True
    covers = set(F.cover_pairs())
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            for c in range(1, n + 1):
                if leq[c][a] and not leq[c][b]:
                    leq[c][b] = True
                    changed = True
                if leq[b][c] and not leq[a][c]:
                    leq[a][c] = True
                    changed = True
    return tuple(map(tuple, leq))


def brute_ideals(F):
    """All ideals as frozensets, by scanning every subset."""
    leq = leq_table(F)
    n = F.n
    out = []
    for mask in range(1 << n):
        members = {k for k in range(1, n + 1) if mask >> (k - 1) & 1}
        if all(
            leq[a][b] <= (a in members)
            for b in members
            for a in range(1, n + 1)
            if leq[a][b]
        ):
            out.append(frozenset(members))
    return out


def brute_antichains(F):
    leq = leq_table(F)
    n = F.n
    out = []
    for mask in range(1 << n):
        members = [k for k in range(1, n + 1) if mask >> (k - 1) & 1]
        if all(
            not (leq[a][b] or leq[b][a])
            for a, b in combinations(members, 2)
        ):
            out.append(frozenset(members))
    return out


def brute_down_closure(F, members):
    leq = leq_table(F)
    return frozenset(
        a for a in range(1, F.n + 1) if any(leq[a][b] for b in members)
    )


def brute_up_closure(F, members):
    leq = leq_table(F)
    return frozenset(
        a for a in range(1, F.n + 1) if any(leq[b][a] for b in members)
    )


def brute_maximal(F, members):
    leq = leq_table(F)
    return frozenset(
        a
        for a in members
        if not any(b != a and leq[a][b] for b in members)
    )


def brute_minimal(F, members):
    leq = leq_table(F)
    return frozenset(
        a
        for a in members
        if not any(b != a and leq[b][a] for b in members)
    )


def brute_rho(F, antichain):
    """Rowmotion on an antichain via the raw definition on sets."""
    everything = set(range(1, F.n + 1))
    ideal = brute_down_closure(F, antichain) if antichain else frozenset()
    return brute_minimal(F, everything - ideal)


def brute_rho_hat(F, ideal):
    everything = set(range(1, F.n + 1))
    mins = brute_minimal(F, everything - ideal)
    return brute_down_closure(F, mins) if mins else frozenset()


def brute_orbits(F, family, step):
    """Cycle decomposition of a family of frozensets under a step map."""
    seen = set()
    orbits = []
    for start in sorted(family, key=lambda s: sorted(s)):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        x = step(F, start)
        while x != start:
            orbit.append(x)
            seen.add(x)
            x = step(F, x)
        orbits.append(orbit)
    return orbits


def classify_orbit_sums(data):
    """Reference homomesy/orbomesy classifier over exact Fraction sums.

    From (orbit size, statistic sum) pairs, returns (kind, constant,
    per_orbit) with per_orbit the (size, sum, average) triples.  It
    compares averages and per-size sums as Fractions, independently of the
    library's integer cross-multiplication.
    """
    per_orbit = tuple((size, sm, Fraction(sm, size)) for size, sm in data)
    averages = {avg for _, _, avg in per_orbit}
    if len(averages) == 1:
        return "homomesic", next(iter(averages)), per_orbit
    by_size = {}
    for size, sm, _ in per_orbit:
        by_size.setdefault(size, set()).add(sm)
    if all(len(v) == 1 for v in by_size.values()):
        return "orbomesic", None, per_orbit
    return "neither", None, per_orbit
