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


def brute_rho_inverse(F, antichain):
    """Inverse rowmotion on an antichain: the maximal elements of the
    complement of the upper ideal it generates."""
    everything = set(range(1, F.n + 1))
    return brute_maximal(F, everything - brute_up_closure(F, antichain))


def brute_rho_hat_inverse(F, ideal):
    everything = set(range(1, F.n + 1))
    return frozenset(everything - brute_up_closure(F, brute_maximal(F, ideal)))


def brute_toggle(F, family, x, members):
    """Toggle x in a set when the result stays in the family ("ideal" or
    "antichain"), else leave the set as it is.  Only x's relations can
    change, so only they are checked, against the leq table."""
    leq = leq_table(F)
    if x in members:
        if family == "ideal" and any(leq[x][b] for b in members if b != x):
            return members
        return members - {x}
    if family == "ideal":
        below = (a for a in range(1, F.n + 1) if a != x and leq[a][x])
        ok = all(a in members for a in below)
    else:
        ok = not any(leq[a][x] or leq[x][a] for a in members)
    return members | {x} if ok else members


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


def dict_orbits(masks, image):
    """Cycles of the bijection image (a dict) on masks, each listed from
    its smallest member, by following image from every unplaced mask in
    increasing order."""
    seen = set()
    orbits = []
    for start in sorted(masks):
        if start in seen:
            continue
        orbit, m = [], start
        while m not in seen:
            seen.add(m)
            orbit.append(m)
            m = image[m]
        orbits.append(orbit)
    return orbits


def brute_base_graph(F, family):
    """Base-graph edges (x, y), x < y, found by applying both orders of
    every pair of toggles to every member of the family.  The single
    toggle is the library's toggle_mask on one mask at a time; what this
    checks is the library's test of each pair on the packed family."""
    from fences.toggles import toggle_mask

    masks = F.family_masks(family)
    edges = set()
    for x in range(1, F.n + 1):
        for y in range(x + 1, F.n + 1):
            for m in masks:
                a = toggle_mask(F, family, x, toggle_mask(F, family, y, m))
                b = toggle_mask(F, family, y, toggle_mask(F, family, x, m))
                if a != b:
                    edges.add((x, y))
                    break
    return edges


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
