"""Brute-force oracles, independent of the library's fast paths.

Everything here recomputes order theory from the cover list alone:
comparability by transitive closure, families by scanning all 2^n
subsets, and rowmotion by the raw three-map definition on Python sets.
Slow on purpose; used to cross-check the bitmask implementations at
small n.  segment_tables keeps the per-edge rule (a bisect on the
partial sums) that Fence's one pass over the segments replaced.
aba_orbit_structure keeps the search for m that the modular
inverse in fences.harness replaced.  The orientations as edge sets and
the breadth-first conjugation_path are the search that the integer
orientations and the path construction in fences.toggles replaced.  The
tiling references at the end are the cell-by-cell builder, painter and
validator that the row-at-a-time ones in fences.tiling replaced.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd

from fences.fence import ANTICHAIN, Composition, elements_of
from fences.tiling import (
    BLACK,
    RED,
    YELLOW,
    AlphaTiling,
    Tile,
    TilingError,
    TilingReport,
)


def segment_tables(alpha):
    """Fence's tables derived edge by edge: edge e, joining x_{e+1} and
    x_{e+2}, lies in segment bisect_right(partial sums, e + 1) and ascends
    when that segment is odd.  An element is shared when its edges lie in
    two segments, and its span holds every element of those segments."""
    parts = Composition.coerce(alpha).parts
    n, s = sum(parts) - 1, len(parts)
    cums = [0, *accumulate(parts)]
    edge_segment = [bisect_right(cums, e + 1) for e in range(n - 1)]
    edge_up = tuple(i % 2 == 1 for i in edge_segment)
    covers = dict.fromkeys(("up_right", "up_left", "down_right", "down_left"), 0)
    for e, up in enumerate(edge_up):
        covers["up_right" if up else "down_right"] |= 1 << e
        covers["down_left" if up else "up_left"] |= 1 << (e + 1)
    holds = [set() for _ in range(s + 1)]  # holds[i]: the elements of segment i
    segments = [set() for _ in range(n + 1)]  # segments[k]: those holding x_k
    for e, i in enumerate(edge_segment):
        holds[i] |= {e + 1, e + 2}
        segments[e + 1].add(i)
        segments[e + 2].add(i)
    if n == 1:  # one segment and no edge
        holds[1].add(1)
        segments[1].add(1)
    shared = tuple(k for k in range(1, n + 1) if len(segments[k]) == 2)
    unshared = tuple(
        tuple(sorted(holds[i] - set(shared), reverse=i % 2 == 0)) for i in range(s + 1)
    )
    span = tuple(
        sum(1 << (j - 1) for j in set().union(*(holds[i] for i in segments[k])))
        for k in range(1, n + 1)
    )
    return dict(edge_up=edge_up, **covers, shared=shared, unshared=unshared, span=span)


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
    checks is the library's test of each pair on the packed family
    (toggles._commutation_edges) and the graph base_graph reads off the
    fence."""
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


# -- orientations as edge sets, and the search for conjugation paths ----------


def orientation(word, G):
    """The base-graph edges, each directed from the toggle earlier in the
    word, as a frozenset of (tail, head) pairs."""
    pos = {x: i for i, x in enumerate(word.order)}
    return frozenset((u, v) if pos[u] < pos[v] else (v, u) for u, v in G.edges)


def sources_and_sinks(o, vertices):
    """The vertices with no incoming or no outgoing edge in o."""
    heads, tails = {v for _, v in o}, {u for u, _ in o}
    return {x for x in vertices if x not in heads or x not in tails}


def flip(o, x):
    """o with every edge at x reversed."""
    return frozenset((v, u) if x in (u, v) else (u, v) for u, v in o)


def admissible_toggles(word, G):
    """The sources and sinks of the word's orientation, isolated vertices
    included."""
    return sources_and_sinks(orientation(word, G), range(1, G.n + 1))


def conjugation_path(word, word2, G):
    """The conjugation path found by breadth-first search over
    orientations, expanding each orientation's sources and sinks in sorted
    order, so the first path to reach the goal is the lexicographically
    least shortest one.  Exponential in n; G must be a forest."""
    start, goal = orientation(word, G), orientation(word2, G)
    if start == goal:
        return []
    flippable = sorted({u for e in G.edges for u in e})
    frontier = [start]
    parents = {start: None}
    while frontier:
        nxt = []
        for o in frontier:
            for x in sorted(sources_and_sinks(o, flippable)):
                o2 = flip(o, x)
                if o2 in parents:
                    continue
                parents[o2] = (o, x)
                if o2 == goal:
                    path = [x]
                    back = o
                    while parents[back] is not None:
                        back, step = parents[back]
                        path.append(step)
                    return path[::-1]
                nxt.append(o2)
        frontier = nxt
    raise AssertionError("no conjugation path found")


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


def aba_orbit_structure(a, b):
    """(m, {size: count}) for the fence (a, b, a): m is the least m >= 1
    with m * abar = 1 (mod bbar) and (m * abar - 1) // bbar >= 1, found
    by search, and the three predicted (size, count) pairs are merged by
    hand, zero counts dropped."""
    g = gcd(a, b)
    abar, bbar = a // g, b // g
    m = 1
    while (m * abar - 1) % bbar or (m * abar - 1) // bbar < 1:
        m += 1
    q = (m * abar - 1) // bbar
    expected = {}
    for size, count in (
        (a * b // g, abar * (g - 1) ** 2),
        (a * (2 * b - 2 * bbar + m) + g, q),
        (a * (2 * b - bbar + m) + g, abar - q),
    ):
        if count:
            expected[size] = expected.get(size, 0) + count
    return m, expected


def is_orbit(F, family, masks):
    """Whether the tuple is a rowmotion orbit of the family, listed from
    any member: a rotation of one of the brute-force orbits."""
    steps = {"antichain": brute_rho, "ideal": brute_rho_hat}
    if family not in steps or not masks:
        return False
    if any(not 0 <= m <= F.full_mask for m in masks):
        return False
    members = [frozenset(elements_of(m)) for m in masks]
    return all(
        steps[family](F, S) == members[(i + 1) % len(members)]
        for i, S in enumerate(members)
    ) and len(set(members)) == len(members)


# -- tilings, cell by cell ----------------------------------------------------


def _tile_key(t):
    return (t.row, t.col, t.kind, t.span)


def tiling_of_orbit(F, orbit):
    """The tiling of an antichain orbit, built element by element and cell
    by cell, its tiles sorted by (row, column)."""
    assert orbit.family == ANTICHAIN
    w = orbit.size
    s = F.s
    tiles = []
    # cell occupancy per row: None (yellow), 'red', or the unshared element
    rows = [[None] * w for _ in range(s + 1)]
    for c, m in enumerate(orbit.masks):
        for k in elements_of(m):
            si = F.shared_index(k)
            if si is not None:
                tiles.append(Tile(RED, si, c))
                rows[si][c] = RED
                rows[si + 1][c] = RED
            else:
                i, _ = F.unshared_position(k)
                rows[i][c] = k
    for i in range(1, s + 1):
        row = rows[i]
        black = [cell is not None and cell != RED for cell in row]
        if all(black):
            raise TilingError(
                f"row {i} is entirely black; no tiling decomposition exists"
            )
        for c in range(w):
            if black[c] and not black[c - 1]:
                span = 0
                while black[(c + span) % w]:
                    span += 1
                tiles.append(Tile(BLACK, i, c, span))
            elif row[c] is None:
                tiles.append(Tile(YELLOW, i, c))
    return AlphaTiling(F.alpha, w, tuple(sorted(tiles, key=_tile_key)))


def tile_cells(t, width):
    """The (row, column) cells a tile covers."""
    if t.kind == RED:
        return ((t.row, t.col), (t.row + 1, t.col))
    if t.kind == BLACK:
        return tuple((t.row, (t.col + j) % width) for j in range(t.span))
    return ((t.row, t.col),)


def paint(T):
    """The colour-code, tile-index and cover grids of a tiling, one cell
    of one tile at a time."""
    w, s = T.width, T.rows
    codes = [["?"] * w for _ in range(s)]
    index = [[-1] * w for _ in range(s)]
    cover = [[0] * w for _ in range(s)]
    for idx, t in enumerate(T.tiles):
        code = {YELLOW: "Y", BLACK: "B", RED: "R"}[t.kind]
        for r, c in tile_cells(t, w):
            codes[r - 1][c] = code
            index[r - 1][c] = idx
            cover[r - 1][c] += 1
    return codes, index, cover


def validate_tiling(alpha, T):
    """The tiling conditions checked cell by cell, every violation in the
    order and wording of fences.tiling.validate_tiling."""
    alpha = Composition.coerce(alpha)
    s = alpha.s
    w = T.width
    bad = []
    if Composition.coerce(T.alpha) != alpha:
        bad.append(f"tiling alpha {T.alpha} differs from {alpha}")
    if w < 1:
        bad.append("width must be at least 1")
        return TilingReport(False, tuple(bad))

    for t in T.tiles:
        if t.kind not in (YELLOW, BLACK, RED):
            bad.append(f"unknown tile kind {t.kind!r} at ({t.row},{t.col})")
            continue
        if not 0 <= t.col < w:
            bad.append(f"{t.kind} tile column {t.col} outside 0..{w - 1}")
        if t.kind == RED:
            if not 1 <= t.row <= s - 1:
                bad.append(f"red head row {t.row} outside 1..{s - 1}")
        elif not 1 <= t.row <= s:
            bad.append(f"{t.kind} tile row {t.row} outside 1..{s}")
        if t.kind == BLACK:
            if not 1 <= t.row <= s:
                continue
            need = alpha[t.row - 1] - 1
            if need < 1:
                bad.append(
                    f"black tile in row {t.row} but alpha_{t.row} = "
                    f"{alpha[t.row - 1]} allows none"
                )
            elif t.span != need:
                bad.append(
                    f"black tile at ({t.row},{t.col}) has span {t.span}, "
                    f"row {t.row} requires {need}"
                )
        elif t.span != 1:
            bad.append(f"{t.kind} tile at ({t.row},{t.col}) has span {t.span}")
    if bad:
        return TilingReport(False, tuple(bad))

    grid, idx, cover = paint(T)
    for i in range(1, s + 1):
        for c, k in enumerate(cover[i - 1]):
            if k == 0:
                bad.append(f"cell ({i},{c}) is uncovered")
            elif k > 1:
                bad.append(f"cell ({i},{c}) is covered {k} times")
    if bad:
        return TilingReport(False, tuple(bad))

    for i in range(1, s + 1):
        row_codes = grid[i - 1]
        if alpha[i - 1] < 2:
            continue
        if "B" not in row_codes:
            bad.append(f"row {i}: no black tile, though alpha_{i} = {alpha[i - 1]}")
            continue
        tokens = []
        for c in range(w):
            if row_codes[c] == "R":
                continue
            tid = idx[i - 1][c]
            if not tokens or tokens[-1][1] != tid:
                tokens.append((row_codes[c], tid))
        if len(tokens) > 1 and tokens[0][1] == tokens[-1][1]:
            tokens.pop()
        if len(tokens) == 1:
            bad.append(f"row {i}: a black tile has no yellow tile to alternate with")
            continue
        for a in range(len(tokens)):
            if tokens[a][0] == tokens[(a + 1) % len(tokens)][0]:
                bad.append(
                    f"row {i}: tiles do not alternate black/yellow "
                    f"(positions {a} and {(a + 1) % len(tokens)} ignoring red)"
                )
                break

    heads = {(t.row, t.col) for t in T.tiles if t.kind == RED}
    for i in range(1, s):
        for c in range(w):
            nb = (c - 1) % w if i % 2 == 0 else (c + 1) % w
            spot = grid[i - 1][nb] == "Y" and grid[i][nb] == "Y"
            have = (i, c) in heads
            if have and not spot:
                bad.append(
                    f"red domino on rows {i},{i + 1} column {c} without the "
                    f"yellow pair in column {nb}"
                )
            elif spot and not have:
                bad.append(
                    f"rows {i},{i + 1} column {nb} are both yellow but no "
                    f"red domino sits in column {c}"
                )
    return TilingReport(not bad, tuple(bad))
