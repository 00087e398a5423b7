"""Toggle maps, Coxeter words, base graphs, and homomesy transfer.

Toggling x in a set S swaps x's membership when the result stays inside
the family (antichains or ideals) and does nothing otherwise, so every
toggle is an involution.  A Coxeter word lists each element exactly once;
words are written left to right but applied right to left, i.e. the
rightmost toggle acts first.

A toggle acts on every lane of a packed family at once (fences.fence.Lanes;
one mask is the one-lane case), so compile_word returns a step that
decompose can apply to a whole family in one call.  An ideal toggle of x
flips x in the lanes where the ideal holds no upper cover of x and every
lower cover: one shift of the set each way, XORed with the lower-cover
direction masks, reads both tests at x's bit.  An antichain toggle flips
x in the lanes where no element comparable to x is present; those
elements are the rest of the segments holding x (Fence.span), an
interval of the path around x, and adding each side's interval mask to
the set's bits inside it carries into one known bit exactly when one of
them is present.

The base graph joins two toggles when they fail to commute as functions
on the whole family.  base_graph reads it off the fence: the cover path
x_1 - ... - x_n for ideals (Striker-Williams, arXiv:1108.1172) and the
comparability graph for antichains.  `verify base-graph` checks the
ideal one member by member (_commutation_edges).  Each segment is a
chain, so a clique of the antichain graph, which is a forest exactly
when every segment holds at most two elements: alpha = (2, 1, ..., 1, 2),
or the one-segment fences (2) and (3).

A toggle is admissible for a word when it is a source or a sink of the
orientation the word induces on the base graph; conjugating by an
admissible toggle moves it to the far end of the word, which flips that
vertex in the orientation.  An orientation is an int with one bit per
edge of the graph (BaseGraph), so a source or sink is one test against
the vertex's incidence mask and a flip is one XOR with it.
conjugation_path builds its path from heights on a spanning forest of
the graph, with no search over orientations.

Conjugating by an admissible toggle x maps every orbit O of a word onto
t_x(O), the orbit of the conjugate, with O's count row: for a source the
word is t_x r, t_x(O) = r(O) as sets, and r never changes x's membership
(a sink is the mirror case).  transfer_chain uses this to classify
statistics under a sequence of words of a forest base graph from one
decomposition.  The first word's orbits stay packed in orbit order, each
later word is reached from the one before along conjugation_path with
one toggle_mask per flip and lane chunk, and one packed step of the word
checks that every orbit slice is one of its cycles.  The flipped
elements' columns are recounted, and the statistics are classified again
only when a recounted column differs from the stored one, then all of
them from the true counts.  A word that fails the step check is
decomposed afresh, as the first word is.  transfer_check decomposes both
words of a pair from scratch (_word_table); it is the reference, and the
antichain transfer scan runs through it.

A word is checked once, by _check_word, where it meets what it acts on:
compile_word checks it against the fence and orientation against the
base graph, which covers admissible_toggles, conjugate_word and
conjugation_path.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .fence import (
    ANTICHAIN, IDEAL, ElementSet, Fence, FenceError, Lanes, RoleError, elements_of
)
from .rowmotion import Orbit, decompose
from .stats import (
    MesyReport,
    StatExpr,
    _check_elements,
    _classify,
    lane_counts,
    orbit_element_counts,
)

#: The (kind, constant) verdict of each statistic of a battery under one word.
Verdicts = tuple[tuple[str, Fraction | None], ...]


@dataclass(frozen=True)
class ToggleWord:
    """A Coxeter word: each element once, leftmost applied last."""

    family: str
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(int(x) for x in self.order))
        if self.family not in (ANTICHAIN, IDEAL):
            raise FenceError("toggle words act on antichains or ideals")
        if len(set(self.order)) != len(self.order) or any(
            x < 1 for x in self.order
        ):
            raise FenceError(
                f"word must list distinct positive elements, got {self.order}"
            )

    def __str__(self) -> str:
        return ",".join(map(str, self.order))

    @classmethod
    def parse(cls, family: str, text: str) -> "ToggleWord":
        return cls(family, tuple(int(t) for t in text.split(",")))


def _check_word(n: int, family: str, word: ToggleWord) -> None:
    """The one check of a word against what it acts on: the family's
    members on n elements, each toggled exactly once."""
    if word.family != family:
        raise RoleError(f"word acts on {word.family}s, not {family}s")
    if sorted(word.order) != list(range(1, n + 1)):
        raise FenceError(f"word {word.order} is not a permutation of 1..{n}")


def toggle_mask(
    F: Fence, family: str, x: int, m: int, lanes: Lanes | None = None
) -> int:
    """Toggle x in every lane of m, or in the one mask m when lanes is
    None, freezing the lanes where the result would leave the family.
    There is no role validation: each lane must hold a family member."""
    L = lanes or F.lane
    k = x - 1
    here = L.rep << k
    blocked = 0  # at bit k: the lanes where x stays as it is
    if family == IDEAL:
        # at bit k, (m >> 1) ^ down_right is set when the right neighbour
        # is an upper cover in m or a lower cover missing from m; likewise
        # (m << 1) ^ down_left for the left neighbour
        if k + 1 < F.n:
            blocked = (m >> 1) ^ L.down_right
        if k:
            blocked |= (m << 1) ^ L.down_left
    elif family == ANTICHAIN:
        span = F.span[k]  # x and the elements comparable to it: an interval
        lo, hi = (span & -span).bit_length() - 1, span.bit_length() - 1
        if lo < k:  # bits lo..k-1: their sum with m's bits carries into k
            left = ((1 << k) - (1 << lo)) * L.rep
            blocked = (m & left) + left
        if hi > k:  # bits k+1..hi, moved to 0..w-1: the carry lands on w
            w = hi - k
            right = ((1 << w) - 1) * L.rep
            carry = ((m >> (k + 1)) & right) + right
            blocked |= carry << (k - w) if k >= w else carry >> (w - k)
    else:
        raise FenceError(f"no toggles for family {family!r}")
    return m ^ here ^ (blocked & here)


def toggle(F: Fence, family: str, x: int, S: ElementSet) -> ElementSet:
    """Toggle x in S, freezing when the result would leave the family."""
    F.require_role(S, family)
    F.mask_of((x,))
    return ElementSet(toggle_mask(F, family, x, S.mask), family)


def compile_word(F: Fence, word: ToggleWord) -> Callable[..., int]:
    """The word as a step(m, lanes=None) on every lane of a layout (one
    mask when lanes is None), applying the toggles right to left."""
    _check_word(F.n, word.family, word)
    family, order = word.family, tuple(reversed(word.order))

    def step(m: int, lanes: Lanes | None = None) -> int:
        L = lanes or F.lane
        for x in order:
            m = toggle_mask(F, family, x, m, L)
        return m

    return step


def apply_word(F: Fence, word: ToggleWord, S: ElementSet) -> ElementSet:
    """Apply a toggle word to an element set (rightmost toggle first)."""
    F.require_role(S, word.family)
    return ElementSet(compile_word(F, word)(S.mask), word.family)


# -- base graphs --------------------------------------------------------------


@dataclass(frozen=True)
class BaseGraph:
    """The toggles of a family on n elements, joined when they fail to
    commute.  edges is the sorted tuple of pairs (u, v) with u < v, and an
    orientation is an int whose bit i is set when edges[i] points from u
    to v (u comes first in the word).  Built once per graph: inc[x], the
    edges at x; upper[x], those where x is the larger end; tree[x], the
    least vertex of x's tree in one spanning forest; and tree_edges, that
    forest's (parent, child, bit) triples in traversal order."""

    family: str
    n: int
    edges: tuple[tuple[int, int], ...]
    inc: tuple[int, ...] = field(init=False, repr=False, compare=False)
    upper: tuple[int, ...] = field(init=False, repr=False, compare=False)
    tree: tuple[int, ...] = field(init=False, repr=False, compare=False)
    tree_edges: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        edges = tuple(sorted(self.edges))
        inc, upper, tree = [0] * (self.n + 1), [0] * (self.n + 1), [0] * (self.n + 1)
        ends: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for i, (u, v) in enumerate(edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
            upper[v] |= 1 << i
            ends[u].append((i, v))  # x's edges and their other ends, as in inc[x]
            ends[v].append((i, u))
        tree_edges = []
        for root in range(1, self.n + 1):
            if tree[root]:
                continue
            tree[root] = root
            reached = [root]
            for x in reached:  # grows as the tree is traversed
                for i, y in ends[x]:
                    if not tree[y]:
                        tree[y] = root
                        tree_edges.append((x, y, i))
                        reached.append(y)
        for name, value in zip(
            ("edges", "inc", "upper", "tree", "tree_edges"),
            (edges, tuple(inc), tuple(upper), tuple(tree), tuple(tree_edges)),
        ):
            object.__setattr__(self, name, value)

    @property
    def is_forest(self) -> bool:
        return len(self.tree_edges) == len(self.edges)

    def away(self, o: int, x: int) -> int:
        """The edges of x that orientation o directs away from x: all of
        inc[x] when x is a source, none when it is a sink."""
        return (o ^ self.upper[x]) & self.inc[x]


def base_graph(F: Fence, family: str) -> BaseGraph:
    """The toggles of the family on F, joined when they fail to commute,
    read off the fence with no family enumerated.

    Ideal toggles t_x and t_y commute unless one of x, y covers the other
    (Striker-Williams, arXiv:1108.1172): the edges are the path
    (k, k+1).  Antichain toggles commute exactly when x and y are
    incomparable: the edges are the pairs (x, y), x < y, of a segment,
    y in Fence.span[x-1].  `verify base-graph` checks the ideal graph
    member by member (_commutation_edges).
    """
    if family == IDEAL:
        edges = [(k, k + 1) for k in range(1, F.n)]
    elif family == ANTICHAIN:
        edges = [
            (x, y) for x in range(1, F.n + 1) for y in elements_of(F.span[x - 1] >> x << x)
        ]
    else:
        raise FenceError(f"no toggles for family {family!r}")
    return BaseGraph(family, F.n, tuple(edges))


def _commutation_edges(F: Fence, family: str) -> set[tuple[int, int]]:
    """The pairs (x, y), x < y, whose toggles fail to commute on some
    member of the enumerated family: the exhaustive evidence for
    base_graph.  The family is packed (Fence.lane_chunks) and each pair
    not yet joined is tested on every member of a chunk at once: toggling
    x then y against y then x, as two packed ints.
    """
    edges = set()
    for lanes, packed in F.lane_chunks(F.family_masks(family)):
        flip = partial(toggle_mask, F, family, lanes=lanes)
        for x in range(1, F.n + 1):
            x_first = flip(x, packed)
            for y in range(x + 1, F.n + 1):
                if (x, y) in edges:
                    continue
                if flip(y, x_first) != flip(x, flip(y, packed)):
                    edges.add((x, y))
    return edges


def orientation(word: ToggleWord, G: BaseGraph) -> int:
    """The orientation a Coxeter word on the graph's family and elements
    induces: bit i is set when the smaller end of G.edges[i] comes first
    in the word."""
    _check_word(G.n, G.family, word)
    pos = dict(zip(word.order, range(G.n)))
    return sum(1 << i for i, (u, v) in enumerate(G.edges) if pos[u] < pos[v])


def admissible_toggles(word: ToggleWord, G: BaseGraph) -> set[int]:
    """Elements whose toggle is a source or sink of the word's orientation."""
    o = orientation(word, G)
    return {x for x in range(1, G.n + 1) if G.away(o, x) in (0, G.inc[x])}


def conjugate_word(word: ToggleWord, x: int, G: BaseGraph) -> ToggleWord:
    """Conjugate by an admissible toggle and cancel, giving a Coxeter word.

    A source commutes past everything to its left, so conjugation removes
    it there and re-inserts it at the right end; a sink moves the other
    way.  Either move flips the vertex in the induced orientation, which
    is o ^ G.inc[x].
    """
    o = orientation(word, G)
    rest = tuple(y for y in word.order if y != x)
    if x in word.order:
        away = G.away(o, x)
        if away == G.inc[x]:  # source (or isolated): to the right end
            return ToggleWord(word.family, rest + (x,))
        if not away:  # sink: to the left end
            return ToggleWord(word.family, (x,) + rest)
    raise FenceError(f"toggle {x} is not admissible for word {word}")


def conjugation_path(
    word: ToggleWord, word2: ToggleWord, G: BaseGraph
) -> list[int]:
    """The lexicographically least shortest sequence of admissible
    conjugations carrying the orientation of one Coxeter word onto the
    other's, built without search.  Requires an acyclic base graph; the
    answer is empty exactly when the orientations already agree.

    Give each vertex a height that rises by one along every edge: flipping
    a source raises it by 2, flipping a sink lowers it by 2 (Propp,
    arXiv:math/0209005).  So owed[x], the flips x still owes (+1 for each
    source flip, -1 for each sink flip), is fixed up to one constant c per
    tree: along a tree edge it steps by the change the edge's bit needs,
    signed by which end is larger.  The shortest remaining length is the
    sum over trees of min_c sum |owed - c|, with the best c between the
    tree's lower and upper median.  A flip lies on a shortest path exactly
    when it lowers that sum: a source whose owed is above its tree's lower
    median, or a sink whose owed is below the upper one.  One always
    exists, since among the vertices owing source flips one of least
    height is a source.
    Flipping the least such vertex at each step gives the least path,
    which is the one a breadth-first search expanding sources and sinks in
    sorted order finds.
    """
    o, goal = orientation(word, G), orientation(word2, G)
    _require_forest(G)
    return _flip_path(o, goal, G)


def _require_forest(G: BaseGraph) -> None:
    if not G.is_forest:
        raise FenceError(
            "base graph has a cycle; admissible conjugation paths are "
            "only guaranteed for acyclic base graphs"
        )


def _flip_path(o: int, goal: int, G: BaseGraph) -> list[int]:
    """conjugation_path between two orientations of the forest G."""
    inc, upper, tree = G.inc, G.upper, G.tree
    owed = [0] * (G.n + 1)
    for p, c, i in G.tree_edges:
        need = (goal >> i & 1) - (o >> i & 1)
        owed[c] = owed[p] + (need if c > p else -need)
    trees: dict[int, list[int]] = {}  # each tree's owed values, kept sorted
    for x in range(1, G.n + 1):
        trees.setdefault(tree[x], []).append(owed[x])
    for values in trees.values():
        values.sort()
    path = []
    while o != goal:
        for x in range(1, G.n + 1):
            away, values = (o ^ upper[x]) & inc[x], trees[tree[x]]  # G.away(o, x)
            if away == inc[x] and owed[x] > values[(len(values) - 1) // 2]:
                step = -1
                break
            if not away and owed[x] < values[len(values) // 2]:
                step = 1
                break
        values.remove(owed[x])
        owed[x] += step
        insort(values, owed[x])
        o ^= inc[x]
        path.append(x)
    return path


# -- linear extensions ---------------------------------------------------


def sample_linear_extensions(
    F: Fence, count: int, seed: int = 0
) -> list[tuple[int, ...]]:
    """Up to `count` distinct linear extensions, sampled reproducibly by
    repeatedly picking a random currently-minimal element.  Sampling
    stops once every linear extension has been drawn."""
    rng = random.Random(f"linext:{seed}:{F.alpha}")
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    wanted = min(count, count_linear_extensions(F))
    attempts = 0
    while len(out) < wanted and attempts < 50 * count:
        attempts += 1
        order = []
        remaining = F.full_mask
        while remaining:
            # the placed elements form an ideal, so the rest is an upper set
            pick = rng.choice(list(elements_of(F._minimal_mask(remaining))))
            order.append(pick)
            remaining ^= 1 << (pick - 1)
        tup = tuple(order)
        if tup not in seen:
            seen.add(tup)
            out.append(tup)
    return out


def count_linear_extensions(F: Fence) -> int:
    """The number of linear extensions of F, exactly.  Listing the
    positions of x_1..x_n gives the permutations whose up/down signature
    is F.edge_up, which the boustrophedon recurrence counts with O(n^2)
    additions: after the first i elements, ways[r] counts the relative
    orders of their positions in which x_i's is the (r+1)-th smallest."""
    ways = [1]
    for up in F.edge_up:
        if up:  # x_{i+1} comes after x_i
            ways = [0, *accumulate(ways)]
        else:  # x_{i+1} comes before x_i
            ways = [*accumulate(reversed(ways))][::-1] + [0]
    return sum(ways)


def is_linear_extension(F: Fence, order: Sequence[int]) -> bool:
    pos = {x: i for i, x in enumerate(order)}
    if sorted(order) != list(range(1, F.n + 1)):
        return False
    return all(pos[a] < pos[b] for a, b in F.cover_pairs())


# -- orbits of a word and homomesy transfer ---------------------------------


def word_orbits(F: Fence, word: ToggleWord):
    """Orbit partition of the family under the cyclic group of the word."""
    step = compile_word(F, word)
    masks = F.family_masks(word.family)
    return tuple(Orbit(word.family, tuple(ms)) for ms in decompose(F, masks, step))


@dataclass(frozen=True)
class TransferResult:
    expr: StatExpr
    report_a: MesyReport
    report_b: MesyReport

    @property
    def agree(self) -> bool:
        return (
            self.report_a.kind == self.report_b.kind
            and self.report_a.constant == self.report_b.constant
        )


@dataclass(frozen=True)
class TransferReport:
    family: str
    word_a: ToggleWord
    word_b: ToggleWord
    results: tuple[TransferResult, ...]

    @property
    def agree(self) -> bool:
        return all(r.agree for r in self.results)

    @property
    def verdicts(self) -> tuple[Verdicts, Verdicts]:
        """The (kind, constant) of every statistic under word_a, and under
        word_b: what transfer_chain yields for each word."""
        return (
            tuple((r.report_a.kind, r.report_a.constant) for r in self.results),
            tuple((r.report_b.kind, r.report_b.constant) for r in self.results),
        )


def _word_table(F: Fence, masks: Sequence[int], word: ToggleWord):
    """The orbits of the family members `masks` under the word (decompose's
    order and cycle order), their sizes and their count table, counted by
    the one kernel, stats.orbit_element_counts."""
    orbits = decompose(F, masks, compile_word(F, word))
    return orbits, list(map(len, orbits)), list(orbit_element_counts(F, orbits))


def transfer_check(
    F: Fence,
    family: str,
    word_a: ToggleWord,
    word_b: ToggleWord,
    exprs: StatExpr | Iterable[StatExpr],
) -> TransferReport:
    """Compare homomesy/orbomesy verdicts of statistics under two words.

    Each word's orbits come from one decompose and are counted as one
    table (_word_table); each statistic is then classified over each
    table by stats._classify, which reads its column of orbit sums off
    its integer form (StatExpr.integer_form, made once per statistic).
    The statistics are read once, so any iterable will do.  Every
    statistic's atoms are checked (one family, elements in range) before
    any statistic's family is compared with the words'.

    Disagreement is reported, not raised: for ideal words agreement is a
    theorem, for antichain words it is only conjectured, so a mismatch
    there is a discovery.
    """
    if word_a.family != family or word_b.family != family:
        raise RoleError("words do not act on the requested family")
    exprs = _check_stats(F, family, exprs)
    masks = F.family_masks(family)
    tables = [_word_table(F, masks, word)[1:] for word in (word_a, word_b)]
    results = tuple(
        TransferResult(e, *(_classify(e, sizes, columns) for sizes, columns in tables))
        for e in exprs
    )
    return TransferReport(family, word_a, word_b, results)


def transfer_chain(
    F: Fence,
    family: str,
    words: Iterable[ToggleWord],
    exprs: StatExpr | Iterable[StatExpr],
) -> Iterator[Verdicts]:
    """The (kind, constant) verdict of every statistic under each word in
    turn, as transfer_check reads them, with one decomposition where
    conjugation carries the orbits.

    Each word after the first is reached from the one before along
    conjugation_path on the family's base graph, which must be a forest:
    the path 1..n for ideals, for antichains only when no segment holds
    more than two elements.  Conjugating by an admissible toggle x maps every orbit O onto t_x(O)
    (Striker-Williams, arXiv:1108.1172), so the members stay packed in
    orbit order (Fence.lane_chunks) and a flip is one toggle_mask per
    chunk.  That is checked, not assumed: one packed step of the word
    itself must move every lane to the next one of its orbit's slice (the
    slice rotated by one, decompose's cycle order).  The first word, and
    any word that fails that check, is decomposed and counted afresh
    (_word_table) and every statistic classified; the chain goes on from
    there.  A word that passes keeps the orbit sizes and order, so only
    the flipped elements' count columns can change.  They are recounted
    from the lane bytes (stats.lane_counts), and only when a recounted
    column differs from the stored one is every statistic classified
    again, from the true counts; otherwise the last verdicts stand.
    Verdicts depend only on the sizes and the columns, not on the orbit
    order, so they are transfer_check's.  The statistics are checked as
    transfer_check checks them, and each word where it meets what it acts
    on, when its verdicts are drawn.
    """
    exprs = _check_stats(F, family, exprs)
    G, width, rotate = base_graph(F, family), F.lane.width, None

    def packed(chunks: Iterable[tuple[Lanes, int]]) -> bytes:
        return b"".join(p.to_bytes(L.width * L.count, "little") for L, p in chunks)

    for word in words:
        goal = orientation(word, G)
        stale = rotate is None
        if stale:
            _require_forest(G)
        else:  # carry the last word's orbits to this word's by conjugation
            path = _flip_path(o, goal, G)
            for x in path:
                chunks = [(L, toggle_mask(F, family, x, p, L)) for L, p in chunks]
            step, raw = compile_word(F, word), packed(chunks)
            stepped = packed((L, step(p, L)) for L, p in chunks)
            stale = int.from_bytes(stepped, "little") != rotate(int.from_bytes(raw, "little"))
        o = goal
        if stale:  # decompose afresh
            orbits, sizes, columns = _word_table(F, F.family_masks(family), word)
            chunks = list(F.lane_chunks([m for orbit in orbits for m in orbit]))
            rotate, ends = _slice_rotation(sizes, width), list(accumulate(sizes))
        elif path:
            flipped = sorted({x - 1 for x in path})
            for k, column in zip(flipped, lane_counts(raw, width, flipped, ends)):
                stale |= column != columns[k]
                columns[k] = column
        if stale:
            reports = [_classify(e, sizes, columns) for e in exprs]
            verdicts = tuple((r.kind, r.constant) for r in reports)
        yield verdicts


def _slice_rotation(sizes: Sequence[int], width: int) -> Callable[[int], int]:
    """For lanes of `width` bytes packed in slices of these sizes, the map
    that moves each lane to the one before it in its slice and the first
    lane of each slice to the slice's last: what one step of a word makes
    of its orbits packed in cycle order."""
    bits, total, lane = 8 * width, sum(sizes), b"\xff" * width
    rest = bytearray(lane * total)  # every lane but the last of its slice
    heads: dict[int, bytearray] = {}  # per size, the first lane of each slice
    start = 0
    for s in sizes:
        rest[(start + s - 1) * width : (start + s) * width] = bytes(width)
        head = heads.setdefault(s, bytearray(width * total))
        head[start * width : (start + 1) * width] = lane
        start += s
    keep = int.from_bytes(rest, "little")
    wraps = [((s - 1) * bits, int.from_bytes(h, "little")) for s, h in heads.items()]

    def rotate(packed: int) -> int:
        out = (packed >> bits) & keep
        for shift, head in wraps:
            out |= (packed & head) << shift
        return out

    return rotate


def _check_stats(
    F: Fence, family: str, exprs: StatExpr | Iterable[StatExpr]
) -> list[StatExpr]:
    """The statistics as a list, read once, once every one's atoms are
    checked (one family, elements in range) and then its family against
    the words'."""
    exprs = [exprs] if isinstance(exprs, StatExpr) else list(exprs)
    fams = []
    for e in exprs:
        fams.append(e.family())
        _check_elements(F, e)
    for e, fam in zip(exprs, fams):
        if fam is not None and fam != family:
            raise RoleError(f"statistic {e} targets {fam}s, not {family}s")
    return exprs
