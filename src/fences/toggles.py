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
elements form an interval of the path around x, and adding each side's
interval mask to the set's bits inside it carries into one known bit
exactly when one of them is present.

The base graph joins two toggles when they fail to commute as functions
on the whole family.  A toggle is admissible for a word when it is a
source or a sink of the orientation the word induces on the base graph;
conjugating by an admissible toggle moves it to the far end of the word,
which flips that vertex in the orientation.

A word is checked once, by _check_word, where it meets what it acts on:
compile_word checks it against the fence and orientation against the
base graph, which covers admissible_toggles, conjugate_word and
conjugation_path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .fence import (
    ANTICHAIN, IDEAL, ElementSet, Fence, FenceError, Lanes, RoleError, elements_of
)
from .rowmotion import Orbit, decompose
from .stats import (
    MesyReport,
    StatExpr,
    _check_elements,
    classify_orbit_sums,
    orbit_element_counts,
    scaled_sums,
)


@dataclass(frozen=True)
class ToggleWord:
    """A Coxeter word: each element once, leftmost applied last."""

    family: str
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(int(x) for x in self.order))
        if self.family not in (ANTICHAIN, IDEAL):
            raise FenceError(f"toggle words act on antichains or ideals")
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
        span = F.comparable[k] | 1 << k  # an interval of the path
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
    family: str
    n: int
    edges: frozenset[tuple[int, int]]  # pairs (u, v) with u < v

    @property
    def is_forest(self) -> bool:
        parent = list(range(self.n + 1))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


def base_graph(F: Fence, family: str) -> BaseGraph:
    """Edges join toggles that fail to commute somewhere on the family.

    Commutation is decided exhaustively over the enumerated family rather
    than by structural rules, so the antichain graph (which has no known
    structural description) is obtained the same way as the ideal one.
    The family is packed (Fence.lane_chunks) and each pair not yet joined
    is tested on every member of a chunk at once: toggling x then y
    against y then x, as two packed ints.
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
    G = BaseGraph(family, F.n, frozenset(edges))
    if family == IDEAL:
        covers = {tuple(sorted(p)) for p in F.cover_pairs()}
        stray = edges - covers
        if stray:  # contradicts commutation of non-covering ideal toggles
            raise FenceError(
                f"ideal toggles fail to commute off cover pairs: {sorted(stray)}"
            )
    return G


def orientation(word: ToggleWord, G: BaseGraph) -> frozenset[tuple[int, int]]:
    """Each base-graph edge directed from the earlier toggle in the word,
    a Coxeter word on the graph's family and elements."""
    _check_word(G.n, G.family, word)
    pos = {x: i for i, x in enumerate(word.order)}
    out = set()
    for u, v in G.edges:
        if pos[u] < pos[v]:
            out.add((u, v))
        else:
            out.add((v, u))
    return frozenset(out)


def _sources_and_sinks(
    o: frozenset[tuple[int, int]], vertices: Iterable[int]
) -> set[int]:
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for u, v in o:
        outdeg[u] = outdeg.get(u, 0) + 1
        indeg[v] = indeg.get(v, 0) + 1
    out = set()
    for x in vertices:
        if indeg.get(x, 0) == 0 or outdeg.get(x, 0) == 0:
            out.add(x)
    return out


def admissible_toggles(word: ToggleWord, G: BaseGraph) -> set[int]:
    """Elements whose toggle is a source or sink of the word's orientation."""
    return _sources_and_sinks(orientation(word, G), range(1, G.n + 1))


def conjugate_word(word: ToggleWord, x: int, G: BaseGraph) -> ToggleWord:
    """Conjugate by an admissible toggle and cancel, giving a Coxeter word.

    A source commutes past everything to its left, so conjugation removes
    it there and re-inserts it at the right end; a sink moves the other
    way.  Either move flips the vertex in the induced orientation.
    """
    o = orientation(word, G)
    rest = tuple(y for y in word.order if y != x)
    if x in word.order:
        if not any(v == x for _, v in o):  # source (or isolated): to the right end
            return ToggleWord(word.family, rest + (x,))
        if not any(u == x for u, _ in o):  # sink: to the left end
            return ToggleWord(word.family, (x,) + rest)
    raise FenceError(f"toggle {x} is not admissible for word {word}")


def _flip(o: frozenset[tuple[int, int]], x: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        (v, u) if u == x or v == x else (u, v) for u, v in o
    )


def conjugation_path(
    word: ToggleWord, word2: ToggleWord, G: BaseGraph
) -> list[int]:
    """A sequence of admissible conjugations carrying the orientation of
    one Coxeter word onto the other's, found by breadth-first search over
    orientations with source/sink flips.  Requires an acyclic base graph;
    the answer is empty exactly when the orientations already agree.
    """
    start = orientation(word, G)
    goal = orientation(word2, G)
    if not G.is_forest:
        raise FenceError(
            "base graph has a cycle; admissible conjugation paths are "
            "only guaranteed for acyclic base graphs"
        )
    if start == goal:
        return []
    flippable = sorted({u for e in G.edges for u in e})
    frontier = [start]
    parents: dict[frozenset, tuple[frozenset, int] | None] = {start: None}
    while frontier:
        nxt = []
        for o in frontier:
            for x in sorted(_sources_and_sinks(o, flippable)):
                o2 = _flip(o, x)
                if o2 in parents:
                    continue
                parents[o2] = (o, x)
                if o2 == goal:
                    path = [x]
                    back = o
                    while parents[back] is not None:
                        prev, step = parents[back]
                        path.append(step)
                        back = prev
                    return path[::-1]
                nxt.append(o2)
        frontier = nxt
    raise FenceError("no conjugation path found (unexpected for a forest)")


# -- linear extensions ---------------------------------------------------


def sample_linear_extensions(
    F: Fence, count: int, seed: int = 0
) -> list[tuple[int, ...]]:
    """Up to `count` distinct linear extensions, sampled reproducibly by
    repeatedly picking a random currently-minimal element."""
    rng = random.Random(f"linext:{seed}:{F.alpha}")
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
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
    def stat(self) -> str:
        """The statistic as text, built when read (for a disagreement)."""
        return str(self.expr)

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

    def disagreements(self) -> tuple[TransferResult, ...]:
        return tuple(r for r in self.results if not r.agree)


def transfer_check(
    F: Fence,
    family: str,
    word_a: ToggleWord,
    word_b: ToggleWord,
    exprs: StatExpr | Iterable[StatExpr],
) -> TransferReport:
    """Compare homomesy/orbomesy verdicts of statistics under two words.

    Each word's orbits come from one decompose and are counted as one
    table (stats.orbit_element_counts); each statistic is then one column
    of orbit sums per word, read off its integer form (StatExpr.integer_form,
    made once per statistic) and classified by stats.classify_orbit_sums.
    The statistics are read once, so any iterable will do.  Every
    statistic's atoms are checked (one family, elements in range) before
    any statistic's family is compared with the words'.

    Disagreement is reported, not raised: for ideal words agreement is a
    theorem, for antichain words it is only conjectured, so a mismatch
    there is a discovery.
    """
    if word_a.family != family or word_b.family != family:
        raise RoleError("words do not act on the requested family")
    exprs = [exprs] if isinstance(exprs, StatExpr) else list(exprs)
    fams = []
    for e in exprs:
        fams.append(e.family())
        _check_elements(F, e)
    for e, fam in zip(exprs, fams):
        if fam is not None and fam != family:
            raise RoleError(f"statistic {e} targets {fam}s, not {family}s")
    masks = F.family_masks(family)
    tables = []
    for word in (word_a, word_b):
        orbits = decompose(F, masks, compile_word(F, word))
        tables.append((list(map(len, orbits)), orbit_element_counts(F, orbits)))
    results = []
    for e in exprs:
        a, b = [
            classify_orbit_sums(sizes, scaled_sums(e, sizes, columns), e.integer_form[0])
            for sizes, columns in tables
        ]
        results.append(TransferResult(e, a, b))
    return TransferReport(family, word_a, word_b, tuple(results))
