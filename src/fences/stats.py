"""Indicator statistics, orbit sums, and homomesy/orbomesy deciders.

Statistics are rational linear combinations of four kinds of atoms:
chi[x] (membership of x_k in an antichain), chihat[x] (membership in an
ideal), chi (antichain cardinality) and chihat (ideal cardinality), plus
a rational constant.  All arithmetic is exact: a statistic is homomesic
when every orbit average equals one constant, and orbomesic when orbits
of equal size have equal sums.  Floating point would mask violations, so
none is used.

Orbit sums are integers.  A statistic is scaled once by the lcm d of its
denominators (scaled_weights); d times an orbit sum is then constant*size
plus integer weights times the orbit's element counts (weighted_sum), and
classify_orbit_sums compares orbits by cross-multiplying these integers.
Fractions are built only at the report: MesyReport.constant, and
MesyReport.per_orbit when it is read.

The element counts of an orbit come from one kernel, orbit_element_counts,
which adds the orbit's masks into bit planes (every element's counter held
bit-sliced across a few integers) and reads the planes out once per orbit.

The paper's tiling lemma reads an antichain orbit's statistics off the
tile counts of its tiling.  With b_i black tiles and r_i red heads in
row i (r_0 = r_s = 0) and w columns:

- each unshared element of segment i occurs b_i times, and s_i r_i times;
- the j-th smallest unshared element of segment i lies in
  b_i*(alpha_i - j) + r_t of the generated ideals, s_t being the
  segment's maximal end (t = i for odd i, i - 1 for even i);
- s_i lies in r_i of them for odd i (a maximal element) and in w - r_i
  for even i (a minimal one).

TilingLemma (built once per fence by tiling_lemma) is the lemma's one
home: it maps an orbit's antichain element counts to its tile counts and
ideal counts, and orbit_stats_from_tiling runs it on a tiling's counts.

Text syntax (whitespace-insensitive, 1-based element indices):

    2*chi[3] - chi[5] + 1/2        chihat[10]        chi
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from .fence import ANTICHAIN, IDEAL, ElementSet, Fence, FenceError, RoleError
from .rowmotion import Orbit, antichain_orbits, ideal_orbits
from .tiling import AlphaTiling, TileCounts, TilingError, tile_counts


class StatExprError(ValueError):
    """Malformed statistic expression."""


@dataclass(frozen=True)
class Atom:
    kind: str  # "chi" or "chihat"
    element: int | None  # None means the cardinality statistic

    @property
    def family(self) -> str:
        return ANTICHAIN if self.kind == "chi" else IDEAL

    def __str__(self) -> str:
        if self.element is None:
            return self.kind
        return f"{self.kind}[{self.element}]"


@dataclass(frozen=True)
class StatExpr:
    terms: tuple[tuple[Fraction, Atom], ...]
    constant: Fraction = Fraction(0)

    def families(self) -> set[str]:
        return {atom.family for _, atom in self.terms}

    def family(self) -> str | None:
        fams = self.families()
        if len(fams) > 1:
            raise RoleError(
                "statistic mixes antichain (chi) and ideal (chihat) atoms"
            )
        return next(iter(fams)) if fams else None

    def __str__(self) -> str:
        parts: list[str] = []
        for coeff, atom in self.terms:
            if not parts:
                sign = "-" if coeff < 0 else ""
            else:
                sign = " - " if coeff < 0 else " + "
            mag = abs(coeff)
            body = str(atom) if mag == 1 else f"{mag}*{atom}"
            parts.append(f"{sign}{body}")
        if self.constant or not parts:
            sign = " - " if self.constant < 0 else (" + " if parts else "")
            parts.append(f"{sign}{abs(self.constant)}")
        return "".join(parts)


def indicator(kind: str, element: int | None = None, coeff=1) -> StatExpr:
    """Convenience constructor for a single weighted atom."""
    return StatExpr(((Fraction(coeff), Atom(kind, element)),))


_TOKEN = re.compile(r"\s*(chihat|chi|\d+|[\[\]*/+\-])")


def _tokenize(text: str) -> list[str]:
    out = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise StatExprError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_stat(text: str) -> StatExpr:
    """Parse the documented statistic grammar into a StatExpr."""
    tokens = _tokenize(text)
    if not tokens:
        raise StatExprError("empty statistic expression")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise StatExprError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise StatExprError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def rational() -> Fraction:
        tok = take()
        if not tok.isdigit():
            raise StatExprError(f"expected a number, got {tok!r}")
        value = Fraction(int(tok))
        if peek() == "/":
            take("/")
            den = take()
            if not den.isdigit() or int(den) == 0:
                raise StatExprError(f"bad denominator {den!r}")
            value /= int(den)
        return value

    def atom() -> Atom:
        kind = take()
        if kind not in ("chi", "chihat"):
            raise StatExprError(f"expected chi or chihat, got {kind!r}")
        element = None
        if peek() == "[":
            take("[")
            tok = take()
            if not tok.isdigit() or int(tok) < 1:
                raise StatExprError(f"bad element index {tok!r}")
            element = int(tok)
            take("]")
        return Atom(kind, element)

    terms: list[tuple[Fraction, Atom]] = []
    constant = Fraction(0)
    sign = Fraction(1)
    if peek() in ("+", "-"):
        sign = Fraction(-1) if take() == "-" else Fraction(1)
    while True:
        if peek() in ("chi", "chihat"):
            terms.append((sign, atom()))
        else:
            coeff = sign * rational()
            if peek() == "*":
                take("*")
                terms.append((coeff, atom()))
            else:
                constant += coeff
        nxt = peek()
        if nxt is None:
            break
        if nxt not in ("+", "-"):
            raise StatExprError(f"expected + or -, got {nxt!r}")
        sign = Fraction(-1) if take() == "-" else Fraction(1)
    return StatExpr(tuple(terms), constant)


def evaluate(F: Fence, expr: StatExpr, S: ElementSet) -> Fraction:
    """Exact value of a statistic on one element set."""
    fam = expr.family()
    if fam is not None and S.role != fam:
        raise RoleError(
            f"statistic over {fam}s evaluated on a {S.role}"
        )
    total = expr.constant
    for coeff, atom in expr.terms:
        if atom.element is None:
            total += coeff * len(S)
        else:
            if not 1 <= atom.element <= F.n:
                raise FenceError(
                    f"element x{atom.element} out of range 1..{F.n}"
                )
            if atom.element in S:
                total += coeff
    return total


def scaled_weights(
    expr: StatExpr, n: int
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The statistic times the lcm d of its denominators, as integers.

    Returns (d, constant, weights): weights pairs a 0-based element index
    with its integer weight, nonzero weights only, and a cardinality atom
    adds its weight to every element.  d times an orbit sum is then
    weighted_sum(constant, weights, size, counts).
    """
    denom = lcm(expr.constant.denominator, *(c.denominator for c, _ in expr.terms))
    weights = [0] * n
    for coeff, atom in expr.terms:
        w = int(coeff * denom)
        if atom.element is None:
            weights = [x + w for x in weights]
        elif 1 <= atom.element <= n:
            weights[atom.element - 1] += w
        else:
            raise FenceError(f"element x{atom.element} out of range 1..{n}")
    pairs = tuple((k, w) for k, w in enumerate(weights) if w)
    return denom, int(expr.constant * denom), pairs


def weighted_sum(
    constant: int, weights: Iterable[tuple[int, int]], size: int, counts: Sequence[int]
) -> int:
    """constant*size + the weighted element counts: the one evaluator of an
    integer linear statistic on an orbit of `size` members whose element
    occurrences are `counts`."""
    total = constant * size
    for k, w in weights:
        total += w * counts[k]
    return total


def orbit_sum(F: Fence, expr: StatExpr, orbit: Orbit) -> Fraction:
    """Sum of the statistic over all members of an orbit."""
    fam = expr.family()
    if fam is not None and orbit.family != fam:
        raise RoleError(f"statistic over {fam}s summed over a {orbit.family} orbit")
    denom, constant, weights = scaled_weights(expr, F.n)
    counts = orbit_element_counts(orbit.masks, F.n)
    return Fraction(weighted_sum(constant, weights, orbit.size, counts), denom)


def orbit_element_counts(masks: Iterable[int], n: int) -> tuple[int, ...]:
    """How often each of x_1..x_n occurs across the masks of an orbit; the
    one member-counting kernel for every orbit.

    The counts are kept as bit planes: bit k of planes[i] is bit i of the
    count of x_{k+1}.  Adding a mask is a ripple-carry add of a one-bit
    value into every element's counter at once, so its cost follows the
    number of carries rather than the mask's popcount.  Each plane's set
    bits are read out once at the end.
    """
    planes: list[int] = []
    for m in masks:
        i = 0
        for p in planes:
            planes[i] = p ^ m
            m &= p
            if not m:
                break
            i += 1
        else:
            if m:
                planes.append(m)
    counts = [0] * n
    weight = 1
    for p in planes:
        while p:
            low = p & -p
            p ^= low
            counts[low.bit_length() - 1] += weight
        weight <<= 1
    return tuple(counts)


# -- homomesy / orbomesy -------------------------------------------------


@dataclass(frozen=True)
class MesyReport:
    """The verdict on one statistic.  `sums` holds each orbit's (size,
    denom * sum) as integers; the Fractions of `per_orbit` are built only
    when it is read."""

    kind: str  # "homomesic" | "orbomesic" | "neither"
    constant: Fraction | None
    sums: tuple[tuple[int, int], ...]
    denom: int = 1

    @property
    def per_orbit(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """(size, sum, average) of every orbit."""
        d = self.denom
        return tuple(
            (size, Fraction(sm, d), Fraction(sm, size * d)) for size, sm in self.sums
        )

    @property
    def is_homomesic(self) -> bool:
        return self.kind == "homomesic"

    @property
    def is_orbomesic(self) -> bool:
        return self.kind in ("homomesic", "orbomesic")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constant": None if self.constant is None else str(self.constant),
            "per_orbit": [
                {"size": size, "sum": str(sm), "average": str(avg)}
                for size, sm, avg in self.per_orbit
            ],
        }


def classify_orbit_sums(data: Sequence[tuple[int, int]], denom: int = 1) -> MesyReport:
    """Classify integer (orbit size, denom * statistic sum) pairs.

    Homomesic when every average sum/size is equal, compared by cross-
    multiplying; orbomesic when orbits of equal size have equal sums.
    """
    sums = tuple(data)
    if sums:
        size0, sum0 = sums[0]
        if all(sm * size0 == sum0 * size for size, sm in sums):
            return MesyReport("homomesic", Fraction(sum0, size0 * denom), sums, denom)
    first: dict[int, int] = {}
    if all(first.setdefault(size, sm) == sm for size, sm in sums):
        return MesyReport("orbomesic", None, sums, denom)
    return MesyReport("neither", None, sums, denom)


def classify_counts(
    expr: StatExpr, n: int, profiles: Iterable[tuple[int, Sequence[int]]]
) -> MesyReport:
    """Classify a statistic from per-orbit (size, element counts)."""
    denom, constant, weights = scaled_weights(expr, n)
    sums = [(size, weighted_sum(constant, weights, size, c)) for size, c in profiles]
    return classify_orbit_sums(sums, denom)


def _orbits_for(F: Fence, family: str, orbits) -> tuple[Orbit, ...]:
    if orbits is not None:
        return tuple(orbits)
    if family == ANTICHAIN:
        return antichain_orbits(F)
    if family == IDEAL:
        return ideal_orbits(F)
    raise FenceError(f"no orbit family {family!r}")


def check_homomesy(F: Fence, family: str, expr: StatExpr, orbits=None) -> MesyReport:
    """Classify a statistic over the rowmotion orbits of a family."""
    fam = expr.family()
    if fam is not None and fam != family:
        raise RoleError(f"statistic over {fam}s checked on {family} orbits")
    orbs = _orbits_for(F, family, orbits)
    if fam is not None and any(o.family != fam for o in orbs):
        raise RoleError(f"statistic over {fam}s summed over another family's orbit")
    return classify_counts(
        expr, F.n, [(o.size, orbit_element_counts(o.masks, F.n)) for o in orbs]
    )


# -- the tiling lemma --------------------------------------------------------


class TilingLemma:
    """The tiling lemma of the module docstring on one fence, as integer
    index tables over the orbit's antichain element counts."""

    def __init__(self, F: Fence):
        n, s = F.n, F.s
        # per row i, segment i's unshared elements as a slice of the counts
        self._rows = tuple(slice(a, b - 1) for a, b in zip(F.cums, F.cums[1:]))
        # indices into the counts padded with (0, size): n reads 0, n + 1 the size
        self._black = tuple(r.start if r.start < r.stop else n for r in self._rows)
        self._red = tuple(x - 1 for x in F.shared)
        # the ideal count of x_{k+1}: weights[k] * counts[k] + padded counts[adds[k]]
        weights, adds = [], []
        for k in range(1, n + 1):
            i = F.shared_index(k)
            if i is not None:
                weights.append(1 if i % 2 else -1)
                adds.append(n if i % 2 else n + 1)
                continue
            i, j = F.unshared_position(k)
            t = i if i % 2 else i - 1
            weights.append(F.alpha[i - 1] - j)
            adds.append(self._red[t - 1] if t < s else n)
        self._weights, self._adds = tuple(weights), tuple(adds)

    def counts(
        self, counts: Sequence[int], size: int
    ) -> tuple[TileCounts, tuple[int, ...]]:
        """The tile counts and ideal counts of an antichain orbit of `size`
        members with element counts `counts`.  An antichain meets segment
        i's chain of unshared elements at most once, so row i is black in
        every column exactly when their counts sum to the size: no real
        orbit does that, and it raises TilingError as tiling_of_orbit does."""
        sums = list(map(sum, map(counts.__getitem__, self._rows)))
        if size in sums:
            raise TilingError(
                f"row {sums.index(size) + 1} is entirely black; no tiling "
                "decomposition exists"
            )
        pick = (*counts, 0, size).__getitem__
        tiles = TileCounts(tuple(map(pick, self._black)), (0, *map(pick, self._red), 0))
        ideal = tuple(map(add, map(mul, self._weights, counts), map(pick, self._adds)))
        return tiles, ideal

    def element_counts(self, tiles: TileCounts) -> tuple[int, ...]:
        """The antichain element counts that a tiling's tile counts give."""
        counts = [0] * len(self._weights)
        for r, b in zip(self._rows, tiles.black):
            counts[r] = [b] * (r.stop - r.start)
        for k, r in zip(self._red, tiles.red[1:]):
            counts[k] = r
        return tuple(counts)


def tiling_lemma(F: Fence) -> TilingLemma:
    """The fence's TilingLemma, memoised on F."""
    return F.memo("tiling_lemma", partial(TilingLemma, F))


@dataclass(frozen=True)
class OrbitStatistics:
    """Per-element and total orbit statistics, as computed from a tiling."""

    width: int
    antichain_counts: tuple[int, ...]
    ideal_counts: tuple[int, ...]
    antichain_total: int
    ideal_total: int


def orbit_stats_from_tiling(F: Fence, T: AlphaTiling) -> OrbitStatistics:
    """Every indicator and both cardinality statistics of an orbit, read
    off the tile counts of its tiling through the tiling lemma."""
    lemma = tiling_lemma(F)
    chi_x = lemma.element_counts(tile_counts(T))
    _, chihat_x = lemma.counts(chi_x, T.width)
    return OrbitStatistics(T.width, chi_x, chihat_x, sum(chi_x), sum(chihat_x))
