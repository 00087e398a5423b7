"""Indicator statistics, orbit sums, and homomesy/orbomesy deciders.

Statistics are rational linear combinations of four kinds of atoms:
chi[x] (membership of x_k in an antichain), chihat[x] (membership in an
ideal), chi (antichain cardinality) and chihat (ideal cardinality), plus
a rational constant.  All arithmetic is exact: a statistic is homomesic
when every orbit average equals one constant, and orbomesic when orbits
of equal size have equal sums.  Floating point would mask violations, so
none is used.

Orbit sums are integers.  A statistic carries its own integer form
(StatExpr.integer_form), made once and independent of the fence: the lcm
d of its denominators, the constant times d, and (element, weight) pairs,
the element being a 0-based index or None for the cardinality.  d times
an orbit sum is then constant*size plus each weight times its element's
count, the cardinality's count being the orbit's summed bit count (the
sum of all its element counts).  scaled_sums gives that for every orbit
of a count table at once, as one column of integers, and
classify_orbit_sums, the one classifier, decides a column: it
cross-multiplies every orbit against the first for homomesy, and
compares the number of distinct (size, sum) pairs with the number of
distinct sizes for orbomesy.  Fractions are built only at the report:
MesyReport.constant, and MesyReport.per_orbit when it is read; the JSON
report writes its fractions from gcd-reduced integers.
weighted_sum reads the same pairs on one orbit's counts, for the
harness's rows and witnesses.

The element counts come from one kernel, orbit_element_counts: it
returns count columns of a list of orbits, one entry per orbit, for
the 0-based elements asked for (every element by default).
check_homomesy and orbit_sum ask only for the elements of their
statistic's integer form, and take the cardinality column, when the
statistic reads it, from each orbit's summed int.bit_count, so `chi` and
`chihat` count no element column at all; orbit profiles and the
transfer tables count every column.  Up to PACKED_COUNT_MAX_N elements
a mask fits one 8-byte word, and a column is read off one array of all
the masks with C-level byte operations: a strided slice per byte, a
translate per bit and a bytes.count per orbit.  That reader,
lane_counts, takes lanes of any width, so it also recounts chosen
columns straight off a packed family (toggles.transfer_chain).  Longer
fences add each orbit's masks into bit planes, at a few n-bit
operations per member.  The paper's tiling lemma, which turns a table
of antichain orbits into their tile and ideal counts, lives in
fences.tiling (tiling_lemma).

Text syntax (whitespace-insensitive, 1-based element indices):

    2*chi[3] - chi[5] + 1/2        chihat[10]        chi
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import eq, mul
from typing import Iterable, Mapping, Sequence

from .fence import (
    _SWAP, ANTICHAIN, IDEAL, ElementSet, Fence, FenceError, RoleError, elements_of
)
from .rowmotion import Orbit, antichain_orbits, ideal_orbits, require_orbit


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

    @cached_property
    def integer_form(self) -> tuple[int, int, tuple[tuple[int | None, int], ...]]:
        """The statistic times the lcm d of its denominators, as integers:
        (d, constant, pairs).  A pair holds a 0-based element index, or None
        for the cardinality, with its weight; equal atoms are merged and
        zero weights dropped.  d times an orbit sum is constant * size plus
        each weight times its element's count, the cardinality's count being
        the sum of all counts."""
        d = lcm(self.constant.denominator, *(c.denominator for c, _ in self.terms))
        weights: dict[int | None, int] = {}
        for coeff, atom in self.terms:
            k = None if atom.element is None else atom.element - 1
            weights[k] = weights.get(k, 0) + int(coeff * d)
        pairs = tuple((k, w) for k, w in weights.items() if w)
        return d, int(self.constant * d), pairs

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
    """Exact value of a statistic on one element set, a member of the
    statistic's family (of its own role when the statistic has no atoms)."""
    F.require_role(S, expr.family() or S.role)
    _check_elements(F, expr)
    total = expr.constant
    for coeff, atom in expr.terms:
        if atom.element is None:
            total += coeff * len(S)
        elif atom.element in S:
            total += coeff
    return total


def _check_elements(F: Fence, expr: StatExpr) -> None:
    """Raise FenceError naming the statistic's first atom outside F."""
    F.mask_of(atom.element for _, atom in expr.terms if atom.element is not None)


def weighted_sum(pairs: Iterable[tuple[int | None, int]], counts: Sequence[int]) -> int:
    """The weighted element counts of one orbit: each weight times the
    count of its 0-based element, or times the sum of all counts for None
    (scaled_sums does every orbit of a count table at once)."""
    total = 0
    for k, w in pairs:
        total += w * (sum(counts) if k is None else counts[k])
    return total


def scaled_sums(
    expr: StatExpr,
    sizes: Sequence[int],
    columns: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    cardinality: Sequence[int] | None = None,
) -> list[int]:
    """The statistic's orbit sums times its denominator d, over every orbit
    of a count table, from its integer form: constant * sizes plus each
    weight times its element's column.  columns[k] is the column of the
    0-based element k: a full table, or a mapping holding at least the
    statistic's elements (_statistic_columns).  The cardinality's column
    is `cardinality` when given, else the sum of all columns of the full
    table."""
    _, constant, pairs = expr.integer_form
    terms = []
    for k, w in pairs:
        if k is not None:
            column = columns[k]
        elif cardinality is not None:
            column = cardinality
        else:
            column = list(map(sum, zip(*columns)))
        terms.append(column if w == 1 else map(mul, column, repeat(w)))
    if constant:
        terms.append(map(mul, sizes, repeat(constant)))
    if not terms:
        return [0] * len(sizes)
    if len(terms) == 1:
        return list(terms[0])
    return list(map(sum, zip(*terms)))


def orbit_sum(F: Fence, expr: StatExpr, orbit: Orbit) -> Fraction:
    """Sum of the statistic over all members of an orbit, once the
    statistic fits the orbit's family and the fence, and the orbit is one
    (rowmotion.require_orbit)."""
    fam = expr.family()
    if fam is not None and orbit.family != fam:
        raise RoleError(f"statistic over {fam}s summed over an {orbit.family} orbit")
    _check_elements(F, expr)
    require_orbit(F, orbit, orbit.family)
    columns, cardinality = _statistic_columns(F, expr, [orbit.masks])
    total = scaled_sums(expr, [orbit.size], columns, cardinality)[0]
    return Fraction(total, expr.integer_form[0])


def _statistic_columns(
    F: Fence, expr: StatExpr, orbits: Sequence[Sequence[int]]
) -> tuple[dict[int, tuple[int, ...]], list[int] | None]:
    """The count columns a statistic reads over a list of orbits, each a
    sequence of masks: {k: column} for the 0-based elements of its integer
    form, counted by orbit_element_counts and no other, and the cardinality
    column, each orbit's summed int.bit_count, or None when the statistic
    does not read it."""
    pairs = expr.integer_form[2]
    ks = sorted(k for k, _ in pairs if k is not None)
    columns = dict(zip(ks, orbit_element_counts(F, orbits, ks))) if ks else {}
    cardinality = None
    if any(k is None for k, _ in pairs):
        cardinality = [sum(map(int.bit_count, masks)) for masks in orbits]
    return columns, cardinality


#: Largest n counted through the byte table; longer fences use bit planes.
#: 64 is the most an 8-byte word holds.  Over both families of eight
#: random compositions each (0.9-1.5 million members), the table took 0.39
#: to 0.44 of the bit planes' time at n = 48, 56 and 64, so no smaller
#: switch pays.
PACKED_COUNT_MAX_N = 64

# _BIT[j][b] is bit j of the byte b, as a bytes.translate table
_BIT = tuple(bytes(b >> j & 1 for b in range(256)) for j in range(8))


def orbit_element_counts(
    F: Fence, orbits: Sequence[Sequence[int]], ks: Sequence[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Count columns of a list of orbits of F, each a sequence of masks,
    for the 0-based elements ks, in that order (every element of F when
    ks is None): columns[i][o] is how many members of orbit o contain
    x_{ks[i]+1}.  The one member-counting kernel.  A caller counts only
    the columns it reads: check_homomesy and orbit_sum the elements of
    their statistic, orbit profiles and the transfer tables all of them.

    Up to PACKED_COUNT_MAX_N elements every mask goes, in orbit order,
    into one array of 8-byte words, read by lane_counts.  Byte b of every
    word is one strided slice of its bytes; translating that slice through
    _BIT[j] leaves one 0/1 byte per member for bit 8b + j, and each orbit's
    count is a bytes.count over its members' range, so the work per member
    is a few byte operations per element counted, all in C.  Longer masks
    do not fit a word; each orbit is then added into bit planes: bit k of
    planes[i] is bit i of the count of x_{k+1}.  Adding a mask is a
    ripple-carry add of a one-bit value into every element's counter at
    once, so its cost follows the number of carries rather than the mask's
    popcount, and each plane's set bits are read out once at the end.
    """
    n = F.n
    if ks is None:
        ks = range(n)
    if n > PACKED_COUNT_MAX_N:
        rows = [_plane_counts(n, masks) for masks in orbits]
        table = tuple(zip(*rows)) if rows else ((),) * n
        return tuple(table[k] for k in ks)
    words = array("Q")
    ends = []
    for masks in orbits:
        words.extend(masks)
        ends.append(len(words))
    if _SWAP:
        words.byteswap()
    return tuple(lane_counts(memoryview(words).cast("B"), 8, ks, ends))


def lane_counts(
    raw: bytes | memoryview, width: int, ks: Iterable[int], ends: Sequence[int]
) -> list[tuple[int, ...]]:
    """The count columns of the 0-based elements ks, in that order, read
    off raw: one little-endian lane of `width` bytes per member, in orbit
    order, orbit o's members ending before lane ends[o].  Byte k // 8 of
    every lane is one strided slice, translating it through _BIT[k % 8]
    leaves one 0/1 byte per member, and each orbit's count is a
    bytes.count over its range.  The byte table of orbit_element_counts is
    the 8-byte case; a packed family (Fence.lane_chunks) is any width."""
    starts = [0, *ends[:-1]]
    columns = []
    plane, b = b"", -1
    for k in ks:
        if k >> 3 != b:
            b = k >> 3
            plane = bytes(raw[b::width])
        count = plane.translate(_BIT[k & 7]).count
        columns.append(tuple(map(count, repeat(1), starts, ends)))
    return columns


def _plane_counts(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    """How often each of bits 0..n-1 occurs across the masks, through bit
    planes (orbit_element_counts above the byte table's limit)."""
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
        for k in elements_of(p):
            counts[k - 1] += weight
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
        d = self.denom
        return {
            "kind": self.kind,
            "constant": None if self.constant is None else str(self.constant),
            "per_orbit": [
                {"size": size, "sum": _ratio(sm, d), "average": _ratio(sm, size * d)}
                for size, sm in self.sums
            ],
        }


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, reduced by math.gcd without
    building the Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def classify_orbit_sums(
    sizes: Sequence[int], sums: Sequence[int], denom: int = 1
) -> MesyReport:
    """Classify one statistic from its column: the orbit sizes and the
    orbit sums times denom, both integers, in orbit order.

    Homomesic when every average sum/size equals the first orbit's,
    compared by cross-multiplying; orbomesic when orbits of equal size
    have equal sums, i.e. there are no more distinct (size, sum) pairs
    than distinct sizes.
    """
    pairs = tuple(zip(sizes, sums))
    if pairs:
        size0, sum0 = pairs[0]
        if all(map(eq, map(mul, sizes, repeat(sum0)), map(mul, sums, repeat(size0)))):
            return MesyReport("homomesic", Fraction(sum0, size0 * denom), pairs, denom)
    if len(set(pairs)) == len(set(sizes)):
        return MesyReport("orbomesic", None, pairs, denom)
    return MesyReport("neither", None, pairs, denom)


def check_homomesy(F: Fence, family: str, expr: StatExpr) -> MesyReport:
    """Classify a statistic over the rowmotion orbits of a family."""
    fam = expr.family()
    if fam is not None and fam != family:
        raise RoleError(f"statistic over {fam}s checked on {family} orbits")
    if family not in (ANTICHAIN, IDEAL):
        raise FenceError(f"no orbit family {family!r}")
    _check_elements(F, expr)
    orbits = antichain_orbits(F) if family == ANTICHAIN else ideal_orbits(F)
    columns, cardinality = _statistic_columns(F, expr, [o.masks for o in orbits])
    return _classify(expr, [o.size for o in orbits], columns, cardinality)


def _classify(
    expr: StatExpr,
    sizes: Sequence[int],
    columns: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    cardinality: Sequence[int] | None = None,
) -> MesyReport:
    """The statistic's verdict over a count table: its orbit sums
    (scaled_sums) classified by classify_orbit_sums."""
    sums = scaled_sums(expr, sizes, columns, cardinality)
    return classify_orbit_sums(sizes, sums, expr.integer_form[0])
