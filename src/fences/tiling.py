"""Cylindrical tilings encoding rowmotion orbits of antichains, and the
paper's tiling lemma.

A rowmotion orbit of width w on a fence with s segments becomes an
s-row, w-column cylinder: column c describes the c-th antichain of the
orbit, with the cell in row i yellow, red, or black according to whether
the antichain misses segment i, meets it in a shared element, or meets it
in an unshared element.  Red cells pair up into vertical dominoes (a
shared element lies on two segments), and black cells group into
horizontal tiles of length alpha_i - 1 whose j-th cell stands for the
j-th smallest unshared element of the segment.

Tilings are stored cut at the orbit's canonical representative; equality
is up to horizontal rotation, decided on the lexicographically least
rotation of the column colour sequence.

The statistics of an orbit depend on its tiling only through the tile
counts.  With b_i black tiles and r_i red heads in row i (r_0 = r_s = 0)
and w columns, the tiling lemma says:

- each unshared element of segment i occurs b_i times, and s_i r_i times;
- the j-th smallest unshared element of segment i lies in
  b_i*(alpha_i - j) + r_t of the generated ideals, s_t being the
  segment's maximal end (t = i for odd i, i - 1 for even i);
- s_i lies in r_i of them for odd i (a maximal element) and in w - r_i
  for even i (a minimal one).

TilingLemma (built once per fence by tiling_lemma) is the lemma's one
home: it maps an orbit's antichain element counts to its tile counts and
ideal counts, so orbit profiles build no tiling, and
orbit_stats_from_tiling runs it on a tiling's counts.  An AlphaTiling is
built only to render an orbit or to round-trip it through
orbit_of_tiling.

`tiling_of_orbit` builds a tiling a row at a time.  It packs the orbit
into lanes (`Fence.lane_chunks`), so bit 0 of lane c ORed over a
segment's elements says whether the c-th antichain meets the segment;
one such int per row for black cells and one for red heads give each
row's cell codes as every lane's first byte, and one regular-expression
pass over that row string emits its tiles in column order.

Every built tiling is validated once: `AlphaTiling.report` keeps the
report of `validate_tiling`, which returns it for the tiling's own
composition.  One painter (`_paint`) lays the tiles' cells onto the
cylinder in one pass; the colour grid, the validator's tile-index and
cover grids and the ascii renderer all read it, and the validator checks
each row of those grids at once.

Every public function that reads a tiling (`orbit_of_tiling`,
`orbit_stats_from_tiling`, `tile_counts`, `render_tiling` and
`AlphaTiling.cell_grid`) first calls the one tiling check,
`_require_tiling`: it reads the cached report and raises TilingError on
a violation, after FenceError when a fence is given whose composition
is not the tiling's.  `orbit_of_tiling` then leaves the orbit itself to
the one orbit check, `rowmotion.require_orbit`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from operator import add, itemgetter, mul
from typing import NamedTuple, Sequence

from .fence import ANTICHAIN, Composition, Fence, FenceError
from .rowmotion import Orbit, require_orbit

YELLOW = "yellow"
BLACK = "black"
RED = "red"

_CELL_CODE = {YELLOW: "Y", BLACK: "B", RED: "R"}

# A row's lane bytes, black | head << 1 | tail << 2, as cell letters: a red
# cell is "R" where the domino's head lies in the row and "r" where its
# tail does.  Tiles start at a black run, a yellow cell or a red head.
_ROW_LETTERS = bytes.maketrans(b"\0\1\2\4", b"YBRr")
_ROW_TILES = re.compile("B+|[YR]")
# a one byte where a cell is yellow, for the red rule's row pairs
_YELLOW_BYTES = bytes(int(b == ord("Y")) for b in range(256))
_ONE = re.compile(b"\1")
_DOUBLED = re.compile("BB|YY")

SVG_PALETTE = {YELLOW: "#FFD700", RED: "#D62728", BLACK: "#222222"}
_SVG_CELL = 24


class TilingError(ValueError):
    """A tiling violates its defining conditions."""


class Tile(NamedTuple):
    """One tile: yellow 1x1, black 1x(span) in its row, or a red vertical
    domino whose row is the head (upper) row.

    A NamedTuple, so it is immutable, unpacks as (kind, row, col, span)
    and compares (and hashes) equal to the plain 4-tuple of its fields.
    """

    kind: str
    row: int
    col: int
    span: int = 1


@dataclass(frozen=True)
class AlphaTiling:
    alpha: Composition
    width: int
    tiles: tuple[Tile, ...]

    @property
    def rows(self) -> int:
        return self.alpha.s

    @cached_property
    def report(self) -> TilingReport:
        """The report of validate_tiling(self.alpha, self), made on first
        use and kept (cached_property writes the instance dict, which a
        frozen dataclass allows)."""
        return _check_tiling(Composition.coerce(self.alpha), self)

    def cell_grid(self) -> list[list[str]]:
        """Colour codes Y/B/R per cell, rows 1..s outer, columns inner."""
        _require_tiling(self)
        return _paint(self)[0]

    def rotated(self, offset: int) -> "AlphaTiling":
        """Shift columns so that old column `offset` becomes column 0."""
        w = self.width
        moved = tuple(
            Tile(t.kind, t.row, (t.col - offset) % w, t.span)
            for t in self.tiles
        )
        return AlphaTiling(self.alpha, w, tuple(sorted(moved, key=_tile_key)))

    def canonical_columns(self) -> tuple[tuple[str, ...], ...]:
        """Column colour sequence in its lexicographically least rotation."""
        grid = self.cell_grid()
        cols = [tuple(grid[r][c] for r in range(self.rows)) for c in range(self.width)]
        best = min(tuple(cols[r:] + cols[:r]) for r in range(self.width))
        return tuple(best)

    def equivalent(self, other: "AlphaTiling") -> bool:
        """Equality up to horizontal rotation of the cylinder."""
        return (
            self.alpha == other.alpha
            and self.width == other.width
            and self.canonical_columns() == other.canonical_columns()
        )


# tiles in (row, col, kind, span) order
_tile_key = itemgetter(1, 2, 0, 3)


def _paint(T: AlphaTiling) -> tuple[list[list[str]], list[list[int]], list[list[int]]]:
    """One pass over the tiles' cells: the colour-code grid ("?" where no
    tile lies), the tile-index grid (-1 where none; the last tile wins) and
    how many tiles cover each cell, each with rows 1..s outer."""
    w, s = T.width, T.rows
    codes = [["?"] * w for _ in range(s)]
    index = [[-1] * w for _ in range(s)]
    cover = [[0] * w for _ in range(s)]
    for idx, (kind, row, col, span) in enumerate(T.tiles):
        code = _CELL_CODE[kind]
        if kind == RED:
            for r in (row - 1, row):
                codes[r][col] = code
                index[r][col] = idx
                cover[r][col] += 1
            continue
        codes_r, index_r, cover_r = codes[row - 1], index[row - 1], cover[row - 1]
        for c in range(col, col + span) if kind == BLACK else (col,):
            c %= w
            codes_r[c] = code
            index_r[c] = idx
            cover_r[c] += 1
    return codes, index, cover


@dataclass(frozen=True)
class TileCounts:
    """Black tiles per row and red heads per row; index 0 and s are 0."""

    black: tuple[int, ...]  # entry i-1 is the count for row i
    red: tuple[int, ...]  # entry i is the head count for row i, 0..s

    @property
    def s(self) -> int:
        return len(self.black)

    def black_in_row(self, i: int) -> int:
        return self.black[i - 1] if 1 <= i <= self.s else 0

    def red_heads_in_row(self, i: int) -> int:
        return self.red[i] if 0 <= i <= self.s else 0

    @property
    def black_sequence(self) -> tuple[int, ...]:
        return self.black

    @property
    def red_sequence(self) -> tuple[int, ...]:
        """Heads r_1 .. r_{s-1} (the interior entries)."""
        return self.red[1:-1] if self.s > 1 else ()


@dataclass(frozen=True)
class TilingReport:
    valid: bool
    violations: tuple[str, ...]


# -- orbit -> tiling ---------------------------------------------------------


def tiling_of_orbit(F: Fence, orbit: Orbit) -> AlphaTiling:
    """Encode an antichain orbit as its cylindrical tiling.

    Column c is the c-th antichain of the orbit as given (a library orbit
    starts at its canonical representative).  The orbit is checked once
    (rowmotion.require_orbit), and the result always satisfies the tiling
    conditions; a failure here would be a library bug and is raised,
    never swallowed.
    """
    require_orbit(F, orbit, ANTICHAIN)
    w, s = orbit.size, F.s
    rows = [bytearray() for _ in range(s)]
    for lanes, packed in F.lane_chunks(orbit.masks):
        size, rep = lanes.width * lanes.count, lanes.rep
        tail = 0
        for i in range(1, s + 1):
            black = 0
            for k in F.unshared[i]:
                black |= (packed >> (k - 1)) & rep
            head = (packed >> (F.shared[i - 1] - 1)) & rep if i < s else 0
            code = black | head << 1 | tail << 2
            rows[i - 1] += code.to_bytes(size, "little")[:: lanes.width]
            tail = head
    tiles: list[Tile] = []
    for i, codes in enumerate(rows, start=1):
        row = codes.translate(_ROW_LETTERS).decode()
        # a black run at column 0 continues the run that ends at the seam
        seam = len(row) - len(row.lstrip("B")) if row[-1] == "B" else 0
        for m in _ROW_TILES.finditer(row, seam):
            c = m.start()
            if row[c] == "Y":
                tiles.append(Tile(YELLOW, i, c))
            elif row[c] == "R":
                tiles.append(Tile(RED, i, c))
            else:
                end = m.end()
                tiles.append(Tile(BLACK, i, c, end - c + (seam if end == w else 0)))
    T = AlphaTiling(F.alpha, w, tuple(tiles))
    report = validate_tiling(F.alpha, T)
    if not report.valid:
        raise TilingError(
            "orbit produced an invalid tiling (library bug): "
            + "; ".join(report.violations)
        )
    return T


# -- tiling -> orbit ---------------------------------------------------------


def orbit_of_tiling(F: Fence, T: AlphaTiling) -> Orbit:
    """Decode a valid tiling back to the antichain orbit it encodes: the
    columns' masks, rotated to start at the least, checked once as an
    orbit (rowmotion.require_orbit)."""
    _require_tiling(T, F)
    w = T.width
    masks = [0] * w
    for t in T.tiles:
        if t.kind == RED:
            masks[t.col] |= 1 << (F.shared_element(t.row) - 1)
        elif t.kind == BLACK:
            for j in range(t.span):
                k = F.unshared_element(t.row, j + 1)
                masks[(t.col + j) % w] |= 1 << (k - 1)
    start = masks.index(min(masks))
    orbit = Orbit(ANTICHAIN, tuple(masks[start:] + masks[:start]))
    require_orbit(F, orbit, ANTICHAIN)
    return orbit


def _require_tiling(T: AlphaTiling, F: Fence | None = None) -> None:
    """The one check of a tiling argument: its composition is F's when a
    fence is given, and its cached report (AlphaTiling.report) is valid.
    Every public function that reads a tiling calls it once."""
    if F is not None and Composition.coerce(T.alpha) != F.alpha:
        raise FenceError("tiling composition does not match the fence")
    report = T.report
    if not report.valid:
        raise TilingError("invalid tiling: " + "; ".join(report.violations))


# -- validation ---------------------------------------------------------------


def validate_tiling(alpha: Composition, T: AlphaTiling) -> TilingReport:
    """Check the defining tiling conditions, reporting every violation.

    Checks: tile shapes and rows, exact cover of the s x width cylinder,
    black span alpha_i - 1 per row, black/yellow alternation in rows that
    contain a black tile (red cells ignored), and the local rule that a
    red domino on rows i, i+1 appears exactly where the neighbouring
    column (previous for even i, next for odd i) is yellow in both rows.

    For the tiling's own composition this is T.report, so each tiling is
    checked once however often it is validated; any other alpha is
    checked afresh and reported as a mismatch first.
    """
    alpha = Composition.coerce(alpha)
    if alpha == Composition.coerce(T.alpha):
        return T.report
    return _check_tiling(alpha, T)


def _check_tiling(alpha: Composition, T: AlphaTiling) -> TilingReport:
    s = alpha.s
    w = T.width
    bad: list[str] = []
    if Composition.coerce(T.alpha) != alpha:
        bad.append(f"tiling alpha {T.alpha} differs from {alpha}")
    if w < 1:
        bad.append("width must be at least 1")
        return TilingReport(False, tuple(bad))

    heads: list[set[int]] = [set() for _ in range(s)]
    for kind, row, col, span in T.tiles:
        if kind not in (YELLOW, BLACK, RED):
            bad.append(f"unknown tile kind {kind!r} at ({row},{col})")
            continue
        if not 0 <= col < w:
            bad.append(f"{kind} tile column {col} outside 0..{w - 1}")
        if kind == RED:
            if not 1 <= row <= s - 1:
                bad.append(f"red head row {row} outside 1..{s - 1}")
            else:
                heads[row].add(col)
        elif not 1 <= row <= s:
            bad.append(f"{kind} tile row {row} outside 1..{s}")
        if kind == BLACK:
            if not 1 <= row <= s:
                continue
            need = alpha[row - 1] - 1
            if need < 1:
                bad.append(
                    f"black tile in row {row} but alpha_{row} = "
                    f"{alpha[row - 1]} allows none"
                )
            elif span != need:
                bad.append(
                    f"black tile at ({row},{col}) has span {span}, "
                    f"row {row} requires {need}"
                )
        elif span != 1:
            bad.append(f"{kind} tile at ({row},{col}) has span {span}")
    if bad:
        return TilingReport(False, tuple(bad))

    # the shape checks put every cell of every tile in the cylinder
    grid, idx, cover = _paint(T)
    for i, row_cover in enumerate(cover, start=1):
        if row_cover.count(1) == w:
            continue
        for c, k in enumerate(row_cover):
            if k == 0:
                bad.append(f"cell ({i},{c}) is uncovered")
            elif k > 1:
                bad.append(f"cell ({i},{c}) is covered {k} times")
    if bad:
        return TilingReport(False, tuple(bad))

    # alternation: per row, drop red cells, merge cells of one tile, then
    # black and yellow tokens must alternate around the cylinder; with the
    # cover exact, a tile's cells are contiguous, so a run of equal
    # (code, tile) cells is one token
    rows = ["".join(codes) for codes in grid]
    for i, (row, tids) in enumerate(zip(rows, idx), start=1):
        if "B" not in row:
            continue
        tokens = [key for key, _ in groupby(zip(row, tids)) if key[0] != "R"]
        if len(tokens) > 1 and tokens[0] == tokens[-1]:
            tokens.pop()  # a black tile wrapping the seam
        if len(tokens) == 1:
            bad.append(f"row {i}: a black tile has no yellow tile to alternate with")
            continue
        kinds = "".join(code for code, _ in tokens)
        clash = _DOUBLED.search(kinds + kinds[0])
        if clash:
            a = clash.start()
            bad.append(
                f"row {i}: tiles do not alternate black/yellow "
                f"(positions {a} and {(a + 1) % len(kinds)} ignoring red)"
            )

    # red rule, as an iff at every (row pair, column): the columns c whose
    # neighbour nb = c - d is yellow in both rows are exactly the heads
    yellow = [
        int.from_bytes(row.encode().translate(_YELLOW_BYTES), "little") for row in rows
    ]
    for i in range(1, s):
        d = 1 if i % 2 == 0 else -1
        pairs = (yellow[i - 1] & yellow[i]).to_bytes(w, "little")
        spots = {(m.start() + d) % w for m in _ONE.finditer(pairs)}
        for c in sorted(spots ^ heads[i]):
            nb = (c - d) % w
            if c in heads[i]:
                bad.append(
                    f"red domino on rows {i},{i + 1} column {c} without the "
                    f"yellow pair in column {nb}"
                )
            else:
                bad.append(
                    f"rows {i},{i + 1} column {nb} are both yellow but no "
                    f"red domino sits in column {c}"
                )
    return TilingReport(not bad, tuple(bad))


def tile_counts(T: AlphaTiling) -> TileCounts:
    """Black tiles per row and red heads per row of a tiling."""
    _require_tiling(T)
    s = T.rows
    black = [0] * (s + 1)
    red = [0] * (s + 1)
    for t in T.tiles:
        if t.kind == BLACK:
            black[t.row] += 1
        elif t.kind == RED:
            red[t.row] += 1
    return TileCounts(tuple(black[1:]), tuple(red))


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
        orbit does that, and it raises TilingError."""
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
    off the tile counts of its tiling through the tiling lemma, once the
    tiling is a valid tiling of F."""
    _require_tiling(T, F)
    lemma = tiling_lemma(F)
    chi_x = lemma.element_counts(tile_counts(T))
    _, chihat_x = lemma.counts(chi_x, T.width)
    return OrbitStatistics(T.width, chi_x, chihat_x, sum(chi_x), sum(chihat_x))


# -- rendering ----------------------------------------------------------------


def render_tiling(T: AlphaTiling, format: str = "ascii") -> str:
    """Render as an ascii grid or an SVG document (deterministic bytes)."""
    _require_tiling(T)
    if format == "ascii":
        return _render_ascii(T)
    if format == "svg":
        return _render_svg(T)
    raise FenceError(f"unknown render format {format!r}")


def _render_ascii(T: AlphaTiling) -> str:
    """One line per row; '|' separates tiles, ' ' continues a black tile,
    and the wrap seam shows '~' where a black tile crosses it."""
    grid, idx, _ = _paint(T)
    w = T.width
    lines = []
    for r in range(T.rows):
        seam = "~" if w > 1 and idx[r][0] == idx[r][w - 1] else "|"
        parts = [seam]
        for c in range(w):
            parts.append(grid[r][c])
            if c == w - 1:
                parts.append(seam)
            else:
                parts.append(" " if idx[r][c] == idx[r][c + 1] else "|")
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


def parse_ascii(text: str) -> list[list[str]]:
    """Recover the cell colour grid from render_tiling(..., 'ascii')."""
    grid = []
    for line in text.splitlines():
        if not line.strip():
            continue
        cells = list(line[1::2])
        if any(ch not in "YBR" for ch in cells):
            raise TilingError(f"malformed ascii tiling line: {line!r}")
        grid.append(cells)
    if len({len(row) for row in grid}) > 1:
        raise TilingError("ragged ascii tiling")
    return grid


def _zigzag(x: int, y0: int, y1: int, direction: int) -> str:
    amp = 3 * direction
    pts = []
    steps = max(2, (y1 - y0) // 6)
    for k in range(steps + 1):
        yy = y0 + (y1 - y0) * k // steps
        xx = x + (amp if k % 2 == 1 else 0)
        pts.append(f"{xx},{yy}")
    return " ".join(pts)


def _render_svg(T: AlphaTiling) -> str:
    """SVG 1.1 drawing of the cut-open cylinder.

    Black tiles that wrap the seam are drawn as two rectangles with a
    jagged polyline marking the cut edges.  The palette is fixed so that
    figures are comparable across runs.
    """
    C = _SVG_CELL
    w, s = T.width, T.rows
    W, H = w * C, s * C
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="#FFFFFF"/>',
    ]
    for t in sorted(T.tiles, key=_tile_key):
        fill = SVG_PALETTE[t.kind]
        y = (t.row - 1) * C
        if t.kind == RED:
            out.append(
                f'<rect x="{t.col * C}" y="{y}" width="{C}" height="{2 * C}" '
                f'fill="{fill}" stroke="#333333"/>'
            )
        elif t.kind == BLACK and t.col + t.span > w:
            first = w - t.col
            second = t.span - first
            out.append(
                f'<rect x="{t.col * C}" y="{y}" width="{first * C}" '
                f'height="{C}" fill="{fill}" stroke="#333333"/>'
            )
            out.append(
                f'<rect x="0" y="{y}" width="{second * C}" height="{C}" '
                f'fill="{fill}" stroke="#333333"/>'
            )
            out.append(
                f'<polyline points="{_zigzag(W, y, y + C, -1)}" '
                f'fill="none" stroke="#FFFFFF"/>'
            )
            out.append(
                f'<polyline points="{_zigzag(0, y, y + C, 1)}" '
                f'fill="none" stroke="#FFFFFF"/>'
            )
        else:
            out.append(
                f'<rect x="{t.col * C}" y="{y}" width="{t.span * C}" '
                f'height="{C}" fill="{fill}" stroke="#333333"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
