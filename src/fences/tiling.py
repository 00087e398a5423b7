"""Cylindrical tilings encoding rowmotion orbits of antichains.

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
counts, and the paper's tiling lemma (`stats.TilingLemma`) reads those
off the orbit's antichain element counts.  An AlphaTiling is built only
to render an orbit or to round-trip it through `orbit_of_tiling`, and
every built tiling is validated.  One painter (`_paint`) lays the tiles'
cells onto the cylinder in one pass; the colour grid, the validator's
tile-index and cover grids and the ascii renderer all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fence import ANTICHAIN, Composition, Fence, FenceError
from .rowmotion import Orbit, _rho_mask

YELLOW = "yellow"
BLACK = "black"
RED = "red"

_CELL_CODE = {YELLOW: "Y", BLACK: "B", RED: "R"}

SVG_PALETTE = {YELLOW: "#FFD700", RED: "#D62728", BLACK: "#222222"}
_SVG_CELL = 24


class TilingError(ValueError):
    """A tiling violates its defining conditions."""


@dataclass(frozen=True)
class Tile:
    """One tile: yellow 1x1, black 1x(span) in its row, or a red vertical
    domino whose row is the head (upper) row."""

    kind: str
    row: int
    col: int
    span: int = 1

    def cells(self, width: int) -> tuple[tuple[int, int], ...]:
        if self.kind == RED:
            return ((self.row, self.col), (self.row + 1, self.col))
        if self.kind == BLACK:
            return tuple(
                (self.row, (self.col + j) % width) for j in range(self.span)
            )
        return ((self.row, self.col),)


@dataclass(frozen=True)
class AlphaTiling:
    alpha: Composition
    width: int
    tiles: tuple[Tile, ...]

    @property
    def rows(self) -> int:
        return self.alpha.s

    def cell_grid(self) -> list[list[str]]:
        """Colour codes Y/B/R per cell, rows 1..s outer, columns inner."""
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


def _tile_key(t: Tile) -> tuple:
    return (t.row, t.col, t.kind, t.span)


def _paint(T: AlphaTiling) -> tuple[list[list[str]], list[list[int]], list[list[int]]]:
    """One pass over the tiles' cells: the colour-code grid ("?" where no
    tile lies), the tile-index grid (-1 where none; the last tile wins) and
    how many tiles cover each cell, each with rows 1..s outer."""
    w, s = T.width, T.rows
    codes = [["?"] * w for _ in range(s)]
    index = [[-1] * w for _ in range(s)]
    cover = [[0] * w for _ in range(s)]
    for idx, t in enumerate(T.tiles):
        code = _CELL_CODE[t.kind]
        for r, c in t.cells(w):
            codes[r - 1][c] = code
            index[r - 1][c] = idx
            cover[r - 1][c] += 1
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

    Column c is the c-th antichain counted from the canonical
    representative.  The result always satisfies the tiling conditions;
    a failure here would be a library bug and is raised, never swallowed.
    """
    if orbit.family != ANTICHAIN:
        raise FenceError("tilings encode antichain orbits")
    w = orbit.size
    s = F.s
    tiles: list[Tile] = []
    # cell occupancy per row: None (yellow), 'red', or the unshared element
    rows: list[list] = [[None] * w for _ in range(s + 1)]
    for c, m in enumerate(orbit.masks):
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length()
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
    T = AlphaTiling(F.alpha, w, tuple(sorted(tiles, key=_tile_key)))
    report = validate_tiling(F.alpha, T)
    if not report.valid:
        raise TilingError(
            "orbit produced an invalid tiling (library bug): "
            + "; ".join(report.violations)
        )
    return T


# -- tiling -> orbit ---------------------------------------------------------


def orbit_of_tiling(F: Fence, T: AlphaTiling) -> Orbit:
    """Decode a valid tiling back to the antichain orbit it encodes."""
    if Composition.coerce(T.alpha) != F.alpha:
        raise FenceError("tiling composition does not match the fence")
    report = validate_tiling(F.alpha, T)
    if not report.valid:
        raise TilingError("invalid tiling: " + "; ".join(report.violations))
    w = T.width
    masks = [0] * w
    for t in T.tiles:
        if t.kind == RED:
            masks[t.col] |= 1 << (F.shared_element(t.row) - 1)
        elif t.kind == BLACK:
            for j in range(t.span):
                k = F.unshared_element(t.row, j + 1)
                masks[(t.col + j) % w] |= 1 << (k - 1)
    for c, m in enumerate(masks):
        if not F.is_antichain_mask(m):
            raise TilingError(f"column {c} does not decode to an antichain")
    for c in range(w):
        if _rho_mask(F, masks[c]) != masks[(c + 1) % w]:
            raise TilingError(
                f"columns {c} -> {(c + 1) % w} are not consecutive under "
                "rowmotion"
            )
    if len(set(masks)) != w:
        raise TilingError("tiling repeats a column antichain")
    start = masks.index(min(masks))
    cycle = masks[start:] + masks[:start]
    return Orbit(ANTICHAIN, tuple(cycle))


# -- validation ---------------------------------------------------------------


def validate_tiling(alpha: Composition, T: AlphaTiling) -> TilingReport:
    """Check the defining tiling conditions, reporting every violation.

    Checks: tile shapes and rows, exact cover of the s x width cylinder,
    black span alpha_i - 1 per row, black/yellow alternation in rows that
    contain a black tile (red cells ignored), and the local rule that a
    red domino on rows i, i+1 appears exactly where the neighbouring
    column (previous for even i, next for odd i) is yellow in both rows.
    """
    alpha = Composition.coerce(alpha)
    s = alpha.s
    w = T.width
    bad: list[str] = []
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

    # the shape checks put every cell of every tile in the cylinder
    grid, idx, cover = _paint(T)
    for i in range(1, s + 1):
        for c, k in enumerate(cover[i - 1]):
            if k == 0:
                bad.append(f"cell ({i},{c}) is uncovered")
            elif k > 1:
                bad.append(f"cell ({i},{c}) is covered {k} times")
    if bad:
        return TilingReport(False, tuple(bad))

    # alternation: per row, drop red cells, merge cells of one tile, then
    # black and yellow tokens must alternate around the cylinder
    for i in range(1, s + 1):
        row_codes = grid[i - 1]
        if "B" not in row_codes:
            continue
        tokens: list[tuple[str, int]] = []
        for c in range(w):
            if row_codes[c] == "R":
                continue
            tid = idx[i - 1][c]
            if not tokens or tokens[-1][1] != tid:
                tokens.append((row_codes[c], tid))
        if len(tokens) > 1 and tokens[0][1] == tokens[-1][1]:
            tokens.pop()  # a black tile wrapping the seam
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

    # red rule, as an iff at every (row pair, column)
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


def tile_counts(T: AlphaTiling) -> TileCounts:
    """Black tiles per row and red heads per row of a tiling."""
    s = T.rows
    black = [0] * (s + 1)
    red = [0] * (s + 1)
    for t in T.tiles:
        if t.kind == BLACK:
            black[t.row] += 1
        elif t.kind == RED:
            red[t.row] += 1
    return TileCounts(tuple(black[1:]), tuple(red))


# -- rendering ----------------------------------------------------------------


def render_tiling(T: AlphaTiling, format: str = "ascii") -> str:
    """Render as an ascii grid or an SVG document (deterministic bytes)."""
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
        if w == 1:
            seam = "|"
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
