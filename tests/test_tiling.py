import re
import xml.etree.ElementTree as ET
from collections import Counter
from functools import partial

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fences import (
    ANTICHAIN,
    AlphaTiling,
    Composition,
    ElementSet,
    FenceError,
    Orbit,
    Tile,
    TilingError,
    TilingReport,
    antichain_orbits,
    build_fence,
    orbit_of,
    orbit_of_tiling,
    orbit_stats_from_tiling,
    render_tiling,
    tile_counts,
    tiling_of_orbit,
    validate_tiling,
)
from fences import fence as fence_module
from fences.harness import all_fence_compositions, orbit_profiles
from fences.tiling import (
    SVG_PALETTE, _SVG_CELL, OrbitStatistics, _paint, parse_ascii
)


def five_orbit(F):
    return next(o for o in antichain_orbits(F) if o.size == 5)


class TestTilingOfOrbit:
    def test_434_five_column(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        grid = T.cell_grid()
        assert grid == [
            list("YBBBR"),
            list("YRBBR"),
            list("YRBBB"),
        ]
        c = tile_counts(T)
        assert c.black_sequence == (1, 1, 1)
        assert c.red == (0, 1, 1, 0)

    def test_434_seventeen_column_counts(self, f434):
        for o in antichain_orbits(f434):
            if o.size != 17:
                continue
            c = tile_counts(tiling_of_orbit(f434, o))
            assert c.black_sequence == (4, 5, 4)
            assert c.red_sequence == (1, 1)

    def test_54_single_red(self):
        F = build_fence((5, 4))
        (o,) = antichain_orbits(F)
        T = tiling_of_orbit(F, o)
        c = tile_counts(T)
        assert c.black_sequence == (4, 5)
        assert c.red_sequence == (1,)
        assert sum(1 for t in T.tiles if t.kind == "red") == 1
        assert T.width == 21 == c.black_in_row(1) * 5 + c.red_heads_in_row(1)

    def test_width_equals_orbit_size(self):
        for alpha in [(2, 2), (4, 3, 4), (2, 2, 2, 2)]:
            F = build_fence(alpha)
            for o in antichain_orbits(F):
                assert tiling_of_orbit(F, o).width == o.size


class TestOrbitOfTiling:
    def test_decodes_fig3_orbit(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        o = orbit_of_tiling(f434, T)
        assert [set(S.elements) for S in o.reps] == [
            set(), {1, 7}, {2, 6, 8}, {3, 5, 9}, {4, 10},
        ]

    def test_roundtrip_small(self):
        for alpha in [(2, 2), (3, 3, 2), (2, 2, 2), (4, 3, 4), (2, 1, 2)]:
            F = build_fence(alpha)
            for o in antichain_orbits(F):
                T = tiling_of_orbit(F, o)
                assert orbit_of_tiling(F, T).reps == o.reps

    def test_roundtrip_up_to_rotation(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        rotated = T.rotated(2)
        o = orbit_of_tiling(f434, rotated)
        assert o.reps == five_orbit(f434).reps
        assert tiling_of_orbit(f434, o).equivalent(rotated)

    def test_injective_across_orbits(self):
        for alpha in [(4, 3, 4), (2, 2, 2, 2), (3, 3, 3)]:
            F = build_fence(alpha)
            canon = [
                tiling_of_orbit(F, o).canonical_columns()
                for o in antichain_orbits(F)
            ]
            assert len(canon) == len(set(canon))


class TestValidator:
    def test_valid_orbit_tilings(self, f434):
        for o in antichain_orbits(f434):
            rep = validate_tiling(f434.alpha, tiling_of_orbit(f434, o))
            assert rep.valid and not rep.violations

    @pytest.mark.parametrize(
        "alpha,size,mutation,violations",
        [
            pytest.param(
                (4, 3, 4), 5, ("remove", 1, 0), ("cell (1,0) is uncovered",),
                id="removed",
            ),
            pytest.param(
                (4, 3, 4),
                5,
                ("duplicate", 1, 1),
                (
                    "cell (1,1) is covered 2 times",
                    "cell (1,2) is covered 2 times",
                    "cell (1,3) is covered 2 times",
                ),
                id="duplicated",
            ),
            pytest.param(
                (4, 3, 4),
                5,
                ("shift", 1, 1),
                ("cell (1,1) is uncovered", "cell (1,4) is covered 2 times"),
                id="shifted",
            ),
            pytest.param(
                (4, 3, 4),
                5,
                ("blacken", 1, 0),
                ("black tile at (1,0) has span 1, row 1 requires 3",),
                id="kind-span",
            ),
            pytest.param(
                (2, 2, 2),
                10,
                ("blacken", 2, 0),
                (
                    "row 2: tiles do not alternate black/yellow "
                    "(positions 0 and 1 ignoring red)",
                    "red domino on rows 1,2 column 9 without the yellow pair in "
                    "column 0",
                    "red domino on rows 2,3 column 1 without the yellow pair in "
                    "column 0",
                ),
                id="kind-alternation",
            ),
            pytest.param(
                (4, 3, 4),
                5,
                ("unred", None, None),
                (
                    "row 1: tiles do not alternate black/yellow "
                    "(positions 2 and 0 ignoring red)",
                    "row 2: tiles do not alternate black/yellow "
                    "(positions 0 and 1 ignoring red)",
                    "row 3: tiles do not alternate black/yellow "
                    "(positions 0 and 1 ignoring red)",
                    "rows 1,2 column 4 are both yellow but no red domino sits "
                    "in column 3",
                    "rows 1,2 column 0 are both yellow but no red domino sits "
                    "in column 4",
                    "rows 2,3 column 0 are both yellow but no red domino sits "
                    "in column 1",
                    "rows 2,3 column 1 are both yellow but no red domino sits "
                    "in column 2",
                ),
                id="red-deletion",
            ),
        ],
    )
    def test_mutated_tiling_reports(self, alpha, size, mutation, violations):
        # the tiling of the orbit of that size, mutated at the tile whose
        # head cell is (row, col); "unred" swaps each red domino for two
        # yellows
        F = build_fence(alpha)
        T = tiling_of_orbit(F, next(o for o in antichain_orbits(F) if o.size == size))
        op, row, col = mutation
        tiles = list(T.tiles)
        if op == "unred":
            tiles = [t for t in tiles if t.kind != "red"] + [
                Tile("yellow", t.row + d, t.col)
                for t in T.tiles
                if t.kind == "red"
                for d in (0, 1)
            ]
        else:
            k = next(k for k, t in enumerate(tiles) if (t.row, t.col) == (row, col))
            t = tiles[k]
            if op == "remove":
                del tiles[k]
            elif op == "duplicate":
                tiles.append(t)
            elif op == "shift":
                tiles[k] = Tile(t.kind, t.row, (t.col + 1) % T.width, t.span)
            else:
                tiles[k] = Tile("black", t.row, t.col, t.span)
        rep = validate_tiling(F.alpha, AlphaTiling(T.alpha, T.width, tuple(tiles)))
        assert rep == TilingReport(False, violations)

    def test_moved_red_domino_reports_in_column_order(self, f434):
        # the red domino of rows 2,3 moved from column 1 to the yellow pair
        # of column 0: a head without its pair and a pair without its head
        # in one row pair, reported by column
        T = tiling_of_orbit(f434, five_orbit(f434))
        moved = {("red", 2, 1, 1), ("yellow", 2, 0, 1), ("yellow", 3, 0, 1)}
        tiles = [t for t in T.tiles if t not in moved] + [
            Tile("red", 2, 0), Tile("yellow", 2, 1), Tile("yellow", 3, 1),
        ]
        rep = validate_tiling(f434.alpha, AlphaTiling(T.alpha, 5, tuple(tiles)))
        assert rep.violations == (
            "red domino on rows 1,2 column 4 without the yellow pair in column 0",
            "red domino on rows 2,3 column 0 without the yellow pair in column 4",
            "rows 2,3 column 1 are both yellow but no red domino sits in column 2",
        )

    def test_black_tile_across_the_seam_with_only_red_between(self):
        # row 1 holds one black tile on columns 2, 0 and a red cell: one
        # token once the seam is joined, so nothing to alternate with
        alpha = Composition((3, 2))
        T = AlphaTiling(
            alpha,
            3,
            (
                Tile("black", 1, 2, 2),
                Tile("red", 1, 1),
                Tile("black", 2, 0, 1),
                Tile("yellow", 2, 2),
            ),
        )
        assert validate_tiling(alpha, T).violations == (
            "row 1: a black tile has no yellow tile to alternate with",
            "red domino on rows 1,2 column 1 without the yellow pair in column 2",
        )

    def test_wrong_black_span(self):
        alpha = Composition((2, 2))
        T = AlphaTiling(
            alpha,
            2,
            (
                Tile("black", 1, 0, 2),  # span must be 1 for alpha_1 = 2
                Tile("yellow", 2, 0),
                Tile("yellow", 2, 1),
            ),
        )
        rep = validate_tiling(alpha, T)
        assert not rep.valid
        assert any("span" in v for v in rep.violations)

    def test_coverage_violations_located(self):
        alpha = Composition((2, 2))
        T = AlphaTiling(alpha, 2, (Tile("yellow", 1, 0),))
        rep = validate_tiling(alpha, T)
        assert not rep.valid
        assert any("uncovered" in v for v in rep.violations)

    def test_alternation_violation(self):
        # two yellows in a row that also carries a black tile
        alpha = Composition((3, 2))
        T = AlphaTiling(
            alpha,
            4,
            (
                Tile("black", 1, 0, 2),
                Tile("yellow", 1, 2),
                Tile("yellow", 1, 3),
                Tile("black", 2, 0, 1),
                Tile("yellow", 2, 1),
                Tile("black", 2, 2, 1),
                Tile("yellow", 2, 3),
            ),
        )
        rep = validate_tiling(alpha, T)
        assert not rep.valid
        assert any("alternate" in v for v in rep.violations)


class TestAgainstOracle:
    """The row-at-a-time builder and validator against the cell-by-cell
    ones of tests/oracle.py."""

    def test_builder_and_painter_on_every_orbit_with_n_at_most_8(self):
        # painted as built and rotated by one, so black tiles cross the seam
        for alpha in all_fence_compositions(8):
            F = build_fence(alpha)
            for o in antichain_orbits(F):
                T = tiling_of_orbit(F, o)
                assert T == oracle.tiling_of_orbit(F, o), (alpha, o)
                for U in (T, T.rotated(1)):
                    assert _paint(U) == oracle.paint(U), (alpha, o)

    def test_builder_past_one_word(self):
        F = build_fence((33, 33))  # n = 65: lanes of nine bytes
        for o in antichain_orbits(F):
            assert tiling_of_orbit(F, o) == oracle.tiling_of_orbit(F, o), o

    def test_builder_across_lane_chunks(self, monkeypatch):
        # three bytes of masks per chunk: every orbit of (4,3,4) (two-byte
        # lanes) is packed into several ints
        monkeypatch.setattr(fence_module, "LANE_CHUNK_BYTES", 3)
        F = build_fence((4, 3, 4))
        for o in antichain_orbits(F):
            assert tiling_of_orbit(F, o) == oracle.tiling_of_orbit(F, o), o

    def test_tiles_compare_as_plain_tuples(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        assert T.tiles[0] == ("yellow", 1, 0, 1)
        assert repr(T.tiles[0]) == "Tile(kind='yellow', row=1, col=0, span=1)"
        with pytest.raises(AttributeError):
            T.tiles[0].col = 2

    def test_each_tiling_is_validated_once(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        assert validate_tiling(f434.alpha, T) is T.report
        assert validate_tiling((4, 3, 4), T) is T.report
        other = validate_tiling((2, 2, 2), T)
        assert other.violations[0] == "tiling alpha (4,3,4) differs from (2,2,2)"
        assert other == oracle.validate_tiling((2, 2, 2), T)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_validator_on_random_mutations(self, data):
        F, _, _, mutated = draw_mutated_tiling(data)
        want = oracle.validate_tiling(F.alpha, mutated)
        assert validate_tiling(F.alpha, mutated) == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_readers_raise_exactly_on_invalid_tilings(self, data):
        # on the same mutations every reader raises TilingError exactly when
        # the oracle reports a violation.  A valid tiling whose columns are
        # an orbit reads as that orbit's own tiling; one whose columns are
        # not is read cell by cell, and orbit_of_tiling raises FenceError
        F, _, _, U = draw_mutated_tiling(data)
        readers = (
            partial(orbit_of_tiling, F),
            partial(orbit_stats_from_tiling, F),
            tile_counts,
            render_tiling,
            partial(render_tiling, format="svg"),
            AlphaTiling.cell_grid,
            AlphaTiling.canonical_columns,
        )
        if not oracle.validate_tiling(F.alpha, U).valid:
            for read in readers:
                with pytest.raises(TilingError, match="^invalid tiling: "):
                    read(U)
            return
        masks = decoded_masks(F, U)
        if oracle.is_orbit(F, ANTICHAIN, masks):
            R = tiling_of_orbit(F, Orbit(ANTICHAIN, tuple(masks)))
            assert Counter(R.tiles) == Counter(U.tiles)
            for read in readers[2:]:
                assert read(U) == read(R)
            o = orbit_of_tiling(F, U)
            assert o == orbit_of(F, ElementSet(masks[0], ANTICHAIN))
            p = next(p for p in orbit_profiles(F) if p.orbit == o)
            assert orbit_stats_from_tiling(F, U) == OrbitStatistics(
                p.size, p.antichain_counts, p.ideal_counts, p.chi, p.chihat
            )
        else:
            with pytest.raises(FenceError):
                orbit_of_tiling(F, U)
            grid = oracle.paint(U)[0]
            assert U.cell_grid() == grid == parse_ascii(render_tiling(U))
            ET.fromstring(render_tiling(U, "svg"))
            stats = orbit_stats_from_tiling(F, U)
            assert stats.antichain_counts == tuple(
                sum(m >> k & 1 for m in masks) for k in range(F.n)
            )
            assert tile_counts(U).black == tuple(
                sum(t[:2] == ("black", i) for t in U.tiles) for i in range(1, F.s + 1)
            )


def decoded_masks(F, T):
    """Each column's antichain, read cell by cell: a red domino with head
    row i holds s_i, and the j-th cell of a black tile in row i holds the
    j-th smallest unshared element of segment i."""
    masks = [0] * T.width
    for t in T.tiles:
        if t.kind == "red":
            masks[t.col] |= 1 << (F.shared_element(t.row) - 1)
        elif t.kind == "black":
            for j, (_, c) in enumerate(oracle.tile_cells(t, T.width), start=1):
                masks[c] |= 1 << (F.unshared_element(t.row, j) - 1)
    return masks


def draw_mutated_tiling(data):
    """(F, orbit, its tiling, the tiling mutated) for a fence with n <= 9:
    one to three mutations of the tiling's tiles: delete, duplicate, shift
    a column, change the kind (unknown kinds too), change the span, move
    the row (out of range included), or trade a red domino for the two
    yellow cells it covers and back, which keeps the cover exact and so
    reaches the alternation and red rules."""
    alpha = data.draw(st.sampled_from(all_fence_compositions(9)))
    F = build_fence(alpha)
    o = data.draw(st.sampled_from(antichain_orbits(F)))
    T = tiling_of_orbit(F, o)
    w, s = T.width, F.s
    tiles = list(T.tiles)
    for _ in range(data.draw(st.integers(1, 3))):
        if not tiles:
            break
        k = data.draw(st.integers(0, len(tiles) - 1))
        kind, row, col, span = tiles[k]
        op = data.draw(
            st.sampled_from(
                ["delete", "duplicate", "shift", "kind", "span", "row", "trade"]
            )
        )
        below = Tile("yellow", row + 1, col)
        if op == "trade" and kind == "red":
            tiles[k : k + 1] = [Tile("yellow", row, col), below]
        elif op == "trade" and kind == "yellow" and below in tiles:
            tiles.remove(below)
            tiles[tiles.index((kind, row, col, span))] = Tile("red", row, col)
        elif op == "delete":
            del tiles[k]
        elif op == "duplicate":
            tiles.insert(data.draw(st.integers(0, len(tiles))), tiles[k])
        elif op == "shift":
            cols = st.one_of(st.integers(0, w - 1), st.integers(-2, w + 2))
            tiles[k] = Tile(kind, row, data.draw(cols), span)
        elif op == "kind":
            kinds = st.sampled_from(["yellow", "black", "red", "blue", ""])
            tiles[k] = Tile(data.draw(kinds), row, col, span)
        elif op == "span":
            tiles[k] = Tile(kind, row, col, data.draw(st.integers(0, 5)))
        elif op == "row":
            tiles[k] = Tile(kind, data.draw(st.integers(-1, s + 1)), col, span)
    return F, o, T, AlphaTiling(T.alpha, w, tuple(tiles))


def orbit_one(F):
    """Orbit 1 of (4,3,4), of 17 members, and its tiling."""
    o = antichain_orbits(F)[1]
    assert o.size == 17
    return o, tiling_of_orbit(F, o)


class TestReadersCheckTheTiling:
    """Every public function that reads a tiling checks it once, and a
    decoded orbit is checked as an orbit."""

    def test_doubled_tiling_is_valid_but_repeats_a_member(self, f434):
        # the 17 columns twice over: every condition on the tiling holds,
        # and the decoded columns step one to the next, but repeat
        _, T = orbit_one(f434)
        copy = tuple(Tile(k, row, col + 17, span) for k, row, col, span in T.tiles)
        doubled = AlphaTiling(T.alpha, 34, T.tiles + copy)
        assert validate_tiling(f434.alpha, doubled).valid
        with pytest.raises(FenceError, match="^the orbit repeats a member$"):
            orbit_of_tiling(f434, doubled)

    def test_valid_tiling_of_no_orbit(self, f22):
        # orbit 0 of (2,2), YBR over YB, with its black tile in row 1 made
        # yellow: that row has no black tile to alternate with and the red
        # domino keeps its yellow pair, so the tiling is valid, but its
        # columns {}, {x3}, {x2} are not a rowmotion orbit
        T = tiling_of_orbit(f22, antichain_orbits(f22)[0])
        yellow = {("black", 1, 1, 1): Tile("yellow", 1, 1)}
        U = AlphaTiling(T.alpha, 3, tuple(yellow.get(t, t) for t in T.tiles))
        assert validate_tiling(f22.alpha, U).valid
        assert decoded_masks(f22, U) == [0, 0b100, 0b010]
        with pytest.raises(FenceError, match="^the masks are not a rowmotion orbit"):
            orbit_of_tiling(f22, U)

    def test_stats_of_another_composition_raise(self, f434, f222):
        _, T = orbit_one(f434)
        with pytest.raises(
            FenceError, match="^tiling composition does not match the fence$"
        ):
            orbit_stats_from_tiling(f222, T)

    def test_stats_of_a_duplicated_tile_raise(self, f434):
        _, T = orbit_one(f434)
        duplicated = AlphaTiling(T.alpha, T.width, T.tiles + T.tiles[:1])
        with pytest.raises(TilingError, match="^invalid tiling: cell .* 2 times"):
            orbit_stats_from_tiling(f434, duplicated)

    @pytest.mark.parametrize(
        "tile, violation",
        [
            (Tile("black", 9, 0, 3), "black tile row 9 outside 1..3"),
            (Tile("green", 1, 0), "unknown tile kind 'green' at (1,0)"),
        ],
    )
    def test_readers_name_a_bad_tile(self, f434, tile, violation):
        _, T = orbit_one(f434)
        bad = AlphaTiling(T.alpha, T.width, T.tiles[1:] + (tile,))
        for read in (
            bad.cell_grid,
            partial(render_tiling, bad),
            partial(render_tiling, bad, "svg"),
            partial(tile_counts, bad),
        ):
            with pytest.raises(TilingError, match=re.escape(violation)):
                read()


class TestRendering:
    def test_ascii_five_column(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        assert render_tiling(T, "ascii") == (
            "|Y|B B B|R|\n"
            "|Y|R|B B|R|\n"
            "|Y|R|B B B|\n"
        )

    def test_ascii_marks_wrap_seam(self):
        F = build_fence((5, 4))
        (o,) = antichain_orbits(F)
        T = tiling_of_orbit(F, o)
        assert "~" not in render_tiling(T, "ascii")  # canonical cut is clean
        rotated = T.rotated(2)  # now a black tile straddles the seam
        text = render_tiling(rotated, "ascii")
        assert "~" in text
        assert parse_ascii(text) == rotated.cell_grid()

    def test_ascii_parse_back(self, f434):
        for o in antichain_orbits(f434):
            T = tiling_of_orbit(f434, o)
            assert parse_ascii(render_tiling(T, "ascii")) == T.cell_grid()

    def test_svg_is_valid_xml(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        doc = render_tiling(T, "svg")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_svg_agrees_with_ascii_cell_by_cell(self):
        fill_to_code = {v: k[0].upper() for k, v in SVG_PALETTE.items()}
        for alpha in [(4, 3, 4), (5, 4), (2, 2)]:
            F = build_fence(alpha)
            for o in antichain_orbits(F):
                T = tiling_of_orbit(F, o)
                root = ET.fromstring(render_tiling(T, "svg"))
                grid = [["?"] * T.width for _ in range(T.rows)]
                for rect in root.iter("{http://www.w3.org/2000/svg}rect"):
                    fill = rect.attrib["fill"]
                    if fill not in fill_to_code:
                        continue
                    x = int(rect.attrib["x"]) // _SVG_CELL
                    y = int(rect.attrib["y"]) // _SVG_CELL
                    wcells = int(rect.attrib["width"]) // _SVG_CELL
                    hcells = int(rect.attrib["height"]) // _SVG_CELL
                    for dy in range(hcells):
                        for dx in range(wcells):
                            grid[y + dy][x + dx] = fill_to_code[fill]
                assert grid == [
                    [{"Y": "Y", "B": "B", "R": "R"}[c] for c in row]
                    for row in parse_ascii(render_tiling(T, "ascii"))
                ]

    def test_deterministic_bytes(self, f434):
        T = tiling_of_orbit(f434, five_orbit(f434))
        assert render_tiling(T, "svg") == render_tiling(T, "svg")
        assert render_tiling(T, "ascii") == render_tiling(T, "ascii")


class TestCoverStepConsistency:
    def test_unshared_cover_steps(self):
        # if unshared y covers unshared x then x in A iff y in rho(A),
        # for every antichain of every fence with n <= 12
        from fences.rowmotion import _rho_mask

        for alpha in all_fence_compositions(12):
            F = build_fence(alpha)
            pairs = [
                (a, b)
                for a, b in F.cover_pairs()
                if not F.is_shared(a) and not F.is_shared(b)
            ]
            if not pairs:
                continue
            for m in F.antichain_masks():
                image = _rho_mask(F, m)
                for a, b in pairs:
                    assert bool(m >> (a - 1) & 1) == bool(
                        image >> (b - 1) & 1
                    ), (alpha, a, b)
