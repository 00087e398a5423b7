"""Property tests on random fences (n <= 14) against the brute-force oracle.

Each example draws a composition with first and last part >= 2 and
sum(alpha) <= 15, then checks a mask-level fast path against either the
oracle in tests/oracle.py or the tiling it replaces.
"""

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fences import (
    ANTICHAIN,
    ElementSet,
    Orbit,
    TilingError,
    antichain_orbits,
    build_fence,
    ideal_orbits,
    orbit_tile_counts,
    tile_counts,
    tiling_of_orbit,
)

MAX_N = 14


@st.composite
def compositions(draw):
    """A total sum(alpha) <= MAX_N + 1 cut into parts, with no cut next to
    either end so that the first and last parts are >= 2."""
    total = draw(st.integers(min_value=2, max_value=MAX_N + 1))
    cuts = []
    if total >= 4:
        cuts = sorted(draw(st.sets(st.integers(min_value=2, max_value=total - 2))))
    bounds = [0, *cuts, total]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


PROPERTY = settings(max_examples=100, deadline=None)


@PROPERTY
@given(compositions())
def test_mask_tile_counts_match_built_tiling(alpha):
    F = build_fence(alpha)
    for o in antichain_orbits(F):
        assert orbit_tile_counts(F, o.masks) == tile_counts(tiling_of_orbit(F, o))


@PROPERTY
@given(compositions())
def test_mask_backed_orbits_step_under_oracle_rowmotion(alpha):
    F = build_fence(alpha)
    for orbits, brute_step in (
        (antichain_orbits(F), oracle.brute_rho),
        (ideal_orbits(F), oracle.brute_rho_hat),
    ):
        for o in orbits:
            sets = [frozenset(S.elements) for S in o.reps]
            for i, S in enumerate(sets):
                assert brute_step(F, S) == sets[(i + 1) % o.size], (alpha, o)


@PROPERTY
@given(compositions())
def test_reps_roundtrip_through_masks(alpha):
    F = build_fence(alpha)
    for o in antichain_orbits(F) + ideal_orbits(F):
        reps = o.reps
        assert all(isinstance(S, ElementSet) and S.role == o.family for S in reps)
        assert tuple(S.mask for S in reps) == o.masks
        assert Orbit(o.family, tuple(S.mask for S in reps)) == o
        assert o.representative == reps[0]
        assert o.representative.mask == min(o.masks)


def test_all_black_row_raises_like_the_tiling():
    # one column holding an unshared element of segment 1: row 1 is black
    # in every column, which no real orbit produces
    F = build_fence((4, 3, 4))
    bogus = Orbit(ANTICHAIN, (1 << (F.unshared_element(1, 1) - 1),))
    with pytest.raises(TilingError, match="row 1 is entirely black"):
        orbit_tile_counts(F, bogus.masks)
    with pytest.raises(TilingError, match="row 1 is entirely black"):
        tiling_of_orbit(F, bogus)
