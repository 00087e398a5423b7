"""Property tests on random fences (n <= 14) against the brute-force oracle.

Each example draws a composition with first and last part >= 2 and
sum(alpha) <= 15, then checks a mask-level fast path against either the
oracle in tests/oracle.py or the tiling it replaces: the ideal and
antichain families, closures, extremal elements and role predicates,
orbits, base graphs, and the tile counts and ideal counts that the
tiling lemma reads off an orbit's antichain counts.  Every orbit
round-trips through its tiling, and ideal toggles along sampled linear
extensions equal the oracle's rowmotion.  The integer statistic classifier is
checked against the oracle's Fraction classifier on random rational
statistics with n <= 12, and the bit-plane counter against a plain count.
The ideal-count recurrence, which the family cap is checked against, is
compared with enumeration, and the cap boundary with every family
accessor.  On self-dual fences the ideal complement is an involution
conjugating rowmotion to its inverse.  Three fixed fences with n >= 64
check families and orbits past one machine word.
"""

from fractions import Fraction

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fences import (
    ANTICHAIN,
    IDEAL,
    UPPER,
    ElementSet,
    FamilyCapError,
    Orbit,
    TilingError,
    antichain_orbits,
    base_graph,
    build_fence,
    check_homomesy,
    count_ideals,
    evaluate,
    ideal_complement,
    ideal_orbits,
    orbit_of_tiling,
    rowmotion,
    rowmotion_inverse,
    tile_counts,
    tiling_of_orbit,
)
from fences.harness import orbit_profiles
from fences.stats import Atom, StatExpr, orbit_element_counts, tiling_lemma
from fences.toggles import ToggleWord, compile_word, sample_linear_extensions

MAX_N = 14


@st.composite
def compositions(draw, max_n=MAX_N):
    """A total sum(alpha) <= max_n + 1 cut into parts, with no cut next to
    either end so that the first and last parts are >= 2."""
    total = draw(st.integers(min_value=2, max_value=max_n + 1))
    cuts = []
    if total >= 4:
        cuts = sorted(draw(st.sets(st.integers(min_value=2, max_value=total - 2))))
    bounds = [0, *cuts, total]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


PROPERTY = settings(max_examples=100, deadline=None)


def _lemma_counts(F, o):
    """The tile counts and ideal counts the tiling lemma gives an orbit."""
    return tiling_lemma(F).counts(orbit_element_counts(o.masks, F.n), o.size)


@PROPERTY
@given(compositions())
def test_mask_tile_counts_match_built_tiling(alpha):
    F = build_fence(alpha)
    for o in antichain_orbits(F):
        assert _lemma_counts(F, o)[0] == tile_counts(tiling_of_orbit(F, o))


@PROPERTY
@given(compositions())
def test_profiles_match_tilings_and_oracle_ideals(alpha):
    # the profile's tile counts against the built tiling, and its ideal
    # counts against the oracle's down-closures of the orbit's antichains
    F = build_fence(alpha)
    for p in orbit_profiles(F):
        assert p.counts == tile_counts(tiling_of_orbit(F, p.orbit))
        ideals = [oracle.brute_down_closure(F, A.elements) for A in p.orbit.reps]
        want = tuple(sum(k in I for I in ideals) for k in range(1, F.n + 1))
        assert p.ideal_counts == want
        assert p.chihat == sum(map(len, ideals))


@PROPERTY
@given(compositions())
def test_orbit_tiling_roundtrip(alpha):
    F = build_fence(alpha)
    for o in antichain_orbits(F):
        assert orbit_of_tiling(F, tiling_of_orbit(F, o)) == o


@PROPERTY
@given(compositions(), st.integers(0, 2**32))
def test_linear_extension_words_are_oracle_rowmotion(alpha, seed):
    # toggling the ideals along a linear extension, maximal elements first,
    # is rowmotion: compare with the oracle's three-map definition
    F = build_fence(alpha)
    masks = F.ideal_masks()
    rho_hat = {m: _mask(oracle.brute_rho_hat(F, _members(m))) for m in masks}
    for ext in sample_linear_extensions(F, 3, seed):
        step = compile_word(F, ToggleWord(IDEAL, ext))
        assert all(step(m) == want for m, want in rho_hat.items()), ext


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
        _lemma_counts(F, bogus)
    with pytest.raises(TilingError, match="row 1 is entirely black"):
        tiling_of_orbit(F, bogus)


COEFFS = [Fraction(c) for c in (1, -1, 2, -3, "1/2", "-3/4", "5/3", "7/6")]


@st.composite
def statistics(draw, n):
    """A rational statistic on antichains or ideals of an n-element fence:
    one to four weighted indicators or cardinalities and a constant."""
    family = draw(st.sampled_from([ANTICHAIN, IDEAL]))
    kind = "chi" if family == ANTICHAIN else "chihat"
    elements = st.one_of(st.none(), st.integers(min_value=1, max_value=n))
    terms = draw(
        st.lists(st.tuples(st.sampled_from(COEFFS), elements), min_size=1, max_size=4)
    )
    constant = draw(st.sampled_from([Fraction(0), *COEFFS]))
    expr = StatExpr(tuple((c, Atom(kind, x)) for c, x in terms), constant)
    return family, expr


@PROPERTY
@given(st.data())
def test_integer_classifier_matches_fraction_reference(data):
    F = build_fence(data.draw(compositions(max_n=12)))
    family, expr = data.draw(statistics(F.n))
    report = check_homomesy(F, family, expr)
    orbits = antichain_orbits(F) if family == ANTICHAIN else ideal_orbits(F)
    sums = [(o.size, sum(evaluate(F, expr, S) for S in o.reps)) for o in orbits]
    kind, constant, per_orbit = oracle.classify_orbit_sums(sums)
    assert report.kind == kind
    assert report.constant == constant
    assert report.per_orbit == per_orbit


def _mask(members):
    return sum(1 << (k - 1) for k in members)


def _members(m):
    return frozenset(k for k in range(1, m.bit_length() + 1) if m >> (k - 1) & 1)


@PROPERTY
@given(compositions())
def test_families_match_subset_scan(alpha):
    F = build_fence(alpha)
    assert F.ideal_masks() == tuple(sorted(map(_mask, oracle.brute_ideals(F))))
    assert F.antichain_masks() == tuple(
        sorted(map(_mask, oracle.brute_antichains(F)))
    )


@PROPERTY
@given(st.data())
def test_closures_and_extremal_elements_match_oracle(data):
    F = build_fence(data.draw(compositions()))
    full = F.full_mask
    for m in data.draw(st.lists(st.integers(0, full), min_size=1, max_size=20)):
        S = _members(m)
        down = oracle.brute_down_closure(F, S)
        up = oracle.brute_up_closure(F, S)
        assert F._down_closure_mask(m) == _mask(down)
        assert F._up_closure_mask(m) == _mask(up)
        assert F.is_ideal_mask(m) == (down == S)
        assert F.is_upper_mask(m) == (up == S)
        assert F.is_antichain_mask(m) == (oracle.brute_maximal(F, S) == S)
    for m in F.ideal_masks():
        I = _members(m)
        assert F._maximal_mask(m) == _mask(oracle.brute_maximal(F, I))
        U = _members(full ^ m)
        assert F._minimal_mask(full ^ m) == _mask(oracle.brute_minimal(F, U))


@PROPERTY
@given(
    st.integers(1, 70).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=200)
        )
    )
)
def test_orbit_element_counts_match_plain_count(case):
    n, masks = case
    want = tuple(sum(m >> k & 1 for m in masks) for k in range(n))
    assert orbit_element_counts(masks, n) == want


def test_orbit_element_counts_of_no_masks():
    assert orbit_element_counts([], 4) == (0, 0, 0, 0)
    assert orbit_element_counts([0, 0], 3) == (0, 0, 0)


@PROPERTY
@given(compositions())
def test_base_graph_matches_every_member_scan(alpha):
    F = build_fence(alpha)
    for family in (ANTICHAIN, IDEAL):
        assert set(base_graph(F, family).edges) == oracle.brute_base_graph(F, family)


@pytest.mark.parametrize(
    "alpha,ideals,orbits",
    [((65,), 65, 1), ((33, 33), 1090, 33), ((40, 1, 30), 1270, 2)],
)
def test_fences_wider_than_64_bits(alpha, ideals, orbits):
    # n >= 64: masks are Python ints, so no fixed-width path can apply
    F = build_fence(alpha)
    assert F.n >= 64
    imasks = F.ideal_masks()
    assert len(imasks) == len(set(imasks)) == ideals == count_ideals(alpha)
    sets = [_members(m) for m in imasks]
    assert all(oracle.brute_down_closure(F, I) == I for I in sets if I)
    assert F.antichain_masks() == tuple(
        sorted(_mask(oracle.brute_maximal(F, I)) for I in sets)
    )
    for orbs, brute_step in (
        (antichain_orbits(F), oracle.brute_rho),
        (ideal_orbits(F), oracle.brute_rho_hat),
    ):
        assert len(orbs) == orbits
        assert sum(o.size for o in orbs) == ideals
        for o in orbs:
            members = [_members(m) for m in o.masks]
            for i, S in enumerate(members):
                assert brute_step(F, S) == members[(i + 1) % o.size], (alpha, o)


@PROPERTY
@given(compositions())
def test_recurrence_counts_the_enumerated_ideals(alpha):
    F = build_fence(alpha)
    assert count_ideals(alpha) == len(F.ideal_masks()) == len(F.antichain_masks())


# every accessor that enumerates a family, directly or through the ideals
FAMILY_ACCESSORS = {
    "ideal_masks": lambda F: F.ideal_masks(),
    "antichain_masks": lambda F: F.antichain_masks(),
    "upper_masks": lambda F: F.family_masks(UPPER),
    "antichain_orbits": antichain_orbits,
    "ideal_orbits": ideal_orbits,
    "orbit_profiles": orbit_profiles,
    "antichain_base_graph": lambda F: base_graph(F, ANTICHAIN),
    "ideal_base_graph": lambda F: base_graph(F, IDEAL),
}


@pytest.mark.parametrize("accessor", FAMILY_ACCESSORS.values(), ids=FAMILY_ACCESSORS)
@PROPERTY
@given(compositions())
def test_cap_boundary_is_the_family_size(accessor, alpha):
    size = count_ideals(alpha)
    accessor(build_fence(alpha, max_family=size))
    with pytest.raises(FamilyCapError):
        accessor(build_fence(alpha, max_family=size - 1))


@st.composite
def self_dual_compositions(draw):
    """Palindromes with an odd number of parts, (a_1..a_k, m, a_k..a_1),
    and n <= 14; these are exactly the self-dual fences."""
    left = draw(st.lists(st.integers(min_value=1, max_value=2), max_size=3))
    if left:
        left[0] += 1  # the end parts must be >= 2
    mid = draw(st.integers(min_value=1 if left else 2, max_value=15 - 2 * sum(left)))
    return (*left, mid, *left[::-1])


@PROPERTY
@given(self_dual_compositions())
def test_ideal_complement_conjugates_rowmotion_to_its_inverse(alpha):
    F = build_fence(alpha)
    F.index_reversal()  # raises unless the fence is self-dual
    for m in F.ideal_masks():
        I = ElementSet(m, IDEAL)
        c = ideal_complement(F, I)
        assert ideal_complement(F, c) == I
        assert ideal_complement(F, rowmotion(F, I)) == rowmotion_inverse(F, c)
