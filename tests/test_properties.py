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
statistics with n <= 12, and on the oracle's own brute-force orbits with
n <= 9, the column classifier over a denominator > 1 likewise, the
transfer check of one such word against check_homomesy, and the count
table of a list of orbits against a plain count.  Two Coxeter
words with one orientation of the base graph (n <= 8) give one orbit
partition, the oracle's, and conjugating one ideal word along its
conjugation path to another gives the other's Coxeter element.
The ideal-count recurrence, which the family cap is checked against, is
compared with enumeration, and the cap boundary with every family
accessor.  On self-dual fences the ideal complement is an involution
conjugating rowmotion to its inverse.  Three fixed fences with n >= 64
check families and orbits past one machine word.  Every public function
that takes an ElementSet (n <= 8) raises exactly when the set does not
fit the fence or is not a member of a family the function accepts, and
every one that takes an Orbit (n <= 7) exactly when its masks are not an
orbit of its family.
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
    FenceError,
    Orbit,
    RoleError,
    TilingError,
    antichain_orbits,
    apply_word,
    base_graph,
    build_fence,
    check_homomesy,
    count_ideals,
    evaluate,
    ideal_complement,
    ideal_orbits,
    orbit_of,
    orbit_of_tiling,
    orbit_sum,
    parse_stat,
    rowmotion,
    rowmotion_inverse,
    tile_counts,
    tiling_of_orbit,
    toggle,
)
from fences.harness import orbit_profiles, verify_base_graph
from fences.rowmotion import require_orbit
from fences.stats import (
    PACKED_COUNT_MAX_N,
    Atom,
    StatExpr,
    classify_orbit_sums,
    orbit_element_counts,
)
from fences.tiling import tiling_lemma
from fences.toggles import (
    ToggleWord,
    _commutation_edges,
    compile_word,
    conjugate_word,
    conjugation_path,
    orientation,
    sample_linear_extensions,
    transfer_check,
    word_orbits,
)

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


def _counts(F, masks):
    """The element counts of one orbit: the one row of its count table."""
    (row,) = zip(*orbit_element_counts(F, [masks]))
    return row


def _lemma_counts(F, o):
    """The tile counts and ideal counts the tiling lemma gives an orbit,
    read off its one-orbit count table."""
    tiles, ideals = tiling_lemma(F, [o.size], orbit_element_counts(F, [o.masks]))
    return tiles[0], ideals[0]


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


def test_all_black_row_raises_in_the_lemma():
    # one column holding an unshared element of segment 1: row 1 is black
    # in every column, which no real orbit produces; tiling_of_orbit
    # rejects it before building, as it is not an orbit
    F = build_fence((4, 3, 4))
    bogus = Orbit(ANTICHAIN, (1 << (F.unshared_element(1, 1) - 1),))
    with pytest.raises(TilingError, match="row 1 is entirely black"):
        _lemma_counts(F, bogus)
    with pytest.raises(FenceError, match="not a rowmotion orbit of antichains"):
        tiling_of_orbit(F, bogus)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entry_points_check_their_orbit(data):
    # a real orbit from any member, or one with a member replaced (out of
    # the fence, negative and 1 << 70 included), cut short or repeated, or
    # a few random masks: rowmotion.require_orbit, orbit_sum and tiling_of_orbit
    # raise FenceError/RoleError exactly when the oracle says the tuple is
    # not an orbit of its family, and otherwise answer
    F = build_fence(data.draw(compositions(max_n=7)))
    family = data.draw(st.sampled_from([ANTICHAIN, IDEAL, UPPER]))
    orbits = ideal_orbits(F) if family == IDEAL else antichain_orbits(F)
    real = data.draw(st.sampled_from(orbits))
    k = data.draw(st.integers(0, real.size - 1))
    masks = list(real.masks[k:] + real.masks[:k])
    wide = st.one_of(st.integers(-1, (1 << (F.n + 1)) - 1), st.just(1 << 70))
    how = data.draw(st.sampled_from(["real", "replace", "cut", "repeat", "random"]))
    if how == "replace":
        masks[data.draw(st.integers(0, len(masks) - 1))] = data.draw(wide)
    elif how == "cut":
        masks = masks[: data.draw(st.integers(0, len(masks) - 1))]
    elif how == "repeat":
        masks = masks * 2
    elif how == "random":
        masks = data.draw(st.lists(wide, max_size=4))
    orbit = Orbit(family, tuple(masks))
    stat = parse_stat("chihat" if family == IDEAL else "chi")
    ok = oracle.is_orbit(F, family, masks)
    calls = {
        "require_orbit": (ok, lambda: require_orbit(F, orbit, family)),
        "orbit_sum": (ok, lambda: orbit_sum(F, stat, orbit)),
        "tiling_of_orbit": (
            ok and family == ANTICHAIN, lambda: tiling_of_orbit(F, orbit)
        ),
    }
    for name, (accepts, call) in calls.items():
        if not accepts:
            with pytest.raises(FenceError):
                call()
            continue
        answer = call()
        if name == "orbit_sum":
            assert answer == sum(m.bit_count() for m in masks)
        elif name == "tiling_of_orbit":
            assert answer.width == len(masks)


COEFFS = [Fraction(c) for c in (1, -1, 2, -3, "1/2", "-3/4", "5/3", "7/6")]


@st.composite
def statistics(draw, n, families=(ANTICHAIN, IDEAL)):
    """A rational statistic on one of the families of an n-element fence:
    one to four weighted indicators or cardinalities and a constant."""
    family = draw(st.sampled_from(families))
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
    # the column classifier alone, on the same sums over a denominator > 1
    d = data.draw(st.integers(min_value=2, max_value=7))
    sizes = [size for size, _ in report.sums]
    column = [d * sm for _, sm in report.sums]
    again = classify_orbit_sums(sizes, column, d * report.denom)
    assert (again.kind, again.constant, again.per_orbit) == (kind, constant, per_orbit)


@PROPERTY
@given(st.data())
def test_check_homomesy_matches_brute_force_orbits(data):
    # check_homomesy counts only its statistic's columns and reads the
    # cardinality off bit counts; the oracle sums the statistic over its own
    # orbits of frozensets, in its own order, so the per-orbit rows are
    # compared as a multiset
    F = build_fence(data.draw(compositions(max_n=9)))
    family, expr = data.draw(statistics(F.n))
    if family == ANTICHAIN:
        brute = oracle.brute_orbits(F, oracle.brute_antichains(F), oracle.brute_rho)
    else:
        brute = oracle.brute_orbits(F, oracle.brute_ideals(F), oracle.brute_rho_hat)

    def value(S):
        return expr.constant + sum(
            c * (len(S) if a.element is None else a.element in S) for c, a in expr.terms
        )

    sums = [(len(o), sum(map(value, o))) for o in brute]
    kind, constant, per_orbit = oracle.classify_orbit_sums(sums)
    report = check_homomesy(F, family, expr)
    assert (report.kind, report.constant) == (kind, constant)
    assert sorted(report.per_orbit) == sorted(per_orbit)


@PROPERTY
@given(st.data())
def test_transfer_on_a_rowmotion_word_is_check_homomesy(data):
    # toggling along a linear extension is ideal rowmotion, so the transfer
    # check of one such word against itself classifies as check_homomesy
    F = build_fence(data.draw(compositions(max_n=12)))
    _, expr = data.draw(statistics(F.n, families=(IDEAL,)))
    (ext,) = sample_linear_extensions(F, 1, data.draw(st.integers(0, 2**32)))
    w = ToggleWord(IDEAL, ext)
    (result,) = transfer_check(F, IDEAL, w, w, expr).results
    assert result.report_a == result.report_b == check_homomesy(F, IDEAL, expr)


def _cycles(orbits):
    """Orbits as a set of cycles of frozensets, each cycle rotated to start
    at its least member."""
    out = set()
    for cycle in orbits:
        i = min(range(len(cycle)), key=lambda j: sorted(cycle[j]))
        out.add(tuple(cycle[i:] + cycle[:i]))
    return out


@PROPERTY
@given(st.data())
def test_words_with_one_orientation_have_one_orbit_partition(data):
    # swapping adjacent toggles that share no base-graph edge keeps the
    # orientation, so both words are one Coxeter element with one partition
    F = build_fence(data.draw(compositions(max_n=8)))
    family = data.draw(st.sampled_from([ANTICHAIN, IDEAL]))
    G = base_graph(F, family)
    order = data.draw(st.permutations(range(1, F.n + 1)))
    swapped = list(order)
    for i in data.draw(st.lists(st.integers(0, max(F.n - 2, 0)), max_size=3 * F.n)):
        pair = swapped[i : i + 2]
        if len(pair) == 2 and tuple(sorted(pair)) not in G.edges:
            swapped[i : i + 2] = pair[::-1]
    word, other = ToggleWord(family, order), ToggleWord(family, swapped)
    assert orientation(word, G) == orientation(other, G)
    orbits = word_orbits(F, word)
    assert word_orbits(F, other) == orbits

    def step(F, members):
        for x in reversed(order):
            members = oracle.brute_toggle(F, family, x, members)
        return members

    brute = oracle.brute_ideals if family == IDEAL else oracle.brute_antichains
    want = oracle.brute_orbits(F, brute(F), step)
    got = [[frozenset(S.elements) for S in o.reps] for o in orbits]
    assert _cycles(got) == _cycles(want)


@PROPERTY
@given(st.data())
def test_conjugation_path_carries_the_coxeter_element(data):
    # conjugating one word along the path to another gives a word for the
    # other's Coxeter element: the same step on every ideal
    F = build_fence(data.draw(compositions(max_n=8)))
    G = base_graph(F, IDEAL)
    wa, wb = (
        ToggleWord(IDEAL, data.draw(st.permutations(range(1, F.n + 1))))
        for _ in range(2)
    )
    word = wa
    for x in conjugation_path(wa, wb, G):
        word = conjugate_word(word, x, G)
    step, want = compile_word(F, word), compile_word(F, wb)
    assert all(step(m) == want(m) for m in F.ideal_masks())


def _mask(members):
    return sum(1 << (k - 1) for k in members)


def _members(m):
    return frozenset(k for k in range(1, m.bit_length() + 1) if m >> (k - 1) & 1)


@st.composite
def long_part_compositions(draw):
    """Up to four parts of up to 30: fences made of long single chains."""
    parts = draw(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4))
    parts[0], parts[-1] = max(parts[0], 2), max(parts[-1], 2)
    return tuple(parts)


@PROPERTY
@given(st.one_of(compositions(), long_part_compositions()))
def test_span_is_each_element_with_those_comparable_to_it(alpha):
    F = build_fence(alpha)
    leq = oracle.leq_table(F)
    elements = range(1, F.n + 1)
    for k in elements:
        assert F.span[k - 1] == _mask(a for a in elements if leq[a][k] or leq[k][a])


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


def _entry_points(F, S, x):
    """Every public function that takes an ElementSet, called on S, as
    name -> (the roles it accepts, the call, the role of its answer, None
    for S's own).  Toggles, words and statistics act on S's own family,
    ideals when S is an upper set; x is the toggled element."""
    family = ANTICHAIN if S.role == ANTICHAIN else IDEAL
    word = ToggleWord(family, range(1, F.n + 1))
    stat = parse_stat("chi" if family == ANTICHAIN else "chihat")
    every, both, own = (ANTICHAIN, IDEAL, UPPER), (ANTICHAIN, IDEAL), None
    flipped = {IDEAL: UPPER, UPPER: IDEAL}.get(S.role)
    return {
        "set_from_mask": (every, lambda: F.set_from_mask(S.mask, S.role), own),
        "down_closure": ((ANTICHAIN,), lambda: F.down_closure(S), IDEAL),
        "up_closure": ((ANTICHAIN,), lambda: F.up_closure(S), UPPER),
        "maximal_elements": ((IDEAL,), lambda: F.maximal_elements(S), ANTICHAIN),
        "minimal_elements": ((UPPER,), lambda: F.minimal_elements(S), ANTICHAIN),
        "complement": ((IDEAL, UPPER), lambda: F.complement(S), flipped),
        "rowmotion": (both, lambda: rowmotion(F, S), own),
        "rowmotion_inverse": (both, lambda: rowmotion_inverse(F, S), own),
        "orbit_of": (both, lambda: orbit_of(F, S), own),
        "ideal_complement": ((IDEAL,), lambda: ideal_complement(F, S), IDEAL),
        "toggle": (both, lambda: toggle(F, family, x, S), own),
        "apply_word": (both, lambda: apply_word(F, word, S), own),
        "evaluate": (both, lambda: evaluate(F, stat, S), own),
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entry_points_check_their_element_set(data):
    # a mask below 1 << (n + 1) may carry a bit outside the fence; each
    # entry point raises exactly when S is not a member of a family it
    # accepts, by the oracle, and otherwise answers in the expected role.
    # ideal_complement also raises for every ideal of a fence that is not
    # self-dual.
    F = build_fence(data.draw(compositions(max_n=8)))
    ideals = set(map(_mask, oracle.brute_ideals(F)))
    members = {
        ANTICHAIN: set(map(_mask, oracle.brute_antichains(F))),
        IDEAL: ideals,
        UPPER: {F.full_mask ^ m for m in ideals},
    }
    role = data.draw(st.sampled_from(sorted(members)))
    m = data.draw(
        st.one_of(
            st.sampled_from(sorted(members[role])),
            st.integers(0, (1 << (F.n + 1)) - 1),
        )
    )
    S, x = ElementSet(m, role), data.draw(st.integers(1, F.n))
    self_dual = F.alpha.is_palindromic and F.s % 2 == 1
    for name, (roles, call, answer_role) in _entry_points(F, S, x).items():
        fails = role not in roles or m not in members[role]
        if fails or (name == "ideal_complement" and not self_dual):
            # a RoleError (a FenceError) when the tag is one it does not accept
            with pytest.raises(FenceError if role in roles else RoleError):
                call()
            continue
        answer = call()
        if isinstance(answer, Orbit):
            assert m in answer.masks, name
            answer = answer.representative
        if not isinstance(answer, ElementSet):  # evaluate: a cardinality
            assert answer == len(S), name
            continue
        want = answer_role or role
        assert answer.role == want and answer.mask in members[want], name


@PROPERTY
@given(
    st.one_of(
        st.sampled_from([8, 16, 24, 56, PACKED_COUNT_MAX_N, PACKED_COUNT_MAX_N + 1]),
        st.integers(1, 70),
    ).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40),
                max_size=12,
            ),
        )
    )
)
def test_orbit_element_counts_match_plain_count(case):
    # n = 8, 16, 24 and 64 fill their bytes to the top bit; PACKED_COUNT_MAX_N
    # is the last n counted through the byte table, the next in bit planes;
    # the orbit lists include the empty list and one-member orbits
    n, orbits = case
    want = tuple(tuple(sum(m >> k & 1 for m in ms) for ms in orbits) for k in range(n))
    assert orbit_element_counts(build_fence((n + 1,)), orbits) == want


def test_orbit_element_counts_of_no_masks():
    assert _counts(build_fence((5,)), []) == (0, 0, 0, 0)
    assert _counts(build_fence((4,)), [0, 0]) == (0, 0, 0)
    assert orbit_element_counts(build_fence((5,)), []) == ((),) * 4
    F = build_fence((PACKED_COUNT_MAX_N + 2,))  # the first n counted in planes
    assert _counts(F, [0, 0]) == (0,) * F.n
    assert orbit_element_counts(F, []) == ((),) * F.n


@PROPERTY
@given(compositions())
def test_base_graph_matches_every_member_scan(alpha):
    F = build_fence(alpha)
    for family in (ANTICHAIN, IDEAL):
        brute = oracle.brute_base_graph(F, family)
        assert set(base_graph(F, family).edges) == brute
        assert _commutation_edges(F, family) == brute


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
    "verify_base_graph": verify_base_graph,
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
