"""The lane-packed kernel against the brute-force oracle, member by member.

A family packed one member per lane (fences.fence.Lanes) is stepped by
one call of rowmotion, its inverse, or a toggle word; every lane must
equal what tests/oracle.py gives for that member alone.  Lanes are
ceil(n/8) bytes with no guard bit, so the compositions drawn favour
n = 8, 16 and 24, where a member fills its lane to the top bit, and two
pinned fences cross the 8-byte word: (40,25) with n = 64 and (41,25)
with n = 65, whose lanes are 9 bytes.
"""

import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fences import ANTICHAIN, IDEAL, build_fence, count_ideals, fence, harness
from fences.rowmotion import (
    _rho_hat_inv_mask,
    _rho_hat_mask,
    _rho_inv_mask,
    _rho_mask,
    antichain_orbits,
    ideal_orbits,
)
from fences.toggles import ToggleWord, base_graph, compile_word, word_orbits

MAX_FAMILY = 1500

PACKED_STEPS = [
    (ANTICHAIN, _rho_mask, oracle.brute_rho),
    (ANTICHAIN, _rho_inv_mask, oracle.brute_rho_inverse),
    (IDEAL, _rho_hat_mask, oracle.brute_rho_hat),
    (IDEAL, _rho_hat_inv_mask, oracle.brute_rho_hat_inverse),
]


@st.composite
def lane_edge_compositions(draw):
    """A composition of at most four parts whose n is 8, 16, 24 or any
    value up to 30, with a family small enough for the oracle."""
    n = draw(st.one_of(st.sampled_from([8, 16, 24]), st.integers(1, 30)))
    total = n + 1
    cuts = []
    if total >= 4:
        cuts = sorted(
            draw(st.sets(st.integers(min_value=2, max_value=total - 2), max_size=3))
        )
    bounds = [0, *cuts, total]
    alpha = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    assume(count_ideals(alpha) <= MAX_FAMILY)
    return alpha


def _members(m):
    return frozenset(k for k in range(1, m.bit_length() + 1) if m >> (k - 1) & 1)


def _mask(members):
    return sum(1 << (k - 1) for k in members)


def _packed_images(F, masks, step):
    lanes = F.lanes(len(masks))
    return lanes.unpack(step(lanes.pack(masks), lanes))


def _check_steps(F):
    for family, step, brute in PACKED_STEPS:
        masks = F.family_masks(family)
        got = _packed_images(F, masks, lambda S, lanes: step(F, S, lanes))
        want = [_mask(brute(F, _members(m))) for m in masks]
        assert got == want, (F, step.__name__)


def _word_on_member(F, word, m):
    members = _members(m)
    for x in reversed(word.order):
        members = oracle.brute_toggle(F, word.family, x, members)
    return _mask(members)


def _check_word(F, word):
    masks = F.family_masks(word.family)
    got = _packed_images(F, masks, compile_word(F, word))
    assert got == [_word_on_member(F, word, m) for m in masks], (F, word)


LANES = settings(max_examples=60, deadline=None)


@LANES
@given(lane_edge_compositions())
def test_packed_rowmotion_and_inverses_match_oracle(alpha):
    _check_steps(build_fence(alpha))


@LANES
@given(st.data())
def test_packed_toggle_words_match_oracle(data):
    F = build_fence(data.draw(lane_edge_compositions()))
    for family in (IDEAL, ANTICHAIN):
        order = data.draw(st.permutations(range(1, F.n + 1)))
        _check_word(F, ToggleWord(family, order))


@pytest.mark.parametrize("alpha,width", [((40, 25), 8), ((41, 25), 9)])
def test_lanes_across_the_word_boundary(alpha, width):
    F = build_fence(alpha)
    assert F.lanes(1).width == width
    _check_steps(F)
    for family in (IDEAL, ANTICHAIN):
        # elements from the middle out, so every toggle meets both neighbours
        order = sorted(range(1, F.n + 1), key=lambda x: (abs(2 * x - F.n), x))
        _check_word(F, ToggleWord(family, order))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 80).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=50)
        )
    )
)
def test_unpack_inverts_pack(case):
    n, masks = case
    lanes = build_fence((n + 1,)).lanes(len(masks))
    assert lanes.unpack(lanes.pack(masks)) == masks


def test_one_lane_is_the_per_mask_layout(f434):
    assert f434.lane == f434.lanes(1)
    assert f434.lane.rep == 1 and f434.lane.full == f434.full_mask


def _chunked_results(alpha):
    F = build_fence(alpha)
    word = ToggleWord(ANTICHAIN, tuple(range(F.n, 0, -1)))
    return (
        F.antichain_masks(),
        antichain_orbits(F),
        ideal_orbits(F),
        word_orbits(F, word),
        base_graph(F, IDEAL),
        base_graph(F, ANTICHAIN),
    )


@pytest.mark.parametrize("alpha", [(4, 3, 4), (2, 1, 1, 2), (3, 1, 2, 3)])
def test_small_chunks_change_no_result(alpha, monkeypatch):
    whole = _chunked_results(alpha)
    monkeypatch.setattr(fence, "LANE_CHUNK_BYTES", 5)
    F = build_fence(alpha)
    assert len(list(F.lane_chunks(F.ideal_masks()))) > 2
    assert _chunked_results(alpha) == whole


def test_small_chunks_keep_the_linear_extension_witness(monkeypatch):
    # x_1..x_n in index order is no linear extension of (4,3,4): x7 < x6
    monkeypatch.setattr(
        harness, "sample_linear_extensions", lambda F, k, seed: [tuple(range(1, F.n + 1))]
    )
    whole = harness.verify_linear_extension_toggles((4, 3, 4)).witnesses
    monkeypatch.setattr(fence, "LANE_CHUNK_BYTES", 5)
    assert harness.verify_linear_extension_toggles((4, 3, 4)).witnesses == whole
    assert whole and whole[0]["extension"] == list(range(1, 11))
