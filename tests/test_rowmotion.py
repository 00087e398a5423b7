import importlib
import tracemalloc
from functools import partial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from fences import (
    ANTICHAIN,
    IDEAL,
    ElementSet,
    FamilyCapError,
    FenceError,
    RoleError,
    antichain_orbits,
    build_fence,
    count_ideals,
    ideal_complement,
    ideal_orbits,
    orbit_of,
    rowmotion,
    rowmotion_inverse,
    superorbits,
)
from fences.harness import all_fence_compositions
from fences.rowmotion import _rho_hat_mask, decompose, first_orbits

# the module itself: the package's `rowmotion` is the step function
rowmotion_module = importlib.import_module("fences.rowmotion")


def lanewise(f):
    """A packed step that applies the per-mask map f to every lane."""
    return lambda packed, lanes: lanes.pack([f(m) for m in lanes.unpack(packed)])


def orbit_sizes(orbits):
    return sorted(o.size for o in orbits)


class TestRho:
    def test_v_cycle(self, f22):
        A = f22.element_set([], ANTICHAIN)
        seq = [set(A.elements)]
        for _ in range(3):
            A = rowmotion(f22, A)
            seq.append(set(A.elements))
        assert seq == [set(), {1, 3}, {2}, set()]

    def test_v_two_cycle(self, f22):
        A = f22.element_set([1], ANTICHAIN)
        assert set(rowmotion(f22, A).elements) == {3}

    def test_434_five_cycle(self, f434):
        expected = [set(), {1, 7}, {2, 6, 8}, {3, 5, 9}, {4, 10}, set()]
        A = f434.element_set([], ANTICHAIN)
        got = [set(A.elements)]
        for _ in range(5):
            A = rowmotion(f434, A)
            got.append(set(A.elements))
        assert got == expected

    def test_matches_oracle(self):
        for alpha in [(2, 2), (3, 3, 2), (2, 2, 2), (2, 1, 1, 2)]:
            F = build_fence(alpha)
            for m in F.antichain_masks():
                A = F.set_from_mask(m, ANTICHAIN)
                got = frozenset(rowmotion(F, A).elements)
                assert got == oracle.brute_rho(F, frozenset(A.elements))

    def test_inverse(self):
        for alpha in [(2, 2), (4, 3, 4), (2, 2, 2), (2, 1, 1, 2), (3, 1, 3)]:
            F = build_fence(alpha)
            for m in F.antichain_masks():
                A = F.set_from_mask(m, ANTICHAIN)
                assert rowmotion_inverse(F, rowmotion(F, A)) == A
                assert rowmotion(F, rowmotion_inverse(F, A)) == A
            for m in F.ideal_masks():
                I = F.set_from_mask(m, IDEAL)
                assert rowmotion_inverse(F, rowmotion(F, I)) == I
                assert rowmotion(F, rowmotion_inverse(F, I)) == I

    @pytest.mark.parametrize("step", [rowmotion, rowmotion_inverse])
    def test_steps_reject_non_members(self, f434, step):
        # x1 < x2, so {x1,x2} is no antichain; {x2} is no ideal without x1
        with pytest.raises(RoleError, match="is not an antichain"):
            step(f434, ElementSet(0b11, ANTICHAIN))
        with pytest.raises(RoleError, match="is not an ideal"):
            step(f434, ElementSet(0b10, IDEAL))

    def test_role_mismatch(self, f434):
        from fences import UPPER

        U = f434.element_set([4], UPPER)  # x4 is maximal, so {x4} is upward closed
        with pytest.raises(RoleError):
            rowmotion(f434, U)

    def test_bijective_small_sweep(self):
        # rowmotion is injective on both families, every fence n <= 14
        for alpha in all_fence_compositions(14):
            F = build_fence(alpha)
            amasks = F.antichain_masks()
            from fences.rowmotion import _rho_hat_mask, _rho_mask

            assert len({_rho_mask(F, m) for m in amasks}) == len(amasks)
            imasks = F.ideal_masks()
            assert len({_rho_hat_mask(F, m) for m in imasks}) == len(imasks)


class TestRhoHat:
    def test_v_cycles(self, f22):
        I = f22.element_set([], IDEAL)
        seq = [set(I.elements)]
        for _ in range(3):
            I = rowmotion(f22, I)
            seq.append(set(I.elements))
        assert seq == [set(), {1, 3}, {1, 2, 3}, set()]
        J = f22.element_set([1], IDEAL)
        assert set(rowmotion(f22, J).elements) == {3}

    def test_full_maps_to_empty(self, f434):
        full = f434.element_set(range(1, 11), IDEAL)
        assert rowmotion(f434, full).mask == 0

    def test_matches_oracle(self):
        for alpha in [(2, 2), (3, 3, 2), (2, 2, 2)]:
            F = build_fence(alpha)
            for m in F.ideal_masks():
                I = F.set_from_mask(m, IDEAL)
                got = frozenset(rowmotion(F, I).elements)
                assert got == oracle.brute_rho_hat(F, frozenset(I.elements))


class TestOrbits:
    @pytest.mark.parametrize(
        "alpha,sizes",
        [
            ((4, 3, 4), [5, 17, 17, 17]),
            ((5, 4), [21]),
            ((2, 2), [2, 3]),
        ],
    )
    def test_antichain_orbit_sizes(self, alpha, sizes):
        assert orbit_sizes(antichain_orbits(build_fence(alpha))) == sizes

    @pytest.mark.parametrize(
        "alpha,sizes",
        [((4, 3, 4), [5, 17, 17, 17]), ((2, 2), [2, 3]), ((5, 4), [21])],
    )
    def test_ideal_orbit_sizes(self, alpha, sizes):
        assert orbit_sizes(ideal_orbits(build_fence(alpha))) == sizes

    def test_orbit_size_multisets_coincide(self):
        for alpha in all_fence_compositions(10):
            F = build_fence(alpha)
            assert orbit_sizes(antichain_orbits(F)) == orbit_sizes(
                ideal_orbits(F)
            ), alpha

    def test_sizes_sum_to_family_count(self):
        for alpha in all_fence_compositions(10):
            F = build_fence(alpha)
            assert sum(o.size for o in antichain_orbits(F)) == count_ideals(alpha)

    def test_canonical_order(self, f434):
        orbits = antichain_orbits(f434)
        reps = [o.representative.mask for o in orbits]
        assert reps == sorted(reps)
        for o in orbits:
            assert o.representative.mask == min(o.masks)

    def test_consecutive_under_rho(self, f434):
        for o in antichain_orbits(f434):
            for i, S in enumerate(o.reps):
                assert rowmotion(f434, S) == o.reps[(i + 1) % o.size]

    def test_orbit_of(self, f434):
        A = f434.element_set([4, 10], ANTICHAIN)
        o = orbit_of(f434, A)
        assert o.size == 5 and o.representative.mask == 0

    @pytest.mark.parametrize("orbits", [antichain_orbits, ideal_orbits])
    def test_cap_boundary(self, orbits):
        # (3,3,3) has 33 antichains and 33 ideals
        F = build_fence((3, 3, 3), max_family=33)
        assert sum(o.size for o in orbits(F)) == 33
        assert orbits(F) == orbits(build_fence((3, 3, 3)))
        with pytest.raises(FamilyCapError):
            orbits(build_fence((3, 3, 3), max_family=32))

    @pytest.mark.parametrize("orbits", [antichain_orbits, ideal_orbits])
    def test_orbits_are_built_once(self, orbits):
        F = build_fence((4, 3, 4))
        assert orbits(F) is orbits(F)

    def test_decompose_rejects_a_step_that_is_not_a_bijection(self):
        # 1 and 2 both step to the fixed point 0 and never come back
        with pytest.raises(FenceError, match="not a bijection"):
            decompose(build_fence((2, 2)), [0, 1, 2], lanewise(lambda m: 0))

    def test_decompose_rejects_an_image_outside_the_masks(self):
        with pytest.raises(FenceError, match="not a bijection.*outside"):
            decompose(build_fence((2, 2)), [0, 1, 2], lanewise(lambda m: m ^ 4))

    def test_decompose_rejects_two_members_with_one_image(self):
        # 0 -> 1 -> 2 -> 1: the walk from 0 meets 1 again before 0
        table = {0: 1, 1: 2, 2: 1}
        with pytest.raises(FenceError, match="not a bijection.*two masks"):
            decompose(build_fence((2, 2)), [0, 1, 2], lanewise(table.__getitem__))

    def test_decompose_lists_orbits_from_their_seeds(self):
        table = {0: 3, 3: 0, 1: 2, 2: 5, 5: 1, 4: 4}
        step = lanewise(table.__getitem__)
        got = decompose(build_fence((2, 2)), [5, 4, 3, 2, 1, 0], step)
        assert got == [[0, 3], [1, 2, 5], [4]]

    @given(st.data())
    def test_decompose_matches_a_dict_walk(self, data):
        # a random permutation of a random set of masks, lane by lane
        masks = data.draw(st.sets(st.integers(0, 1023), min_size=1, max_size=60))
        images = data.draw(st.permutations(sorted(masks)))
        table = dict(zip(sorted(masks), images))
        got = decompose(build_fence((4, 3, 4)), masks, lanewise(table.__getitem__))
        assert got == oracle.dict_orbits(masks, table)

    @given(st.data())
    def test_decompose_names_why_a_map_is_not_a_bijection(self, data):
        masks = sorted(data.draw(st.sets(st.integers(0, 15), min_size=1)))
        images = data.draw(
            st.lists(st.integers(0, 15), min_size=len(masks), max_size=len(masks))
        )
        assume(sorted(images) != masks)
        table = dict(zip(masks, images))
        why = "outside" if set(images) - set(masks) else "two masks"
        with pytest.raises(FenceError, match=f"not a bijection.*{why}"):
            decompose(build_fence((2, 3)), masks, lanewise(table.__getitem__))

    @pytest.mark.parametrize(
        "orbits,family", [(antichain_orbits, ANTICHAIN), (ideal_orbits, IDEAL)]
    )
    def test_orbits_hold_the_family_masks(self, orbits, family):
        # every orbit mask is the family's own object, so none is a copy
        F = build_fence((4, 3, 4))
        own = {id(m) for m in F.family_masks(family)}
        assert all(id(m) in own for o in orbits(F) for m in o.masks)

    def test_decompose_memory_peak(self, f48):
        # one ideal decomposition of (4^8), 98,209 members, held under
        # 12 MB; a dict successor map, or any other per-member hash
        # table, costs about 10 MB more
        masks = f48.ideal_masks()
        tracemalloc.start()
        try:
            orbits = decompose(f48, masks, partial(_rho_hat_mask, f48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, orbits)) == len(masks)
        assert peak < 12 << 20, peak

    def test_matches_oracle_orbits(self):
        for alpha in [(2, 2), (2, 2, 2), (3, 3, 2)]:
            F = build_fence(alpha)
            fam = set(oracle.brute_antichains(F))
            brute = oracle.brute_orbits(F, fam, oracle.brute_rho)
            assert sorted(len(x) for x in brute) == orbit_sizes(
                antichain_orbits(F)
            )


class TestFirstOrbits:
    """first_orbits walks the least unseen member's orbit with orbit_of
    until it has stepped a quarter of the family, then decomposes.  Every
    prefix it returns is the canonical one, whichever way it got there:
    the real budget (mostly decomposition on small families), no budget
    at all (decomposition at once) and the whole family (the walk alone,
    up to the last orbit)."""

    @pytest.mark.parametrize(
        "budget",
        [None, lambda members: 0, lambda members: members],
        ids=["quarter", "zero", "whole"],
    )
    def test_every_prefix_is_canonical(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(rowmotion_module, "_walk_budget", budget)
        for alpha in all_fence_compositions(10):
            for family, every in ((ANTICHAIN, antichain_orbits), (IDEAL, ideal_orbits)):
                want = every(build_fence(alpha))
                for k in range(len(want) + 2):
                    F = build_fence(alpha)  # a fresh memo for every walk
                    assert first_orbits(F, family, k) == want[:k], (alpha, family, k)

    def test_a_short_prefix_decomposes_nothing(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0].alpha)
            return decompose(*args)

        monkeypatch.setattr(rowmotion_module, "decompose", counted)
        F = build_fence((3,) * 8)
        first = first_orbits(F, ANTICHAIN, 5)
        assert not calls
        # far past the budget, the family is decomposed once instead
        assert first_orbits(F, ANTICHAIN, 300)[:5] == first
        assert len(calls) == 1
        assert antichain_orbits(F)[:300] == first_orbits(F, ANTICHAIN, 300)

    def test_only_rowmotion_families(self, f434):
        with pytest.raises(RoleError):
            first_orbits(f434, "upper", 1)


class TestIdealComplement:
    def test_fig4_example(self):
        F = build_fence((3, 3, 3))
        I = F.element_set([1, 4, 5, 6], IDEAL)
        assert set(ideal_complement(F, I).elements) == {1, 2, 6, 7}

    def test_empty(self, f222):
        empty = f222.element_set([], IDEAL)
        assert set(ideal_complement(f222, empty).elements) == {1, 2, 3, 4, 5}

    def test_involution(self):
        for alpha in [(3, 3, 3), (2, 2, 2), (2, 1, 2, 1, 2)]:
            F = build_fence(alpha)
            for m in F.ideal_masks():
                I = F.set_from_mask(m, IDEAL)
                assert ideal_complement(F, ideal_complement(F, I)) == I

    def test_unavailable_without_duality(self, f22):
        with pytest.raises(FenceError):
            ideal_complement(f22, f22.element_set([], IDEAL))

    def test_commutes_with_inverse_rowmotion(self):
        # complement of the image equals the inverse image of the complement,
        # for every self-dual fence with n <= 14 and every ideal
        from fences.rowmotion import (
            _ideal_complement_mask,
            _rho_hat_inv_mask,
            _rho_hat_mask,
        )

        for alpha in all_fence_compositions(14):
            F = build_fence(alpha)
            if F._self_duality_failure() is not None:
                continue
            for m in F.ideal_masks():
                lhs = _rho_hat_inv_mask(F, _ideal_complement_mask(F, m))
                rhs = _ideal_complement_mask(F, _rho_hat_mask(F, m))
                assert lhs == rhs, (alpha, m)


class TestSuperorbits:
    def test_2_7_cross_orbit_pair(self):
        # the canonical smallest ideal of the 13-element fence of (2^7)
        # whose complement lies in a different rowmotion orbit
        F = build_fence((2,) * 7)
        I = F.element_set([1, 3, 4], IDEAL)
        J = ideal_complement(F, I)
        assert set(J.elements) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 12}
        assert orbit_of(F, I).representative != orbit_of(F, J).representative
        sup = superorbits(F)
        assert any(len(so.orbits) == 2 for so in sup)

    def test_superorbit_partition(self):
        for alpha in [(3, 3, 3), (2, 2, 2), (2, 1, 2, 1, 2), (2,) * 5]:
            F = build_fence(alpha)
            sup = superorbits(F)
            total = sum(so.size for so in sup)
            assert total == count_ideals(alpha)
            for so in sup:
                assert len(so.orbits) in (1, 2)
                if len(so.orbits) == 2:
                    assert so.orbits[0].size == so.orbits[1].size

    def test_closed_under_complement(self):
        F = build_fence((2, 1, 2, 1, 2))
        for so in superorbits(F):
            masks = {m for o in so.orbits for m in o.masks}
            for m in masks:
                J = ideal_complement(F, F.set_from_mask(m, IDEAL))
                assert J.mask in masks

    def test_matches_oracle(self):
        # rho-hat orbits from the oracle, joined by the ideal complement
        # x_k -> x_{n+1-k} of the set complement, on every palindrome with
        # an odd number of parts and n <= 10
        for alpha in all_fence_compositions(10):
            if alpha != alpha[::-1] or len(alpha) % 2 == 0:
                continue
            F = build_fence(alpha)
            n = F.n
            brute = oracle.brute_orbits(F, oracle.brute_ideals(F), oracle.brute_rho_hat)
            index = {I: i for i, orbit in enumerate(brute) for I in orbit}
            root = list(range(len(brute)))

            def find(i):
                while root[i] != i:
                    i = root[i]
                return i

            for I, i in index.items():
                J = frozenset(n + 1 - k for k in range(1, n + 1) if k not in I)
                root[find(i)] = find(index[J])
            parts = {}
            for i, orbit in enumerate(brute):
                parts.setdefault(find(i), set()).update(orbit)
            got = {
                frozenset(frozenset(S.elements) for o in so.orbits for S in o.reps)
                for so in superorbits(F)
            }
            assert got == set(map(frozenset, parts.values())), alpha

    def test_unavailable_without_duality(self):
        with pytest.raises(FenceError):
            superorbits(build_fence((3, 2)))
