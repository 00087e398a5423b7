import random

import oracle
import pytest

from fences import (
    ANTICHAIN,
    IDEAL,
    FenceError,
    RoleError,
    ToggleWord,
    admissible_toggles,
    apply_word,
    base_graph,
    build_fence,
    conjugate_word,
    conjugation_path,
    ideal_orbits,
    indicator,
    parse_stat,
    rowmotion,
    sample_linear_extensions,
    toggle,
    transfer_check,
    word_orbits,
)
from fences.harness import all_fence_compositions
from fences.rowmotion import _rho_hat_mask
from fences.toggles import compile_word, is_linear_extension, toggle_mask


class TestToggle:
    def test_add_top(self, f22):
        S = f22.element_set([1, 3], IDEAL)
        assert set(toggle(f22, IDEAL, 2, S).elements) == {1, 2, 3}

    def test_frozen_ideal(self, f22):
        S = f22.element_set([1], IDEAL)
        assert toggle(f22, IDEAL, 2, S) == S

    def test_frozen_antichain(self, f22):
        S = f22.element_set([1, 3], ANTICHAIN)
        assert toggle(f22, ANTICHAIN, 2, S) == S

    def test_involution_everywhere(self):
        for alpha in all_fence_compositions(8):
            F = build_fence(alpha)
            for family in (ANTICHAIN, IDEAL):
                for m in F.family_masks(family):
                    for x in range(1, F.n + 1):
                        once = toggle_mask(F, family, x, m)
                        assert F._role_ok(once, family)
                        assert toggle_mask(F, family, x, once) == m

    def test_role_mismatch(self, f22):
        with pytest.raises(RoleError):
            toggle(f22, IDEAL, 1, f22.element_set([1], ANTICHAIN))


class TestApplyWord:
    def test_linear_extension_is_rowmotion(self, f22):
        w = ToggleWord(IDEAL, (1, 3, 2))  # a linear extension of the V
        empty = f22.element_set([], IDEAL)
        assert set(apply_word(f22, w, empty).elements) == {1, 3}
        for m in f22.ideal_masks():
            I = f22.set_from_mask(m, IDEAL)
            assert apply_word(f22, w, I) == rowmotion(f22, I)

    def test_all_extensions_small_fences(self):
        for alpha in [(2, 2), (2, 2, 2), (3, 3, 2), (4, 3, 4)]:
            F = build_fence(alpha)
            for ext in sample_linear_extensions(F, 20, seed=7):
                assert is_linear_extension(F, ext)
                step = compile_word(F, ToggleWord(IDEAL, ext))
                for m in F.ideal_masks():
                    assert step(m) == _rho_hat_mask(F, m), (alpha, ext)

    def test_sampler_draws_replay_on_brute_minimal(self):
        # the sampler's draws pinned: a random minimal element of what is
        # left, chosen in increasing element order, from the same rng
        def replay(F, count, seed):
            rng = random.Random(f"linext:{seed}:{F.alpha}")
            out, attempts = [], 0
            while len(out) < count and attempts < 50 * count:
                attempts += 1
                order, remaining = [], set(range(1, F.n + 1))
                while remaining:
                    order.append(rng.choice(sorted(oracle.brute_minimal(F, remaining))))
                    remaining.remove(order[-1])
                if tuple(order) not in out:
                    out.append(tuple(order))
            return out

        for alpha in all_fence_compositions(8):
            F = build_fence(alpha)
            for seed in range(3):
                assert sample_linear_extensions(F, 6, seed) == replay(F, 6, seed), alpha

    def test_word_then_reversed_word_is_identity(self, f434):
        order = (3, 1, 4, 10, 2, 9, 5, 8, 6, 7)
        w = ToggleWord(IDEAL, order)
        back = ToggleWord(IDEAL, tuple(reversed(order)))
        for m in f434.ideal_masks():
            I = f434.set_from_mask(m, IDEAL)
            assert apply_word(f434, back, apply_word(f434, w, I)) == I

    def test_rejects_non_permutation(self, f22):
        with pytest.raises(FenceError):
            apply_word(f22, ToggleWord(IDEAL, (1, 2)), f22.element_set([], IDEAL))
        with pytest.raises(FenceError):
            ToggleWord(IDEAL, (1, 1, 2))


class TestBaseGraph:
    def test_222_ideal_path(self, f222):
        G = base_graph(f222, IDEAL)
        assert sorted(G.edges) == [(1, 2), (2, 3), (3, 4), (4, 5)]
        assert G.is_forest

    def test_222_antichain_extra_arc(self, f222):
        G = base_graph(f222, ANTICHAIN)
        assert sorted(G.edges) == [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
        assert not G.is_forest

    def test_chain_ideal_path(self):
        F = build_fence((6,))
        G = base_graph(F, IDEAL)
        assert sorted(G.edges) == [(k, k + 1) for k in range(1, 5)]

    def test_ideal_edges_are_cover_pairs(self):
        for alpha in all_fence_compositions(8):
            F = build_fence(alpha)
            G = base_graph(F, IDEAL)
            covers = {tuple(sorted(p)) for p in F.cover_pairs()}
            assert set(G.edges) == covers, alpha
            assert G.is_forest


class TestAdmissibility:
    def test_worked_example(self, f222):
        G = base_graph(f222, IDEAL)
        w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        adm = admissible_toggles(w, G)
        assert 5 in adm
        assert conjugate_word(w, 5, G).order == (1, 2, 4, 3, 5)

    def test_isolated_vertex_always_admissible(self):
        F = build_fence((2,))  # single element, edgeless base graph
        G = base_graph(F, IDEAL)
        w = ToggleWord(IDEAL, (1,))
        assert admissible_toggles(w, G) == {1}

    def test_first_toggle_of_extension_is_source(self, f222):
        G = base_graph(f222, IDEAL)
        ext = sample_linear_extensions(f222, 1, seed=3)[0]
        w = ToggleWord(IDEAL, ext)
        from fences.toggles import orientation

        o = orientation(w, G)
        first = ext[0]
        assert all(u == first for u, v in o if first in (u, v)) or not any(
            first in e for e in G.edges
        )

    def test_conjugate_matches_group_element(self, f222):
        G = base_graph(f222, IDEAL)
        w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        for x in sorted(admissible_toggles(w, G)):
            w2 = conjugate_word(w, x, G)
            step2 = compile_word(f222, w2)
            step = compile_word(f222, w)
            for m in f222.ideal_masks():
                assert step2(m) == toggle_mask(
                    f222, IDEAL, x, step(toggle_mask(f222, IDEAL, x, m))
                )

    def test_non_admissible_rejected(self, f222):
        G = base_graph(f222, IDEAL)
        w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        with pytest.raises(FenceError):
            conjugate_word(w, 4, G)  # neighbours 3 and 5 on both sides

    def test_double_conjugation_restores_function(self, f222):
        G = base_graph(f222, IDEAL)
        w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        w2 = conjugate_word(w, 5, G)
        assert 5 in admissible_toggles(w2, G)
        w3 = conjugate_word(w2, 5, G)
        stepa, stepb = compile_word(f222, w), compile_word(f222, w3)
        assert all(stepa(m) == stepb(m) for m in f222.ideal_masks())


# words that are not Coxeter words of (2,2,2)'s ideal toggles
_BAD_WORDS = {
    "short": ToggleWord(IDEAL, (1, 2)),
    "long": ToggleWord(IDEAL, (1, 5, 2, 4, 3, 6)),
    "other family": ToggleWord(ANTICHAIN, (1, 5, 2, 4, 3)),
}


class TestWordChecks:
    @pytest.mark.parametrize("kind", sorted(_BAD_WORDS))
    def test_bad_words_rejected(self, f222, kind):
        G = base_graph(f222, IDEAL)
        bad, good = _BAD_WORDS[kind], ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        calls = (
            lambda: admissible_toggles(bad, G),
            lambda: conjugate_word(bad, 1, G),
            lambda: conjugation_path(bad, good, G),
            lambda: conjugation_path(good, bad, G),
        )
        for call in calls:
            with pytest.raises(FenceError):
                call()

    @pytest.mark.parametrize("x", [-1, 0, 6, 9])
    def test_conjugating_by_a_toggle_outside_the_word(self, f222, x):
        G = base_graph(f222, IDEAL)
        with pytest.raises(FenceError, match="is not admissible"):
            conjugate_word(ToggleWord(IDEAL, (1, 5, 2, 4, 3)), x, G)


class TestConjugationPath:
    def test_worked_single_step(self, f222):
        G = base_graph(f222, IDEAL)
        path = conjugation_path(
            ToggleWord(IDEAL, (1, 5, 2, 4, 3)),
            ToggleWord(IDEAL, (1, 2, 4, 3, 5)),
            G,
        )
        assert path == [5]

    def test_same_word_empty_path(self, f222):
        G = base_graph(f222, IDEAL)
        w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
        assert conjugation_path(w, w, G) == []

    def test_path_exists_and_is_correct(self):
        import random

        for alpha in [(2, 2), (2, 2, 2), (3, 3, 2), (2, 1, 1, 2)]:
            F = build_fence(alpha)
            G = base_graph(F, IDEAL)
            rng = random.Random(11)
            for _ in range(6):
                wa = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                wb = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                path = conjugation_path(wa, wb, G)
                from fences.toggles import _flip, orientation

                o = orientation(wa, G)
                for x in path:
                    o = _flip(o, x)
                assert o == orientation(wb, G)

    def test_refuses_cyclic_graph(self, f222):
        G = base_graph(f222, ANTICHAIN)
        wa = ToggleWord(ANTICHAIN, (1, 2, 3, 4, 5))
        with pytest.raises(FenceError):
            conjugation_path(wa, wa, G)


class TestTransfer:
    def test_same_word_agrees(self, f222):
        w = ToggleWord(IDEAL, (1, 2, 3, 4, 5))
        rep = transfer_check(f222, IDEAL, w, w, parse_stat("chihat[2]"))
        assert rep.agree

    def test_ideal_transfer_exhaustive_tiny(self, f222):
        from itertools import permutations

        battery = [indicator("chihat", k) for k in range(1, 6)]
        battery.append(indicator("chihat"))
        words = [ToggleWord(IDEAL, p) for p in permutations(range(1, 6))]
        base = words[0]
        for w in words[1:20]:
            assert transfer_check(f222, IDEAL, base, w, battery).agree

    def test_generator_battery_is_read_once(self, f222):
        # the battery is checked for its family and then classified, so a
        # one-shot iterable must give the same report as the list
        battery = [indicator("chihat", k) for k in range(1, 6)]
        battery.append(indicator("chihat"))
        wa = ToggleWord(IDEAL, (1, 2, 3, 4, 5))
        wb = ToggleWord(IDEAL, (5, 3, 1, 2, 4))
        want = transfer_check(f222, IDEAL, wa, wb, battery)
        assert len(want.results) == 6
        assert transfer_check(f222, IDEAL, wa, wb, iter(battery)) == want

    def test_antichain_transfer_exhaustive_222(self, f222):
        from itertools import permutations

        battery = [indicator("chi", k) for k in range(1, 6)]
        battery.append(indicator("chi"))
        words = [ToggleWord(ANTICHAIN, p) for p in permutations(range(1, 6))]
        base = words[0]
        for w in words:
            assert transfer_check(f222, ANTICHAIN, base, w, battery).agree

    def test_word_orbits_partition(self, f222):
        w = ToggleWord(IDEAL, (5, 3, 1, 2, 4))
        orbits = word_orbits(f222, w)
        assert sum(o.size for o in orbits) == len(f222.ideal_masks())

    def test_linear_extension_word_orbits_match_rowmotion(self, f434):
        ext = sample_linear_extensions(f434, 1, seed=0)[0]
        w = ToggleWord(IDEAL, ext)
        assert sorted(o.size for o in word_orbits(f434, w)) == sorted(
            o.size for o in ideal_orbits(f434)
        )
