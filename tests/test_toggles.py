import itertools
import random

import oracle
import pytest

from fences import (
    ANTICHAIN,
    IDEAL,
    UPPER,
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
from fences import fence, stats
from fences.harness import all_fence_compositions, verify_base_graph
from fences.rowmotion import _rho_hat_mask
from fences import toggles
from fences.toggles import (
    BaseGraph,
    compile_word,
    count_linear_extensions,
    is_linear_extension,
    orientation,
    toggle_mask,
    transfer_chain,
)


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

    def test_linear_extension_count_matches_brute_force(self):
        for alpha in all_fence_compositions(7):
            F = build_fence(alpha)
            brute = sum(
                is_linear_extension(F, order)
                for order in itertools.permutations(range(1, F.n + 1))
            )
            assert count_linear_extensions(F) == brute, alpha

    def test_sampler_stops_once_every_extension_is_drawn(self, f22, monkeypatch):
        # (2,2) has two linear extensions; each draw reads the minimal
        # elements once per pick, n = 3 times.  The replay finds the draw
        # that brings the second extension, where the sampler must stop
        # rather than make all 50 * 50 draws.
        calls = []
        real = toggles.elements_of
        monkeypatch.setattr(toggles, "elements_of", lambda m: calls.append(m) or real(m))
        exts = sample_linear_extensions(f22, 50, seed=0)
        rng, drawn, draws = random.Random(f"linext:0:{f22.alpha}"), set(), 0
        while len(drawn) < 2:
            draws += 1
            order, remaining = [], {1, 2, 3}
            while remaining:
                order.append(rng.choice(sorted(oracle.brute_minimal(f22, remaining))))
                remaining.remove(order[-1])
            drawn.add(tuple(order))
        assert sorted(exts) == sorted(drawn) == [(1, 3, 2), (3, 1, 2)]
        assert len(calls) == 3 * draws

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
        # the exhaustive commutation scan finds exactly base_graph's path
        for alpha in all_fence_compositions(8):
            assert verify_base_graph(alpha).verdict == "pass", alpha

    def test_built_from_the_fence_alone(self):
        # (100,101) has 10,101 ideals; a cap of one enumerates none of them
        F = build_fence((100, 101), max_family=1)
        ideal, antichain = base_graph(F, IDEAL), base_graph(F, ANTICHAIN)
        assert ideal.edges == tuple((k, k + 1) for k in range(1, 200))
        assert ideal.is_forest
        segments = [range(1, 101), range(100, 201)]  # each a clique
        assert antichain.edges == tuple(
            sorted(p for seg in segments for p in itertools.combinations(seg, 2))
        )
        assert not antichain.is_forest

    def test_commutation_scan_across_chunks(self, monkeypatch):
        # a chunk and its n toggle images share one LANE_CHUNK_BYTES: 176
        # bytes over (4,3,4)'s 11 images of 2-byte lanes is 8 lanes, so
        # its 56 ideals span 7 chunks, and the scan still finds every edge
        monkeypatch.setattr(fence, "LANE_CHUNK_BYTES", 176)
        F = build_fence((4, 3, 4))
        assert len(list(F.lane_chunks(F.ideal_masks(), F.n + 1))) == 7
        real, lanes_seen = toggles.toggle_mask, set()

        def spy(F, family, x, m, lanes=None):
            lanes_seen.add(lanes.count)
            return real(F, family, x, m, lanes)

        monkeypatch.setattr(toggles, "toggle_mask", spy)
        for family in (ANTICHAIN, IDEAL):
            assert toggles._commutation_edges(F, family) == set(base_graph(F, family).edges)
        assert max(lanes_seen) == 8

    def test_upper_ideals_have_no_toggles(self, f222):
        with pytest.raises(FenceError, match="no toggles for family"):
            base_graph(f222, UPPER)


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
        # a source moves to the right end; a sink would stay where it is
        G = base_graph(f222, IDEAL)
        ext = sample_linear_extensions(f222, 1, seed=3)[0]
        w = ToggleWord(IDEAL, ext)
        assert ext[0] in admissible_toggles(w, G)
        assert conjugate_word(w, ext[0], G).order == ext[1:] + ext[:1]

    @pytest.mark.parametrize("family", [IDEAL, ANTICHAIN])
    def test_admissible_toggles_match_the_edge_sets(self, family):
        # antichain base graphs have cycles; ideal ones are paths
        for alpha in all_fence_compositions(8):
            F = build_fence(alpha)
            G = base_graph(F, family)
            rng = random.Random(f"admissible:{alpha}")
            for _ in range(3):
                w = ToggleWord(family, rng.sample(range(1, F.n + 1), F.n))
                assert admissible_toggles(w, G) == oracle.admissible_toggles(w, G)

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
        # (3^9), n = 26, is far past what a search over orientations reaches
        for alpha in [(2, 2), (2, 2, 2), (3, 3, 2), (2, 1, 1, 2), (3,) * 9]:
            F = build_fence(alpha)
            G = base_graph(F, IDEAL)
            rng = random.Random(11)
            for _ in range(6):
                wa = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                wb = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                w = wa
                for x in conjugation_path(wa, wb, G):
                    w = conjugate_word(w, x, G)
                assert orientation(w, G) == orientation(wb, G)

    def test_path_is_the_search_path_on_every_small_fence(self):
        for alpha in all_fence_compositions(9):
            F = build_fence(alpha)
            G = base_graph(F, IDEAL)
            rng = random.Random(f"path:{alpha}")
            for _ in range(3):
                wa = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                wb = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
                want = oracle.conjugation_path(wa, wb, G)
                assert conjugation_path(wa, wb, G) == want, (alpha, wa, wb)

    def test_path_is_the_search_path_on_random_forests(self):
        # base_graph gives only paths for ideals, so stars, branching trees
        # and isolated vertices are built directly, on shuffled labels
        rng = random.Random(7)
        for _ in range(600):
            n = rng.randint(1, 10)
            label = rng.sample(range(1, n + 1), n)
            edges = [
                tuple(sorted((label[k], label[rng.randrange(k)])))
                for k in range(1, n)
                if rng.random() < 0.8
            ]
            G = BaseGraph(IDEAL, n, tuple(edges))
            assert G.is_forest
            wa = ToggleWord(IDEAL, rng.sample(range(1, n + 1), n))
            wb = ToggleWord(IDEAL, rng.sample(range(1, n + 1), n))
            assert admissible_toggles(wa, G) == oracle.admissible_toggles(wa, G)
            want = oracle.conjugation_path(wa, wb, G)
            assert conjugation_path(wa, wb, G) == want, (edges, wa, wb)

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
        battery = [indicator("chihat", k) for k in range(1, 6)]
        battery.append(indicator("chihat"))
        words = [ToggleWord(IDEAL, p) for p in itertools.permutations(range(1, 6))]
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
        battery = [indicator("chi", k) for k in range(1, 6)]
        battery.append(indicator("chi"))
        words = [ToggleWord(ANTICHAIN, p) for p in itertools.permutations(range(1, 6))]
        base = words[0]
        for w in words:
            assert transfer_check(f222, ANTICHAIN, base, w, battery).agree

    def test_verdicts_are_the_results(self, f222):
        battery = [indicator("chihat", k) for k in range(1, 6)]
        wa = ToggleWord(IDEAL, (1, 2, 3, 4, 5))
        wb = ToggleWord(IDEAL, (5, 3, 1, 2, 4))
        rep = transfer_check(f222, IDEAL, wa, wb, battery)
        va, vb = rep.verdicts
        assert va == tuple((r.report_a.kind, r.report_a.constant) for r in rep.results)
        assert vb == tuple((r.report_b.kind, r.report_b.constant) for r in rep.results)

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


def _battery(F, kind="chihat"):
    """Every indicator of the family, then its cardinality."""
    return [*(indicator(kind, k) for k in range(1, F.n + 1)), indicator(kind)]


def _sampled_words(F, count, seed=0):
    rng = random.Random(f"chain:{seed}:{F.alpha}")
    return [ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n)) for _ in range(count)]


class TestTransferChain:
    """transfer_chain decomposes the first word and reaches each later one
    by conjugation, checking that it lands on that word's orbits; its
    verdicts are transfer_check's, word by word."""

    @staticmethod
    def _check(F, words, family=IDEAL):
        battery = _battery(F, "chihat" if family == IDEAL else "chi")
        got = list(transfer_chain(F, family, words, battery))
        want = [transfer_check(F, family, w, w, battery).verdicts[0] for w in words]
        assert len(got) == len(words)
        for w, g, v in zip(words, got, want):
            assert g == v, (F.alpha, str(w))

    @pytest.mark.parametrize("alpha", [(2, 2, 2), (3, 3)])
    def test_every_ideal_coxeter_word(self, alpha):
        F = build_fence(alpha)
        perms = itertools.permutations(range(1, F.n + 1))
        self._check(F, [ToggleWord(IDEAL, p) for p in perms])

    @pytest.mark.parametrize("alpha", [(2, 2), (2, 1, 2), (2, 1, 1, 2)])
    def test_every_antichain_coxeter_word_of_a_path(self, alpha):
        # every segment holds at most two elements, so the antichain base
        # graph is the path 1..n and the chain runs antichain flips
        F = build_fence(alpha)
        assert base_graph(F, ANTICHAIN).edges == tuple((k, k + 1) for k in range(1, F.n))
        perms = itertools.permutations(range(1, F.n + 1))
        self._check(F, [ToggleWord(ANTICHAIN, p) for p in perms], ANTICHAIN)

    @pytest.mark.parametrize("alpha", [(3,) * 6, (4, 3, 4)])
    def test_sampled_words(self, alpha):
        F = build_fence(alpha)
        self._check(F, _sampled_words(F, 40))

    @pytest.mark.parametrize("alpha", [(3,) * 6, (4, 3, 4)])
    def test_classifies_once_per_decomposition(self, monkeypatch, alpha):
        # conjugation keeps every orbit's count row, so no recounted column
        # changes and the battery of n + 1 statistics is classified once
        # per decomposition; a recount made to differ, the last word's
        # first flipped column read as zeros, classifies it once more, all
        # of it, from the counts as read
        F = build_fence(alpha)
        words, battery = _sampled_words(F, 40), _battery(F)
        calls = {"decompose": 0, "classify": 0}

        def counted(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)

            return spy

        monkeypatch.setattr(toggles, "decompose", counted("decompose", toggles.decompose))
        monkeypatch.setattr(
            stats, "classify_orbit_sums", counted("classify", stats.classify_orbit_sums)
        )
        honest = list(transfer_chain(F, IDEAL, words, battery))
        assert calls["decompose"] >= 1
        assert calls["classify"] == (F.n + 1) * calls["decompose"]

        k = conjugation_path(words[-2], words[-1], base_graph(F, IDEAL))[0] - 1
        real_counts, current = toggles.lane_counts, []

        def misread(raw, width, ks, ends):
            columns = real_counts(raw, width, ks, ends)
            if current[-1] != words[-1]:
                return columns
            return [(0,) * len(ends) if j == k else c for j, c in zip(ks, columns)]

        monkeypatch.setattr(toggles, "lane_counts", misread)
        calls.update(decompose=0, classify=0)
        drawn = (current.append(w) or w for w in words)
        got = list(transfer_chain(F, IDEAL, drawn, battery))
        assert calls["classify"] == (F.n + 1) * (calls["decompose"] + 1)
        assert got[:-1] == honest[:-1]
        assert got[-1][k] == ("homomesic", 0) != honest[-1][k]

    def test_several_lane_chunks(self, monkeypatch):
        # 16 bytes hold 8 of (4,3,4)'s 2-byte lanes, so its 56 ideals
        # span 7 chunks
        monkeypatch.setattr(fence, "LANE_CHUNK_BYTES", 16)
        F = build_fence((4, 3, 4))
        assert len(list(F.lane_chunks(F.ideal_masks()))) == 7
        self._check(F, _sampled_words(F, 40))

    def test_wide_lanes(self):
        # n = 69: 9-byte lanes, past the 8-byte count table
        F = build_fence((40, 30))
        assert F.lane.width == 9
        self._check(F, _sampled_words(F, 6))

    @pytest.mark.parametrize("chunk_bytes", [fence.LANE_CHUNK_BYTES, 16])
    def test_lanes_hold_each_words_orbits(self, monkeypatch, chunk_bytes):
        # verdicts and even per-orbit count rows are the same under every
        # Coxeter word, so they cannot show that the chain moves; the lanes
        # it recounts must hold the current word's orbits, each a rotation
        # of the orbit's own cycle, in the slices the orbit sizes give
        monkeypatch.setattr(fence, "LANE_CHUNK_BYTES", chunk_bytes)
        F = build_fence((4, 3, 4))
        words = _sampled_words(F, 20)
        real = toggles.lane_counts
        current, seen = [], []

        def spy(raw, width, ks, ends):
            lanes = range(0, len(raw), width)
            members = [int.from_bytes(raw[i : i + width], "little") for i in lanes]
            seen.append((current[-1], [members[a:b] for a, b in zip([0, *ends], ends)]))
            return real(raw, width, ks, ends)

        monkeypatch.setattr(toggles, "lane_counts", spy)
        drawn = (current.append(w) or w for w in words)
        list(transfer_chain(F, IDEAL, drawn, _battery(F)))
        assert len(seen) > len(words) // 2
        for w, slices in seen:
            cycles = {frozenset(o.masks): o.masks for o in word_orbits(F, w)}
            assert len(slices) == len(cycles)
            for got in slices:
                cycle = cycles[frozenset(got)]
                i = cycle.index(got[0])
                assert list(cycle[i:] + cycle[:i]) == got, str(w)

    def test_a_wrong_step_is_decomposed_afresh(self, monkeypatch):
        # words[7] compiles to the identity, which no Coxeter word is: the
        # lanes conjugation reaches are not its orbits, so it and the word
        # after it must be decomposed afresh, and every verdict must still
        # be transfer_check's under the same steps
        F = build_fence((4, 3, 4))
        words = _sampled_words(F, 12)
        battery = _battery(F)
        honest = list(transfer_chain(F, IDEAL, words, battery))
        real, decomposed = toggles.compile_word, []

        def compile_word(F, word):
            step = real(F, word)
            return (lambda m, lanes=None: m) if word == words[7] else step

        def spy(F, masks, step):
            decomposed.append(step)
            return real_decompose(F, masks, step)

        real_decompose = toggles.decompose
        monkeypatch.setattr(toggles, "compile_word", compile_word)
        monkeypatch.setattr(toggles, "decompose", spy)
        got = list(transfer_chain(F, IDEAL, words, battery))
        assert len(decomposed) == 3
        self._check(F, words)
        assert got[7] != honest[7]
        assert got[:7] + got[8:] == honest[:7] + honest[8:]

    def test_no_words_no_verdicts(self, f222):
        assert list(transfer_chain(f222, IDEAL, [], _battery(f222))) == []

    def test_checked_as_transfer_check_checks(self, f222):
        # checked when the first verdicts are drawn
        w = ToggleWord(IDEAL, (1, 2, 3, 4, 5))
        for words, stat, error in [
            ([w], "chi[1]", RoleError),
            ([w], "chihat[6]", FenceError),
            ([ToggleWord(ANTICHAIN, w.order)], "chihat[1]", RoleError),
            ([w, ToggleWord(IDEAL, (1, 2, 3, 4))], "chihat[1]", FenceError),
        ]:
            with pytest.raises(error):
                list(transfer_chain(f222, IDEAL, words, [parse_stat(stat)]))

    def test_cyclic_base_graph_refused(self, f222):
        words = [ToggleWord(ANTICHAIN, p) for p in [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)]]
        chain = transfer_chain(f222, ANTICHAIN, words, _battery(f222, "chi"))
        with pytest.raises(FenceError, match="cycle"):
            next(chain)
