import dataclasses
import json

import oracle
import pytest

from fences import FamilyCapError, FenceError, build_fence, harness, stats, toggles
from fences.cli import main
from fences.harness import (
    aba_orbit_structure,
    all_fence_compositions,
    find_cross_orbit_complement,
    orbit_profiles,
    scan_conjecture_antichain_transfer,
    scan_conjecture_constant_alpha,
    scan_palindromic_tiles,
    sweep_a1a1a,
    sweep_a4,
    sweep_aba,
    sweep_two_segment,
    verify_a1a1a,
    verify_a4,
    verify_aba,
    verify_base_graph,
    verify_general_homomesies,
    verify_linear_extension_toggles,
    verify_palindromic_props,
    verify_transfer_ideal,
    verify_two_segment,
)
from fences.rowmotion import Superorbit


class TestCompositionSweep:
    def test_counts(self):
        # 2^{m-3} compositions with both ends >= 2 for every total m >= 4
        all9 = all_fence_compositions(9)
        assert all(a[0] >= 2 and a[-1] >= 2 for a in all9)
        assert all(sum(a) - 1 <= 9 for a in all9)
        per_total = {}
        for a in all9:
            per_total[sum(a)] = per_total.get(sum(a), 0) + 1
        assert per_total == {2: 1, 3: 1, 4: 2, 5: 4, 6: 8, 7: 16, 8: 32, 9: 64, 10: 128}

    def test_deterministic(self):
        assert all_fence_compositions(7) == all_fence_compositions(7)

    @pytest.mark.parametrize("max_n", range(1, 13))
    def test_every_cut_set_once_in_order(self, max_n):
        got = all_fence_compositions(max_n)
        assert len(got) == 2 ** (max_n - 1)
        assert got == sorted(set(got))
        assert all(a[0] >= 2 and a[-1] >= 2 and sum(a) - 1 <= max_n for a in got)


class TestTwoSegment:
    def test_54(self):
        rep = verify_two_segment(5, 4)
        assert rep.verdict == "pass"

    def test_22(self):
        assert verify_two_segment(2, 2).verdict == "pass"

    def test_sweep_small(self):
        rep = sweep_two_segment(10)
        assert rep.verdict == "pass"
        assert rep.to_json_dict()["witnesses"] == []


class TestAba:
    def test_structure_434(self):
        info = aba_orbit_structure(4, 3)
        assert info["g"] == 1 and info["m"] == 1
        assert info["expected_sizes"] == {5: 1, 17: 3}

    def test_structure_equal_parts(self):
        info = aba_orbit_structure(2, 2)
        assert info["expected_sizes"] == {2: 1, 10: 1}

    def test_structure_matches_search(self):
        # m by modular inverse and the merged sizes, against the search
        for a in range(1, 61):
            for b in range(1, 61):
                info = aba_orbit_structure(a, b)
                m, sizes = oracle.aba_orbit_structure(a, b)
                assert info["m"] == m, (a, b)
                assert list(info["expected_sizes"].items()) == list(sizes.items())

    def test_verify(self):
        for a, b in [(4, 3), (2, 2), (2, 1), (3, 6), (5, 5)]:
            assert verify_aba(a, b).verdict == "pass", (a, b)

    def test_sweep_small(self):
        assert sweep_aba(9).verdict == "pass"


class TestConstantAlphaTheorems:
    def test_a4_small(self):
        assert verify_a4(2).verdict == "pass"
        assert verify_a4(3).verdict == "pass"

    def test_a4_sizes_a2(self):
        F = build_fence((2, 2, 2, 2))
        assert sorted(p.size for p in orbit_profiles(F)) == [2, 3, 3, 7, 14]

    def test_a1a1a_small(self):
        assert verify_a1a1a(2).verdict == "pass"
        assert verify_a1a1a(3).verdict == "pass"

    def test_a1a1a_totals(self):
        for a in (2, 3):
            F = build_fence((a, 1, a, 1, a))
            assert sum(p.size for p in orbit_profiles(F)) == a**3 + 4 * a**2 + 3 * a


class TestGeneralHomomesies:
    def test_examples(self):
        for alpha in [(4, 3, 4), (2, 2, 2), (4, 4, 4), (3, 3, 2), (2, 1, 2, 1, 2)]:
            rep = verify_general_homomesies(alpha)
            assert rep.verdict == "pass", (alpha, rep.witnesses)

    def test_f222_chi_average(self, f222):
        for p in orbit_profiles(f222):
            assert 2 * p.chi == 3 * p.size

    def test_f444_even_orbits(self):
        rep = verify_general_homomesies((4, 4, 4))
        inst = {r.params["part"]: r.verdict for r in rep.instances}
        assert inst["even-orbit-sizes"] == "pass"

    def test_vacuous_parts_reported(self):
        rep = verify_general_homomesies((3, 2))
        inst = {r.params["part"]: r.verdict for r in rep.instances}
        assert inst["even-orbit-sizes"] == "vacuous"
        assert inst["half-s-average"] == "vacuous"
        assert inst["superorbit-half-n"] == "vacuous"


class TestPalindromicProps:
    def test_requires_palindromic(self):
        with pytest.raises(FenceError):
            verify_palindromic_props((3, 2))

    def test_a1a1a_black_always_red_not(self):
        rep = verify_palindromic_props((3, 1, 3, 1, 3))
        data = next(
            r.detail
            for r in rep.instances
            if r.params["part"] == "tile-sequences"
        )
        bad = data["nonpalindromic_orbits"]
        assert bad, "some red sequence must be non-palindromic"
        assert all(o["black"] == o["black"][::-1] for o in bad)
        inst = {r.params["part"]: r.verdict for r in rep.instances}
        assert inst["black-iff-red"] == "vacuous"  # a part equals 1

    def test_iff_and_mirrors_on_constant_fences(self):
        for alpha in [(3, 3, 3), (2, 2, 2, 2), (4, 4)]:
            rep = verify_palindromic_props(alpha)
            inst = {r.params["part"]: r.verdict for r in rep.instances}
            assert inst["black-iff-red"] == "pass"
            assert inst["mirror-antichain"] == "pass"

    def test_mirror_ideal_needs_odd_s(self):
        rep = verify_palindromic_props((2, 2, 2))
        inst = {r.params["part"]: r.verdict for r in rep.instances}
        assert inst["mirror-ideal"] == "pass"
        rep = verify_palindromic_props((2, 2))
        inst = {r.params["part"]: r.verdict for r in rep.instances}
        assert inst["mirror-ideal"] == "vacuous"


class TestScans:
    def test_constant_alpha_small(self):
        rep = scan_conjecture_constant_alpha(8)
        assert rep.verdict == "pass"

    def test_tile_palindromes_small(self):
        rep = scan_palindromic_tiles(8)
        assert rep.verdict == "pass"
        for r in rep.instances:
            assert r.detail["nonpalindromic_orbits"] == []

    def test_cross_orbit_complement_2_7(self):
        rep = find_cross_orbit_complement((2,) * 7)
        detail = rep.instances[0].detail
        assert detail["count"] == 140
        assert detail["pairs"][0]["ideal"] == "{x1,x3,x4}"

    def test_antichain_transfer_small(self):
        rep = scan_conjecture_antichain_transfer((3, 3, 2), samples=25)
        assert rep.verdict == "pass"


class TestToggleHarness:
    def test_linear_extensions(self):
        for alpha in [(2, 2), (4, 3, 4), (2, 1, 1, 2)]:
            assert verify_linear_extension_toggles(alpha).verdict == "pass"

    def test_base_graphs(self):
        for alpha in [(2, 2, 2), (4, 3, 4), (6,)]:
            assert verify_base_graph(alpha).verdict == "pass"

    @pytest.mark.parametrize(
        "when,witness",
        [(3, {"missing_edges": [[1, 2]]}), (5, {"extra_edges": [[1, 5]]})],
    )
    def test_bent_toggle_fails_base_graph(self, monkeypatch, capsys, when, witness):
        # the ideal toggle of x1 frozen when x_when is present: frozen by
        # x3 it commutes with the toggle of x2 (a cover edge goes missing),
        # frozen by x5 it no longer commutes with that of x5 (a stray edge)
        real = toggles.toggle_mask

        def bent(F, family, x, m, lanes=None):
            got = real(F, family, x, m, lanes)
            if x != 1:
                return got
            return got ^ ((got ^ m) & (m >> (when - 1)) & (lanes or F.lane).rep)

        monkeypatch.setattr(toggles, "toggle_mask", bent)
        assert main(["verify", "base-graph", "--alpha", "2,2,2"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        assert payload["witnesses"] == [{"alpha": [2, 2, 2], **witness}]

    def test_transfer_ideal(self):
        assert verify_transfer_ideal((3, 3, 2), pairs=40).verdict == "pass"

    def test_transfer_ideal_on_a_long_fence(self):
        # n = 200: the chain's base graph is read off the fence, not scanned
        assert verify_transfer_ideal((100, 101), pairs=2).verdict == "pass"

    @staticmethod
    def _tracked(chain, drawn):
        """chain, recording every word as it is drawn."""

        def run(F, family, words, exprs):
            return chain(F, family, (drawn.append(w) or w for w in words), exprs)

        return run

    @staticmethod
    def _per_word(F, family, words, exprs):
        """The reference: every word decomposed and classified on its own."""
        exprs = list(exprs)
        for w in words:
            yield toggles.transfer_check(F, family, w, w, exprs).verdicts[0]

    def _chained_and_reference(self, monkeypatch, alpha, drawn):
        """The reports of the chain and of the per-word reference, with
        whatever the caller has patched."""
        real_chain = toggles.transfer_chain
        monkeypatch.setattr(harness, "transfer_chain", self._tracked(real_chain, drawn))
        drawn.clear()
        chained = verify_transfer_ideal(alpha, pairs=3)
        monkeypatch.setattr(harness, "transfer_chain", self._tracked(self._per_word, drawn))
        drawn.clear()
        return chained, verify_transfer_ideal(alpha, pairs=3)

    @pytest.mark.parametrize("alpha", [(3, 3, 2), (4, 3, 4)])
    def test_forced_transfer_disagreement(self, monkeypatch, alpha):
        # Column k of one drawn word, the third pair's word_b, is recounted
        # as all zeros: chihat[k] looks homomesic with average 0 there.  k
        # is flipped on the way from word_a, so the chain recounts it, finds
        # it changed and classifies again.  lane_counts is patched where the
        # chain and the count kernel both read it, so the witness must be
        # the one found when every word is decomposed and classified by
        # transfer_check on its own.
        real_counts, drawn = stats.lane_counts, []
        monkeypatch.setattr(harness, "transfer_chain", self._tracked(toggles.transfer_chain, drawn))
        assert verify_transfer_ideal(alpha, pairs=3).verdict == "pass"
        wa, wb = drawn[4:6]
        F = build_fence(alpha)
        k = toggles.conjugation_path(wa, wb, toggles.base_graph(F, "ideal"))[0]
        stat = f"chihat[{k}]"

        def misread(raw, width, ks, ends):
            columns = real_counts(raw, width, ks, ends)
            if drawn[-1] != wb:
                return columns
            return [(0,) * len(ends) if j == k - 1 else c for j, c in zip(ks, columns)]

        monkeypatch.setattr(toggles, "lane_counts", misread)
        monkeypatch.setattr(stats, "lane_counts", misread)
        chained, reference = self._chained_and_reference(monkeypatch, alpha, drawn)
        assert chained.verdict == "fail"
        (w,) = chained.witnesses
        assert (w["word_a"], w["word_b"], w["stat"]) == (str(wa), str(wb), stat)
        assert w["verdicts"][1] == "homomesic"
        assert chained.witnesses == reference.witnesses

    @pytest.mark.parametrize("alpha", [(3, 3, 2), (4, 3, 4)])
    def test_forced_wrong_step(self, monkeypatch, alpha):
        # The third pair's word_b compiles to the identity, so its orbits
        # are single members and the cardinality is not homomesic under
        # it.  The chain must find that the lanes conjugation reaches are
        # not that step's orbits and give the reference's witness.
        real_compile, drawn = toggles.compile_word, []
        monkeypatch.setattr(harness, "transfer_chain", self._tracked(toggles.transfer_chain, drawn))
        assert verify_transfer_ideal(alpha, pairs=3).verdict == "pass"
        wa, wb = drawn[4:6]

        def compile_word(F, word):
            step = real_compile(F, word)
            return (lambda m, lanes=None: m) if word == wb else step

        monkeypatch.setattr(toggles, "compile_word", compile_word)
        chained, reference = self._chained_and_reference(monkeypatch, alpha, drawn)
        assert chained.verdict == "fail"
        (w,) = chained.witnesses
        assert (w["word_a"], w["word_b"]) == (str(wa), str(wb))
        assert chained.witnesses == reference.witnesses

    def test_report_json_schema(self, capsys):
        # a report is data; the CLI times the claim and adds runtime_ms
        d = verify_two_segment(3, 2).to_json_dict()
        assert set(d) == {"claim", "params", "verdict", "witnesses"}
        assert main(["verify", "two-segment", "--a", "3", "--b", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(d) | {"schema_version", "runtime_ms"}
        assert type(payload["runtime_ms"]) is int


class TestProfileCache:
    def test_cap_boundary(self):
        F = build_fence((3, 3, 3), max_family=33)  # 33 antichains
        assert sum(p.size for p in orbit_profiles(F)) == 33
        assert orbit_profiles(F) is orbit_profiles(F)
        with pytest.raises(FamilyCapError):
            orbit_profiles(build_fence((3, 3, 3), max_family=32))


def _profile(index, corrupt):
    """A patch making harness.orbit_profiles return profile `index` as
    corrupt(profile)."""

    def patch(monkeypatch):
        real = harness.orbit_profiles

        def corrupted(F):
            profiles = list(real(F))
            profiles[index] = corrupt(profiles[index])
            return tuple(profiles)

        monkeypatch.setattr(harness, "orbit_profiles", corrupted)

    return patch


def _bump(field, at=None):
    """A corruption adding 1 to a dataclass's int field, or to index `at`
    of its tuple field."""

    def corrupt(p):
        value = getattr(p, field)
        if at is None:
            value += 1
        else:
            value = value[:at] + (value[at] + 1,) + value[at + 1 :]
        return dataclasses.replace(p, **{field: value})

    return corrupt


def _bump_red_head(p):
    """The profile with one more red head in row 1."""
    return dataclasses.replace(p, counts=_bump("red", 1)(p.counts))


def _split_superorbits(monkeypatch):
    """A patch making harness.superorbits split every pair of orbits."""
    real = harness.superorbits

    def split(F):
        return tuple(Superorbit((o,)) for so in real(F) for o in so.orbits)

    monkeypatch.setattr(harness, "superorbits", split)


class TestForcedFailures:
    """A corrupted profile or superorbit makes one part fail with its
    whole witness: the row witness {instance params, row keys, orbit,
    size, value, expected}, a multiset part's {got, expected} (with the
    over-counted superorbits for the pairing), or a first-witness part's
    own."""

    @pytest.mark.parametrize(
        "check,args,patch,part,want",
        [
            # homomesy row: chi[x1] - chi[x2] = 0 on (4,3,4)
            (verify_general_homomesies, ((4, 3, 4),),
             _profile(0, _bump("antichain_counts", 0)), "same-segment-indicators",
             {"alpha": (4, 3, 4), "x": 1, "y": 2, "orbit": "{}", "size": 5,
              "value": 1, "expected": 0}),
            # chart row: chihat sums 21 on the size-7 orbit of (2,2,2,2)
            (verify_a4, (2,), _profile(0, _bump("ideal_counts", 0)), "statistic-chart",
             {"a": 2, "stat": "chihat", "orbit": "{}", "size": 7,
              "value": 22, "expected": 21}),
            # mirror row: chi[x1] - chi[x7] = 0 on (3,3,3)
            (verify_palindromic_props, ((3, 3, 3),),
             _profile(0, _bump("antichain_counts", 0)), "mirror-antichain",
             {"alpha": (3, 3, 3), "k": 1, "orbit": "{}", "size": 21,
              "value": 1, "expected": 0}),
            # orbomesy: the third size-17 orbit of (4,3,4) gets another chi sum
            (verify_aba, (4, 3), _profile(3, _bump("chi")), "chi-orbomesic",
             {"a": 4, "b": 3, "orbit": "{x3}", "size": 17, "value": 37,
              "expected": 36}),
            # multiset: the size-5 orbit of (4,3,4) grows by one
            (verify_aba, (4, 3), _profile(0, _bump("size")), "orbit-sizes",
             {"a": 4, "b": 3, "got": [(6, 1), (17, 3)],
              "expected": [(5, 1), (17, 3)]}),
            # multiset: the one orbit of (5,4) grows by one; (20, 0) drops
            (verify_two_segment, (5, 4), _profile(0, _bump("size")), "orbit-sizes",
             {"a": 5, "b": 4, "got": [(22, 1)], "expected": [(21, 1)]}),
            # multiset: one (8, 16) orbit of (2,1,2,1,2) gets chi 17
            (verify_a1a1a, (2,), _profile(0, _bump("chi")), "sizes-and-chi",
             {"a": 2, "got": [((3, 6), 2), ((8, 15), 1), ((8, 16), 1), ((8, 17), 1)],
              "expected": [((3, 6), 2), ((8, 15), 1), ((8, 16), 2)]}),
            # multiset: the two pairs of size-4 orbits of (3,1,3,1,3) split,
            # and the four halves, counted where none was expected, are named
            (verify_a1a1a, (3,), _split_superorbits, "superorbit-pairing",
             {"a": 3, "got": [((4,), 4), ((11,), 1), ((15,), 3)],
              "expected": [((4, 4), 2), ((11,), 1), ((15,), 3)],
              "superorbits": [["{x1,x2,x3,x4}"], ["{x1,x2,x3,x4,x5,x6}"],
                              ["{x4,x5}"], ["{x4,x5,x6}"]]}),
            # first witness: an odd orbit size on (4,4,4)
            (verify_general_homomesies, ((4, 4, 4),), _profile(0, _bump("size")),
             "even-orbit-sizes", {"alpha": (4, 4, 4), "orbit": "{}", "size": 37}),
            # first witness: half of a split pair is off chihat's n/2 average
            (verify_general_homomesies, ((3, 1, 3, 1, 3),), _split_superorbits,
             "superorbit-half-n",
             {"alpha": (3, 1, 3, 1, 3), "superorbit": ["{x1,x2,x3,x4}"],
              "chihat": 22, "size": 4}),
            # first witness: a red sequence of (3,3,3) made non-palindromic
            (verify_palindromic_props, ((3, 3, 3),), _profile(0, _bump_red_head),
             "black-iff-red",
             {"alpha": (3, 3, 3), "orbit": "{}", "black": [6, 5, 6], "red": [4, 3]}),
        ],
    )
    def test_witness(self, monkeypatch, check, args, patch, part, want):
        patch(monkeypatch)
        rep = check(*args)
        verdicts = {r.params["part"]: r.verdict for r in rep.instances}
        assert verdicts[part] == "fail"
        assert rep.verdict == "fail"
        (w,) = [w for w in rep.witnesses if w["part"] == part]
        assert w == {**want, "part": part}
