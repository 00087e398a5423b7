import dataclasses

import pytest

from fences import FamilyCapError, FenceError, build_fence, harness
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

    def test_transfer_ideal(self):
        assert verify_transfer_ideal((3, 3, 2), pairs=40).verdict == "pass"

    def test_report_json_schema(self):
        rep = verify_two_segment(3, 2)
        d = rep.to_json_dict()
        assert set(d) == {"claim", "params", "verdict", "witnesses", "runtime_ms"}


class TestProfileCache:
    def test_cached_profiles_respect_a_smaller_cap(self):
        F = build_fence((3, 3, 3))  # 33 antichains
        assert sum(p.size for p in orbit_profiles(F)) == 33
        with pytest.raises(FamilyCapError):
            orbit_profiles(F, 5)
        assert orbit_profiles(F, 33) == orbit_profiles(F)


def _bump(value, at):
    """value + 1, or a tuple with 1 added at index `at`."""
    if at is None:
        return value + 1
    return value[:at] + (value[at] + 1,) + value[at + 1 :]


class TestForcedFailures:
    """A corrupted profile makes one part fail with the row witness
    {instance params, row keys, orbit, size, value, expected}."""

    @pytest.mark.parametrize(
        "check,args,index,field,at,part,want",
        [
            # homomesy row: chi[x1] - chi[x2] = 0 on (4,3,4)
            (verify_general_homomesies, ((4, 3, 4),), 0, "antichain_counts", 0,
             "same-segment-indicators",
             {"alpha": (4, 3, 4), "x": 1, "y": 2, "orbit": "{}", "size": 5,
              "value": 1, "expected": 0}),
            # chart row: chihat sums 21 on the size-7 orbit of (2,2,2,2)
            (verify_a4, (2,), 0, "ideal_counts", 0, "statistic-chart",
             {"a": 2, "stat": "chihat", "orbit": "{}", "size": 7,
              "value": 22, "expected": 21}),
            # mirror row: chi[x1] - chi[x7] = 0 on (3,3,3)
            (verify_palindromic_props, ((3, 3, 3),), 0, "antichain_counts", 0,
             "mirror-antichain",
             {"alpha": (3, 3, 3), "k": 1, "orbit": "{}", "size": 21,
              "value": 1, "expected": 0}),
            # orbomesy: the third size-17 orbit of (4,3,4) gets another chi sum
            (verify_aba, (4, 3), 3, "chi", None, "chi-orbomesic",
             {"a": 4, "b": 3, "orbit": "{x3}", "size": 17, "value": 37,
              "expected": 36}),
        ],
    )
    def test_witness(self, monkeypatch, check, args, index, field, at, part, want):
        real = harness.orbit_profiles

        def corrupted(F, cap=None):
            profiles = list(real(F, cap))
            p = profiles[index]
            bumped = _bump(getattr(p, field), at)
            profiles[index] = dataclasses.replace(p, **{field: bumped})
            return tuple(profiles)

        monkeypatch.setattr(harness, "orbit_profiles", corrupted)
        rep = check(*args)
        verdicts = {r.params["part"]: r.verdict for r in rep.instances}
        assert verdicts[part] == "fail"
        assert rep.verdict == "fail"
        (w,) = [w for w in rep.witnesses if w["part"] == part]
        assert w == {**want, "part": part}
