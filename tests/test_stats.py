from fractions import Fraction

import pytest

from fences import (
    ANTICHAIN,
    IDEAL,
    RoleError,
    antichain_orbits,
    build_fence,
    check_homomesy,
    check_orbomesy,
    evaluate,
    ideal_orbits,
    indicator,
    orbit_stats_from_tiling,
    orbit_sum,
    parse_stat,
    tile_counts,
    tiling_of_orbit,
)
from fences.harness import all_fence_compositions, orbit_profiles
from fences.stats import StatExprError, orbit_element_counts


class TestParser:
    def test_documented_grammar(self):
        e = parse_stat("2*chi[3] - chi[5] + 1/2")
        assert str(e) == "2*chi[3] - chi[5] + 1/2"
        assert e.constant == Fraction(1, 2)
        assert [(c, a.kind, a.element) for c, a in e.terms] == [
            (2, "chi", 3),
            (-1, "chi", 5),
        ]

    def test_whitespace_insensitive(self):
        assert parse_stat("chi[1]+chi[2]") == parse_stat(" chi[ 1 ] + chi[ 2 ] ")

    def test_bare_atoms(self):
        e = parse_stat("chihat")
        assert e.terms[0][1].kind == "chihat"
        assert e.terms[0][1].element is None

    def test_leading_minus(self):
        e = parse_stat("-chi[2] + 3")
        assert e.terms[0][0] == -1 and e.constant == 3

    @pytest.mark.parametrize("bad", ["", "chi[0]", "chi[", "2**chi", "foo", "1/0", "chi[2] chi[3]"])
    def test_rejects(self, bad):
        with pytest.raises(StatExprError):
            parse_stat(bad)


class TestEvaluate:
    def test_cardinality(self, f434):
        A = f434.element_set([2, 6, 8], ANTICHAIN)
        assert evaluate(f434, parse_stat("chi"), A) == 3

    def test_membership(self, f434):
        A = f434.element_set([4, 10], ANTICHAIN)
        assert evaluate(f434, parse_stat("chi[4]"), A) == 1
        assert evaluate(f434, parse_stat("5*chi[1] + chi[4]"), A) == 1

    def test_role_checks(self, f434):
        A = f434.element_set([4, 10], ANTICHAIN)
        I = f434.element_set([1], IDEAL)
        with pytest.raises(RoleError):
            evaluate(f434, parse_stat("chihat[1]"), A)
        with pytest.raises(RoleError):
            evaluate(f434, parse_stat("chi[1]"), I)
        with pytest.raises(RoleError):
            evaluate(f434, parse_stat("chi[1] + chihat[2]"), A)

    def test_constant_only(self, f434):
        A = f434.element_set([], ANTICHAIN)
        assert evaluate(f434, parse_stat("3/4"), A) == Fraction(3, 4)


class TestOrbitSum:
    def test_54_chi(self):
        F = build_fence((5, 4))
        (o,) = antichain_orbits(F)
        assert orbit_sum(F, parse_stat("chi"), o) == 32

    def test_434_five_orbit_chi(self, f434):
        o = next(x for x in antichain_orbits(f434) if x.size == 5)
        assert orbit_sum(f434, parse_stat("chi"), o) == 10

    def test_same_segment_difference_vanishes(self, f434):
        e = parse_stat("chi[5]-chi[6]")
        for o in antichain_orbits(f434):
            assert orbit_sum(f434, e, o) == 0


class TestHomomesy:
    def test_same_segment_zero_mesic(self, f434):
        r = check_homomesy(f434, ANTICHAIN, parse_stat("chi[5]-chi[6]"))
        assert r.kind == "homomesic" and r.constant == 0

    def test_first_segment_one_mesic(self, f434):
        r = check_homomesy(f434, ANTICHAIN, parse_stat("4*chi[1]+chi[4]"))
        assert r.kind == "homomesic" and r.constant == 1

    def test_all_twos_half_s(self):
        for s in (2, 3, 4, 5):
            F = build_fence((2,) * s)
            r = check_homomesy(F, ANTICHAIN, parse_stat("chi"))
            assert r.kind == "homomesic" and r.constant == Fraction(s, 2)

    def test_a4_orbomesic_not_homomesic(self):
        F = build_fence((4, 4, 4, 4))
        r = check_homomesy(F, ANTICHAIN, parse_stat("chi"))
        assert r.kind == "orbomesic"
        r2 = check_orbomesy(F, IDEAL, parse_stat("chihat"))
        assert r2.is_orbomesic

    def test_aba_chi_orbomesic(self):
        for a, b in [(4, 3), (3, 3), (6, 4)]:
            F = build_fence((a, b, a))
            assert check_orbomesy(F, ANTICHAIN, parse_stat("chi")).is_orbomesic

    def test_homomesic_implies_orbomesic(self, f434):
        r = check_homomesy(f434, ANTICHAIN, parse_stat("chi[5]-chi[6]"))
        assert r.is_homomesic and r.is_orbomesic

    def test_constant_shift_shifts_average(self, f434):
        base = check_homomesy(f434, ANTICHAIN, parse_stat("4*chi[1]+chi[4]"))
        shifted = check_homomesy(f434, ANTICHAIN, parse_stat("4*chi[1]+chi[4]+7"))
        assert shifted.kind == "homomesic"
        assert shifted.constant == base.constant + 7

    def test_neither_case_exists(self):
        F = build_fence((2, 1, 2, 1, 2))
        # sizes 8 and 8 with different chi sums: not orbomesic
        r = check_homomesy(F, ANTICHAIN, parse_stat("chi"))
        assert r.kind == "neither"

    def test_json_round(self, f434):
        r = check_homomesy(f434, ANTICHAIN, parse_stat("chi"))
        d = r.to_json_dict()
        assert set(d) == {"kind", "constant", "per_orbit"}
        assert all(set(x) == {"size", "sum", "average"} for x in d["per_orbit"])


class TestTilingFormulas:
    def test_434_17_orbit_chi(self, f434):
        for o in antichain_orbits(f434):
            if o.size != 17:
                continue
            st = orbit_stats_from_tiling(f434, tiling_of_orbit(f434, o))
            assert st.antichain_total == 36

    def test_54_values(self):
        F = build_fence((5, 4))
        (o,) = antichain_orbits(F)
        st = orbit_stats_from_tiling(F, tiling_of_orbit(F, o))
        assert st.antichain_total == 32
        assert st.ideal_total == 78

    def test_odd_shared_ideal_count_is_red_heads(self, f434):
        for p in orbit_profiles(f434):
            st = orbit_stats_from_tiling(f434, tiling_of_orbit(f434, p.orbit))
            x = f434.shared_element(1)  # odd index: maximal element
            assert st.ideal_counts[x - 1] == p.counts.red_heads_in_row(1)

    def test_formulas_match_direct_sums(self):
        for alpha in all_fence_compositions(9):
            F = build_fence(alpha)
            for p in orbit_profiles(F):
                T = tiling_of_orbit(F, p.orbit)
                assert p.counts == tile_counts(T), alpha
                st = orbit_stats_from_tiling(F, T)
                assert st.antichain_counts == p.antichain_counts, alpha
                assert st.ideal_counts == p.ideal_counts, alpha
                assert st.antichain_total == p.chi
                assert st.ideal_total == p.chihat

    def test_direct_counts_helper(self, f22):
        o = antichain_orbits(f22)[0]
        counts = orbit_element_counts(o.masks, f22.n)
        assert sum(counts) == sum(len(S) for S in o.reps)

    def test_indicator_builder(self, f434):
        e = indicator("chi", 5)
        assert str(e) == "chi[5]"
        r = check_homomesy(f434, ANTICHAIN, e)
        assert r.per_orbit[0][0] == 5
