import hashlib
import pickle
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from fences import (
    ANTICHAIN,
    IDEAL,
    FenceError,
    RoleError,
    ToggleWord,
    antichain_orbits,
    build_fence,
    check_homomesy,
    evaluate,
    ideal_orbits,
    indicator,
    orbit_stats_from_tiling,
    orbit_sum,
    parse_stat,
    tile_counts,
    tiling_of_orbit,
    transfer_check,
)
from fences import stats
from fences.harness import all_fence_compositions, orbit_profiles
from fences.stats import MesyReport, StatExprError, orbit_element_counts


class TestParser:
    def test_documented_grammar(self):
        e = parse_stat("2*chi[3] - chi[5] + 1/2")
        assert str(e) == "2*chi[3] - chi[5] + 1/2"
        assert e.constant == Fraction(1, 2)
        assert [(c, a.kind, a.element) for c, a in e.terms] == [
            (2, "chi", 3),
            (-1, "chi", 5),
        ]

    def test_pickled_copy_keeps_the_integer_form(self):
        e = parse_stat("2*chi[3] - 1/2")
        form = e.integer_form
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)
        assert copy.integer_form == form == (2, -1, ((2, 4),))

    @pytest.mark.parametrize(
        "text, form",
        [
            ("chi", (1, 0, ((None, 1),))),
            ("2*chihat - 1/3", (3, -1, ((None, 6),))),
            ("chi - chi[4] + chi[4]", (1, 0, ((None, 1),))),
            ("1/2*chi[2] + chi + 1/3*chi[2] - 3/4", (12, -9, ((1, 10), (None, 12)))),
            ("chi[3] - chi[3] + 5", (1, 5, ())),
        ],
    )
    def test_integer_form(self, text, form):
        # atoms on the same element merge, and zero weights are dropped
        assert parse_stat(text).integer_form == form

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
        r2 = check_homomesy(F, IDEAL, parse_stat("chihat"))
        assert r2.is_orbomesic

    def test_aba_chi_orbomesic(self):
        for a, b in [(4, 3), (3, 3), (6, 4)]:
            F = build_fence((a, b, a))
            assert check_homomesy(F, ANTICHAIN, parse_stat("chi")).is_orbomesic

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


class TestStatisticColumns:
    """check_homomesy and orbit_sum count only the element columns their
    statistic reads, and read the cardinality off each orbit's bit count."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The 0-based elements every lane_counts call counts."""
        seen, real = [], stats.lane_counts

        def spy(raw, width, ks, ends):
            ks = list(ks)
            seen.extend(ks)
            return real(raw, width, ks, ends)

        monkeypatch.setattr(stats, "lane_counts", spy)
        return seen

    def test_chi_counts_no_element_column(self, f434, counted):
        r = check_homomesy(f434, ANTICHAIN, parse_stat("chi"))
        assert r.kind == "orbomesic" and counted == []
        assert orbit_sum(f434, parse_stat("chi"), antichain_orbits(f434)[0]) == 10
        assert counted == []

    def test_two_elements_count_two_columns(self, f434, counted):
        e = parse_stat("chi[3] - chi[5]")
        check_homomesy(f434, ANTICHAIN, e)
        assert sorted(counted) == [2, 4]
        counted.clear()
        orbit_sum(f434, e, antichain_orbits(f434)[0])
        assert sorted(counted) == [2, 4]

    def test_cardinality_is_the_sum_of_element_columns(self):
        for alpha in all_fence_compositions(10):
            F = build_fence(alpha)
            for kind, orbits in (("chi", antichain_orbits(F)), ("chihat", ideal_orbits(F))):
                masks = [o.masks for o in orbits]
                _, cardinality = stats._statistic_columns(F, indicator(kind), masks)
                want = list(map(sum, zip(*orbit_element_counts(F, masks))))
                assert cardinality == want, (alpha, kind)


class TestReportJson:
    @pytest.mark.parametrize(
        "sums, denom",
        [
            (((5, -10), (17, -34)), 1),  # negative sums and averages
            (((5, 0), (3, 0)), 6),  # zero over any denominator
            (((4, 6), (6, -9), (5, 7)), 12),  # denominators that reduce
            (((1, 3), (2, -5)), 4),
        ],
    )
    def test_text_is_the_fraction_text(self, sums, denom):
        d = MesyReport("neither", None, sums, denom).to_json_dict()
        want = [
            {"size": size, "sum": str(Fraction(sm, denom)),
             "average": str(Fraction(sm, size * denom))}
            for size, sm in sums
        ]
        assert d["per_orbit"] == want


class TestErrorPaths:
    """A statistic that does not fit the fence: every entry point that sums
    it names the first element out of range, after the checks of its
    statistic's family that come first there."""

    RANGE = "element x11 out of range 1..10"
    MIXED = "statistic mixes antichain (chi) and ideal (chihat) atoms"

    def sums(self, F, text):
        """Every entry point, summing the statistic over antichain orbits."""
        expr, w = parse_stat(text), ToggleWord(ANTICHAIN, range(1, F.n + 1))
        return {
            "check_homomesy": lambda: check_homomesy(F, ANTICHAIN, expr),
            "orbit_sum": lambda: orbit_sum(F, expr, antichain_orbits(F)[0]),
            "transfer_check": lambda: transfer_check(F, ANTICHAIN, w, w, [expr]),
        }

    @pytest.mark.parametrize("entry", ["check_homomesy", "orbit_sum", "transfer_check"])
    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("chi[11]", FenceError, RANGE),
            ("chi[1] + chi[11] + chi[12]", FenceError, RANGE),
            ("chi[11] - chi[11]", FenceError, RANGE),
            ("chi[11] + chihat[2]", RoleError, MIXED),
            ("chihat[1] + chi[11]", RoleError, MIXED),
        ],
    )
    def test_message(self, f434, entry, text, error, message):
        with pytest.raises(error) as info:
            self.sums(f434, text)[entry]()
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ("check_homomesy", RoleError, "statistic over ideals checked on antichain orbits"),
            ("orbit_sum", RoleError, "statistic over ideals summed over an antichain orbit"),
            ("transfer_check", FenceError, RANGE),
        ],
    )
    def test_range_against_the_family_check(self, f434, entry, error, message):
        # chihat[11] on antichain orbits: check_homomesy and orbit_sum test
        # the family first, transfer_check the range of every statistic
        with pytest.raises(error) as info:
            self.sums(f434, "chihat[11]")[entry]()
        assert type(info.value) is error and str(info.value) == message

    def test_transfer_checks_every_range_before_any_family(self, f434):
        w = ToggleWord(ANTICHAIN, range(1, 11))
        battery = [parse_stat("chihat[1]"), parse_stat("chi[11]")]
        with pytest.raises(FenceError) as info:
            transfer_check(f434, ANTICHAIN, w, w, battery)
        assert type(info.value) is FenceError and str(info.value) == self.RANGE


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
        (counts,) = zip(*orbit_element_counts(f22, [o.masks]))
        assert sum(counts) == sum(len(S) for S in o.reps)

    def test_indicator_builder(self, f434):
        e = indicator("chi", 5)
        assert str(e) == "chi[5]"
        r = check_homomesy(f434, ANTICHAIN, e)
        assert r.per_orbit[0][0] == 5


# SHA-256 of the survey demo's stdout, recorded while MesyReport still built
# its per-orbit Fractions eagerly; the demo prints every per_orbit entry
SURVEY_DEMO = Path(__file__).resolve().parents[1] / "demos" / "homomesy_survey.py"
SURVEY_SHA256 = "fdcf7b0b185bd6e621e3376c4b8ee886eff61e5152f31136c68819de2b530930"


def test_homomesy_survey_demo_stdout(capsys):
    runpy.run_path(str(SURVEY_DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_SHA256
