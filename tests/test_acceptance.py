"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  The n <= 12 fence sweeps are shared through session fixtures so
the orbit decompositions are computed once.
"""

import time

import pytest

from fences import (
    ANTICHAIN,
    IDEAL,
    ToggleWord,
    admissible_toggles,
    antichain_orbits,
    base_graph,
    build_fence,
    closed_form_count,
    conjugate_word,
    conjugation_path,
    count_ideals,
    ideal_complement,
    orbit_of,
    orbit_of_tiling,
    orbit_stats_from_tiling,
    tile_counts,
    tiling_of_orbit,
    validate_tiling,
)
from fences.harness import (
    all_fence_compositions,
    find_cross_orbit_complement,
    orbit_profiles,
    scan_conjecture_constant_alpha,
    scan_palindromic_tiles,
    sweep_a1a1a,
    sweep_a4,
    sweep_aba,
    sweep_two_segment,
    verify_general_homomesies,
    verify_linear_extension_toggles,
    verify_transfer_ideal,
)
from fences.stats import orbit_element_counts


def emit(num: int, ok: bool, msg: str, t0: float) -> None:
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {msg} [{dt:.1f}s]")


@pytest.fixture(scope="session")
def sweep12():
    """One pass over every fence with n <= 12: homomesy theorem parts,
    tiling-formula agreement, the profile's tile counts against the built
    tiling, roundtrip and validation, injectivity.

    Orbit profiles carry no tiling, so every orbit's tiling is built here.
    Profiles and orbit_stats_from_tiling share the tiling lemma, so the
    profile's ideal counts are also checked against counts taken from the
    generated ideals themselves.
    """
    t0 = time.perf_counter()
    failures = {"homomesies": [], "formulas": [], "roundtrip": []}
    for alpha in all_fence_compositions(12):
        F = build_fence(alpha)
        rep = verify_general_homomesies(F)
        if rep.verdict == "fail":
            failures["homomesies"].append((alpha, rep.witnesses))
        canon = set()
        for p in orbit_profiles(F):
            T = tiling_of_orbit(F, p.orbit)
            label = p.orbit.representative.label()
            if p.counts != tile_counts(T):
                failures["formulas"].append((alpha, label, "tile counts"))
            ideals = [F._down_closure_mask(m) for m in p.orbit.masks]
            (direct,) = zip(*orbit_element_counts(F, [ideals]))
            if direct != p.ideal_counts or sum(direct) != p.chihat:
                failures["formulas"].append((alpha, label, "ideal counts"))
            st = orbit_stats_from_tiling(F, T)
            if not (
                st.antichain_counts == p.antichain_counts
                and st.ideal_counts == p.ideal_counts
                and st.antichain_total == p.chi
                and st.ideal_total == p.chihat
            ):
                failures["formulas"].append((alpha, label))
            v = validate_tiling(F.alpha, T)
            if not v.valid:
                failures["roundtrip"].append((alpha, v.violations))
            elif orbit_of_tiling(F, T).reps != p.orbit.reps:
                failures["roundtrip"].append((alpha, "roundtrip mismatch"))
            canon.add(T.canonical_columns())
        if len(canon) != len(orbit_profiles(F)):
            failures["roundtrip"].append((alpha, "tilings not injective"))
    failures["seconds"] = time.perf_counter() - t0
    return failures


def test_criterion_01_f434(f434):
    t0 = time.perf_counter()
    orbits = antichain_orbits(f434)
    ok = sorted(o.size for o in orbits) == [5, 17, 17, 17]
    five = next(o for o in orbits if o.size == 5)
    ok &= [set(S.elements) for S in five.reps] == [
        set(), {1, 7}, {2, 6, 8}, {3, 5, 9}, {4, 10},
    ]
    first17 = next(o for o in orbits if o.size == 17)
    c = tile_counts(tiling_of_orbit(f434, first17))
    ok &= c.black_sequence == (4, 5, 4) and c.red[1:] == (1, 1, 0)
    dt = time.perf_counter() - t0
    emit(1, ok and dt < 1.0, "orbit sizes, listed 5-orbit, 17-orbit tile counts on (4,3,4)", t0)
    assert ok
    assert dt < 1.0


def test_criterion_02_two_segment():
    t0 = time.perf_counter()
    F = build_fence((5, 4))
    profiles = orbit_profiles(F)
    ok = len(profiles) == 1 and profiles[0].size == 21 and profiles[0].chi == 32
    rep = sweep_two_segment(14)
    ok &= rep.verdict == "pass"
    dt = time.perf_counter() - t0
    emit(2, ok and dt < 30, "(5,4) orbit and the two-segment theorem for a+b <= 14", t0)
    assert ok and dt < 30


def test_criterion_03_aba():
    t0 = time.perf_counter()
    rep = sweep_aba(12)
    ok = rep.verdict == "pass"
    dt = time.perf_counter() - t0
    emit(3, ok and dt < 120, "(a,b,a) sizes, chi orbomesy, chihat = n/2 for a+b <= 12", t0)
    assert ok and dt < 120


def test_criterion_04_a4():
    t0 = time.perf_counter()
    rep = sweep_a4(6)
    ok = rep.verdict == "pass"
    dt = time.perf_counter() - t0
    emit(4, ok and dt < 300, "(a,a,a,a) counts, sizes, chi and chihat chart for a <= 6", t0)
    assert ok and dt < 300


def test_criterion_05_a1a1a():
    t0 = time.perf_counter()
    rep = sweep_a1a1a(6)
    ok = rep.verdict == "pass"
    dt = time.perf_counter() - t0
    emit(5, ok and dt < 120, "(a,1,a,1,a) counts, sizes, chi, superorbit pairing for a <= 6", t0)
    assert ok and dt < 120


def test_criterion_06_homomesies(sweep12):
    t0 = time.perf_counter()
    ok = not sweep12["homomesies"] and sweep12["seconds"] < 600
    emit(6, ok, f"homomesy parts (a)-(f) and superorbit n/2 on every fence n <= 12 "
                f"(sweep {sweep12['seconds']:.0f}s)", t0)
    assert not sweep12["homomesies"], sweep12["homomesies"][:3]
    assert sweep12["seconds"] < 600


def test_criterion_07_tiling_formulas(sweep12):
    t0 = time.perf_counter()
    emit(7, not sweep12["formulas"], "tiling-derived statistics equal direct sums, n <= 12", t0)
    assert not sweep12["formulas"], sweep12["formulas"][:3]


def test_criterion_08_roundtrip(sweep12):
    t0 = time.perf_counter()
    emit(8, not sweep12["roundtrip"], "tiling validation, roundtrip, injectivity, n <= 12", t0)
    assert not sweep12["roundtrip"], sweep12["roundtrip"][:3]


def test_criterion_09_toggle_composition():
    t0 = time.perf_counter()
    bad = []
    for alpha in all_fence_compositions(10):
        rep = verify_linear_extension_toggles(alpha, max_extensions=50, seed=0)
        if rep.verdict != "pass":
            bad.append((alpha, rep.witnesses))
    emit(9, not bad, "50 sampled linear extensions compose to rowmotion, n <= 10", t0)
    assert not bad, bad[:3]


def test_criterion_10_ideal_counts():
    t0 = time.perf_counter()
    bad = []
    for alpha in all_fence_compositions(15):  # sum(alpha) <= 16
        want = count_ideals(alpha)
        if len(build_fence(alpha).ideal_masks()) != want:
            bad.append((alpha, "enumeration"))
        if 2 <= len(alpha) <= 5 and closed_form_count(alpha) != want:
            bad.append((alpha, "closed form"))
    emit(10, not bad, "recurrence = closed form = enumeration for sum(alpha) <= 16", t0)
    assert not bad, bad[:3]


def test_criterion_11_tile_sequence_counterexample(f48):
    t0 = time.perf_counter()
    seeded = orbit_of(f48, f48.element_set([1, 7], ANTICHAIN))
    c = tile_counts(tiling_of_orbit(f48, seeded))
    ok = c.black_sequence == (21, 20, 18, 18, 19, 18, 19, 21)
    ok &= c.red_sequence == (5, 4, 13, 4, 9, 8, 5)

    scan = scan_palindromic_tiles(12)
    exceptional = {}
    for inst in scan.instances:
        bad_orbits = inst.detail["nonpalindromic_orbits"]
        if bad_orbits:
            exceptional[(inst.params["a"], inst.params["s"])] = bad_orbits
    ok &= set(exceptional) == {(4, 8)}
    ok &= any(
        tuple(o["black"]) == (21, 20, 18, 18, 19, 18, 19, 21)
        and tuple(o["red"]) == (5, 4, 13, 4, 9, 8, 5)
        for o in exceptional.get((4, 8), [])
    )
    dt = time.perf_counter() - t0
    emit(11, ok and dt < 3600, "the (4^8) exceptional orbit sequences; all other (a^s) palindromic", t0)
    assert ok and dt < 3600


def test_criterion_12_constant_alpha_conjecture():
    t0 = time.perf_counter()
    rep = scan_conjecture_constant_alpha(12)
    ok = rep.verdict == "pass"

    F = build_fence((2,) * 7)
    cross = find_cross_orbit_complement(F).instances[0].detail
    ok &= cross["count"] == 140
    I = F.element_set([1, 3, 4], IDEAL)
    J = ideal_complement(F, I)
    ok &= set(J.elements) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 12}
    ok &= orbit_of(F, I).representative != orbit_of(F, J).representative
    # the conjectured n/2 average still holds even though superorbits are
    # strictly coarser than orbits here
    for p in orbit_profiles(F):
        ok &= 2 * p.chihat == F.n * p.size
    emit(12, ok, "chi orbomesic and odd-s chihat n/2 for a+s <= 12; (2^7) cross-orbit pair", t0)
    assert ok


def test_criterion_13_toggle_machinery():
    t0 = time.perf_counter()
    bad = []
    for alpha in all_fence_compositions(12):
        F = build_fence(alpha)
        G = base_graph(F, IDEAL)
        covers = {tuple(sorted(p)) for p in F.cover_pairs()}
        if set(G.edges) != covers or not G.is_forest:
            bad.append((alpha, "base graph"))

    F222 = build_fence((2, 2, 2))
    G = base_graph(F222, IDEAL)
    w = ToggleWord(IDEAL, (1, 5, 2, 4, 3))
    if 5 not in admissible_toggles(w, G):
        bad.append("worked example: 5 not admissible")
    if conjugate_word(w, 5, G).order != (1, 2, 4, 3, 5):
        bad.append("worked example: conjugation")
    if conjugation_path(w, ToggleWord(IDEAL, (1, 2, 4, 3, 5)), G) != [5]:
        bad.append("worked example: path")

    for alpha in all_fence_compositions(10):
        rep = verify_transfer_ideal(alpha, pairs=200, seed=0)
        if rep.verdict != "pass":
            bad.append((alpha, rep.witnesses))
    emit(13, not bad, "base graphs = cover forests (n <= 12), worked conjugation, "
                      "200 transfer pairs per fence (n <= 10)", t0)
    assert not bad, bad[:3]
