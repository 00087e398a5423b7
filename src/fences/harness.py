"""Mechanical verification of the orbit, homomesy, and tiling results.

Every checker returns a VerificationReport: one instance per parameter
tuple (or per claim part), each instance pass, fail, or vacuous when a
stated hypothesis does not hold.  A failing instance always carries a
witness complete enough to re-check by hand: the composition, the orbit
representative, and the statistic values involved.  All arithmetic is
exact, so there are no tolerances anywhere.  A report is pure data, frozen
and equal on every run of its checker: it carries no timing, and the CLI
times the one checker or sweep call of a claim.

The linear identities are data.  A row names its keys (x, y, segment, j,
k or stat), integer weights over an orbit profile's antichain_counts or
ideal_counts, as the (element, weight) pairs of StatExpr.integer_form
(None for the cardinality), and the expected orbit sum as a function of
the orbit size; one checker (_row_failures) runs every row over every
orbit through stats.weighted_sum.  A part with rows fails on the first
orbit that breaks one, with the witness

    {instance params, row keys, orbit, size, value, expected}

where orbit is the representative's label and value the row's weighted
sum on it.  The chi orbomesy parts ask the statistic classifier and
report the same witness, expected being the sum of the first orbit of
that size.

The parts that are not linear are data of two more kinds.  A multiset
part (_multiset_part) compares items counted off the orbits or
superorbits with (item, count) pairs, equal items adding and zero counts
dropping, and fails with {instance params, got, expected}, each as sorted
(item, count) pairs; the superorbit pairing adds superorbits, the
representative labels of the orbits of each superorbit whose size tuple
is counted more often than expected.  A first-witness part
(_first_witness_part) is vacuous when its hypothesis fails (for rows:
when it leaves none), and otherwise fails with the first witness a lazy
sequence yields: rows and chi orbomesy as above, {orbit, size} for an
odd orbit size, {superorbit, chihat, size} for a superorbit off chihat's
n/2 average (superorbit lists the representative label of each of its
orbits), and {orbit, black, red} for an orbit palindromic in one tile
sequence only.

The claims are data too.  CLAIMS maps each claim of `fences verify` and
`fences scan` to its command, its one-instance checker with the options
that select an instance, the default sample count of a sampling checker,
and its sweep with the bound option and the bound's default; the CLI
builds its choices, options and dispatch from it.  Checkers are held by
name and looked up on this module when a claim runs, so a wrapper that
replaces the module attribute (a tracer, a test double) is the function
called.  Every sweep and grid scan collects its instances through one
loop, _sweep.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import gcd
from operator import mul, sub
from typing import Callable, NamedTuple

from .fence import ANTICHAIN, IDEAL, Composition, ElementSet, Fence, FenceError
from .rowmotion import (
    Orbit,
    _ideal_complement_mask,
    _rho_hat_mask,
    antichain_orbits,
    ideal_orbits,
    superorbits,
)
from .stats import classify_orbit_sums, indicator, orbit_element_counts, weighted_sum
from .tiling import TileCounts, tiling_lemma
from .toggles import (
    ToggleWord,
    _commutation_edges,
    base_graph,
    compile_word,
    sample_linear_extensions,
    transfer_chain,
    transfer_check,
)


@dataclass(frozen=True)
class InstanceResult:
    params: dict
    verdict: str  # "pass" | "fail" | "vacuous"
    witness: dict | None = None
    detail: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    params: dict
    instances: list[InstanceResult] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if any(r.verdict == "fail" for r in self.instances):
            return "fail"
        if any(r.verdict == "pass" for r in self.instances):
            return "pass"
        return "vacuous"

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    @property
    def witnesses(self) -> list[dict]:
        out = []
        for r in self.instances:
            if r.verdict == "fail":
                w = dict(r.params)
                w.update(r.witness or {})
                out.append(w)
        return out

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def _result(params: dict, witness: dict | None) -> InstanceResult:
    """A checked instance: it fails exactly when it has a witness."""
    return InstanceResult(params, "pass" if witness is None else "fail", witness)


def _sweep(claim: str, params: dict, parts) -> VerificationReport:
    """One report holding the instances of every part, in order.  `parts`
    is an iterable of instance lists that runs the checks as it is
    consumed, so this is the one loop over the instances of every sweep
    and grid scan."""
    return VerificationReport(claim, params, [r for part in parts for r in part])


def _constant_grid(max_total: int):
    """(a, s) of every constant composition (a^s) with a >= 2, s >= 1 and
    a + s <= max_total, a outer."""
    return ((a, s) for a in range(2, max_total) for s in range(1, max_total - a + 1))


def _fence(alpha) -> Fence:
    if isinstance(alpha, Fence):
        return alpha
    return Fence(Composition.coerce(alpha))


def all_fence_compositions(max_n: int):
    """Every composition with first and last part >= 2 and n <= max_n,
    in deterministic sorted order: for each total sum(alpha) = n + 1, the
    parts between every set of cuts at 2 .. total - 2."""
    return sorted(
        tuple(map(sub, (*cuts, total), (0, *cuts)))
        for total in range(2, max_n + 2)
        for r in range(total - 1)
        for cuts in combinations(range(2, total - 1), r)
    )


# -- per-orbit profiles ----------------------------------------------------


@dataclass(frozen=True)
class OrbitProfile:
    """Everything the checks need to know about one antichain orbit and
    the matching ideal orbit (the generated ideals, in the same cyclic
    order)."""

    orbit: Orbit
    size: int
    antichain_counts: tuple[int, ...]
    ideal_counts: tuple[int, ...]
    chi: int
    chihat: int
    counts: TileCounts


def orbit_profiles(F: Fence) -> tuple[OrbitProfile, ...]:
    """Profiles of every antichain orbit, canonically ordered; memoised on F.

    One orbit_element_counts table counts every orbit, and one
    tiling.tiling_lemma call reads every orbit's tile counts and ideal
    counts off it: no tiling or generated ideal is built here.  Callers
    that render or round-trip a tiling build it with tiling_of_orbit.
    """
    return F.memo("profiles", partial(_profiles, F))


def _profiles(F: Fence) -> tuple[OrbitProfile, ...]:
    orbits = antichain_orbits(F)
    sizes = [o.size for o in orbits]
    columns = orbit_element_counts(F, [o.masks for o in orbits])
    tiles, ideals = tiling_lemma(F, sizes, columns)
    return tuple(
        OrbitProfile(o, o.size, a, i, sum(a), sum(i), t)
        for o, a, i, t in zip(orbits, zip(*columns), ideals, tiles)
    )


# -- linear rows ---------------------------------------------------------------


class _Row(NamedTuple):
    """A linear orbit identity: on every orbit the weighted element counts
    of one profile field sum to expected(orbit size)."""

    keys: dict  # identifies the row in a witness: x, y, segment, j, k or stat
    counts: str  # "antichain_counts" or "ideal_counts"
    weights: tuple[tuple[int | None, int], ...]  # (0-based index or None, weight)
    expected: Callable[[int], int | None]


def _times(c: int) -> Callable[[int], int]:
    """Expected orbit sum c * size."""
    return partial(mul, c)


def _half_n_chihat(n: int) -> _Row:
    """chihat averages n/2: twice its orbit sum is n times the size."""
    return _Row({}, "ideal_counts", ((None, 2),), _times(n))


def _witness(keys: dict, p: OrbitProfile, value: int, expected) -> dict:
    orbit = p.orbit.representative.label()
    return dict(keys, orbit=orbit, size=p.size, value=value, expected=expected)


def _row_failures(profiles, rows):
    """The witness of every orbit breaking a row, rows taken in order."""
    for keys, counts, weights, expected_sum in rows:
        for p in profiles:
            value = weighted_sum(weights, getattr(p, counts))
            expected = expected_sum(p.size)
            if value != expected:
                yield _witness(keys, p, value, expected)


def _first_witness_part(params: dict, witnesses) -> InstanceResult:
    """A part whose failures a lazy iterable yields: vacuous when
    `witnesses` is None (the part's hypothesis fails), else failing with
    the first witness it yields, and passing when it yields none."""
    if witnesses is None:
        return InstanceResult(params, "vacuous")
    return _result(params, next(iter(witnesses), None))


def _rows_part(params: dict, profiles, rows) -> InstanceResult:
    """A part checked as rows; vacuous when its hypothesis leaves no row."""
    return _first_witness_part(params, _row_failures(profiles, rows) if rows else None)


def _chi_orbomesic(params: dict, profiles) -> InstanceResult:
    """chi has one sum per orbit size.  The classifier decides; a failure's
    witness is the first orbit whose chi differs from the first orbit of
    its size."""
    sizes, chi = [p.size for p in profiles], [p.chi for p in profiles]
    first: dict[int, int] = {}
    witnesses = (
        _witness({}, p, p.chi, first[p.size])
        for p in profiles
        if first.setdefault(p.size, p.chi) != p.chi
    )
    orbomesic = classify_orbit_sums(sizes, chi).is_orbomesic
    return _first_witness_part(params, () if orbomesic else witnesses)


def _multiset(pairs) -> Counter:
    """The multiset of (item, count) pairs: equal items add, and items
    whose counts add to zero drop (as Counter addition drops them)."""
    return sum((Counter({item: count}) for item, count in pairs), Counter())


def _multiset_part(params: dict, items, expected, superorbits=None) -> InstanceResult:
    """The items, counted as a multiset, equal the multiset of the
    (item, count) pairs `expected`.  A failure's witness is {got,
    expected}, each as its sorted (item, count) pairs.  When the items
    are read off `superorbits`, one each, it also lists under
    "superorbits", in order, the representative labels of the orbits of
    every superorbit whose item is counted more often than expected."""
    items = list(items)
    got, want = Counter(items), _multiset(expected)
    if got == want:
        return _result(params, None)
    witness = {"got": sorted(got.items()), "expected": sorted(want.items())}
    if superorbits is not None:
        witness["superorbits"] = [
            [o.representative.label() for o in so.orbits]
            for so, item in zip(superorbits, items)
            if got[item] > want[item]
        ]
    return _result(params, witness)


# -- two-segment fences ------------------------------------------------------


def verify_two_segment(a: int, b: int) -> VerificationReport:
    """Orbit sizes, orbit count, and both cardinality statistics on a
    two-segment fence: all orbits have size lcm(a,b) except one longer by
    one, there are gcd(a,b) orbits, and the chi / chihat sums per orbit
    are fixed polynomials in a and b."""
    F = _fence((a, b))
    profiles = orbit_profiles(F)
    g, ell = gcd(a, b), a * b // gcd(a, b)
    m = (2 * a * b - a - b) // g
    params = {"a": a, "b": b}
    count = len(profiles)
    chi = _Row({}, "antichain_counts", ((None, 1),), lambda w: m if w == ell else m + 1)
    chihat = _Row(  # twice chihat, so the expected sums are integers
        {},
        "ideal_counts",
        ((None, 2),),
        lambda w: ell * (a + b - 2) if w == ell else (ell + 2) * (a + b - 2) + 2,
    )
    instances = [
        _multiset_part(
            {**params, "part": "orbit-sizes"},
            (p.size for p in profiles),
            ((ell, g - 1), (ell + 1, 1)),
        ),
        _result(
            {**params, "part": "orbit-count"},
            None if count == g else {"count": count, "expected": g},
        ),
        _rows_part({**params, "part": "chi"}, profiles, [chi]),
        _rows_part({**params, "part": "chihat"}, profiles, [chihat]),
    ]
    return VerificationReport("two-segment", params, instances)


def sweep_two_segment(max_sum: int) -> VerificationReport:
    return _sweep(
        "two-segment",
        {"max_sum": max_sum},
        (
            verify_two_segment(a, b).instances
            for a in range(2, max_sum - 1)
            for b in range(2, max_sum - a + 1)
        ),
    )


# -- three-segment palindromic fences ----------------------------------------


def aba_orbit_structure(a: int, b: int) -> dict:
    """The predicted orbit-size multiset for the fence (a, b, a)."""
    g = gcd(a, b)
    abar, bbar = a // g, b // g
    ell = a * b // g
    # the least m >= 1 with m * abar = 1 (mod bbar) and m * abar > bbar
    m = pow(abar, -1, bbar) if bbar > 1 else 1
    if m * abar <= bbar:  # m * abar = 1: abar is 1
        m += bbar
    q = (m * abar - 1) // bbar
    sizes = (
        (ell, abar * (g - 1) ** 2),
        (a * (2 * b - 2 * bbar + m) + g, q),
        (a * (2 * b - bbar + m) + g, abar - q),
    )
    return {
        "g": g,
        "abar": abar,
        "bbar": bbar,
        "ell": ell,
        "m": m,
        "q": q,
        "expected_sizes": dict(_multiset(sizes)),
    }


def verify_aba(a: int, b: int) -> VerificationReport:
    """Orbit-size multiset, chi orbomesy, and the n/2 average of chihat
    on the palindromic three-segment fence (a, b, a)."""
    F = _fence((a, b, a))
    profiles = orbit_profiles(F)
    sizes = aba_orbit_structure(a, b)["expected_sizes"]
    params = {"a": a, "b": b}
    half_n = [_half_n_chihat(F.n)]
    instances = [
        _multiset_part(
            {**params, "part": "orbit-sizes"}, (p.size for p in profiles), sizes.items()
        ),
        _chi_orbomesic({**params, "part": "chi-orbomesic"}, profiles),
        _rows_part({**params, "part": "chihat-half-n"}, profiles, half_n),
    ]
    return VerificationReport("aba", params, instances)


def sweep_aba(max_sum: int) -> VerificationReport:
    return _sweep(
        "aba",
        {"max_sum": max_sum},
        (
            verify_aba(a, b).instances
            for a in range(2, max_sum)
            for b in range(1, max_sum - a + 1)
        ),
    )


# -- four equal segments -------------------------------------------------------


def verify_a4(a: int) -> VerificationReport:
    """Orbit counts, sizes, and the full chi/chihat chart on (a,a,a,a)."""
    F = _fence((a, a, a, a))
    profiles = orbit_profiles(F)
    # orbit size: (number of orbits of that size, chi sum, chihat sum)
    chart = {
        a: ((a - 1) ** 3, 4 * a - 4, 2 * a * a - a),
        a + 1: (a, 4 * a - 2, 2 * a * a + 3 * a - 1),
        a * a + a + 1: (1, 4 * a * a - a, 2 * a**3 + 3 * a - 1),
        3 * a * a + a: (a - 1, 12 * a * a - 11 * a + 2, 6 * a**3 - a),
    }
    chi = {size: v for size, (_, v, _) in chart.items()}
    chihat = {size: v for size, (_, _, v) in chart.items()}
    rows = [
        _Row({"stat": "chi"}, "antichain_counts", ((None, 1),), chi.get),
        _Row({"stat": "chihat"}, "ideal_counts", ((None, 1),), chihat.get),
    ]
    instances = [
        _multiset_part(
            {"a": a, "part": "orbit-sizes"},
            (p.size for p in profiles),
            ((size, count) for size, (count, _, _) in chart.items()),
        ),
        _rows_part({"a": a, "part": "statistic-chart"}, profiles, rows),
    ]
    return VerificationReport("a4", {"a": a}, instances)


def sweep_a4(max_a: int) -> VerificationReport:
    return _sweep(
        "a4", {"max_a": max_a}, (verify_a4(a).instances for a in range(2, max_a + 1))
    )


# -- five segments (a,1,a,1,a) -------------------------------------------------


def verify_a1a1a(a: int) -> VerificationReport:
    """Orbit counts, sizes, chi values, and the superorbit pairing on
    (a,1,a,1,a): the size-(a+1) orbits pair up under the ideal
    complement, every other orbit is closed under it."""
    F = _fence((a, 1, a, 1, a))
    profiles = orbit_profiles(F)
    sizes_and_chi = (
        ((a + 1, 3 * a), 2 * a - 2),
        ((3 * a + 2, 9 * a - 3), 1),
        ((a * a + 2 * a, 3 * a * a + 3 * a - 2), a),
    )
    # each superorbit as the sizes of its orbits; 3a+2 = a^2+2a at a = 2
    pairing = (((a + 1, a + 1), a - 1), ((3 * a + 2,), 1), ((a * a + 2 * a,), a))
    sos = superorbits(F)
    instances = [
        _multiset_part(
            {"a": a, "part": "sizes-and-chi"},
            ((p.size, p.chi) for p in profiles),
            sizes_and_chi,
        ),
        _multiset_part(
            {"a": a, "part": "superorbit-pairing"},
            (tuple(o.size for o in so.orbits) for so in sos),
            pairing,
            sos,
        ),
    ]
    return VerificationReport("a1a1a", {"a": a}, instances)


def sweep_a1a1a(max_a: int) -> VerificationReport:
    return _sweep(
        "a1a1a",
        {"max_a": max_a},
        (verify_a1a1a(a).instances for a in range(2, max_a + 1)),
    )


# -- general homomesies ----------------------------------------------------------


def verify_general_homomesies(alpha) -> VerificationReport:
    """The six orbit-statistic identities that hold on every fence, plus
    the n/2 average of chihat on superorbits of self-dual fences.

    Parts with a hypothesis (equal red-head counts, odd segment count
    with even parts, all parts equal to two, self-duality) report vacuous
    when the hypothesis fails.  A superorbit off the n/2 average is named
    by the representative labels of its orbits, so the witness can be
    checked by hand with `fences orbits --family ideals`."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    profiles = orbit_profiles(F)
    instances = []

    def params(part: str) -> dict:
        return {"alpha": key, "part": part}

    n, s, A, I = F.n, F.s, "antichain_counts", "ideal_counts"
    zero, orbit_size = _times(0), _times(1)

    # (a) same-segment unshared indicators agree on every orbit
    rows = [
        _Row({"x": x, "y": y}, A, ((x - 1, 1), (y - 1, -1)), zero)
        for i in range(1, s + 1)
        for x, y in combinations(F.unshared[i], 2)
    ]
    instances.append(_rows_part(params("same-segment-indicators"), profiles, rows))

    # (b) alpha_i * chi_x + chi_{s_i} + chi_{s_{i-1}} sums to the orbit size
    rows = []
    for i in range(1, s + 1):
        ends = [F.shared[j - 1] for j in (i, i - 1) if 1 <= j <= s - 1]
        for x in F.unshared[i]:
            weights = ((x - 1, F.alpha[i - 1]), *((y - 1, 1) for y in ends))
            rows.append(_Row({"segment": i, "x": x}, A, weights, orbit_size))
    instances.append(_rows_part(params("segment-balance"), profiles, rows))

    # (c) weighted first-segment ideal indicators; the row of (k, j) is
    # the row of (j, k) negated, so j < k covers every pair
    rows = [
        _Row({"j": j, "k": k}, I, ((x - 1, k), (y - 1, -j)), _times(k - j))
        for (j, x), (k, y) in combinations(enumerate(F.unshared[1], 1), 2)
    ]
    instances.append(_rows_part(params("first-segment-weighted"), profiles, rows))

    # (d) odd-shared + even-shared ideal indicators, for the pairs of shared
    # rows with equal red-head counts on every orbit (the hypothesis)
    rows = []
    for oi in range(1, s, 2):
        for ei in range(2, s, 2):
            if any(
                p.counts.red_heads_in_row(oi) != p.counts.red_heads_in_row(ei)
                for p in profiles
            ):
                continue  # hypothesis fails for this pair: no row, not a failure
            x, y = F.shared[oi - 1], F.shared[ei - 1]
            weights = ((x - 1, 1), (y - 1, 1))
            rows.append(_Row({"x": x, "y": y}, I, weights, orbit_size))
    instances.append(_rows_part(params("shared-pair"), profiles, rows))

    # (e) odd segment count with all parts even forces even orbit sizes
    odd = (
        {"orbit": p.orbit.representative.label(), "size": p.size}
        for p in profiles
        if p.size % 2
    )
    even_parts = s % 2 == 1 and all(part % 2 == 0 for part in F.alpha)
    instances.append(
        _first_witness_part(params("even-orbit-sizes"), odd if even_parts else None)
    )

    # (f) all parts 2: chi averages s/2
    all_twos = all(part == 2 for part in F.alpha)
    rows = [_Row({}, A, ((None, 2),), _times(s))] if all_twos else []
    instances.append(_rows_part(params("half-s-average"), profiles, rows))

    # chihat averages n/2 on superorbits, which only self-dual fences have
    unbalanced = None
    if F._self_duality_failure() is None:
        unbalanced = (
            {
                "superorbit": [o.representative.label() for o in so.orbits],
                "chihat": total,
                "size": so.size,
            }
            for so in superorbits(F)
            for total in [sum(m.bit_count() for o in so.orbits for m in o.masks)]
            if 2 * total != n * so.size
        )
    instances.append(_first_witness_part(params("superorbit-half-n"), unbalanced))

    return VerificationReport("homomesies", {"alpha": key}, instances)


def sweep_general_homomesies(max_n: int) -> VerificationReport:
    return _sweep(
        "homomesies",
        {"max_n": max_n},
        (
            verify_general_homomesies(alpha).instances
            for alpha in all_fence_compositions(max_n)
        ),
    )


# -- palindromic tile sequences ---------------------------------------------------


def _tile_sequences(params: dict, profiles) -> tuple[InstanceResult, list]:
    """The tile-sequences data part, listing the orbits whose black or red
    sequence is not a palindrome, and each orbit's (black, red)
    palindromicity."""
    sequences = [(p.counts.black_sequence, p.counts.red_sequence) for p in profiles]
    flags = [(black == black[::-1], red == red[::-1]) for black, red in sequences]
    exceptions = [
        {
            "orbit": p.orbit.representative.label(),
            "size": p.size,
            "black": list(p.counts.black_sequence),
            "red": list(p.counts.red_sequence),
        }
        for p, (black_ok, red_ok) in zip(profiles, flags)
        if not (black_ok and red_ok)
    ]
    part = InstanceResult(params, "pass", None, {"nonpalindromic_orbits": exceptions})
    return part, flags


def verify_palindromic_props(alpha) -> VerificationReport:
    """Tile-sequence palindromicity data and the two consequences for
    palindromic compositions: black palindromic iff red palindromic when
    all parts are >= 2, and the mirror homomesies when additionally every
    orbit has palindromic sequences (the ideal version needs odd s)."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    if not F.alpha.is_palindromic:
        raise FenceError(f"alpha {F.alpha} is not palindromic")
    profiles = orbit_profiles(F)
    n, s = F.n, F.s
    sequences, flags = _tile_sequences(
        {"alpha": key, "part": "tile-sequences"}, profiles
    )
    instances = [sequences]

    unmatched = (
        {
            "orbit": p.orbit.representative.label(),
            "black": list(p.counts.black_sequence),
            "red": list(p.counts.red_sequence),
        }
        for p, (black_ok, red_ok) in zip(profiles, flags)
        if black_ok != red_ok
    )
    parts_ge_2 = all(part >= 2 for part in F.alpha)
    params = {"alpha": key, "part": "black-iff-red"}
    instances.append(_first_witness_part(params, unmatched if parts_ge_2 else None))

    # k and n+1-k give the same row, so k runs up to the middle element
    all_palindromic = all(map(all, flags)) and parts_ge_2
    half = range(1, (n + 1) // 2 + 1) if all_palindromic else ()
    rows = [
        _Row({"k": k}, "antichain_counts", ((k - 1, 1), (n - k, -1)), _times(0))
        for k in half
    ]
    instances.append(
        _rows_part({"alpha": key, "part": "mirror-antichain"}, profiles, rows)
    )
    rows = [
        _Row({"k": k}, "ideal_counts", ((k - 1, 1), (n - k, 1)), _times(1))
        for k in (half if s % 2 == 1 else ())
    ]
    instances.append(_rows_part({"alpha": key, "part": "mirror-ideal"}, profiles, rows))
    return VerificationReport("palindromic", {"alpha": key}, instances)


def _palindromic_tiles(a: int, s: int) -> list[InstanceResult]:
    params = {"alpha": (a,) * s, "part": "tile-sequences", "a": a, "s": s}
    return [_tile_sequences(params, orbit_profiles(_fence((a,) * s)))[0]]


def scan_palindromic_tiles(max_total: int) -> VerificationReport:
    """Tile-sequence palindromicity data for every constant composition
    (a^s) with a + s <= max_total."""
    return _sweep(
        "tile-palindromes",
        {"max_total": max_total},
        (_palindromic_tiles(a, s) for a, s in _constant_grid(max_total)),
    )


# -- conjecture scans -------------------------------------------------------------


def _constant_alpha(a: int, s: int) -> list[InstanceResult]:
    F = _fence((a,) * s)
    profiles = orbit_profiles(F)
    rows = [_half_n_chihat(F.n)] if s % 2 == 1 else []
    params = {"a": a, "s": s}
    return [
        _chi_orbomesic({**params, "part": "chi-orbomesic"}, profiles),
        _rows_part({**params, "part": "chihat-half-n"}, profiles, rows),
    ]


def scan_conjecture_constant_alpha(max_total: int) -> VerificationReport:
    """For constant compositions (a^s): chi is orbomesic, and for odd s
    the statistic chihat averages n/2 on every orbit.  Any counterexample
    is reported with a full witness."""
    return _sweep(
        "constant-alpha",
        {"max_total": max_total},
        (_constant_alpha(a, s) for a, s in _constant_grid(max_total)),
    )


def find_cross_orbit_complement(alpha) -> VerificationReport:
    """Search a self-dual fence for ideals whose complement lies in a
    different rowmotion orbit (superorbits coarser than orbits)."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    F.index_reversal()
    orbit_index: dict[int, int] = {}
    for idx, o in enumerate(ideal_orbits(F)):
        for m in o.masks:
            orbit_index[m] = idx
    found = []
    for m in F.ideal_masks():
        mm = _ideal_complement_mask(F, m)
        if orbit_index[m] != orbit_index[mm]:
            found.append(
                {
                    "ideal": ElementSet(m, IDEAL).label(),
                    "complement": ElementSet(mm, IDEAL).label(),
                    "orbits": (orbit_index[m], orbit_index[mm]),
                }
            )
    detail = {"count": len(found), "pairs": found[:8]}
    return VerificationReport(
        "cross-orbit-complement",
        {"alpha": key},
        [InstanceResult({"alpha": key}, "pass", None, detail)],
    )


# -- toggle machinery checks -----------------------------------------------------


def verify_linear_extension_toggles(
    alpha, max_extensions: int = 50, seed: int = 0
) -> VerificationReport:
    """Composing ideal toggles along any linear extension (rightmost,
    i.e. maximal elements first) equals ideal rowmotion pointwise."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    chunks = [
        (lanes, packed, _rho_hat_mask(F, packed, lanes))
        for lanes, packed in F.lane_chunks(F.ideal_masks())
    ]

    def failure(ext):
        step = compile_word(F, ToggleWord(IDEAL, ext))
        for lanes, packed, target in chunks:
            got = step(packed, lanes)
            if got != target:
                # the witness is the first ideal whose lanes differ
                m, g, t = next(
                    row
                    for row in zip(*map(lanes.unpack, (packed, got, target)))
                    if row[1] != row[2]
                )
                return {
                    "extension": list(ext),
                    "ideal": ElementSet(m, IDEAL).label(),
                    "got": ElementSet(g, IDEAL).label(),
                    "rowmotion": ElementSet(t, IDEAL).label(),
                }
        return None

    exts = sample_linear_extensions(F, max_extensions, seed)
    bad = next(filter(None, map(failure, exts)), None)
    return VerificationReport(
        "linear-extension-toggles",
        {"alpha": key, "extensions": len(exts), "seed": seed},
        [_result({"alpha": key}, bad)],
    )


def verify_base_graph(alpha) -> VerificationReport:
    """The ideal toggles that fail to commute on some ideal, found by
    testing every pair on the whole family, are exactly the edges of
    base_graph: the cover path, which is acyclic."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    edges, covers = _commutation_edges(F, IDEAL), set(base_graph(F, IDEAL).edges)
    bad = None
    if covers - edges:
        bad = {"missing_edges": sorted(covers - edges)}
    elif edges - covers:
        bad = {"extra_edges": sorted(edges - covers)}
    return VerificationReport("base-graph", {"alpha": key}, [_result({"alpha": key}, bad)])


def _transfer(
    claim: str,
    family: str,
    alpha,
    samples: int,
    seed: int,
    rng_tag: str,
    count_key: str,
) -> VerificationReport:
    """The transfer driver: on `samples` sampled pairs of Coxeter words of
    the family, every indicator and the cardinality get the same
    homomesy/orbomesy verdict under both words.  The claim name, the rng
    tag and the params key of the sample count are the caller's.

    Ideal words are drawn as one chain wa1, wb1, wa2, ... through
    toggles.transfer_chain: one decomposition, then each word reached
    from the one before by conjugation, checked by one step of the word
    to hold its orbits, with the flipped columns recounted and the
    battery classified again only when a recounted column changed.  The
    antichain base graph is a forest only when every segment holds at
    most two elements (alpha = (2, 1, ..., 1, 2)); each antichain pair
    goes through toggles.transfer_check.  Either way the pairs are
    compared in order, and the first statistic whose (kind, constant)
    differs in the first disagreeing pair is the witness."""
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    rng = random.Random(f"{rng_tag}:{seed}:{key}")
    kind = "chi" if family == ANTICHAIN else "chihat"
    battery = [indicator(kind, k) for k in range(1, F.n + 1)]
    battery.append(indicator(kind, None))

    def word():
        return ToggleWord(family, rng.sample(range(1, F.n + 1), F.n))

    pairs = [(word(), word()) for _ in range(samples)]
    if family == IDEAL:
        chain = transfer_chain(F, family, (w for pair in pairs for w in pair), battery)
        verdicts = zip(chain, chain)
    else:
        verdicts = (transfer_check(F, family, *ws, battery).verdicts for ws in pairs)
    bad = None
    for (wa, wb), (va, vb) in zip(pairs, verdicts):
        if va != vb:
            i = next(i for i, (a, b) in enumerate(zip(va, vb)) if a != b)
            bad = {
                "word_a": str(wa),
                "word_b": str(wb),
                "stat": str(battery[i]),
                "verdicts": (va[i][0], vb[i][0]),
            }
            break
    return VerificationReport(
        claim,
        {"alpha": key, count_key: samples, "seed": seed},
        [_result({"alpha": key}, bad)],
    )


def verify_transfer_ideal(
    alpha, pairs: int = 200, seed: int = 0
) -> VerificationReport:
    """Homomesy/orbomesy verdicts of every ideal indicator (and the
    cardinality) agree between sampled pairs of ideal Coxeter words."""
    return _transfer(
        "transfer-ideal",
        IDEAL,
        alpha,
        pairs,
        seed,
        rng_tag="transfer",
        count_key="pairs",
    )


def scan_conjecture_antichain_transfer(
    alpha, samples: int = 200, seed: int = 0
) -> VerificationReport:
    """The antichain analogue of the transfer theorem, checked on sampled
    Coxeter word pairs; a disagreement is a counterexample discovery,
    reported rather than raised."""
    return _transfer(
        "antichain-transfer",
        ANTICHAIN,
        alpha,
        samples,
        seed,
        rng_tag="antichain-transfer",
        count_key="samples",
    )


# -- the claim table ---------------------------------------------------------------


class Claim(NamedTuple):
    """One claim of `fences verify` or `fences scan`.  The checkers are
    names of functions of this module, looked up when the claim runs."""

    command: str  # "verify" or "scan"
    check: str | None  # the one-instance checker
    selects: tuple[str, ...] = ()  # its instance options, in argument order
    samples: int | None = None  # default --samples; check takes (samples, seed)
    sweep: str | None = None  # the sweep checker, called with the bound
    bound: str | None = None  # the sweep's bound option
    default: int | None = None  # the bound's default


_AB, _A, _ALPHA = ("a", "b"), ("a",), ("alpha",)

CLAIMS = {
    "two-segment": Claim(
        "verify", "verify_two_segment", _AB, None, "sweep_two_segment", "max_sum", 14
    ),
    "aba": Claim("verify", "verify_aba", _AB, None, "sweep_aba", "max_sum", 12),
    "a4": Claim("verify", "verify_a4", _A, None, "sweep_a4", "max_a", 6),
    "a1a1a": Claim("verify", "verify_a1a1a", _A, None, "sweep_a1a1a", "max_a", 6),
    "homomesies": Claim(
        "verify", "verify_general_homomesies", _ALPHA,
        None, "sweep_general_homomesies", "max_n", 12,
    ),
    "palindromic": Claim("verify", "verify_palindromic_props", _ALPHA),
    "base-graph": Claim("verify", "verify_base_graph", _ALPHA),
    "linear-extensions": Claim("verify", "verify_linear_extension_toggles", _ALPHA, 50),
    "transfer-ideal": Claim("verify", "verify_transfer_ideal", _ALPHA, 200),
    "constant-alpha": Claim(
        "scan", None, sweep="scan_conjecture_constant_alpha", bound="max", default=12
    ),
    "tile-palindromes": Claim(
        "scan", None, sweep="scan_palindromic_tiles", bound="max", default=12
    ),
    "antichain-transfer": Claim(
        "scan", "scan_conjecture_antichain_transfer", _ALPHA, 200
    ),
    "cross-orbit-complement": Claim("scan", "find_cross_orbit_complement", _ALPHA),
}
