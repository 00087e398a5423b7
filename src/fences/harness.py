"""Mechanical verification of the orbit, homomesy, and tiling results.

Every checker returns a VerificationReport: one instance per parameter
tuple (or per claim part), each instance pass, fail, or vacuous when a
stated hypothesis does not hold.  A failing instance always carries a
witness complete enough to re-check by hand: the composition, the orbit
representative, and the statistic values involved.  All arithmetic is
exact, so there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import gcd

from .fence import ANTICHAIN, IDEAL, Composition, ElementSet, Fence, FenceError
from .rowmotion import (
    Orbit,
    _ideal_complement_mask,
    _rho_hat_mask,
    antichain_orbits,
    ideal_orbits,
    superorbits,
)
from .stats import indicator, orbit_element_counts
from .tiling import TileCounts, orbit_tile_counts
from .toggles import (
    ToggleWord,
    base_graph,
    compile_word,
    sample_linear_extensions,
    transfer_check,
)


@dataclass(frozen=True)
class InstanceResult:
    params: dict
    verdict: str  # "pass" | "fail" | "vacuous"
    witness: dict | None = None
    detail: dict | None = None


@dataclass
class VerificationReport:
    claim: str
    params: dict
    instances: list[InstanceResult] = field(default_factory=list)
    runtime_ms: int = 0

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
            "runtime_ms": self.runtime_ms,
        }


def _timed(rep: VerificationReport, t0: float) -> VerificationReport:
    rep.runtime_ms = int((time.perf_counter() - t0) * 1000)
    return rep


def _fence(alpha) -> Fence:
    if isinstance(alpha, Fence):
        return alpha
    return Fence(Composition.coerce(alpha))


def all_fence_compositions(max_n: int):
    """Every composition with first and last part >= 2 and n <= max_n,
    in deterministic sorted order."""

    def tails(total: int):
        if total >= 2:
            yield (total,)
        for first in range(1, total - 1):
            for rest in tails(total - first):
                yield (first,) + rest

    out = []
    for total in range(2, max_n + 2):
        out.append((total,))
        for first in range(2, total - 1):
            for rest in tails(total - first):
                out.append((first,) + rest)
    return sorted(set(out))


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


def orbit_profiles(F: Fence, cap: int | None = None) -> tuple[OrbitProfile, ...]:
    """Profiles of every antichain orbit, canonically ordered; memoised on F.

    Everything is counted from the orbit masks: the tile counts come from
    orbit_tile_counts, so no tiling is built here.  Callers that want to
    render or round-trip an orbit's tiling build it with tiling_of_orbit.
    """
    key = "profiles"
    cached = F._cache.get(key)
    if cached is not None:
        return cached
    out = []
    for orbit in antichain_orbits(F, cap):
        masks = orbit.masks
        a_counts = orbit_element_counts(masks, F.n)
        i_counts = orbit_element_counts(
            [F._down_closure_mask(m) for m in masks], F.n
        )
        out.append(
            OrbitProfile(
                orbit,
                orbit.size,
                a_counts,
                i_counts,
                sum(a_counts),
                sum(i_counts),
                orbit_tile_counts(F, masks),
            )
        )
    cached = tuple(out)
    F._cache[key] = cached
    return cached


def _size_chi_multiset(profiles) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for p in profiles:
        key = (p.size, p.chi)
        out[key] = out.get(key, 0) + 1
    return out


def _orbomesic(profiles, attr: str) -> tuple[bool, dict | None]:
    by_size: dict[int, int] = {}
    for p in profiles:
        v = getattr(p, attr)
        if p.size in by_size and by_size[p.size] != v:
            return False, {
                "size": p.size,
                "values": sorted({by_size[p.size], v}),
                "orbit": p.orbit.representative.label(),
            }
        by_size[p.size] = v
    return True, None


# -- two-segment fences ------------------------------------------------------


def verify_two_segment(a: int, b: int) -> VerificationReport:
    """Orbit sizes, orbit count, and both cardinality statistics on a
    two-segment fence: all orbits have size lcm(a,b) except one longer by
    one, there are gcd(a,b) orbits, and the chi / chihat sums per orbit
    are fixed polynomials in a and b."""
    t0 = time.perf_counter()
    F = _fence((a, b))
    profiles = orbit_profiles(F)
    g, ell = gcd(a, b), a * b // gcd(a, b)
    m = (2 * a * b - a - b) // g
    instances = []

    sizes = sorted(p.size for p in profiles)
    want = sorted([ell] * (g - 1) + [ell + 1])
    instances.append(
        InstanceResult(
            {"a": a, "b": b, "part": "orbit-sizes"},
            "pass" if sizes == want else "fail",
            None if sizes == want else {"sizes": sizes, "expected": want},
        )
    )
    ok = len(profiles) == g
    instances.append(
        InstanceResult(
            {"a": a, "b": b, "part": "orbit-count"},
            "pass" if ok else "fail",
            None if ok else {"count": len(profiles), "expected": g},
        )
    )
    for p in profiles:
        want_chi = m if p.size == ell else m + 1
        if p.chi != want_chi:
            instances.append(
                InstanceResult(
                    {"a": a, "b": b, "part": "chi"},
                    "fail",
                    {
                        "orbit": p.orbit.representative.label(),
                        "size": p.size,
                        "chi": p.chi,
                        "expected": want_chi,
                    },
                )
            )
            break
    else:
        instances.append(InstanceResult({"a": a, "b": b, "part": "chi"}, "pass"))
    for p in profiles:
        if p.size == ell:
            ok = 2 * p.chihat == ell * (a + b - 2)
        else:
            ok = 2 * p.chihat == (ell + 2) * (a + b - 2) + 2
        if not ok:
            instances.append(
                InstanceResult(
                    {"a": a, "b": b, "part": "chihat"},
                    "fail",
                    {
                        "orbit": p.orbit.representative.label(),
                        "size": p.size,
                        "chihat": p.chihat,
                    },
                )
            )
            break
    else:
        instances.append(InstanceResult({"a": a, "b": b, "part": "chihat"}, "pass"))
    return _timed(
        VerificationReport("two-segment", {"a": a, "b": b}, instances), t0
    )


def sweep_two_segment(max_sum: int) -> VerificationReport:
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_sum - 1):
        for b in range(2, max_sum - a + 1):
            instances.extend(verify_two_segment(a, b).instances)
    return _timed(
        VerificationReport("two-segment", {"max_sum": max_sum}, instances), t0
    )


# -- three-segment palindromic fences ----------------------------------------


def aba_orbit_structure(a: int, b: int) -> dict:
    """The predicted orbit-size multiset for the fence (a, b, a)."""
    g = gcd(a, b)
    abar, bbar = a // g, b // g
    ell = a * b // g
    m = 1
    while (m * abar - 1) % bbar or (m * abar - 1) // bbar < 1:
        m += 1
    q = (m * abar - 1) // bbar
    small = abar * (g - 1) ** 2
    medium, large = q, abar - q
    expected: dict[int, int] = {}
    for size, count in (
        (ell, small),
        (a * (2 * b - 2 * bbar + m) + g, medium),
        (a * (2 * b - bbar + m) + g, large),
    ):
        if count:
            expected[size] = expected.get(size, 0) + count
    return {
        "g": g,
        "abar": abar,
        "bbar": bbar,
        "ell": ell,
        "m": m,
        "q": q,
        "expected_sizes": expected,
    }


def verify_aba(a: int, b: int) -> VerificationReport:
    """Orbit-size multiset, chi orbomesy, and the n/2 average of chihat
    on the palindromic three-segment fence (a, b, a)."""
    t0 = time.perf_counter()
    F = _fence((a, b, a))
    profiles = orbit_profiles(F)
    info = aba_orbit_structure(a, b)
    instances = []

    got: dict[int, int] = {}
    for p in profiles:
        got[p.size] = got.get(p.size, 0) + 1
    ok = got == info["expected_sizes"]
    instances.append(
        InstanceResult(
            {"a": a, "b": b, "part": "orbit-sizes"},
            "pass" if ok else "fail",
            None if ok else {"sizes": got, "expected": info["expected_sizes"]},
        )
    )
    ok, wit = _orbomesic(profiles, "chi")
    instances.append(
        InstanceResult(
            {"a": a, "b": b, "part": "chi-orbomesic"},
            "pass" if ok else "fail",
            wit,
        )
    )
    n = F.n
    for p in profiles:
        if 2 * p.chihat != n * p.size:
            instances.append(
                InstanceResult(
                    {"a": a, "b": b, "part": "chihat-half-n"},
                    "fail",
                    {
                        "orbit": p.orbit.representative.label(),
                        "size": p.size,
                        "chihat": p.chihat,
                        "expected_average": f"{n}/2",
                    },
                )
            )
            break
    else:
        instances.append(
            InstanceResult({"a": a, "b": b, "part": "chihat-half-n"}, "pass")
        )
    return _timed(VerificationReport("aba", {"a": a, "b": b}, instances), t0)


def sweep_aba(max_sum: int) -> VerificationReport:
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_sum):
        for b in range(1, max_sum - a + 1):
            instances.extend(verify_aba(a, b).instances)
    return _timed(VerificationReport("aba", {"max_sum": max_sum}, instances), t0)


# -- four equal segments -------------------------------------------------------


def verify_a4(a: int) -> VerificationReport:
    """Orbit counts, sizes, and the full chi/chihat chart on (a,a,a,a)."""
    t0 = time.perf_counter()
    F = _fence((a, a, a, a))
    profiles = orbit_profiles(F)
    expected_counts = {
        a: (a - 1) ** 3,
        a + 1: a,
        a * a + a + 1: 1,
        3 * a * a + a: a - 1,
    }
    chi_chart = {
        a: 4 * a - 4,
        a + 1: 4 * a - 2,
        a * a + a + 1: 4 * a * a - a,
        3 * a * a + a: 12 * a * a - 11 * a + 2,
    }
    chihat_chart = {
        a: 2 * a * a - a,
        a + 1: 2 * a * a + 3 * a - 1,
        a * a + a + 1: 2 * a**3 + 3 * a - 1,
        3 * a * a + a: 6 * a**3 - a,
    }
    instances = []
    got: dict[int, int] = {}
    for p in profiles:
        got[p.size] = got.get(p.size, 0) + 1
    expected = {k: v for k, v in expected_counts.items() if v}
    ok = got == expected
    instances.append(
        InstanceResult(
            {"a": a, "part": "orbit-sizes"},
            "pass" if ok else "fail",
            None if ok else {"sizes": got, "expected": expected},
        )
    )
    bad = None
    for p in profiles:
        if p.chi != chi_chart[p.size] or p.chihat != chihat_chart[p.size]:
            bad = {
                "orbit": p.orbit.representative.label(),
                "size": p.size,
                "chi": p.chi,
                "chihat": p.chihat,
                "expected": (chi_chart[p.size], chihat_chart[p.size]),
            }
            break
    instances.append(
        InstanceResult(
            {"a": a, "part": "statistic-chart"},
            "pass" if bad is None else "fail",
            bad,
        )
    )
    return _timed(VerificationReport("a4", {"a": a}, instances), t0)


def sweep_a4(max_a: int) -> VerificationReport:
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_a + 1):
        instances.extend(verify_a4(a).instances)
    return _timed(VerificationReport("a4", {"max_a": max_a}, instances), t0)


# -- five segments (a,1,a,1,a) -------------------------------------------------


def verify_a1a1a(a: int) -> VerificationReport:
    """Orbit counts, sizes, chi values, and the superorbit pairing on
    (a,1,a,1,a): the size-(a+1) orbits pair up under the ideal
    complement, every other orbit is closed under it."""
    t0 = time.perf_counter()
    F = _fence((a, 1, a, 1, a))
    profiles = orbit_profiles(F)
    expected = {
        (a + 1, 3 * a): 2 * a - 2,
        (3 * a + 2, 9 * a - 3): 1,
        (a * a + 2 * a, 3 * a * a + 3 * a - 2): a,
    }
    instances = []
    got = _size_chi_multiset(profiles)
    ok = got == {k: v for k, v in expected.items() if v}
    instances.append(
        InstanceResult(
            {"a": a, "part": "sizes-and-chi"},
            "pass" if ok else "fail",
            None if ok else {"got": sorted(got.items()), "expected": sorted(expected.items())},
        )
    )
    bad = None
    pairs = 0
    singles: dict[int, int] = {}
    for so in superorbits(F):
        if len(so.orbits) == 2:
            pairs += 1
            if any(o.size != a + 1 for o in so.orbits):
                bad = {"superorbit": repr(so), "reason": "paired orbit not small"}
                break
        else:
            size = so.orbits[0].size
            singles[size] = singles.get(size, 0) + 1
            if size == a + 1:
                bad = {"superorbit": repr(so), "reason": "small orbit self-paired"}
                break
    # sizes 3a+2 and a^2+2a coincide at a=2, so accumulate rather than
    # build a dict literal that would collapse the duplicate key
    merged: dict[int, int] = {}
    for size, cnt in ((3 * a + 2, 1), (a * a + 2 * a, a)):
        merged[size] = merged.get(size, 0) + cnt
    if bad is None and (pairs != a - 1 or singles != merged):
        bad = {"pairs": pairs, "singles": sorted(singles.items()), "expected_pairs": a - 1}
    instances.append(
        InstanceResult(
            {"a": a, "part": "superorbit-pairing"},
            "pass" if bad is None else "fail",
            bad,
        )
    )
    return _timed(VerificationReport("a1a1a", {"a": a}, instances), t0)


def sweep_a1a1a(max_a: int) -> VerificationReport:
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_a + 1):
        instances.extend(verify_a1a1a(a).instances)
    return _timed(VerificationReport("a1a1a", {"max_a": max_a}, instances), t0)


# -- general homomesies ----------------------------------------------------------


def verify_general_homomesies(alpha) -> VerificationReport:
    """The six orbit-statistic identities that hold on every fence, plus
    the n/2 average of chihat on superorbits of self-dual fences.

    Parts with a hypothesis (equal red-head counts, odd segment count
    with even parts, all parts equal to two, self-duality) report vacuous
    when the hypothesis fails."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    profiles = orbit_profiles(F)
    instances = []

    def inst(part: str, verdict: str, witness: dict | None = None) -> None:
        instances.append(
            InstanceResult({"alpha": key, "part": part}, verdict, witness)
        )

    # (a) same-segment unshared indicators agree on every orbit
    bad = None
    ran = False
    for i in range(1, F.s + 1):
        elems = F.unshared[i]
        for ai in range(len(elems)):
            for bi in range(ai + 1, len(elems)):
                ran = True
                x, y = elems[ai], elems[bi]
                for p in profiles:
                    if p.antichain_counts[x - 1] != p.antichain_counts[y - 1]:
                        bad = {
                            "x": x,
                            "y": y,
                            "orbit": p.orbit.representative.label(),
                            "counts": (
                                p.antichain_counts[x - 1],
                                p.antichain_counts[y - 1],
                            ),
                        }
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    inst("same-segment-indicators", "fail" if bad else ("pass" if ran else "vacuous"), bad)

    # (b) alpha_i * chi_x + chi_{s_i} + chi_{s_{i-1}} sums to the orbit size
    bad = None
    ran = False
    for i in range(1, F.s + 1):
        y = F.shared[i - 1] if i <= F.s - 1 else None
        z = F.shared[i - 2] if i >= 2 else None
        for x in F.unshared[i]:
            ran = True
            for p in profiles:
                total = F.alpha[i - 1] * p.antichain_counts[x - 1]
                if y is not None:
                    total += p.antichain_counts[y - 1]
                if z is not None:
                    total += p.antichain_counts[z - 1]
                if total != p.size:
                    bad = {
                        "segment": i,
                        "x": x,
                        "orbit": p.orbit.representative.label(),
                        "sum": total,
                        "size": p.size,
                    }
                    break
            if bad:
                break
        if bad:
            break
    inst("segment-balance", "fail" if bad else ("pass" if ran else "vacuous"), bad)

    # (c) weighted first-segment ideal indicators
    bad = None
    ran = False
    first = F.unshared[1]
    for j in range(1, len(first) + 1):
        for k in range(1, len(first) + 1):
            if j == k:
                continue
            ran = True
            x, y = first[j - 1], first[k - 1]
            for p in profiles:
                lhs = k * p.ideal_counts[x - 1] - j * p.ideal_counts[y - 1]
                if lhs != (k - j) * p.size:
                    bad = {
                        "j": j,
                        "k": k,
                        "orbit": p.orbit.representative.label(),
                        "value": lhs,
                        "expected": (k - j) * p.size,
                    }
                    break
            if bad:
                break
        if bad:
            break
    inst("first-segment-weighted", "fail" if bad else ("pass" if ran else "vacuous"), bad)

    # (d) odd-shared + even-shared ideal indicators, gated on equal red heads
    bad = None
    ran = False
    odd_shared = [i for i in range(1, F.s) if i % 2 == 1]
    even_shared = [i for i in range(1, F.s) if i % 2 == 0]
    for oi in odd_shared:
        for ei in even_shared:
            if any(
                p.counts.red_heads_in_row(oi) != p.counts.red_heads_in_row(ei)
                for p in profiles
            ):
                continue  # hypothesis fails for this pair: skip, not a failure
            ran = True
            x, y = F.shared[oi - 1], F.shared[ei - 1]
            for p in profiles:
                total = p.ideal_counts[x - 1] + p.ideal_counts[y - 1]
                if total != p.size:
                    bad = {
                        "x": x,
                        "y": y,
                        "orbit": p.orbit.representative.label(),
                        "sum": total,
                        "size": p.size,
                    }
                    break
            if bad:
                break
        if bad:
            break
    inst("shared-pair", "fail" if bad else ("pass" if ran else "vacuous"), bad)

    # (e) odd segment count with all parts even forces even orbit sizes
    if F.s % 2 == 1 and all(p % 2 == 0 for p in F.alpha):
        bad = None
        for p in profiles:
            if p.size % 2:
                bad = {"orbit": p.orbit.representative.label(), "size": p.size}
                break
        inst("even-orbit-sizes", "fail" if bad else "pass", bad)
    else:
        inst("even-orbit-sizes", "vacuous")

    # (f) all parts 2: chi averages s/2
    if all(p == 2 for p in F.alpha):
        bad = None
        for p in profiles:
            if 2 * p.chi != F.s * p.size:
                bad = {
                    "orbit": p.orbit.representative.label(),
                    "chi": p.chi,
                    "size": p.size,
                }
                break
        inst("half-s-average", "fail" if bad else "pass", bad)
    else:
        inst("half-s-average", "vacuous")

    # chihat averages n/2 on superorbits of self-dual fences
    if F._self_duality_failure() is None:
        bad = None
        for so in superorbits(F):
            total = sum(m.bit_count() for o in so.orbits for m in o.masks)
            if 2 * total != F.n * so.size:
                bad = {"superorbit": repr(so), "chihat": total, "size": so.size}
                break
        inst("superorbit-half-n", "fail" if bad else "pass", bad)
    else:
        inst("superorbit-half-n", "vacuous")

    return _timed(
        VerificationReport("homomesies", {"alpha": key}, instances), t0
    )


def sweep_general_homomesies(max_n: int) -> VerificationReport:
    t0 = time.perf_counter()
    instances = []
    for alpha in all_fence_compositions(max_n):
        instances.extend(verify_general_homomesies(alpha).instances)
    return _timed(
        VerificationReport("homomesies", {"max_n": max_n}, instances), t0
    )


# -- palindromic tile sequences ---------------------------------------------------


def _is_palindromic(seq) -> bool:
    return tuple(seq) == tuple(reversed(tuple(seq)))


def verify_palindromic_props(alpha) -> VerificationReport:
    """Tile-sequence palindromicity data and the two consequences for
    palindromic compositions: black palindromic iff red palindromic when
    all parts are >= 2, and the mirror homomesies when additionally every
    orbit has palindromic sequences (the ideal version needs odd s)."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    if not F.alpha.is_palindromic:
        raise FenceError(f"alpha {F.alpha} is not palindromic")
    profiles = orbit_profiles(F)
    instances = []
    n, s = F.n, F.s

    exceptions = []
    for p in profiles:
        black_ok = _is_palindromic(p.counts.black_sequence)
        red_ok = _is_palindromic(p.counts.red_sequence)
        if not (black_ok and red_ok):
            exceptions.append(
                {
                    "orbit": p.orbit.representative.label(),
                    "size": p.size,
                    "black": list(p.counts.black_sequence),
                    "red": list(p.counts.red_sequence),
                }
            )
    instances.append(
        InstanceResult(
            {"alpha": key, "part": "tile-sequences"},
            "pass",
            None,
            {"nonpalindromic_orbits": exceptions},
        )
    )

    if all(part >= 2 for part in F.alpha):
        bad = None
        for p in profiles:
            if _is_palindromic(p.counts.black_sequence) != _is_palindromic(
                p.counts.red_sequence
            ):
                bad = {
                    "orbit": p.orbit.representative.label(),
                    "black": list(p.counts.black_sequence),
                    "red": list(p.counts.red_sequence),
                }
                break
        instances.append(
            InstanceResult(
                {"alpha": key, "part": "black-iff-red"},
                "fail" if bad else "pass",
                bad,
            )
        )
    else:
        instances.append(
            InstanceResult({"alpha": key, "part": "black-iff-red"}, "vacuous")
        )

    all_palindromic = not exceptions and all(part >= 2 for part in F.alpha)
    if all_palindromic:
        bad = None
        for p in profiles:
            for k in range(1, n + 1):
                if p.antichain_counts[k - 1] != p.antichain_counts[n - k]:
                    bad = {
                        "k": k,
                        "orbit": p.orbit.representative.label(),
                        "counts": (
                            p.antichain_counts[k - 1],
                            p.antichain_counts[n - k],
                        ),
                    }
                    break
            if bad:
                break
        instances.append(
            InstanceResult(
                {"alpha": key, "part": "mirror-antichain"},
                "fail" if bad else "pass",
                bad,
            )
        )
        if s % 2 == 1:
            bad = None
            for p in profiles:
                for k in range(1, n + 1):
                    if (
                        p.ideal_counts[k - 1] + p.ideal_counts[n - k]
                        != p.size
                    ):
                        bad = {
                            "k": k,
                            "orbit": p.orbit.representative.label(),
                            "sum": p.ideal_counts[k - 1] + p.ideal_counts[n - k],
                            "size": p.size,
                        }
                        break
                if bad:
                    break
            instances.append(
                InstanceResult(
                    {"alpha": key, "part": "mirror-ideal"},
                    "fail" if bad else "pass",
                    bad,
                )
            )
        else:
            instances.append(
                InstanceResult({"alpha": key, "part": "mirror-ideal"}, "vacuous")
            )
    else:
        instances.append(
            InstanceResult({"alpha": key, "part": "mirror-antichain"}, "vacuous")
        )
        instances.append(
            InstanceResult({"alpha": key, "part": "mirror-ideal"}, "vacuous")
        )
    return _timed(
        VerificationReport("palindromic", {"alpha": key}, instances), t0
    )


def scan_palindromic_tiles(max_total: int) -> VerificationReport:
    """Tile-sequence palindromicity data for every constant composition
    (a^s) with a + s <= max_total."""
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_total - 1 + 1):
        for s in range(1, max_total - a + 1):
            rep = verify_palindromic_props((a,) * s)
            for r in rep.instances:
                if r.params.get("part") == "tile-sequences":
                    params = dict(r.params)
                    params.update({"a": a, "s": s})
                    instances.append(
                        InstanceResult(params, r.verdict, r.witness, r.detail)
                    )
    return _timed(
        VerificationReport(
            "tile-palindromes", {"max_total": max_total}, instances
        ),
        t0,
    )


# -- conjecture scans -------------------------------------------------------------


def scan_conjecture_constant_alpha(max_total: int) -> VerificationReport:
    """For constant compositions (a^s): chi is orbomesic, and for odd s
    the statistic chihat averages n/2 on every orbit.  Any counterexample
    is reported with a full witness."""
    t0 = time.perf_counter()
    instances = []
    for a in range(2, max_total - 1 + 1):
        for s in range(1, max_total - a + 1):
            F = _fence((a,) * s)
            profiles = orbit_profiles(F)
            ok, wit = _orbomesic(profiles, "chi")
            instances.append(
                InstanceResult(
                    {"a": a, "s": s, "part": "chi-orbomesic"},
                    "pass" if ok else "fail",
                    wit,
                )
            )
            if s % 2 == 1:
                bad = None
                for p in profiles:
                    if 2 * p.chihat != F.n * p.size:
                        bad = {
                            "orbit": p.orbit.representative.label(),
                            "chihat": p.chihat,
                            "size": p.size,
                        }
                        break
                instances.append(
                    InstanceResult(
                        {"a": a, "s": s, "part": "chihat-half-n"},
                        "fail" if bad else "pass",
                        bad,
                    )
                )
            else:
                instances.append(
                    InstanceResult(
                        {"a": a, "s": s, "part": "chihat-half-n"}, "vacuous"
                    )
                )
    return _timed(
        VerificationReport(
            "constant-alpha", {"max_total": max_total}, instances
        ),
        t0,
    )


def find_cross_orbit_complement(alpha) -> VerificationReport:
    """Search a self-dual fence for ideals whose complement lies in a
    different rowmotion orbit (superorbits coarser than orbits)."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    F.index_reversal()
    orbit_index: dict[int, int] = {}
    for idx, ms in enumerate(
        [o.masks for o in ideal_orbits(F)]
    ):
        for m in ms:
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
    return _timed(
        VerificationReport(
            "cross-orbit-complement",
            {"alpha": key},
            [
                InstanceResult(
                    {"alpha": key},
                    "pass",
                    None,
                    {"count": len(found), "pairs": found[:8]},
                )
            ],
        ),
        t0,
    )


# -- toggle machinery checks -----------------------------------------------------


def verify_linear_extension_toggles(
    alpha, max_extensions: int = 50, seed: int = 0
) -> VerificationReport:
    """Composing ideal toggles along any linear extension (rightmost,
    i.e. maximal elements first) equals ideal rowmotion pointwise."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    masks = F.ideal_masks()
    targets = {m: _rho_hat_mask(F, m) for m in masks}
    bad = None
    exts = sample_linear_extensions(F, max_extensions, seed)
    for ext in exts:
        step = compile_word(F, ToggleWord(IDEAL, ext))
        for m in masks:
            if step(m) != targets[m]:
                bad = {
                    "extension": list(ext),
                    "ideal": ElementSet(m, IDEAL).label(),
                    "got": ElementSet(step(m), IDEAL).label(),
                    "rowmotion": ElementSet(targets[m], IDEAL).label(),
                }
                break
        if bad:
            break
    return _timed(
        VerificationReport(
            "linear-extension-toggles",
            {"alpha": key, "extensions": len(exts), "seed": seed},
            [InstanceResult({"alpha": key}, "fail" if bad else "pass", bad)],
        ),
        t0,
    )


def verify_base_graph(alpha) -> VerificationReport:
    """The ideal base graph is acyclic and its edges are exactly the
    cover pairs of the fence."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    G = base_graph(F, IDEAL)
    covers = {tuple(sorted(p)) for p in F.cover_pairs()}
    missing = sorted(covers - set(G.edges))
    bad = None
    if missing:
        bad = {"missing_edges": missing}
    elif set(G.edges) != covers:
        bad = {"extra_edges": sorted(set(G.edges) - covers)}
    elif not G.is_forest:
        bad = {"reason": "graph has a cycle"}
    return _timed(
        VerificationReport(
            "base-graph",
            {"alpha": key},
            [InstanceResult({"alpha": key}, "fail" if bad else "pass", bad)],
        ),
        t0,
    )


def _indicator_battery(family: str, n: int):
    kind = "chi" if family == ANTICHAIN else "chihat"
    exprs = [indicator(kind, k) for k in range(1, n + 1)]
    exprs.append(indicator(kind, None))
    return exprs


def verify_transfer_ideal(
    alpha, pairs: int = 200, seed: int = 0
) -> VerificationReport:
    """Homomesy/orbomesy verdicts of every ideal indicator (and the
    cardinality) agree between sampled pairs of ideal Coxeter words."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    rng = random.Random(f"transfer:{seed}:{key}")
    battery = _indicator_battery(IDEAL, F.n)
    bad = None
    for _ in range(pairs):
        wa = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
        wb = ToggleWord(IDEAL, rng.sample(range(1, F.n + 1), F.n))
        rep = transfer_check(F, IDEAL, wa, wb, battery)
        if not rep.agree:
            d = rep.disagreements()[0]
            bad = {
                "word_a": str(wa),
                "word_b": str(wb),
                "stat": d.stat,
                "verdicts": (d.report_a.kind, d.report_b.kind),
            }
            break
    return _timed(
        VerificationReport(
            "transfer-ideal",
            {"alpha": key, "pairs": pairs, "seed": seed},
            [InstanceResult({"alpha": key}, "fail" if bad else "pass", bad)],
        ),
        t0,
    )


def scan_conjecture_antichain_transfer(
    alpha, samples: int = 200, seed: int = 0
) -> VerificationReport:
    """The antichain analogue of the transfer theorem, checked on sampled
    Coxeter word pairs; a disagreement is a counterexample discovery,
    reported rather than raised."""
    t0 = time.perf_counter()
    F = _fence(alpha)
    key = tuple(F.alpha.parts)
    rng = random.Random(f"antichain-transfer:{seed}:{key}")
    battery = _indicator_battery(ANTICHAIN, F.n)
    bad = None
    for _ in range(samples):
        wa = ToggleWord(ANTICHAIN, rng.sample(range(1, F.n + 1), F.n))
        wb = ToggleWord(ANTICHAIN, rng.sample(range(1, F.n + 1), F.n))
        rep = transfer_check(F, ANTICHAIN, wa, wb, battery)
        if not rep.agree:
            d = rep.disagreements()[0]
            bad = {
                "word_a": str(wa),
                "word_b": str(wb),
                "stat": d.stat,
                "verdicts": (d.report_a.kind, d.report_b.kind),
            }
            break
    return _timed(
        VerificationReport(
            "antichain-transfer",
            {"alpha": key, "samples": samples, "seed": seed},
            [InstanceResult({"alpha": key}, "fail" if bad else "pass", bad)],
        ),
        t0,
    )
