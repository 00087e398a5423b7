#!/usr/bin/env python3
"""Acceptance-margin report: how far each time-bounded acceptance
criterion stays inside its wall-clock bound.

    python3 bench/margins.py

Times criteria 1-5 and 11 of tests/test_acceptance.py by calling the same
harness functions with the same arguments, and records the margin (bound
minus measured seconds) for each.  It reports and never gates: the gates
stay in the tests.  The record goes to .bench_results/margins.json and to
stdout.  Fences that the tests build in session fixtures are built here
before the timer starts, as the fixtures are.
"""

from __future__ import annotations

import json
import sys
import time

from run import RESULTS, import_cli, provenance


def _criteria():
    """(number, bound in seconds, fixture builder, timed body) per criterion;
    each body returns whether the criterion's checks held."""
    from fences import ANTICHAIN, antichain_orbits, build_fence, orbit_of
    from fences import tile_counts, tiling_of_orbit
    from fences.harness import (
        orbit_profiles,
        scan_palindromic_tiles,
        sweep_a1a1a,
        sweep_a4,
        sweep_aba,
        sweep_two_segment,
    )

    def c01(F):
        orbits = antichain_orbits(F)
        ok = sorted(o.size for o in orbits) == [5, 17, 17, 17]
        five = next(o for o in orbits if o.size == 5)
        ok &= [set(S.elements) for S in five.reps] == [
            set(), {1, 7}, {2, 6, 8}, {3, 5, 9}, {4, 10},
        ]
        first17 = next(o for o in orbits if o.size == 17)
        c = tile_counts(tiling_of_orbit(F, first17))
        return ok and c.black_sequence == (4, 5, 4) and c.red[1:] == (1, 1, 0)

    def c02(_):
        profiles = orbit_profiles(build_fence((5, 4)))
        ok = len(profiles) == 1 and profiles[0].size == 21 and profiles[0].chi == 32
        return ok and sweep_two_segment(14).verdict == "pass"

    def c11(F):
        seeded = orbit_of(F, F.element_set([1, 7], ANTICHAIN))
        c = tile_counts(tiling_of_orbit(F, seeded))
        ok = c.black_sequence == (21, 20, 18, 18, 19, 18, 19, 21)
        ok &= c.red_sequence == (5, 4, 13, 4, 9, 8, 5)
        exceptional = {
            (inst.params["a"], inst.params["s"]): inst.detail["nonpalindromic_orbits"]
            for inst in scan_palindromic_tiles(12).instances
            if inst.detail["nonpalindromic_orbits"]
        }
        ok &= set(exceptional) == {(4, 8)}
        return ok and any(
            tuple(o["black"]) == (21, 20, 18, 18, 19, 18, 19, 21)
            and tuple(o["red"]) == (5, 4, 13, 4, 9, 8, 5)
            for o in exceptional.get((4, 8), [])
        )

    return [
        (1, 1.0, lambda: build_fence((4, 3, 4)), c01),
        (2, 30.0, lambda: None, c02),
        (3, 120.0, lambda: None, lambda _: sweep_aba(12).verdict == "pass"),
        (4, 300.0, lambda: None, lambda _: sweep_a4(6).verdict == "pass"),
        (5, 120.0, lambda: None, lambda _: sweep_a1a1a(6).verdict == "pass"),
        (11, 3600.0, lambda: build_fence((4,) * 8), c11),
    ]


def main() -> int:
    import_cli()
    rows = []
    for number, bound, fixture, body in _criteria():
        F = fixture()
        t0 = time.perf_counter()
        ok = body(F)
        seconds = time.perf_counter() - t0
        rows.append(
            {"criterion": number, "ok": bool(ok), "bound_s": bound,
             "measured_s": seconds, "margin_s": bound - seconds,
             "margin_share": (bound - seconds) / bound}
        )
    record = {"provenance": provenance(report="acceptance-margins"), "criteria": rows}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "margins.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
