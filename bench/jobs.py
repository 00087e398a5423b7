"""Job lists of the benchmark workloads.

A job is the argv of one `fences` CLI invocation.  The seed reaches the
program only through `--seed` on the seeded toggle jobs; every other job
is the same for every seed.
"""

from __future__ import annotations

WORKLOADS = ("big-fence", "sweep", "toggles")
SCALES = ("full", "smoke")

# One large family: enumeration, decomposition, orbit profiles with
# tilings and the CSV/JSON/SVG encoders do the work.  The count job keeps
# the (negligible) recurrence layer visible in the trace.
_BIG_FENCE = {
    "full": [
        "count --alpha 4^8",
        "orbits --alpha 4^8 --format csv",
        "check --alpha 4^8 --stat chi",
        "check --alpha 4^8 --family ideals --stat chihat",
        "tiling --alpha 4^8 --orbit-index 0..20 --render svg",
    ],
    "smoke": [
        "count --alpha 4,3,4",
        "orbits --alpha 4,3,4 --format csv",
        "check --alpha 4,3,4 --stat chi",
        "check --alpha 4,3,4 --family ideals --stat chihat",
        "tiling --alpha 4,3,4 --orbit-index 0..3 --render svg",
    ],
}

# Over a thousand small families: per-fence and per-orbit overhead and the
# harness checks dominate.
_SWEEP = {
    "full": [
        "verify homomesies --max-n 11",
        "scan constant-alpha --max 11",
        "scan tile-palindromes --max 10",
        "verify aba --max-sum 12",
        "verify two-segment --max-sum 14",
        "verify a4 --max-a 6",
        "verify a1a1a --max-a 6",
    ],
    "smoke": [
        "verify homomesies --max-n 6",
        "scan constant-alpha --max 6",
        "scan tile-palindromes --max 6",
        "verify aba --max-sum 6",
        "verify two-segment --max-sum 6",
        "verify a4 --max-a 2",
        "verify a1a1a --max-a 2",
    ],
}

# Repeated decompositions under compiled toggle words and exact statistic
# classification; no tilings and no orbit profiles.
_TOGGLES = {
    "full": [
        "verify transfer-ideal --alpha 3^6 --samples 40 --seed {seed}",
        "scan antichain-transfer --alpha 3^6 --samples 40 --seed {seed}",
        "verify base-graph --alpha 3^8",
        "verify linear-extensions --alpha 3^7 --samples 50 --seed {seed}",
    ],
    "smoke": [
        "verify transfer-ideal --alpha 3,3 --samples 4 --seed {seed}",
        "scan antichain-transfer --alpha 3,3 --samples 4 --seed {seed}",
        "verify base-graph --alpha 3,3",
        "verify linear-extensions --alpha 3,3 --samples 5 --seed {seed}",
    ],
}

_TABLE = {"big-fence": _BIG_FENCE, "sweep": _SWEEP, "toggles": _TOGGLES}


def jobs(workload: str, seed: int, scale: str = "full") -> list[list[str]]:
    """The argv of every job of a workload, in run order."""
    return [line.format(seed=seed).split() for line in _TABLE[workload][scale]]
