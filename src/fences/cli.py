"""Command-line interface.

Subcommands: info, count, orbits, tiling, check, verify, scan.  Output is
JSON by default (sorted keys, stable layout), CSV for flat per-orbit
rows, and ascii/svg for tilings.  Identical invocations produce
byte-identical output, except that verify/scan reports carry a
runtime_ms field which is wall-clock and therefore volatile.

Exit codes: 0 success, 1 usage or precondition error, 2 verification
failure (a counterexample was found), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import harness
from .enumeration import closed_form_count, count_ideals
from .fence import (
    ANTICHAIN,
    IDEAL,
    Composition,
    FamilyCapError,
    Fence,
    FenceError,
    MAX_ALPHA_SIZE,
)
from .rowmotion import ideal_orbits
from .stats import check_homomesy, parse_stat
from .tiling import render_tiling, tiling_of_orbit

SCHEMA_VERSION = 1

_FAMILIES = {"antichains": ANTICHAIN, "ideals": IDEAL}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(message)


def _parse_alpha(text: str) -> Composition:
    """The --alpha composition.  Its size is checked against the fence's
    MAX_ALPHA_SIZE before a^k builds its parts, so a huge power is a usage
    error rather than a MemoryError."""
    text = text.strip()
    if "^" in text:
        base, _, power = text.partition("^")
        base, power = int(base), int(power)
        _check_alpha_size(text, power, base * power - 1)
        parts = (base,) * power
    else:
        parts = tuple(int(t) for t in text.split(","))
        _check_alpha_size(text, len(parts), sum(parts) - 1)
    return Composition(parts)


def _check_alpha_size(text: str, parts: int, n: int) -> None:
    if max(parts, n) > MAX_ALPHA_SIZE:
        raise _UsageError(
            f"composition {text!r} has {parts} parts and {n} elements; "
            f"at most {MAX_ALPHA_SIZE} of each are accepted"
        )


def _positive_int(text: str) -> int:
    """Type of the size and count options, so 0 and negatives are usage
    errors rather than silently standing for the default."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _or(value: int | None, default: int) -> int:
    return default if value is None else value


def _parse_rep(text: str) -> tuple[int, ...]:
    return tuple(int(t.strip().lstrip("x")) for t in text.split(","))


def _parse_index_range(text: str) -> range:
    """Orbit indices from 'i' or 'lo..hi' (inclusive); non-empty and
    non-negative, so Python's negative indexing never picks an orbit.
    A range, so a huge upper end costs nothing before the bounds check."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        indices = range(int(lo), int(hi) + 1)
    else:
        indices = range(int(text), int(text) + 1)
    if not indices:
        raise _UsageError(f"orbit index range {text!r} is empty")
    if indices[0] < 0:
        raise _UsageError(f"orbit index {indices[0]} is negative")
    return indices


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fence_from(args) -> Fence:
    alpha = _parse_alpha(args.alpha)
    cap = args.max_family
    if cap is None:
        env = os.environ.get("FENCE_MAX_FAMILY")
        cap = int(env) if env else None
    return Fence(alpha, max_family=cap)


# -- subcommands ------------------------------------------------------------


def _cmd_info(args) -> int:
    F = _fence_from(args)
    shared = {str(i): F.shared_element(i) for i in range(1, F.s)}
    unshared = {
        f"{i},{j}": F.unshared_element(i, j)
        for i in range(1, F.s + 1)
        for j in range(1, len(F.unshared[i]) + 1)
    }
    covers = [
        [e + 1, e + 2, "up" if up else "down"]
        for e, up in enumerate(F.edge_up)
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": list(F.alpha.parts),
        "n": F.n,
        "segments": F.s,
        "shared_elements": [F.shared_element(i) for i in range(1, F.s)],
        "shared_index": shared,
        "unshared_index": unshared,
        "covers": covers,
        "ideal_count": count_ideals(F.alpha),
        "palindromic": F.alpha.is_palindromic,
    }
    if args.format == "ascii":
        lines = [
            f"fence {F.alpha}  n={F.n}  segments={F.s}",
            "covers: "
            + "  ".join(
                f"x{a}{'<' if d == 'up' else '>'}x{b}" for a, b, d in covers
            ),
            "shared: " + ",".join(f"x{x}" for x in payload["shared_elements"]),
            f"ideals: {payload['ideal_count']}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_count(args) -> int:
    alpha = _parse_alpha(args.alpha)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": list(alpha.parts),
        "ideal_count": count_ideals(alpha),
        "closed_form": closed_form_count(alpha) if 2 <= alpha.s <= 5 else None,
    }
    _emit(args, _json(payload))
    return 0


def _orbit_rows(F: Fence, family: str) -> list[dict]:
    profiles = harness.orbit_profiles(F)
    rows = []
    if family == ANTICHAIN:
        for idx, p in enumerate(profiles):
            rows.append(
                {
                    "index": idx,
                    "size": p.size,
                    "representative": p.orbit.representative.label(),
                    "black": list(p.counts.black_sequence),
                    "red": list(p.counts.red_sequence),
                    "chi": p.chi,
                    "chihat": p.chihat,
                }
            )
        return rows
    by_antichain_rep = {}
    for p in profiles:
        by_antichain_rep[min(F._down_closure_mask(m) for m in p.orbit.masks)] = p
    for idx, orbit in enumerate(ideal_orbits(F)):
        p = by_antichain_rep[min(orbit.masks)]
        rows.append(
            {
                "index": idx,
                "size": orbit.size,
                "representative": orbit.representative.label(),
                "black": list(p.counts.black_sequence),
                "red": list(p.counts.red_sequence),
                "chi": p.chi,
                "chihat": p.chihat,
            }
        )
    return rows


def _cmd_orbits(args) -> int:
    F = _fence_from(args)
    family = _FAMILIES[args.family]
    rows = _orbit_rows(F, family)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "schema_version",
                "index",
                "size",
                "representative",
                "black",
                "red",
                "chi",
                "chihat",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    SCHEMA_VERSION,
                    r["index"],
                    r["size"],
                    r["representative"],
                    ";".join(map(str, r["black"])),
                    ";".join(map(str, r["red"])),
                    r["chi"],
                    r["chihat"],
                ]
            )
        _emit(args, buf.getvalue())
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "alpha": list(F.alpha.parts),
            "family": args.family,
            "sizes": [r["size"] for r in rows],
            "orbits": rows,
        }
        _emit(args, _json(payload))
    return 0


def _cmd_tiling(args) -> int:
    F = _fence_from(args)
    from .rowmotion import antichain_orbits, orbit_of

    if args.rep:
        rep = F.element_set(_parse_rep(args.rep), ANTICHAIN)
        orbits = [orbit_of(F, rep)]
    elif args.orbit_index:
        allorbits = antichain_orbits(F)
        try:
            orbits = [allorbits[i] for i in _parse_index_range(args.orbit_index)]
        except IndexError:
            raise _UsageError(
                f"orbit index out of range (fence has {len(allorbits)} orbits)"
            )
    else:
        raise _UsageError("tiling needs --rep or --orbit-index")
    fmt = args.render or args.format
    if fmt not in ("ascii", "svg"):
        raise _UsageError("tiling renders as ascii or svg")
    blocks = [render_tiling(tiling_of_orbit(F, o), fmt) for o in orbits]
    if fmt == "svg" and len(blocks) > 1:
        # stack independent documents into one file, separated by blank lines
        _emit(args, "\n".join(blocks))
    else:
        _emit(args, "\n".join(blocks) if len(blocks) > 1 else blocks[0])
    return 0


def _cmd_check(args) -> int:
    F = _fence_from(args)
    family = _FAMILIES[args.family]
    expr = parse_stat(args.stat)
    report = check_homomesy(F, family, expr)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": list(F.alpha.parts),
        "family": args.family,
        "stat": str(expr),
        "report": report.to_json_dict(),
    }
    if args.format == "ascii":
        lines = [f"{expr} on {args.family} of {F.alpha}: {report.kind}"]
        if report.constant is not None:
            lines[0] += f" with constant {report.constant}"
        for size, sm, avg in report.per_orbit:
            lines.append(f"  orbit size {size}: sum {sm}, average {avg}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _report_exit(args, report) -> int:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report.to_json_dict())
    _emit(args, _json(payload))
    return 0 if report.ok else 2


def _cmd_verify(args) -> int:
    claim = args.claim
    if claim == "two-segment":
        if args.a is not None and args.b is not None:
            rep = harness.verify_two_segment(args.a, args.b)
        else:
            rep = harness.sweep_two_segment(_or(args.max_sum, 14))
    elif claim == "aba":
        if args.a is not None and args.b is not None:
            rep = harness.verify_aba(args.a, args.b)
        else:
            rep = harness.sweep_aba(_or(args.max_sum, 12))
    elif claim == "a4":
        if args.a is not None:
            rep = harness.verify_a4(args.a)
        else:
            rep = harness.sweep_a4(_or(args.max_a, 6))
    elif claim == "a1a1a":
        if args.a is not None:
            rep = harness.verify_a1a1a(args.a)
        else:
            rep = harness.sweep_a1a1a(_or(args.max_a, 6))
    elif claim == "homomesies":
        if args.alpha:
            rep = harness.verify_general_homomesies(_parse_alpha(args.alpha))
        else:
            rep = harness.sweep_general_homomesies(_or(args.max_n, 12))
    elif claim == "palindromic":
        if not args.alpha:
            raise _UsageError("verify palindromic needs --alpha")
        rep = harness.verify_palindromic_props(_parse_alpha(args.alpha))
    elif claim == "base-graph":
        if not args.alpha:
            raise _UsageError("verify base-graph needs --alpha")
        rep = harness.verify_base_graph(_parse_alpha(args.alpha))
    elif claim == "linear-extensions":
        if not args.alpha:
            raise _UsageError("verify linear-extensions needs --alpha")
        rep = harness.verify_linear_extension_toggles(
            _parse_alpha(args.alpha), _or(args.samples, 50), args.seed
        )
    elif claim == "transfer-ideal":
        if not args.alpha:
            raise _UsageError("verify transfer-ideal needs --alpha")
        rep = harness.verify_transfer_ideal(
            _parse_alpha(args.alpha), _or(args.samples, 200), args.seed
        )
    else:
        raise _UsageError(f"unknown claim {claim!r}")
    return _report_exit(args, rep)


def _cmd_scan(args) -> int:
    target = args.conjecture
    if target == "constant-alpha":
        rep = harness.scan_conjecture_constant_alpha(_or(args.max, 12))
    elif target == "tile-palindromes":
        rep = harness.scan_palindromic_tiles(_or(args.max, 12))
    elif target == "antichain-transfer":
        if not args.alpha:
            raise _UsageError("scan antichain-transfer needs --alpha")
        rep = harness.scan_conjecture_antichain_transfer(
            _parse_alpha(args.alpha), _or(args.samples, 200), args.seed
        )
    elif target == "cross-orbit-complement":
        if not args.alpha:
            raise _UsageError("scan cross-orbit-complement needs --alpha")
        rep = harness.find_cross_orbit_complement(_parse_alpha(args.alpha))
    else:
        raise _UsageError(f"unknown conjecture {target!r}")
    return _report_exit(args, rep)


# -- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="json", choices=["json", "csv", "ascii", "svg"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-family", type=int, default=None)
    p.add_argument("--out", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="fences", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="fence structure and index maps")
    p.add_argument("--alpha", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("count", help="exact ideal counts")
    p.add_argument("--alpha", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("orbits", help="rowmotion orbit decomposition")
    p.add_argument("--alpha", required=True)
    p.add_argument("--family", default="antichains", choices=sorted(_FAMILIES))
    _add_common(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("tiling", help="render the tiling of an orbit")
    p.add_argument("--alpha", required=True)
    p.add_argument("--rep", default=None, help="representative antichain, e.g. x4,x10")
    p.add_argument("--orbit-index", default=None, help="index or range, e.g. 0..3")
    p.add_argument("--render", default=None, choices=["ascii", "svg"])
    _add_common(p)
    p.set_defaults(func=_cmd_tiling, format="ascii")

    p = sub.add_parser("check", help="homomesy/orbomesy of a statistic")
    p.add_argument("--alpha", required=True)
    p.add_argument("--family", default="antichains", choices=sorted(_FAMILIES))
    p.add_argument("--stat", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="verify a theorem mechanically")
    p.add_argument(
        "claim",
        choices=[
            "two-segment",
            "aba",
            "a4",
            "a1a1a",
            "homomesies",
            "palindromic",
            "base-graph",
            "linear-extensions",
            "transfer-ideal",
        ],
    )
    p.add_argument("--alpha", default=None)
    p.add_argument("--a", type=_positive_int, default=None)
    p.add_argument("--b", type=_positive_int, default=None)
    p.add_argument("--max-sum", type=_positive_int, default=None)
    p.add_argument("--max-a", type=_positive_int, default=None)
    p.add_argument("--max-n", type=_positive_int, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="scan a conjecture for counterexamples")
    p.add_argument(
        "conjecture",
        choices=[
            "constant-alpha",
            "tile-palindromes",
            "antichain-transfer",
            "cross-orbit-complement",
        ],
    )
    p.add_argument("--alpha", default=None)
    p.add_argument("--max", type=_positive_int, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"fences: error: {exc}", file=sys.stderr)
        return 1
    except (FenceError, ValueError) as exc:
        print(f"fences: error: {exc}", file=sys.stderr)
        return 1
    except FamilyCapError as exc:
        print(f"fences: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
