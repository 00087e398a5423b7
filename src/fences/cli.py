"""Command-line interface.

Subcommands: info, count, orbits, tiling, check, verify, scan.  Output is
JSON by default (sorted keys, stable layout), CSV for flat per-orbit
rows, and ascii/svg for tilings.  Identical invocations produce
byte-identical output, except that verify/scan reports carry a
runtime_ms field which is wall-clock and therefore volatile.

Exit codes: 0 success, 1 usage or precondition error, 2 verification
failure (a counterexample was found), 3 resource cap exceeded.

Each command and claim declares only the options its handler reads:
info renders json or ascii, count json, orbits json or csv, tiling ascii
or svg (--render), check json or ascii and every claim json.
--max-family, else FENCE_MAX_FAMILY, caps every fence built from --alpha
(exit 3 above it); sweeps and --a/--b instances keep DEFAULT_MAX_FAMILY,
and info enumerates no family.  Each claim of verify and scan is one
subparser built from its harness.CLAIMS row, and _cmd_claim is their one
dispatch.  It is also the one timer: it times the checker or sweep call
and writes runtime_ms beside schema_version, since the harness's reports
are pure data.  This last paragraph is left out of the help text.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from itertools import accumulate

from . import harness
from .enumeration import closed_form_count, count_ideals
from .fence import (
    ANTICHAIN,
    IDEAL,
    Composition,
    ElementSet,
    FamilyCapError,
    Fence,
    MAX_ALPHA_SIZE,
)
from .rowmotion import antichain_orbits, orbit_of
from .stats import check_homomesy, parse_stat
from .tiling import render_tiling, tiling_of_orbit

SCHEMA_VERSION = 1

_FAMILIES = {"antichains": ANTICHAIN, "ideals": IDEAL}

# the commands of harness.CLAIMS: command -> (positional's name, help)
_CLAIM_COMMANDS = {
    "verify": ("claim", "verify a theorem mechanically"),
    "scan": ("conjecture", "scan a conjecture for counterexamples"),
}


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
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror}")
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fence_from(args) -> Fence:
    alpha = _parse_alpha(args.alpha)
    cap = args.max_family
    env = os.environ.get("FENCE_MAX_FAMILY")
    if cap is None and env:
        try:
            cap = _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"FENCE_MAX_FAMILY: {exc}")
    return Fence(alpha, max_family=cap)


# -- subcommands ------------------------------------------------------------


def _cmd_info(args) -> int:
    F = Fence(_parse_alpha(args.alpha))
    shared = {str(i): x for i, x in enumerate(F.shared, start=1)}
    unshared = {
        f"{i},{j}": x
        for i in range(1, F.s + 1)
        for j, x in enumerate(F.unshared[i], start=1)
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
        "shared_elements": list(F.shared),
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


def _least_ideals(F: Fence, profiles) -> list[int]:
    """The least ideal each profile's antichain orbit generates: every
    member is closed by one packed _down_closure_mask per lane chunk, in
    orbit order, then each orbit's slice gives its min."""
    members = [m for p in profiles for m in p.orbit.masks]
    ideals: list[int] = []
    for lanes, packed in F.lane_chunks(members):
        ideals += lanes.unpack(F._down_closure_mask(packed, lanes))
    ends = list(accumulate(p.size for p in profiles))
    return [min(ideals[a:b]) for a, b in zip([0, *ends], ends)]


def _orbit_rows(F: Fence, family: str) -> list[dict]:
    profiles = harness.orbit_profiles(F)
    if family == ANTICHAIN:
        reps = [(p.orbit.masks[0], p) for p in profiles]
    else:
        # the ideals an antichain orbit generates form an ideal orbit: the
        # least is its representative, and ideal_orbits sorts by that
        reps = sorted(zip(_least_ideals(F, profiles), profiles))
    return [
        {
            "index": idx,
            "size": p.size,
            "representative": ElementSet(rep, family).label(),
            "black": list(p.counts.black_sequence),
            "red": list(p.counts.red_sequence),
            "chi": p.chi,
            "chihat": p.chihat,
        }
        for idx, (rep, p) in enumerate(reps)
    ]


# the fields of an orbit row, in CSV column order after schema_version
_CSV_FIELDS = ("index", "size", "representative", "black", "red", "chi", "chihat")


def _csv_cell(value):
    """A row field as a CSV cell: a list of counts is joined by ';'."""
    return ";".join(map(str, value)) if isinstance(value, list) else value


def _cmd_orbits(args) -> int:
    F = _fence_from(args)
    family = _FAMILIES[args.family]
    rows = _orbit_rows(F, family)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema_version", *_CSV_FIELDS])
        for r in rows:
            writer.writerow([SCHEMA_VERSION, *map(_csv_cell, map(r.get, _CSV_FIELDS))])
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
    # several orbits stack their blocks (svg: whole documents) into one
    # output, separated by blank lines
    blocks = [render_tiling(tiling_of_orbit(F, o), args.render) for o in orbits]
    _emit(args, "\n".join(blocks))
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


def _report_exit(args, report, runtime_ms: int) -> int:
    payload = {"schema_version": SCHEMA_VERSION, "runtime_ms": runtime_ms}
    payload.update(report.to_json_dict())
    _emit(args, _json(payload))
    return 0 if report.ok else 2


def _cmd_claim(args) -> int:
    """Run a verify or scan claim from its harness.CLAIMS row: the
    instance checker when every selecting option is given, the sweep over
    the bound when none is.  Half an instance, an instance given the
    bound too, or no instance of a claim without a sweep, is a usage
    error.  An --alpha instance gets its fence, capped, from _fence_from,
    before the clock starts: runtime_ms times the checker or sweep call."""
    name = getattr(args, _CLAIM_COMMANDS[args.command][0])
    claim = harness.CLAIMS[name]
    given = [getattr(args, option) for option in claim.selects]
    bound = getattr(args, claim.bound) if claim.bound else None
    needs = " and ".join(f"--{option}" for option in claim.selects)
    if claim.check and all(given) and bound is None:
        checker = claim.check
        values = [
            _fence_from(args) if option == "alpha" else v
            for option, v in zip(claim.selects, given)
        ]
        if claim.samples is not None:
            values += [_or(args.samples, claim.samples), args.seed]
    elif claim.sweep and not any(given):
        checker, values = claim.sweep, [_or(bound, claim.default)]
    elif all(given):
        raise _UsageError(
            f"{args.command} {name} takes {needs} or {_flag(claim.bound)}, not both"
        )
    else:
        raise _UsageError(f"{args.command} {name} needs {needs}")
    t0 = time.perf_counter()
    report = getattr(harness, checker)(*values)
    return _report_exit(args, report, int((time.perf_counter() - t0) * 1000))


# -- parser -------------------------------------------------------------------


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process; dispatch reads
    the harness's checkers by name when a claim runs."""
    parser = _Parser(prog="fences", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand reads --alpha and --out; no parser takes abbreviations,
    # by which --a would stand for --alpha and --max for --max-family
    def subcommand(name: str, summary: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--alpha", required=True)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = subcommand("info", "fence structure and index maps", _cmd_info)
    p.add_argument("--format", default="json", choices=["json", "ascii"])
    subcommand("count", "exact ideal counts", _cmd_count)
    p = subcommand("orbits", "rowmotion orbit decomposition", _cmd_orbits)
    p.add_argument("--family", default="antichains", choices=sorted(_FAMILIES))
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--max-family", type=_positive_int)
    p = subcommand("tiling", "render the tiling of an orbit", _cmd_tiling)
    selector = p.add_mutually_exclusive_group()
    selector.add_argument("--rep", help="representative antichain, e.g. x4,x10")
    selector.add_argument("--orbit-index", help="index or range, e.g. 0..3")
    p.add_argument("--render", default="ascii", choices=["ascii", "svg"])
    p.add_argument("--max-family", type=_positive_int)
    p = subcommand("check", "homomesy/orbomesy of a statistic", _cmd_check)
    p.add_argument("--family", default="antichains", choices=sorted(_FAMILIES))
    p.add_argument("--stat", required=True)
    p.add_argument("--format", default="json", choices=["json", "ascii"])
    p.add_argument("--max-family", type=_positive_int)

    for command, (positional, summary) in _CLAIM_COMMANDS.items():
        claims = sub.add_parser(command, help=summary).add_subparsers(
            dest=positional, required=True
        )
        for name, claim in harness.CLAIMS.items():
            if claim.command != command:
                continue
            p = claims.add_parser(name, allow_abbrev=False)
            for option in claim.selects:
                kind = str if option == "alpha" else _positive_int
                p.add_argument(_flag(option), type=kind)
            if claim.bound:
                p.add_argument(_flag(claim.bound), type=_positive_int)
            if claim.samples:
                p.add_argument("--samples", type=_positive_int)
                p.add_argument("--seed", type=int, default=0)
            if "alpha" in claim.selects:
                p.add_argument("--max-family", type=_positive_int)
            p.add_argument("--out")
            p.set_defaults(func=_cmd_claim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:  # FenceError is a ValueError
        print(f"fences: error: {exc}", file=sys.stderr)
        return 1
    except FamilyCapError as exc:
        print(f"fences: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
