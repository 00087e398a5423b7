import argparse
import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fences import cli, harness
from fences.cli import MAX_ALPHA_SIZE, build_parser, main


MIXED = "statistic mixes antichain (chi) and ideal (chihat) atoms"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_332(self, capsys):
        code, out, _ = run(capsys, "info", "--alpha", "3,3,2")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 7
        assert data["shared_elements"] == [3, 6]
        assert data["ideal_count"] == 23
        assert data["schema_version"] == 1

    def test_22(self, capsys):
        code, out, _ = run(capsys, "info", "--alpha", "2,2")
        data = json.loads(out)
        assert data["n"] == 3 and data["ideal_count"] == 5

    def test_bad_alpha_exits_1(self, capsys):
        code, _, err = run(capsys, "info", "--alpha", "1,3")
        assert code == 1
        assert err.startswith("fences: error:") and "\n" not in err.strip()

    def test_caret_expansion(self, capsys):
        code, out, _ = run(capsys, "count", "--alpha", "4^8")
        assert json.loads(out)["ideal_count"] == 98209


class TestOrbits:
    def test_434_sizes(self, capsys):
        code, out, _ = run(capsys, "orbits", "--alpha", "4,3,4")
        data = json.loads(out)
        assert sorted(data["sizes"]) == [5, 17, 17, 17]

    def test_54(self, capsys):
        code, out, _ = run(capsys, "orbits", "--alpha", "5,4")
        data = json.loads(out)
        assert data["sizes"] == [21]
        assert data["orbits"][0]["chi"] == 32

    def test_22_csv(self, capsys):
        code, out, _ = run(capsys, "orbits", "--alpha", "2,2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("schema_version,index,size")
        assert len(lines) == 3

    def test_ideal_family(self, capsys):
        code, out, _ = run(capsys, "orbits", "--alpha", "4,3,4", "--family", "ideals")
        assert sorted(json.loads(out)["sizes"]) == [5, 17, 17, 17]

    @pytest.mark.parametrize("alpha", ["4,3,4", "2,2", "3,1,3,1,3", "2^5", "5,1,4"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_ideal_rows_as_per_member_closure(self, capsys, monkeypatch, alpha, fmt):
        # the packed closure of every member gives the rows that closing
        # each member on its own gives
        argv = ("orbits", "--alpha", alpha, "--family", "ideals", "--format", fmt)
        _, packed, _ = run(capsys, *argv)

        def per_member(F, profiles):
            return [min(map(F._down_closure_mask, p.orbit.masks)) for p in profiles]

        monkeypatch.setattr(cli, "_least_ideals", per_member)
        _, want, _ = run(capsys, *argv)
        assert packed == want

    def test_byte_identical(self, capsys):
        _, a, _ = run(capsys, "orbits", "--alpha", "4,3,4")
        _, b, _ = run(capsys, "orbits", "--alpha", "4,3,4")
        assert a == b


class TestTiling:
    def test_fig3_by_rep(self, capsys):
        code, out, _ = run(
            capsys, "tiling", "--alpha", "4,3,4", "--rep", "x4,x10", "--render", "ascii"
        )
        assert code == 0
        assert out == "|Y|B B B|R|\n|Y|R|B B|R|\n|Y|R|B B B|\n"

    def test_svg_valid(self, capsys, tmp_path):
        dest = tmp_path / "t.svg"
        code, _, _ = run(
            capsys,
            "tiling", "--alpha", "4,3,4", "--rep", "4,10",
            "--render", "svg", "--out", str(dest),
        )
        assert code == 0
        import xml.etree.ElementTree as ET

        root = ET.parse(dest).getroot()
        assert root.attrib["version"] == "1.1"

    # SHA-256 of stdout, recorded while the tiling command still took its
    # orbits from the whole decomposition rather than walking them
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--orbit-index", "0..3"],
                "c4061783cd118700ea7b58a22c0841ca10236d46ab4ceb8a81cd948d89a6d4f3",
            ),
            (
                ["--orbit-index", "1..2", "--render", "svg"],
                "e34c09a2653e02628202a1e65006c6fbd9bf9aaa0551669f2292766ada9b63c0",
            ),
        ],
    )
    def test_walked_orbits_draw_the_same_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, "tiling", "--alpha", "4,3,4", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_of_range_names_the_orbit_count(self, capsys):
        code, out, err = run(capsys, "tiling", "--alpha", "4,3,4", "--orbit-index", "0..9")
        assert (code, out) == (1, "")
        assert err == "fences: error: orbit index out of range (fence has 4 orbits)\n"

    def test_orbit_index_range(self, capsys):
        code, out, _ = run(
            capsys,
            "tiling", "--alpha", "3,3,3,3", "--orbit-index", "0..3",
            "--render", "ascii",
        )
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 4

    def test_needs_selector(self, capsys):
        code, _, err = run(capsys, "tiling", "--alpha", "2,2")
        assert code == 1

    def test_both_selectors_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "tiling", "--alpha", "4,3,4", "--rep", "x4,x10", "--orbit-index", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith("fences: error:") and err.count("\n") == 1
        assert "--rep" in err and "--orbit-index" in err

    @pytest.mark.parametrize("index", ["3..1", "-1", "-2..1", "0..1000000000000"])
    def test_bad_orbit_index_is_usage_error(self, capsys, index):
        code, out, err = run(
            capsys, "tiling", "--alpha", "4,3,4", "--orbit-index", index
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fences: error:") and "\n" not in err.strip()


class TestCheck:
    def test_homomesic_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--stat", "chi[5]-chi[6]", "--alpha", "4,3,4"
        )
        data = json.loads(out)
        assert data["report"]["kind"] == "homomesic"
        assert data["report"]["constant"] == "0"

    def test_homomesic_three_halves(self, capsys):
        code, out, _ = run(capsys, "check", "--stat", "chi", "--alpha", "2,2,2")
        data = json.loads(out)
        assert data["report"]["constant"] == "3/2"

    def test_orbomesic_only(self, capsys):
        code, out, _ = run(capsys, "check", "--stat", "chi", "--alpha", "4,4,4,4")
        data = json.loads(out)
        assert data["report"]["kind"] == "orbomesic"

    def test_bad_stat_exits_1(self, capsys):
        code, _, err = run(capsys, "check", "--stat", "chi[[", "--alpha", "2,2")
        assert code == 1

    @pytest.mark.parametrize(
        "stat, message",
        [
            ("chi[11]", "element x11 out of range 1..10"),
            ("chi[2] + chi[12] + chi[13]", "element x12 out of range 1..10"),
            ("chi[11] + chihat[2]", MIXED),
        ],
    )
    def test_bad_atom_exits_1(self, capsys, stat, message):
        code, out, err = run(capsys, "check", "--alpha", "4,3,4", "--stat", stat)
        assert (code, out, err) == (1, "", f"fences: error: {message}\n")


class TestVerifyScan:
    def test_verify_two_segment(self, capsys):
        code, out, _ = run(
            capsys, "verify", "two-segment", "--a", "5", "--b", "4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["witnesses"] == []

    def test_scan_constant_alpha(self, capsys):
        code, out, _ = run(capsys, "scan", "constant-alpha", "--max", "7")
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_verify_palindromic_48(self, capsys, f48):
        code, out, _ = run(
            capsys, "verify", "palindromic", "--alpha", "4^8"
        )
        assert code == 0  # data plus theorem parts; theorems hold

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 1

    @pytest.mark.parametrize(
        "claim, option", [("two-segment", "--a"), ("aba", "--b")]
    )
    def test_half_an_instance_is_a_usage_error(self, capsys, claim, option):
        code, out, err = run(capsys, "verify", claim, option, "3")
        assert code == 1 and out == ""
        assert err == f"fences: error: verify {claim} needs --a and --b\n"


# -- the claim table --------------------------------------------------------------
#
# Each claim's small instance and small sweep, written out independently of
# harness.CLAIMS: (CLI options, harness checker, its arguments).

_SMALL = {
    "two-segment": [
        (["--a", "3", "--b", "2"], "verify_two_segment", (3, 2)),
        (["--max-sum", "7"], "sweep_two_segment", (7,)),
    ],
    "aba": [
        (["--a", "3", "--b", "2"], "verify_aba", (3, 2)),
        (["--max-sum", "6"], "sweep_aba", (6,)),
    ],
    "a4": [
        (["--a", "3"], "verify_a4", (3,)),
        (["--max-a", "3"], "sweep_a4", (3,)),
    ],
    "a1a1a": [
        (["--a", "3"], "verify_a1a1a", (3,)),
        (["--max-a", "3"], "sweep_a1a1a", (3,)),
    ],
    "homomesies": [
        (["--alpha", "4,3,4"], "verify_general_homomesies", ((4, 3, 4),)),
        (["--max-n", "7"], "sweep_general_homomesies", (7,)),
    ],
    "palindromic": [(["--alpha", "3,2,3"], "verify_palindromic_props", ((3, 2, 3),))],
    "base-graph": [(["--alpha", "3,3"], "verify_base_graph", ((3, 3),))],
    "linear-extensions": [
        (
            ["--alpha", "3,3", "--samples", "5", "--seed", "2"],
            "verify_linear_extension_toggles",
            ((3, 3), 5, 2),
        )
    ],
    "transfer-ideal": [
        (
            ["--alpha", "3,2,3", "--samples", "5", "--seed", "1"],
            "verify_transfer_ideal",
            ((3, 2, 3), 5, 1),
        )
    ],
    "constant-alpha": [(["--max", "6"], "scan_conjecture_constant_alpha", (6,))],
    "tile-palindromes": [(["--max", "6"], "scan_palindromic_tiles", (6,))],
    "antichain-transfer": [
        (
            ["--alpha", "3,3", "--samples", "4", "--seed", "3"],
            "scan_conjecture_antichain_transfer",
            ((3, 3), 4, 3),
        )
    ],
    "cross-orbit-complement": [
        (["--alpha", "2^5"], "find_cross_orbit_complement", ((2,) * 5,))
    ],
}

# the default bound of each sweep and the default --samples of each sampler
_DEFAULTS = {
    "two-segment": 14, "aba": 12, "a4": 6, "a1a1a": 6, "homomesies": 12,
    "constant-alpha": 12, "tile-palindromes": 12,
    "linear-extensions": 50, "transfer-ideal": 200, "antichain-transfer": 200,
}


class TestClaimTable:
    @pytest.mark.parametrize("name", list(harness.CLAIMS))
    def test_cli_runs_the_harness_checker(self, capsys, name):
        claim = harness.CLAIMS[name]
        for options, checker, call in _SMALL[name]:
            code, out, err = run(capsys, claim.command, name, *options)
            report = getattr(harness, checker)(*call)
            expected = {"schema_version": 1, **report.to_json_dict()}
            assert err == "" and code == (0 if report.ok else 2)
            # the CLI times the claim: the one key the report lacks
            payload = json.loads(out)
            runtime = payload.pop("runtime_ms")
            assert type(runtime) is int and runtime >= 0
            assert payload == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("name", list(harness.CLAIMS))
    def test_reports_are_frozen_data(self, name):
        # a report carries no timing, so two runs of a checker are equal
        for _, checker, call in _SMALL[name]:
            report = getattr(harness, checker)(*call)
            assert report == getattr(harness, checker)(*call)
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.claim = name

    @pytest.mark.parametrize("name", list(_DEFAULTS))
    def test_defaults(self, capsys, monkeypatch, name):
        # the checker is replaced on the module, where the CLI looks it up
        claim, calls = harness.CLAIMS[name], []

        def record(*args):
            calls.append(args)
            return harness.VerificationReport(name, {})

        if claim.sweep:
            monkeypatch.setattr(harness, claim.sweep, record)
            argv = [claim.command, name]
        else:
            monkeypatch.setattr(harness, claim.check, record)
            argv = [claim.command, name, "--alpha", "3,3", "--seed", "4"]
        assert run(capsys, *argv)[0] == 0
        assert calls[0][0 if claim.sweep else 1] == _DEFAULTS[name]

    def test_every_checker_is_a_claim(self):
        named = {n for c in harness.CLAIMS.values() for n in (c.check, c.sweep) if n}
        public = {
            name
            for name, obj in vars(harness).items()
            if name.startswith(("verify_", "scan_", "sweep_", "find_"))
            and getattr(obj, "__module__", None) == "fences.harness"
        }
        assert public <= named, public - named
        assert all(callable(getattr(harness, n, None)) for n in named)
        assert {c.command for c in harness.CLAIMS.values()} == {"verify", "scan"}


# -- the options of each command and claim ----------------------------------------
#
# Each command and claim declares only the options its handler reads.  The
# options every command once accepted, whether read or not, and the ones each
# reads, written out independently of the parser and of harness.CLAIMS.

_COMMON = ["--format", "--seed", "--max-family", "--out"]
_ONCE_ACCEPTED = {
    "info": ["--alpha", *_COMMON],
    "count": ["--alpha", *_COMMON],
    "orbits": ["--alpha", "--family", *_COMMON],
    "tiling": ["--alpha", "--rep", "--orbit-index", "--render", *_COMMON],
    "check": ["--alpha", "--family", "--stat", *_COMMON],
    "verify": ["--alpha", "--a", "--b", "--max-sum", "--max-a", "--max-n",
               "--samples", *_COMMON],
    "scan": ["--alpha", "--max", "--samples", *_COMMON],
}
_FORMATS = ["json", "csv", "ascii", "svg"]

# command -> (a command line it runs, the options it reads besides --out, the
# formats it renders); a claim's command line is its first one in _SMALL
_READS = {
    "info": (["--alpha", "2,2"], "--alpha --format", ["json", "ascii"]),
    "count": (["--alpha", "2,2"], "--alpha", []),
    "orbits": (
        ["--alpha", "2,2"], "--alpha --family --format --max-family", ["json", "csv"]
    ),
    "tiling": (
        ["--alpha", "2,2", "--orbit-index", "0"],
        "--alpha --rep --orbit-index --render --max-family",
        [],
    ),
    "check": (
        ["--alpha", "2,2", "--stat", "chi"],
        "--alpha --family --stat --format --max-family",
        ["json", "ascii"],
    ),
}
_CLAIM_READS = {
    "two-segment": "--a --b --max-sum",
    "aba": "--a --b --max-sum",
    "a4": "--a --max-a",
    "a1a1a": "--a --max-a",
    "homomesies": "--alpha --max-n --max-family",
    "palindromic": "--alpha --max-family",
    "base-graph": "--alpha --max-family",
    "linear-extensions": "--alpha --samples --seed --max-family",
    "transfer-ideal": "--alpha --samples --seed --max-family",
    "constant-alpha": "--max",
    "tile-palindromes": "--max",
    "antichain-transfer": "--alpha --samples --seed --max-family",
    "cross-orbit-complement": "--alpha --max-family",
}
_VALUE = {
    "--alpha": "3,3", "--a": "3", "--b": "2", "--max-sum": "3", "--max-a": "2",
    "--max-n": "3", "--max": "3", "--samples": "2", "--seed": "1",
    "--max-family": "100", "--format": "ascii",
}


def _unread_options():
    """(a command line that runs, the same line with one option its command
    or claim once accepted and does not read) for each such option, every
    --format value a command does not render included."""
    lines = {(command,): line for command, line in _READS.items()}
    for name, reads in _CLAIM_READS.items():
        lines[harness.CLAIMS[name].command, name] = (_SMALL[name][0][0], reads, [])
    for head, (argv, reads, formats) in lines.items():
        for option in _ONCE_ACCEPTED[head[0]]:
            if option == "--format" and formats:
                extras = [[option, f] for f in _FORMATS if f not in formats]
            elif option in reads.split() or option == "--out":
                extras = []
            else:
                extras = [[option, _VALUE[option]]]
            for extra in extras:
                base = [*head, *argv]
                yield pytest.param(base, base + extra, id=" ".join([*head, *extra]))


class TestOnlyReadOptions:
    @pytest.mark.parametrize("base, argv", _unread_options())
    def test_an_unread_option_is_a_usage_error(self, capsys, base, argv):
        assert run(capsys, *base)[0] == 0
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("fences: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name", [n for n, c in harness.CLAIMS.items() if c.check and c.sweep]
    )
    def test_an_instance_given_its_bound_is_a_usage_error(self, capsys, name):
        (instance, _, _), (sweep, _, _) = _SMALL[name]
        command = harness.CLAIMS[name].command
        code, out, err = run(capsys, command, name, *instance, *sweep)
        assert code == 1 and out == ""
        assert err.startswith(f"fences: error: {command} {name} takes {instance[0]}")
        assert err.endswith(f" or {sweep[0]}, not both\n")

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_an_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where):
        dest = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "count", "--alpha", "2,2", "--out", str(dest))
        assert code == 1 and out == ""
        assert err.startswith("fences: error: cannot write --out") and str(dest) in err
        assert err.count("\n") == 1

    def test_a_claim_lists_only_its_options(self):
        code, out, _ = _run_quietly(["verify", "a4", "-h"])
        assert code == 0
        listed = set(re.findall(r"--[\w-]+", out))
        assert listed == {"--help", "--a", "--max-a", "--out"}


# The parser against the handlers: every option a subcommand declares is one
# its handler reads, itself or through a cli function it passes args to, and
# the reverse; every claim declares exactly the options of its CLAIMS row.


def _subparsers(parser) -> dict:
    """name -> parser, for each choice of a parser's subcommand positional."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _declared(parser) -> set[str]:
    """The dest of every option a parser declares, -h aside."""
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


_FUNCS = {
    node.name: node
    for node in ast.parse(inspect.getsource(cli)).body
    if isinstance(node, ast.FunctionDef)
}


def _args_read(name: str) -> set[str]:
    """Every args.<name> that a cli function reads, itself or through the cli
    functions it passes args to."""
    read = set()
    for node in ast.walk(_FUNCS[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "args":
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in _FUNCS
            and any(getattr(a, "id", None) == "args" for a in node.args)
        ):
            read |= _args_read(node.func.id)
    return read


_COMMANDS = _subparsers(build_parser())


class TestDeclaredOptions:
    @pytest.mark.parametrize(
        "command", [c for c in _COMMANDS if c not in ("verify", "scan")]
    )
    def test_a_command_declares_what_its_handler_reads(self, command):
        parser = _COMMANDS[command]
        handler = parser.get_default("func").__name__
        assert handler != "_cmd_claim"
        assert _args_read(handler) == _declared(parser)

    @pytest.mark.parametrize("name", list(harness.CLAIMS))
    def test_a_claim_declares_its_row(self, name):
        claim = harness.CLAIMS[name]
        parser = _subparsers(_COMMANDS[claim.command])[name]
        row = {*claim.selects, claim.bound, "out"}
        if claim.samples:
            row |= {"samples", "seed"}
        if "alpha" in claim.selects:
            row.add("max_family")
        assert _declared(parser) == row - {None}
        assert parser.get_default("func") is cli._cmd_claim


class TestNumericOptions:
    @pytest.mark.parametrize("command", ["count", "info"])
    def test_long_composition_needs_no_recursion(self, capsys, command):
        code, out, err = run(capsys, command, "--alpha", "2^1200")
        assert code == 0 and err == ""
        assert json.loads(out)["ideal_count"] > 2**1000

    @pytest.mark.parametrize(
        "alpha", ["2^99999999999", "0^99999999999", "2^5001", "3,99999999999,2"]
    )
    def test_oversized_composition_is_a_usage_error(self, capsys, alpha):
        # the size is checked before a^k builds its parts, so no power here
        # is ever allocated
        code, out, err = run(capsys, "info", "--alpha", alpha)
        assert code == 1 and out == ""
        assert err.startswith("fences: error:") and err.count("\n") == 1
        assert f"at most {MAX_ALPHA_SIZE} of each" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "transfer-ideal", "--alpha", "3,3", "--samples", "0"),
            ("verify", "linear-extensions", "--alpha", "3,3", "--samples", "-1"),
            ("verify", "aba", "--a", "0", "--b", "2"),
            ("orbits", "--alpha", "4,3,4", "--max-family", "0"),
            ("orbits", "--alpha", "4,3,4", "--max-family", "-5"),
        ],
    )
    def test_non_positive_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "expected a positive integer" in err


class TestCaps:
    def test_max_family_flag(self, capsys):
        code, _, err = run(capsys, "orbits", "--alpha", "4,3,4", "--max-family", "10")
        assert code == 3
        assert "cap" in err

    def test_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "10")
        code, _, err = run(capsys, "orbits", "--alpha", "4,3,4")
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "-1", "0"])
    def test_env_var_must_be_positive(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FENCE_MAX_FAMILY", value)
        code, out, err = run(capsys, "orbits", "--alpha", "4,3,4")
        assert code == 1 and out == ""
        assert err == (
            "fences: error: FENCE_MAX_FAMILY: "
            f"expected a positive integer, got {value!r}\n"
        )

    def test_empty_env_var_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "")
        code, _, _ = run(capsys, "orbits", "--alpha", "4,3,4")
        assert code == 0

    def test_max_family_caps_an_alpha_claim(self, capsys):
        argv = ("verify", "transfer-ideal", "--alpha", "4,3,4", "--max-family", "10")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "cap 10" in err

    def test_env_var_caps_an_alpha_claim(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "10")
        code, out, err = run(capsys, "verify", "homomesies", "--alpha", "4,3,4")
        assert code == 3 and out == "" and "cap 10" in err

    def test_env_var_of_a_claim_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "0")
        code, out, err = run(capsys, "verify", "base-graph", "--alpha", "3,3")
        assert code == 1 and out == "" and err.startswith("fences: error: FENCE_")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "10")
        code, out, _ = run(
            capsys, "orbits", "--alpha", "4,3,4", "--max-family", "100"
        )
        assert code == 0


# -- argv fuzz ------------------------------------------------------------------
#
# Random argv for every subcommand and claim, drawn from the options its
# parser declares: a well-formed command line, four times in five corrupted
# once (a junk value, a dropped option, a stray token or an option it does
# not read).  Every sweep bound and --samples is in the head, where no
# corruption reaches it, and small (n <= 11, bounds <= 7, --samples <= 3); an
# instance whose selecting option is corrupted gets its claim's small bound
# too, so no default-size sweep runs.  --out is never drawn, and nothing
# starts a thread or a process, so each run takes milliseconds.

_JUNK = ["", "x", "abc", "-1", "0", "1.5", "1,3", "2^", "^2", "2,,2", "2^0",
         "3^-1", "2^2^2", "chi[[", "1/0", "chi[99]", "xml", "-2..1", "3..1"]
_STATS = ["chi", "chihat", "chi[1]-chi[2]", "2*chihat[3] + 1/2", "chi + chihat"]


def _ints(low, high):
    return st.integers(low, high).map(str)


@st.composite
def _alphas(draw):
    if draw(st.booleans()):
        return f"{draw(st.integers(2, 3))}^{draw(st.integers(1, 4))}"
    ends = st.integers(2, 3)
    middle = draw(st.lists(st.integers(1, 3), max_size=2))
    return ",".join(map(str, [draw(ends), *middle, draw(ends)]))  # n <= 11


@st.composite
def _orbit_indices(draw):
    lo = draw(st.integers(0, 4))
    hi = draw(st.integers(lo, lo + 3))
    return draw(st.sampled_from([f"{lo}", f"{lo}..{hi}"]))


_REPS = st.lists(st.integers(1, 11), min_size=1, max_size=3).map(
    lambda xs: ",".join(f"x{x}" for x in xs)
)
# the values of each option without choices, by dest; the small sweep bounds
# and --samples go in the head
_VALUES = {
    "alpha": _alphas(), "a": _ints(2, 4), "b": _ints(1, 4), "seed": _ints(0, 9),
    "max_family": st.sampled_from(["1", "9", "60", "10000"]),
    "stat": st.sampled_from(_STATS), "rep": _REPS, "orbit_index": _orbit_indices(),
}
_BOUNDS = {
    "max_sum": _ints(1, 7), "max_a": _ints(1, 3), "max_n": _ints(1, 6),
    "max": _ints(1, 6),
}
# the parser of each command line: (command,) or (command, claim)
_PARSERS = {(c,): p for c, p in _COMMANDS.items() if c not in ("verify", "scan")}
_PARSERS.update(
    ((c, name), p)
    for c in ("verify", "scan")
    for name, p in _subparsers(_COMMANDS[c]).items()
)
_FLAGS = sorted({
    a.option_strings[0]
    for parser in _PARSERS.values()
    for a in parser._actions
    if a.option_strings and a.dest != "help"
})


@st.composite
def _argvs(draw):
    head = [draw(st.sampled_from(list(_COMMANDS)))]
    if head[0] in ("verify", "scan"):
        head.append(draw(st.sampled_from(list(_subparsers(_COMMANDS[head[0]])))))
    parser = _PARSERS[tuple(head)]
    actions = [
        a for a in parser._actions if a.option_strings and a.dest not in ("help", "out")
    ]
    claim = harness.CLAIMS.get(head[-1])
    needed, skipped, instance = set(), set(), False
    for group in parser._mutually_exclusive_groups:  # tiling's --rep, --orbit-index
        kept = draw(st.sampled_from(group._group_actions)).dest
        needed.add(kept)
        skipped |= {a.dest for a in group._group_actions if a.dest != kept}
    if claim:
        instance = bool(claim.check) and not (claim.sweep and draw(st.booleans()))
        if claim.samples:
            head += ["--samples", draw(_ints(1, 3))]
        if not instance:
            head += [cli._flag(claim.bound), draw(_BOUNDS[claim.bound])]
        (needed if instance else skipped).update(claim.selects)
        skipped |= {claim.bound, "samples"}
    options = []
    for a in actions:
        if a.dest not in skipped and (
            a.required or a.dest in needed or draw(st.booleans())
        ):
            values = st.sampled_from(a.choices) if a.choices else _VALUES[a.dest]
            options.append((a.option_strings[0], draw(values)))
    corruption = draw(st.sampled_from([None, "value", "drop", "token", "unread"]))
    if corruption in ("value", "drop") and options:
        i = draw(st.integers(0, len(options) - 1))
        flag = options[i][0]
        if corruption == "value":
            options[i] = (flag, draw(st.sampled_from(_JUNK)))
        else:
            options.pop(i)
        if instance and claim.sweep and flag[2:] in claim.selects:
            head += [cli._flag(claim.bound), draw(_BOUNDS[claim.bound])]
    elif corruption == "token":
        head.append(draw(st.sampled_from(["--bogus", "extra", "-h", "--alpha"])))
    elif corruption == "unread":
        declared = {a.option_strings[0] for a in parser._actions}
        flag = draw(st.sampled_from([f for f in _FLAGS if f not in declared]))
        options.append((flag, draw(_ints(1, 3))))
    return head + [token for pair in options for token in pair]


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process run.  Only SystemExit
    is caught (argparse's help exits through it); any other exception
    escapes and fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_RUNTIME = re.compile(r'"runtime_ms": \d+')


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_argv_fuzz_exits_cleanly_and_deterministically(argv):
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code in (1, 3):
        assert out == "" and err.startswith("fences: error:"), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    again, out2, _ = _run_quietly(argv)
    assert again == code
    assert _RUNTIME.sub("", out2) == _RUNTIME.sub("", out), argv
