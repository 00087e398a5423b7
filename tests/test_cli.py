import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fences.cli import MAX_ALPHA_SIZE, main


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

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FENCE_MAX_FAMILY", "10")
        code, out, _ = run(
            capsys, "orbits", "--alpha", "4,3,4", "--max-family", "100"
        )
        assert code == 0


# -- argv fuzz ------------------------------------------------------------------
#
# Random argv for every subcommand: a well-formed command line, three times
# in four corrupted once (a junk value, a dropped option or a stray token).
# Every size that reaches a sweep is given and small (n <= 11, --max <= 6,
# --samples <= 3), and nothing starts a thread or a process, so each run
# takes milliseconds.

_JUNK = ["", "x", "abc", "-1", "0", "1.5", "1,3", "2^", "^2", "2,,2", "2^0",
         "3^-1", "2^2^2", "chi[[", "1/0", "chi[99]", "xml", "-2..1", "3..1"]
_STATS = ["chi", "chihat", "chi[1]-chi[2]", "2*chihat[3] + 1/2", "chi + chihat"]
_CLAIMS = ["two-segment", "aba", "a4", "a1a1a", "homomesies", "palindromic",
           "base-graph", "linear-extensions", "transfer-ideal"]
_CONJECTURES = ["constant-alpha", "tile-palindromes", "antichain-transfer",
                "cross-orbit-complement"]


@st.composite
def _alphas(draw):
    if draw(st.booleans()):
        return f"{draw(st.integers(2, 3))}^{draw(st.integers(1, 4))}"
    ends = st.integers(2, 3)
    middle = draw(st.lists(st.integers(1, 3), max_size=2))
    return ",".join(map(str, [draw(ends), *middle, draw(ends)]))  # n <= 11


def _ints(low, high):
    return st.integers(low, high).map(str)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(
        ["info", "count", "orbits", "tiling", "check", "verify", "scan"]
    ))
    head, options = [command], [("--alpha", draw(_alphas()))]
    if command == "verify":
        head.append(draw(st.sampled_from(_CLAIMS)))
        # every sweep bound is in head, where no corruption drops it, so no
        # default-size sweep runs
        for flag, high in (("--max-sum", 7), ("--max-a", 3), ("--max-n", 6),
                           ("--samples", 3)):
            head += [flag, draw(_ints(1, high))]
        if draw(st.booleans()):
            options += [("--a", draw(_ints(2, 4))), ("--b", draw(_ints(1, 4)))]
        if draw(st.booleans()):
            options.pop(0)  # sweep claims run without --alpha
    elif command == "scan":
        head.append(draw(st.sampled_from(_CONJECTURES)))
        head += ["--max", draw(_ints(1, 6)), "--samples", draw(_ints(1, 3))]
    elif command in ("orbits", "check"):
        options.append(("--family", draw(st.sampled_from(["antichains", "ideals"]))))
        if command == "check":
            options.append(("--stat", draw(st.sampled_from(_STATS))))
    elif command == "tiling":
        if draw(st.booleans()):
            reps = st.lists(st.integers(1, 11), min_size=1, max_size=3)
            options.append(("--rep", ",".join(f"x{x}" for x in draw(reps))))
        else:
            lo = draw(st.integers(0, 4))
            hi = draw(st.integers(lo, lo + 3))
            index = draw(st.sampled_from([f"{lo}", f"{lo}..{hi}"]))
            options.append(("--orbit-index", index))
        options.append(("--render", draw(st.sampled_from(["ascii", "svg"]))))
    if draw(st.booleans()):
        options.append(("--format", draw(st.sampled_from(["json", "csv", "ascii"]))))
    if draw(st.booleans()):
        options.append(("--seed", draw(_ints(0, 9))))
    if draw(st.booleans()):
        cap = draw(st.sampled_from(["1", "9", "60", "10000"]))
        options.append(("--max-family", cap))
    corruption = draw(st.sampled_from([None, "value", "drop", "token"]))
    if corruption == "value" and options:
        i = draw(st.integers(0, len(options) - 1))
        options[i] = (options[i][0], draw(st.sampled_from(_JUNK)))
    elif corruption == "drop" and options:
        options.pop(draw(st.integers(0, len(options) - 1)))
    elif corruption == "token":
        head.append(draw(st.sampled_from(["--bogus", "extra", "-h", "--alpha"])))
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
