import json

import pytest

from fences.cli import main


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
