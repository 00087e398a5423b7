"""The scripts under demos/ run to the end on the current library.

Each is copied into a temporary directory first, so what it writes beside
itself (orbits_and_tilings.py writes an SVG) lands there, not in the repo.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["orbits_and_tilings.py", "homomesy_survey.py"])
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    if name == "orbits_and_tilings.py":
        assert "<svg" in (tmp_path / "orbit5_4_3_4.svg").read_text()
