"""Every demo runs and prints what its fixture holds.

The demos are seeded, so their output is fixed; all four take under 5 s.
Regenerate a fixture (only for a deliberate output change) with

    PYTHONPATH=src python3 demos/NAME_demo.py > tests/golden/demos/NAME_demo.txt
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*_demo.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_fixture(path, capsys):
    runpy.run_path(str(path), run_name="demo")["main"]()
    want = (ROOT / "tests" / "golden" / "demos" / f"{path.stem}.txt").read_text()
    assert capsys.readouterr().out == want
