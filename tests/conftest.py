"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run_cli():
    """Run `python -m rainbowgraphs.cli ARGS` in a child process that
    imports the package from this checkout's src/, whatever PYTHONPATH
    the test run was started with."""

    def run(*args: str) -> subprocess.CompletedProcess:
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        return subprocess.run(
            [sys.executable, "-m", "rainbowgraphs.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )

    return run
