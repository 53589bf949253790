"""Fixtures shared by the test modules."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*args: str) -> subprocess.CompletedProcess:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


@pytest.fixture
def run_python():
    """Run `python ARGS` in a child process that imports the package
    from this checkout's src/, whatever PYTHONPATH the test run was
    started with."""
    return _run_python


@pytest.fixture
def run_cli():
    """Run `python -m rainbowgraphs.cli ARGS` in such a child process."""
    return functools.partial(_run_python, "-m", "rainbowgraphs.cli")
