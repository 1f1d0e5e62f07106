"""The model's value classes: slotted, frozen, picklable (`model_checks.py`),
on this Python and on Python 3.10 where one is installed."""

import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import model_checks

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("check", model_checks.CHECKS,
                         ids=lambda check: check.__name__)
def test_model(check):
    check()


def python310() -> str | None:
    """A Python 3.10 interpreter: `python3.10` on the path, else one that
    pyenv installed; None if there is none."""
    found = [shutil.which("python3.10")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True).stdout.strip()
        found += sorted(glob.glob(
            os.path.join(root, "versions", "3.10*", "bin", "python3.10")))
    for exe in filter(None, found):
        ran = subprocess.run(
            [exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
            capture_output=True)
        if ran.returncode == 0:
            return exe
    return None


@pytest.mark.skipif(sys.version_info[:2] == (3, 10),
                    reason="this interpreter is Python 3.10")
def test_model_checks_on_python_310():
    exe = python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ran = subprocess.run([exe, str(ROOT / "tests" / "model_checks.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == f"{len(model_checks.CHECKS)} model checks passed\n"
