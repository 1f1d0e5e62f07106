"""The model's value classes: slotted, frozen, picklable (`model_checks.py`),
on this Python and on every other CPython 3.10 or later that is installed."""

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


def other_pythons() -> dict[str, str]:
    """One interpreter of each CPython 3.10 or later that is installed, by
    version ("3.12"), this interpreter's version aside: `python3.<minor>`
    on the path, else one that pyenv installed."""
    names = [f"python3.{minor}" for minor in range(10, 30)]
    found = [shutil.which(name) for name in names]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True).stdout.strip()
        found += [exe for name in names for exe in sorted(glob.glob(
            os.path.join(root, "versions", "*", "bin", name)))]
    this = "%d.%d" % sys.version_info[:2]
    pythons: dict[str, str] = {}
    for exe in filter(None, found):
        ran = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, "
                        "'%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True)
        name, _, version = ran.stdout.strip().partition(" ")
        if ran.returncode == 0 and name == "cpython" and version != this:
            pythons.setdefault(version, exe)
    return dict(sorted(pythons.items(),
                       key=lambda item: tuple(map(int, item[0].split(".")))))


OTHER_PYTHONS = other_pythons()


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_model_checks_on_python(version):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ran = subprocess.run([OTHER_PYTHONS[version],
                          str(ROOT / "tests" / "model_checks.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == f"{len(model_checks.CHECKS)} model checks passed\n"
