"""The package source keeps to Python 3.10, the oldest version it supports.

Each module is parsed with the 3.10 grammar, and its imports are checked
against the standard-library modules and `typing` names that came later.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ontodivide")
                 .glob("*.py"))
NEWER_MODULES = {"tomllib"}
NEWER_TYPING = {"Self", "Never", "LiteralString", "assert_never",
                "assert_type", "reveal_type", "Required", "NotRequired",
                "TypeVarTuple", "Unpack", "dataclass_transform"}


def py310_problems(text: str) -> list[str]:
    """What in `text` Python 3.10 cannot run; [] if nothing."""
    try:
        tree = ast.parse(text, feature_version=(3, 10))
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "typing":
                problems += [f"line {node.lineno}: typing.{alias.name}"
                             for alias in node.names
                             if alias.name in NEWER_TYPING]
        else:
            continue
        problems += [f"line {node.lineno}: import {name}" for name in modules
                     if name.split(".")[0] in NEWER_MODULES]
    return problems


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "ontology.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_runs_on_python_310(path):
    assert py310_problems(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("text, problem", [
    ("try:\n    pass\nexcept* ValueError:\n    pass\n",
     "Exception groups are only supported in Python 3.11 and greater"),
    ("import tomllib\n", "import tomllib"),
    ("from tomllib import loads\n", "import tomllib"),
    ("from typing import Iterator, Self\n", "typing.Self"),
    ("from typing import assert_never\n", "typing.assert_never"),
])
def test_newer_features_found(text, problem):
    problems = py310_problems(text)
    assert len(problems) == 1 and problem in problems[0]
