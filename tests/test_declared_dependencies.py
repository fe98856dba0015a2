"""Every third-party module the tests import is declared in pyproject.toml.

An environment installed from ``.[test]`` alone must be able to run the
whole suite, so each top-level module imported anywhere under ``tests/``
(function-local imports included) is the standard library's, the
project's own, or a distribution named in ``dependencies`` or in the
``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _distribution(requirement: str) -> str:
    # the name before any version, extra or marker, in import-name form
    return re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")


def test_every_third_party_test_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        _distribution(r)
        for r in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    tests = sorted((ROOT / "tests").rglob("*.py"))
    local = {"gevreykit", *(p.stem for p in tests)}
    imported = set().union(*map(_imported_modules, tests))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party >= {"numpy", "pytest", "hypothesis"}
    assert third_party <= declared, sorted(third_party - declared)
