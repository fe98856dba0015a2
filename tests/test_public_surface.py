"""The library's public names that nothing in the program uses yet.

A public function, class or method of ``src/gevreykit`` counts as used
when some file under ``src/`` or ``benchmarks/`` reads it as a name or
an attribute (an ``ast.Name`` or ``ast.Attribute``) outside its own
definition.  Docstrings, error messages, comments and the ``__init__``
re-export do not use a name.  An unused name is reachable from tests
alone, and it must be listed in one of two sets:

- ``AWAITING_A_CALLER``: the ROADMAP Direction that will call it;
- ``TEST_ORACLES``: the test that compares the program against it.

The rest are deleted.  The unused names must equal the two sets
exactly, so a name that gains a caller leaves its set, and both sets
only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> the ROADMAP Direction that will call it
AWAITING_A_CALLER = {
    "superposition_log_bound": "Direction 3: superposition bound against a class-saturating witness",
    "reciprocal_log_bound": "Direction 4: D^beta (1/P_m) against the inverse-closedness bound",
    "inv_pm_derivative": "Direction 4: the measured D^beta (1/P_m)",
    "inv_pm_derivative_jet_check": "Direction 4: the independent jet route for D^beta (1/P_m)",
    "ellipticity_bounds": "Direction 4: min |a_m|; Direction 6: Char(P) per cone",
    "seminorm_log": "Direction 4: a_m's seminorm amplitude from measured sups, at h = 1",
    "principal_symbol": "Direction 6: P_m(x, xi) where Char(P) is read",
}

# name -> the test that compares the program against it
TEST_ORACLES = {
    "composition_multinomial_sum": "tests/test_acceptance.py::test_criterion_2_exact_combinatorics",
    "enumeration_equivalence_detail": "tests/test_acceptance.py::test_criterion_7_wavefront_scans",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as an ast Name or Attribute outside a definition of the
    same name."""
    used = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, _DEFS):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _unused_public_defs() -> set[str]:
    used = set()
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text()))
    defined = {
        node.name
        for path in sorted((ROOT / "src" / "gevreykit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, _DEFS) and not node.name.startswith("_")
    }
    return defined - used


def test_public_names_without_a_caller_are_exactly_the_allowlist():
    assert not AWAITING_A_CALLER.keys() & TEST_ORACLES.keys()
    assert _unused_public_defs() == AWAITING_A_CALLER.keys() | TEST_ORACLES.keys()
    for test in TEST_ORACLES.values():
        path, _, name = test.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert any(isinstance(n, ast.FunctionDef) and n.name == name for n in tree.body), test
