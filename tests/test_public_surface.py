"""The library's public names that nothing in the program names yet.

A public function, class or method of ``src/gevreykit`` that no file under
``src/`` or ``benchmarks/`` names outside its own ``def`` or ``class`` line
is reachable from tests alone.  Each one must have a ROADMAP Direction
that will call it; the rest are deleted.  The set must equal the
allowlist exactly, so a name that gains a caller leaves the list, and
the list only shrinks.
"""

import ast
import re
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


def _unnamed_public_defs() -> set[str]:
    lines = [
        (path, i, line)
        for top in ("src", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
    ]
    out = set()
    for path in sorted((ROOT / "src" / "gevreykit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(text) for p, i, text in lines if (p, i) != (path, node.lineno)):
                out.add(node.name)
    return out


def test_public_names_without_a_caller_are_exactly_the_allowlist():
    assert _unnamed_public_defs() == set(AWAITING_A_CALLER)
