"""No module imports a name it never uses.

No linter ships with the project, so this AST scan runs as part of the test
suite.  It covers the package, the tests and the benchmark harness; the
package ``__init__`` is skipped, because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/catsize", "tests", "bench")


def _sources():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _annotation_names(node) -> set:
    """Names inside a string annotation such as ``-> "FockVector"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every imported binding that no expression reads."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            for annotation in annotations + [node.returns]:
                used |= _annotation_names(annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", list(_sources()), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_scan_flags_an_unused_name_and_keeps_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .fock import density, trace_norm\n"
        "def f(x: 'Vec') -> np.ndarray:\n"
        "    from fractions import Fraction\n"
        "    return os.path.join(trace_norm(x), Fraction(1))\n"
    )
    assert unused_imports(source) == [(4, "density")]
