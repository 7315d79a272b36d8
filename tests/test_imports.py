"""No module imports a name it never uses, no route of the package
reaches the joint-vector reference, and a command executes only the
modules it calls.

No linter ships with the project, so this AST scan runs as part of the test
suite.  It covers the package, the tests and the benchmark harness; the
package ``__init__`` is skipped, because its imports are re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import catsize

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


#: The dense joint-vector route: the tests' reference for the branch routes.
JOINT_ROUTE = {"FockVector", "apply_single_mode", "displacement_op", "wigner_numeric"}


def test_only_fock_and_phase_space_name_the_joint_route():
    """No other module of the package imports the joint-vector route or
    reaches it as an attribute, and the package does not re-export it."""
    found = []
    for path in sorted((ROOT / "src/catsize").rglob("*.py")):
        if path.name in ("fock.py", "phase_space.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [(path.name, node.lineno, name) for name in sorted(names & JOINT_ROUTE)]
    assert not found, found
    assert not JOINT_ROUTE & set(catsize.__all__)


#: Runs cli.main on argv and prints the catsize modules that were executed;
#: a lazily loaded layer is a ModuleType subclass until its first access.
EXECUTED_PROBE = """
import contextlib, io, sys, types
from catsize import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
executed = [n for n, m in sys.modules.items() if n.split(".")[0] == "catsize"
            and type(m) is types.ModuleType]
print(code, *sorted(executed))
"""

BASE = ["catsize", "catsize.cli", "catsize.closed_forms", "catsize.errors"]
BRANCH_LAYERS = ["catsize.fock", "catsize.phase_space"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["simulate", "distill", "--modes", "3", "--alpha", "0.8", "--trials", "100",
          "--seed", "1"], ["catsize.simulate"]),
        (["wigner", "--state", "even-cat", "--alpha", "1", "--grid=-2:2:5"], BRANCH_LAYERS),
        (["measure", "rqfi", "--modes", "2", "--alpha", "1", "--family", "quadrature"],
         ["catsize.measures", *BRANCH_LAYERS]),
        (["verify", "--suite", "fast", "--seed", "0"],
         ["catsize.measures", "catsize.simulate", "catsize.verify", *BRANCH_LAYERS]),
    ],
    ids=["simulate", "wigner", "measure", "verify"],
)
def test_a_command_executes_only_the_modules_it_calls(argv, layers):
    proc = subprocess.run(
        [sys.executable, "-c", EXECUTED_PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *sorted(BASE + layers)]


def test_import_catsize_loads_no_numpy_and_resolves_every_export():
    probe = (
        "import sys, catsize\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "for name in catsize.__all__:\n"
        "    getattr(catsize, name)\n"
        "assert set(catsize.__all__) <= set(dir(catsize))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
