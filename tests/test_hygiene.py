"""Every module-level function and class in ``src/alertanet`` has a use in the program.

A name has a use when code in ``src/alertanet`` or ``perfbench`` (not its tests)
refers to it, outside the name's own definition, or when the package exports it
in ``alertanet.__all__``.  Strings and comments are not code, so a name that
only a docstring mentions has no use.  Code that only the tests call belongs in
the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import alertanet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alertanet"


def referenced(node) -> Counter:
    """How often code under ``node`` names each identifier, as a variable or an attribute."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def unused_definitions(package: Path, users: list[Path], exported: set[str]) -> list[str]:
    """``module.name`` of every module-level def or class in ``package`` with no use."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted({*package.glob("*.py"), *users})}
    uses = sum((referenced(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(package.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in exported and uses[node.name] <= referenced(node)[node.name]:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_module_level_definition_has_a_use():
    users = sorted((ROOT / "perfbench").glob("*.py"))
    assert users, "perfbench sources not found"
    assert unused_definitions(PACKAGE, users, set(alertanet.__all__)) == []


def test_a_definition_only_tests_call_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ops.py").write_text(
        '"""concat_rows and helper are documented here."""\n\n\n'
        "def concat_rows(parts):  # helper\n    return concat_rows(parts[1:]) if parts else []\n\n\n"
        "def helper():\n    return 1\n\n\ndef exported():\n    return helper()\n",
        encoding="utf-8",
    )
    assert unused_definitions(package, [], {"exported"}) == ["ops.concat_rows"]
