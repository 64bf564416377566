"""Every imported name in the library, its tests and demos is used, no
library module imports another's private names, and every private
top-level name of a library module is read in that module.

No linter ships with the test dependencies, so the checks walk the
syntax tree with the standard ``ast`` module: a name bound by an import
counts as used when it is read anywhere in the file or listed in the
module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_files_found():
    assert any(path.parts[0] == "demos" for path in FILES)
    assert Path("src/abcfde/operators.py") in FILES


@pytest.mark.parametrize("path", FILES, ids=str)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_checker_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(source) == ["pi (line 2)"]


def private_imports(source: str) -> list[str]:
    """Names with one leading underscore that a module imports."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


@pytest.mark.parametrize("path", [p for p in FILES if p.parts[0] == "src"], ids=str)
def test_no_private_imports_between_modules(path):
    assert private_imports((ROOT / path).read_text()) == []


def test_checker_flags_a_private_import():
    source = "from . import __version__\nfrom .solver import _lattice, lattice\n"
    assert private_imports(source) == ["_lattice (line 2)"]


def unread_private_names(source: str) -> list[str]:
    """Private top-level names (one leading underscore) of a module that
    nothing in it reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", [p for p in FILES if p.parts[0] == "src"], ids=str)
def test_every_private_name_is_read_in_its_module(path):
    assert unread_private_names((ROOT / path).read_text()) == []


def test_checker_flags_an_unread_private_name():
    source = (
        "_A, _B = 1, 2\n__all__ = []\n\n\ndef _used():\n    return _A\n\n\n"
        "def _dead():\n    return _used()\n\n\nclass _Gone:\n    pass\n"
    )
    assert unread_private_names(source) == ["_B (line 1)", "_dead (line 9)", "_Gone (line 13)"]
