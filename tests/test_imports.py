"""Every module of the package uses each name it imports, and every name
a module defines at its top level is read in the package or exported.

No linter runs on this package, so a change that deletes the last use of
an imported name or of a helper, constant or lock would otherwise leave it
behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainocrs"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import math\nfrom x import a, b as c\nprint(a)\n") == [
        "math (line 1)", "c (line 2)"
    ]


# The package's __init__ imports names only to export them.
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Functions, classes and assigned names at the top level of the modules
    in ``sources`` (file name to text) that no module reads, bare or as
    ``module.name``, and that ``__init__.py`` does not import to export."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    modules = {Path(name).stem for name in sources}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                read.add(node.attr)
    if "__init__.py" in trees:
        read |= {
            alias.asname or alias.name
            for node in ast.walk(trees["__init__.py"])
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    unread = []
    for name, tree in sorted(trees.items()):
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{name}: {d} (line {node.lineno})" for d in defined if d not in read]
    return unread


def test_unread_definition_is_found():
    sources = {
        "__init__.py": "from .a import f\n",
        "a.py": "import b\nLIMIT = 3\n_lock = 1\ndef f():\n    return b.g()\ndef h():\n    pass\n",
        "b.py": "def g():\n    return 0\nclass C:\n    pass\n",
    }
    assert unread_definitions(sources) == [
        "a.py: LIMIT (line 2)", "a.py: _lock (line 3)", "a.py: h (line 6)", "b.py: C (line 3)"
    ]


def test_every_definition_is_read_or_exported():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []
