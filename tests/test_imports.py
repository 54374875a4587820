"""No module of the package imports a name it never uses, and no private
name of the package outlives its last reader.

No linter ships with the project, so this reads each module's syntax tree.
``__init__`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multifact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_name():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: field"]
    assert unused_imports("import os.path\nos.sep\n") == []


def private_names(source: str) -> dict[str, int]:
    """Module-level and class-level names with one leading underscore."""
    tree = ast.parse(source)
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    out: dict[str, int] = {}
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    out[name] = node.lineno
    return out


def names_read(source: str) -> set[str]:
    """Names loaded, attributes loaded, names imported and string constants,
    the last because a monkeypatch target is a string."""
    out: set[str] = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unread_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The private names the ``modules`` define that no module or reader reads."""
    read = set().union(*map(names_read, [*modules.values(), *readers]))
    return [
        f"{path} line {line}: {name}"
        for path, source in modules.items()
        for name, line in private_names(source).items()
        if name not in read
    ]


def test_every_private_name_has_a_reader():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in TESTS]
    assert unread_private_names(modules, readers) == []


def test_the_guard_sees_an_unread_private_name():
    source = "def _helper():\n    pass\n\nclass A:\n    def _used(self):\n        pass\n\nA()._used()\n"
    assert unread_private_names({"m.py": source}, []) == ["m.py line 1: _helper"]
    assert unread_private_names({"m.py": source}, ["setattr(m, '_helper', None)"]) == []
