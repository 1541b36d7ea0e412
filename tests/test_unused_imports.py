"""Every name a module of the package imports is used in it, and every
name it defines at its top level is used somewhere: in the package, in the
benchmark's scripts or in the README. The package's ``__init__`` imports
names to export them, and is left out."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hemoflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no other name in
    it refers to. ``__future__`` imports bind no name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(tau, system)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


#: where a name of the package may be used besides the package itself: the
#: benchmark's scripts and the README
ELSEWHERE = "\n".join(p.read_text() for p in (
    *sorted((PACKAGE.parents[1] / "perfbench").glob("*.py")),
    PACKAGE.parents[1] / "README.md"))


def module_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) of each function, class and assigned
    name at the top level of a module; dunder names are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("__")]


def unused_names(source: str, others: list[str], elsewhere: str) -> list[str]:
    """The module-level names of ``source`` named nowhere but in their own
    definition: not read by another of its top-level statements, not
    imported or read as an attribute by a module of ``others``, and not a
    word of ``elsewhere``."""
    tree = ast.parse(source)
    outside = set()
    for other in others:
        for node in ast.walk(ast.parse(other)):
            if isinstance(node, ast.ImportFrom):
                outside.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                outside.add(node.attr)
    unused = []
    for name, definition in module_level_names(tree):
        read = any(isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load)
                   for stmt in tree.body if stmt is not definition
                   for node in ast.walk(stmt))
        if not (read or name in outside
                or re.search(rf"\b{re.escape(name)}\b", elsewhere)):
            unused.append(name)
    return unused


def test_finds_an_unused_name():
    source = ("A, B = 1, 2\nC: int = A\n\n\ndef f():\n    return f()\n\n\n"
              "class G:\n    pass\n\n\ndef h():\n    return B\n")
    assert unused_names(source, [], "") == ["C", "f", "G", "h"]
    assert unused_names(source, ["from .m import f\nx.G\n"], "see `h`") == ["C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_name_is_used(path):
    others = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p != path]
    assert unused_names(path.read_text(), others, ELSEWHERE) == []
