"""Static checks over the package's own sources."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import symppl

SOURCES = sorted(Path(symppl.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["os", "b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dataclass_classes(source: str) -> list[str]:
    """Classes declared with a ``dataclass`` decorator, bare or called.
    Each costs about a millisecond of import, and ``lang.immutable`` or a
    plain slotted class is the package's declaration of a class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                out.append(node.name)
    return out


def test_frozen_dataclass_is_found():
    source = ("@dataclass(frozen=True, slots=True)\nclass A:\n    x: int\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    pass\n"
              "@dataclass(slots=True)\nclass C:\n    pass\n"
              "@immutable\nclass D:\n    pass\n"
              "@dataclass\nclass E:\n    pass\n"
              "@dataclasses.dataclass\nclass F:\n    pass\n"
              "@functools.total_ordering\nclass G:\n    pass\n")
    assert dataclass_classes(source) == ["A", "B", "C", "E", "F"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_frozen_dataclass(path):
    assert dataclass_classes(path.read_text()) == []


def subst_readers(source: str, module: str) -> list[str]:
    """The functions of ``module`` that read ``runtime.subst``, by qualified
    name, once per reading; the recursion inside ``subst`` itself aside."""
    tree = ast.parse(source)
    aliases = {"subst"} if module == "runtime" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "runtime":
            aliases |= {a.asname or a.name for a in node.names if a.name == "subst"}
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id in aliases)
                or (isinstance(node, ast.Attribute) and node.attr == "subst"
                    and getattr(node.value, "id", None) == "runtime")):
            if not (module == "runtime" and scope[:1] == ("subst",)):
                out.append(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_subst_reader_is_found():
    source = ("from .runtime import subst as s\nfrom . import runtime\n"
              "class A:\n    def f(self):\n        return map(s, [])\n"
              "def g():\n    return runtime.subst(1)\n")
    assert subst_readers(source, "analysis") == ["analysis.A.f", "analysis.g"]
    source = "def subst(e):\n    return subst(e)\ndef h():\n    return subst(2)\n"
    assert subst_readers(source, "runtime") == ["runtime.h"]


def test_subst_only_closes_main():
    # a paused particle keeps its frames' environments (``lang.ELetK``), so
    # substitution only closes ``main`` over ``data``: for a run and for the
    # analysis; the evaluation loop never substitutes
    readers = [r for path in SOURCES for r in subst_readers(path.read_text(), path.stem)]
    assert sorted(readers) == ["analysis.analyze", "runtime.run_model"]


def test_importing_the_package_leaves_numpy_random_unloaded():
    # every command imports the package, and only filters that draw need
    # numpy.random, whose import costs about 15 ms
    code = "import sys, symppl.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "False"
