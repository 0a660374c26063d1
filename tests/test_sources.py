"""Static checks over the package's own sources."""

import ast
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


def frozen_dataclasses(source: str) -> list[str]:
    """Classes declared with ``dataclass(frozen=True, ...)``, which builds
    each field through ``object.__setattr__``: ``lang.immutable`` is the
    package's declaration of an immutable class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            if (isinstance(dec, ast.Call)
                    and getattr(dec.func, "id", getattr(dec.func, "attr", None)) == "dataclass"
                    and any(k.arg == "frozen" and getattr(k.value, "value", False)
                            for k in dec.keywords)):
                out.append(node.name)
    return out


def test_frozen_dataclass_is_found():
    source = ("@dataclass(frozen=True, slots=True)\nclass A:\n    x: int\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    pass\n"
              "@dataclass(slots=True)\nclass C:\n    pass\n"
              "@immutable\nclass D:\n    pass\n")
    assert frozen_dataclasses(source) == ["A", "B"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_frozen_dataclass(path):
    assert frozen_dataclasses(path.read_text()) == []
