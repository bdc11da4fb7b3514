"""The package imports nothing outside the standard library and itself, its
arithmetic is exact (no float literal appears in its source), every
exported name resolves and every definition is used."""

import ast
import sys
from pathlib import Path

import superroot

SRC = Path(superroot.__file__).parent


def test_only_stdlib_imports():
    allowed = set(sys.stdlib_module_names) | {"superroot"}
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_rootspace_imports_nothing_from_the_package():
    # rootspace is lattice arithmetic only: no form, and no Cartan data to build one
    tree = ast.parse((SRC / "rootspace.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "superroot", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "superroot" for a in node.names), ast.dump(node)


def test_no_float_literals():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (
                    path.name, node.lineno, node.value)


def test_every_exported_name_resolves():
    assert len(superroot.__all__) == len(set(superroot.__all__))
    for name in superroot.__all__:
        assert hasattr(superroot, name), name


def test_every_definition_is_referenced():
    # each non-dunder function, method or class of the package occurs as a
    # name, an attribute or an ``__all__`` string outside its own definition,
    # somewhere in the package, its tests or its benchmark
    repo = Path(__file__).resolve().parents[1]
    files = [p for d in (SRC, repo / "tests", repo / "perfbench") for p in sorted(d.glob("*.py"))]
    uses, defs = {}, []  # name -> [(path, line)]; (path, first line, last line, name)
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for c in ast.walk(node.value):
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        uses.setdefault(c.value, []).append((path, c.lineno))
            elif (path.parent == SRC
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((path, node.lineno, node.end_lineno, node.name))
    assert defs
    unused = [f"{path.name}:{first} {name}" for path, first, last, name in defs
              if all(p == path and first <= line <= last for p, line in uses.get(name, ()))]
    assert not unused, unused
